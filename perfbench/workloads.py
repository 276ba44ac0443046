"""The four workloads: documents, the fixed request list, and the checks.

A request is one library call or one in-process ``concord.cli.main`` call.
Each returns a plain summary of the program's answer; each request's first
summary goes to the checks, and every repeat of it must equal it exactly.
Program functions are looked up on their module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
from dataclasses import dataclass
from typing import Callable

import checks
import inputs


@dataclass
class Workload:
    docs: list  # every inputs.Doc the set-up parses
    # profiles by document name -> [(label, request)]
    requests: Callable[[dict], list[tuple[str, Callable[[], object]]]]
    # summaries by label -> problems found
    check: Callable[[dict], list[str]]
    # a request's latencies over one run -> its typical latency. Fixed per
    # workload, so that a faster program is scored with the same statistic as
    # a slower one.
    statistic: Callable[[list[float]], float]
    # whether a request's summary reports a failed operation
    is_failure: Callable[[object], bool] = lambda out: False


def _raw(s):
    return None if s is None else (s.left.values, s.right.values, s.strict)


def _levels(res):
    if res.witness is None:
        return None
    return tuple(tuple(sorted(lv)) for lv in res.witness.levels)


# ---------------------------------------------------------------------------


def lex_existence(rng) -> Workload:
    docs = inputs.lex_inputs(rng)

    def requests(profiles):
        from concord import midground, reasoner

        def exists(p):
            res = midground.exists_mg_lex(p)
            return res.exists, res.via_union, _raw(res.witness)

        def consistent(stmts, p):
            res = reasoner.is_consistent_lex(stmts(), p.space, p.combiner)
            return res.consistent, None if res.witness is None else res.witness.variables

        out = []
        for doc in docs:
            p = profiles[doc.name]
            out.append((doc.name + "/exists", lambda p=p: exists(p)))
            for sh in p.stakeholders:
                out.append(("%s/%s" % (doc.name, sh.name),
                            lambda p=p, sh=sh: consistent(lambda: sh.statements, p)))
            out.append((doc.name + "/union", lambda p=p: consistent(p.union_statements, p)))
        return out

    def check(got):
        errs = []
        for doc in docs:
            errs += checks.check_lex_existence(doc, got[doc.name + "/exists"])
            for name, stmts in doc.stakeholders:
                errs += checks.check_lex_consistency(stmts, got["%s/%s" % (doc.name, name)])
            errs += checks.check_lex_consistency(doc.statements, got[doc.name + "/union"])
        return errs

    # A few hundred repeats a run: their best finds the machine's unhindered
    # speed whatever mix of fast and slow stretches the run saw.
    return Workload(docs, requests, check, min)


# ---------------------------------------------------------------------------

# Entailment probes per planted set, taken from the set itself. Sets under the
# max combiner get none: proving a probe there means exhausting the branch and
# bound, which ran for over a minute on one 12-variable set.
PROBES = 2


def _probes(doc) -> int:
    return PROBES if doc.meta["kind"] == "planted" and doc.combiner != "max" else 0


def hier_consistency(rng) -> Workload:
    made = inputs.hier_inputs(rng)
    pairs = made["random"]
    docs = made["gadgets"] + made["planted"] + [d for pair in pairs for d in pair]

    def requests(profiles):
        from concord import reasoner

        def consistent(p):
            res = reasoner.is_consistent_hier(p.union_statements(), p.space, p.combiner)
            return res.consistent, _levels(res)

        def entails(p, i):
            stmts = p.union_statements()
            return reasoner.entails(stmts, stmts[i], p.space, p.combiner, "hier")

        out = []
        for doc in docs:
            p = profiles[doc.name]
            out.append((doc.name, lambda p=p: consistent(p)))
            for i in range(_probes(doc)):
                out.append(("%s/entails-%d" % (doc.name, i), lambda p=p, i=i: entails(p, i)))
        return out

    def check(got):
        errs = []
        for doc in made["gadgets"]:
            errs += checks.check_subset_sum(doc, got[doc.name])
        for doc in made["planted"]:
            errs += checks.check_hier_witness(doc, got[doc.name], True)
            for i in range(_probes(doc)):
                if got["%s/entails-%d" % (doc.name, i)] is not True:
                    errs.append("%s: member statement %d not entailed" % (doc.name, i))
        for doc, copy in pairs:
            errs += checks.check_random_pair(doc, copy, got[doc.name], got[copy.name])
        return errs

    # Five to eight repeats a run: a best of so few depends on catching a fast
    # moment, their median less so.
    return Workload(docs, requests, check, statistics.median)


# ---------------------------------------------------------------------------


def cli_call(argv: list[str], text: str) -> tuple[int, str]:
    """``concord <argv>`` in this process, with ``text`` on stdin."""
    from concord import cli

    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


MG_EXISTS = ["mg-exists", "-", "--json"]
MG_CONSTRUCT = ["mg-construct", "-", "--json"]
MG_VERIFY = ["mg-construct", "-", "--language", "candidates", "--verify", "--json"]


def middle_ground(rng) -> Workload:
    made = inputs.middle_ground_inputs(rng)
    tiny, nonexistence = made["tiny"], made["nonexistence"]
    plan = [(doc.name + suffix, doc, argv) for doc in tiny for suffix, argv in (
        ("/mg-exists", MG_EXISTS), ("/mg-construct", MG_CONSTRUCT),
        ("/mg-construct-verify", MG_VERIFY))]
    plan += [("nonexistence/mg-exists", nonexistence, MG_EXISTS),
             ("nonexistence/mg-construct", nonexistence, MG_CONSTRUCT)]

    def requests(profiles):
        return [(label, lambda d=doc, a=argv: cli_call(a, d.text)) for label, doc, argv in plan]

    def check(got):
        errs = checks.check_none(got["nonexistence/mg-exists"])
        errs += checks.check_none(got["nonexistence/mg-construct"])
        for doc in tiny:
            errs += checks.check_exists(doc, got[doc.name + "/mg-exists"])
            errs += checks.check_small(doc, got[doc.name + "/mg-construct"])
            errs += checks.check_verified(doc, got[doc.name + "/mg-construct-verify"])
        return errs

    # Requests of a few milliseconds, repeated in about a hundred rounds a run:
    # their best finds the machine's unhindered speed, as on lex-existence.
    return Workload([nonexistence] + tiny, requests, check, min,
                    is_failure=lambda out: out[0] != 0)


def paper_gadgets(rng) -> Workload:
    made = inputs.gadget_inputs(rng)
    fixed, small = made["fixed"], made["small"]
    # Every small profile is requested six times a round, twice before, between
    # and after the two big requests, so its median latency is taken over three
    # stretches of the round rather than one.
    small_passes = [(doc.name + "/mg-construct", doc, MG_CONSTRUCT) for doc in small] * 2
    plan = (
        small_passes
        + [("moral-machine/mg-exists", fixed["moral-machine"], MG_EXISTS)]
        + small_passes
        + [("nonuniqueness/mg-construct", fixed["nonuniqueness"], MG_VERIFY)]
        + small_passes
        + [("nonexistence/mg-exists", fixed["nonexistence"], MG_EXISTS),
           ("nonexistence/mg-construct", fixed["nonexistence"], MG_CONSTRUCT)]
    )

    def requests(profiles):
        return [(label, lambda d=doc, a=argv: cli_call(a, d.text)) for label, doc, argv in plan]

    def check(got):
        errs = checks.check_witness(fixed["moral-machine"], got["moral-machine/mg-exists"])
        want = checks.nonuniqueness_grounds(fixed["nonuniqueness"])
        errs += checks.check_nonuniqueness(
            fixed["nonuniqueness"], got["nonuniqueness/mg-construct"], want)
        errs += checks.check_none(got["nonexistence/mg-exists"])
        errs += checks.check_none(got["nonexistence/mg-construct"])
        for doc in small:
            errs += checks.check_small(doc, got[doc.name + "/mg-construct"])
        return errs

    # One round a run, each small profile six times in it: the median.
    return Workload(list(fixed.values()) + small, requests, check, statistics.median,
                    is_failure=lambda out: out[0] != 0)


WORKLOADS = {
    "lex-existence": lex_existence,
    "hier-consistency": hier_consistency,
    "middle-ground": middle_ground,
    "paper-gadgets": paper_gadgets,
}
