"""Output checks that do not go through the program's fast paths.

Each check takes the raw inputs (``inputs.Doc``) and a plain summary of what
the program answered, and returns a list of problems; an empty list means the
answer is right. The references are computed here: a plain-Python
lexicographic greedy, the direct definition of lexicographic middle-ground
existence, a plain evaluator of hierarchical models, subset-sum reachability
and the brute-force oracles, and a model sweep for the nonuniqueness gadget.
"""

from __future__ import annotations

import itertools
import json
import re

from inputs import Raw, satisfies

JSON_KEYS = {"command", "verdict", "witnesses", "grounds", "postulates", "stats"}


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def signs(stmt: Raw) -> tuple[int, ...]:
    a, b, _ = stmt
    return tuple(_sign(x - y) for x, y in zip(a, b))


def complement(stmt: Raw) -> Raw:
    a, b, strict = stmt
    return (b, a, not strict)


def stmt_str(stmt: Raw) -> str:
    a, b, strict = stmt
    return "(%s) %s (%s)" % (",".join(map(str, a)), ">" if strict else ">=",
                             ",".join(map(str, b)))


_STMT_RE = re.compile(r"^\(([-\d,]+)\) (>=|>) \(([-\d,]+)\)$")


def parse_stmt(text: str) -> Raw:
    m = _STMT_RE.match(text)
    if m is None:
        raise ValueError("not a statement: %r" % text)
    left = tuple(int(x) for x in m.group(1).split(","))
    right = tuple(int(x) for x in m.group(3).split(","))
    return left, right, m.group(2) == ">"


# ---------------------------------------------------------------------------
# lexicographic


def lex_consistent(stmts: list[Raw]) -> bool:
    """Plain greedy: repeatedly take a variable at which no pending statement
    loses and some pending statement wins; statements decided there leave.
    Consistent when no strict statement is left pending (and, if nothing was
    ever taken, some variable ties every pending statement)."""
    if not stmts:
        return True
    rows = [signs(s) for s in stmts]
    strict = [s[2] for s in stmts]
    n = len(rows[0])
    active = list(range(len(rows)))
    avail = list(range(n))
    took = False
    while active:
        pick = -1
        for v in avail:
            win = False
            for i in active:
                x = rows[i][v]
                if x < 0:
                    break
                if x > 0:
                    win = True
            else:
                if win:
                    pick = v
                    break
        if pick < 0:
            break
        took = True
        avail.remove(pick)
        active = [i for i in active if rows[i][pick] == 0]
    if any(strict[i] for i in active):
        return False
    if took or not active:
        return True
    return any(all(rows[i][v] == 0 for i in active) for v in range(n))


def lex_candidates(n: int) -> list[Raw]:
    """The 2|V| statements that decide lexicographic existence: per variable v,
    "everything but v >= v alone" (weak) and "everything but v > nothing"
    (strict)."""
    zero = (0,) * n
    out = []
    for strict in (False, True):
        for v in range(n):
            others = tuple(0 if u == v else 1 for u in range(n))
            only_v = tuple(1 if u == v else 0 for u in range(n))
            out.append((others, zero, True) if strict else (others, only_v, False))
    return out


def lex_is_middle_ground(cand: Raw, doc) -> bool:
    """Direct definition for one candidate: compatible with every union
    statement on its own, and entailed by at least one stakeholder."""
    if not all(lex_consistent([cand, u]) for u in doc.statements):
        return False
    neg = complement(cand)
    return any(not lex_consistent(stmts + [neg]) for _, stmts in doc.stakeholders)


def check_lex_consistency(stmts: list[Raw], answer) -> list[str]:
    """``answer`` is (consistent, witness variable order or None)."""
    from concord.domain import Alternative, Combiner, Statement
    from concord.models import LexicographicModel, satisfies_set

    consistent, witness = answer
    want = lex_consistent(stmts)
    if consistent != want:
        return ["consistency verdict %s, plain greedy says %s" % (consistent, want)]
    if consistent:
        if not witness:
            return ["consistent without a witness"]
        model = LexicographicModel(tuple(witness))
        objs = [Statement(Alternative(a), Alternative(b), s) for a, b, s in stmts]
        if not satisfies_set(model, objs, Combiner("sum")):
            return ["witness %s violates a statement" % (witness,)]
    return []


def check_lex_existence(doc, answer) -> list[str]:
    """``answer`` is (exists, via_union, witness statement or None)."""
    exists, via_union, witness = answer
    union_ok = lex_consistent(doc.statements)
    if via_union or union_ok:
        if not (exists and via_union and union_ok):
            return ["union consistent=%s but answer exists=%s via_union=%s"
                    % (union_ok, exists, via_union)]
        return []
    cands = lex_candidates(doc.meta["n"])
    if exists:
        if witness not in cands:
            return ["witness %s is not one of the 2|V| candidates" % (witness,)]
        if not lex_is_middle_ground(witness, doc):
            return ["witness %s fails the direct definition" % stmt_str(witness)]
        return []
    found = next((c for c in cands if lex_is_middle_ground(c, doc)), None)
    if found is not None:
        return ["answer none, but %s is a middle ground" % stmt_str(found)]
    return []


# ---------------------------------------------------------------------------
# hierarchical


def check_hier_witness(doc, answer, want: bool | None) -> list[str]:
    """``answer`` is (consistent, witness levels or None); ``want`` the
    expected verdict when known."""
    consistent, levels = answer
    if want is not None and consistent != want:
        return ["%s: verdict %s, expected %s" % (doc.name, consistent, want)]
    if consistent:
        top = doc.meta["top"]
        bad = [s for s in doc.statements if not satisfies(levels, s, doc.combiner, top)]
        if bad:
            return ["%s: witness %s violates %s" % (doc.name, levels, stmt_str(bad[0]))]
    return []


def check_subset_sum(doc, answer) -> list[str]:
    from concord.oracle import subset_sum_brute

    want = subset_sum_brute(doc.meta["values"], doc.meta["target"])
    return check_hier_witness(doc, answer, want)


def check_random_pair(doc, copy, answer, copy_answer) -> list[str]:
    if answer[0] != copy_answer[0]:
        return ["%s: verdict %s changes to %s under permutation"
                % (doc.name, answer[0], copy_answer[0])]
    return check_hier_witness(doc, answer, None) + check_hier_witness(copy, copy_answer, None)


# ---------------------------------------------------------------------------
# middle ground (CLI outputs)


def cli_payload(answer) -> tuple[dict | None, list[str]]:
    rc, out = answer
    if rc != 0:
        return None, ["exit code %d" % rc]
    try:
        payload = json.loads(out)
    except ValueError:
        return None, ["stdout is not one JSON object: %r" % out[:80]]
    if set(payload) != JSON_KEYS:
        return None, ["JSON keys %s" % sorted(payload)]
    return payload, []


def _profile(doc):
    """The document as program objects, built from the raw statements."""
    from concord.domain import (
        Alternative, Combiner, Profile, Stakeholder, Statement, VariableSpace,
    )

    domains = tuple(tuple(d) for d in doc.meta["domains"])
    space = VariableSpace(tuple(doc.meta["names"]), domains)
    if doc.combiner == "tie":
        combiner = Combiner.tie_over(sorted({v for d in domains for v in d}))
    else:
        combiner = Combiner(doc.combiner)
    shs = tuple(
        Stakeholder(name, tuple(Statement(Alternative(a), Alternative(b), s)
                                for a, b, s in stmts))
        for name, stmts in doc.stakeholders
    )
    return Profile(space, combiner, "hier", shs)


def _is_middle_ground(s, p) -> bool:
    """A single statement meets the definition, all by brute force: it is
    non-trivial, compatible with every union statement and entailed by some
    stakeholder."""
    from concord import oracle
    from concord.domain import complement as neg

    sp, c = p.space, p.combiner
    return (not oracle.brute_tautology(s, sp, c, "hier")
            and not oracle.brute_tautology(neg(s), sp, c, "hier")
            and all(oracle.brute_consistent((s, u), sp, c, "hier")
                    for u in p.union_statements())
            and any(oracle.brute_entails(sh.statements, s, sp, c, "hier")
                    for sh in p.stakeholders))


def _full_language(p):
    from concord.domain import Alternative, Statement

    alts = [Alternative(v) for v in itertools.product(*p.space.domains)]
    return [Statement(a, b, s) for a in alts for b in alts for s in (False, True)]


def check_witness(doc, answer) -> list[str]:
    """exists, with a witness that is non-trivial, compatible with every
    union statement and entailed by some stakeholder, all by brute force."""
    from concord.domain import Alternative, Statement

    payload, errs = cli_payload(answer)
    if errs:
        return errs
    if payload["verdict"] != "exists" or len(payload["witnesses"]) != 1:
        return ["%s: verdict %r, witnesses %r"
                % (doc.name, payload["verdict"], payload["witnesses"])]
    p = _profile(doc)
    a, b, strict = parse_stmt(payload["witnesses"][0])
    s = Statement(Alternative(a), Alternative(b), strict)
    if not _is_middle_ground(s, p):
        return ["%s: witness %s is trivial, clashes with a stakeholder statement "
                "or is entailed by no stakeholder" % (doc.name, s)]
    return []


def check_exists(doc, answer) -> list[str]:
    """``mg-exists`` against the definition over the whole language: a middle
    ground exists iff some statement meets it; a witness must meet it."""
    p = _profile(doc)
    if any(_is_middle_ground(s, p) for s in _full_language(p)):
        return check_witness(doc, answer)
    return check_none(answer)


def check_none(answer) -> list[str]:
    payload, errs = cli_payload(answer)
    if errs:
        return errs
    if payload["verdict"] != "none" or payload["grounds"] or payload["witnesses"]:
        return ["nonexistence answered %r" % payload["verdict"]]
    return []


def _ground_set(grounds) -> set[frozenset[str]]:
    return {frozenset(g) for g in grounds}


def check_small(doc, answer) -> list[str]:
    """The grounds equal ``oracle.brute_mgs`` over the whole language."""
    from concord import oracle

    payload, errs = cli_payload(answer)
    if errs:
        return errs
    p = _profile(doc)
    want = oracle.brute_mgs(p, _full_language(p))
    got = _ground_set(payload["grounds"])
    if got != _ground_set([[str(s) for s in g] for g in want.grounds]):
        return ["%s: grounds differ from oracle.brute_mgs" % doc.name]
    return []


def _audit_passes(payload) -> bool:
    checks = payload["postulates"] or {}
    return len(checks) == len(payload["grounds"]) and all(
        set(v.values()) == {"pass"} for v in checks.values())


def check_verified(doc, answer) -> list[str]:
    """``mg-construct --verify``: the grounds as ``check_small``, and the
    postulate audit passes P1-P5 on every ground."""
    errs = check_small(doc, answer)
    if not errs and not _audit_passes(json.loads(answer[1])):
        errs.append("%s: postulate audit does not pass P1-P5 on every ground" % doc.name)
    return errs


def nonuniqueness_grounds(doc) -> set[frozenset[str]]:
    """Grounds by a sweep over a verdict-complete model universe.

    Under the tie combiner a level of two or more variables always ties, so a
    hierarchical model acts like the sequence of its single-variable levels:
    the 64 lexicographic orders of the 4 variables plus one all-tie model
    cover every verdict. The pool is the statements of the full language
    that are non-trivial, compatible with each stakeholder statement and
    entailed by some stakeholder; the grounds are its largest satisfied
    slices.
    """
    n, top = 4, 1
    models = [[[v] for v in order] for k in range(1, n + 1)
              for order in itertools.permutations(range(n), k)]
    models.append([list(range(n))])
    full = (1 << len(models)) - 1

    def mod(stmt: Raw) -> int:
        return sum(1 << i for i, m in enumerate(models) if satisfies(m, stmt, "tie", top))

    union = [mod(u) for u in doc.statements]
    stake = []
    for _, stmts in doc.stakeholders:
        m = full
        for t in stmts:
            m &= mod(t)
        stake.append(m)
    alts = list(itertools.product((0, 1), repeat=n))
    pool = []
    for a in alts:
        for b in alts:
            for strict in (False, True):
                s = (a, b, strict)
                m = mod(s)
                if m in (0, full) or any(m & u == 0 for u in union):
                    continue
                if any(sm & ~m == 0 for sm in stake):
                    pool.append((s, m))
    best, grounds = 0, set()
    for i in range(len(models)):
        slice_ = frozenset(stmt_str(s) for s, m in pool if m >> i & 1)
        if len(slice_) > best:
            best, grounds = len(slice_), {slice_}
        elif len(slice_) == best and best:
            grounds.add(slice_)
    return grounds


def check_nonuniqueness(doc, answer, want: set[frozenset[str]]) -> list[str]:
    payload, errs = cli_payload(answer)
    if errs:
        return errs
    got = _ground_set(payload["grounds"])
    if got != want:
        return ["nonuniqueness: %d grounds, the sweep gives %d (sizes %s vs %s)"
                % (len(got), len(want), sorted(map(len, got)), sorted(map(len, want)))]
    gd, dg = "(1,0,1,0) > (0,1,0,1)", "(0,1,0,1) > (1,0,1,0)"
    errs = []
    if len(got) < 2:
        errs.append("fewer than 2 grounds")
    if not any(gd in g for g in got) or not any(dg in g for g in got):
        errs.append("gamma>delta and delta>gamma do not both occur")
    if any(gd in g and dg in g for g in got):
        errs.append("a ground holds both gamma>delta and delta>gamma")
    if not _audit_passes(payload):
        errs.append("postulate audit does not pass P1-P5 on every ground")
    return errs
