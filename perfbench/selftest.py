"""Show that every output check rejects a wrong answer.

For each workload this takes a right answer, confirms the workload's check
accepts it, then feeds the check wrong answers one at a time and confirms
each is rejected. Right answers come from one round of the program for
lex-existence, hier-consistency and middle-ground. For paper-gadgets only
the small random profiles are run; the three gadget answers are written out
here (the moral-machine witness, the grounds of the nonuniqueness sweep,
"none"), so the test does not wait half a minute for the two big requests.

Usage: python3 perfbench/selftest.py [--seed N]
Exits 0 when every right answer passes and every wrong one is caught.
"""

from __future__ import annotations

import argparse
import copy
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _answers(wl, labels=None):
    import concord

    profiles = {doc.name: concord.parse_profile(doc.text) for doc in wl.docs}
    return {label: call() for label, call in wl.requests(profiles)
            if labels is None or label in labels}


def _violating_order(stmts, n):
    """A single-variable lexicographic order that breaks some statement."""
    for v in range(n):
        if not all(_lex_holds((v,), s) for s in stmts):
            return (v,)
    raise AssertionError("every single-variable order satisfies the set")


def _lex_holds(order, stmt):
    a, b, strict = stmt
    for v in order:
        if a[v] != b[v]:
            return a[v] > b[v]
    return not strict


def _violating_levels(doc):
    for v in range(len(doc.statements[0][0])):
        levels = ((v,),)
        if not all(inputs.satisfies(levels, s, doc.combiner, doc.meta["top"])
                   for s in doc.statements):
            return levels
    raise AssertionError("every single-variable model satisfies " + doc.name)


def lex_cases(seed):
    wl = workloads.lex_existence(random.Random(seed))
    got = _answers(wl)
    split, agree, none = wl.docs
    n = split.meta["n"]
    cands = checks.lex_candidates(n)
    sh, stmts = split.stakeholders[0]
    cases = [
        ("split: existence denied", "split/exists", (False, False, None)),
        ("split: witness not a candidate", "split/exists", (True, False, stmts[1])),
        ("split: union called consistent", "split/union", (True, (0,))),
        ("split: stakeholder called inconsistent", "split/" + sh, (False, None)),
        ("split: stakeholder witness breaks a statement", "split/" + sh,
         (True, _violating_order(stmts, n))),
        ("agree: existence not via the union", "agree/exists", (True, False, cands[0])),
        ("agree: union called inconsistent", "agree/union", (False, None)),
        ("none: a candidate that fails the definition", "none/exists",
         (True, False, cands[0])),
    ]
    return wl, got, cases


def hier_cases(seed):
    wl = workloads.hier_consistency(random.Random(seed))
    got = _answers(wl)
    made = {doc.name: doc for doc in wl.docs}
    yes = next(d for d in made.values() if d.meta["kind"] == "subset-sum"
               and got[d.name][0])
    no = next(d for d in made.values() if d.meta["kind"] == "subset-sum"
              and not got[d.name][0])
    planted = next(d for d in made.values() if d.meta["kind"] == "planted"
                   and d.combiner == "sum")
    rnd = next(d.name for d in made.values() if d.meta["kind"] == "random")
    flip = got[rnd + "-perm"]
    cases = [
        ("subset-sum: reachable called unreachable", yes.name, (False, None)),
        ("subset-sum: unreachable called reachable", no.name, (True, ((0,),))),
        ("subset-sum: witness breaks a statement", yes.name, (True, _violating_levels(yes))),
        ("planted: called inconsistent", planted.name, (False, None)),
        ("planted: witness breaks a statement", planted.name,
         (True, _violating_levels(planted))),
        ("planted: member statement not entailed", planted.name + "/entails-0", False),
        ("random: verdict changes under permutation", rnd + "-perm",
         (not flip[0], ((0,),) if not flip[0] else None)),
    ]
    return wl, got, cases


def _payload(command, verdict, **extra):
    out = {"command": command, "verdict": verdict, "witnesses": [], "grounds": [],
           "postulates": None, "stats": {}}
    out.update(extra)
    return 0, json.dumps(out, sort_keys=True)


def middle_ground_cases(seed):
    wl = workloads.middle_ground(random.Random(seed))
    got = _answers(wl)
    exists = next(label for label, (rc, out) in got.items()
                  if label.endswith("/mg-exists") and json.loads(out)["verdict"] == "exists")
    doc = exists.split("/")[0]
    construct = json.loads(got[doc + "/mg-construct"][1])
    verified = json.loads(got[doc + "/mg-construct-verify"][1])
    fewer = dict(construct, grounds=construct["grounds"][:-1])
    failed = copy.deepcopy(verified)
    next(iter(failed["postulates"].values()))["p1"] = "fail"
    cases = [
        ("tiny mg-exists: exit code 2", exists, (2, got[exists][1])),
        ("tiny mg-exists: called none", exists, _payload("mg-exists", "none")),
        ("tiny mg-exists: tautology as witness", exists,
         _payload("mg-exists", "exists", witnesses=["(0,0) >= (0,0)"])),
        ("tiny mg-construct: a ground missing", doc + "/mg-construct",
         (0, json.dumps(fewer))),
        ("tiny --verify: postulate audit fails", doc + "/mg-construct-verify",
         (0, json.dumps(failed))),
        ("nonexistence: mg-exists says exists", "nonexistence/mg-exists",
         _payload("mg-exists", "exists", witnesses=["(1,0) > (0,0)"])),
    ]
    return wl, got, cases


def gadget_cases(seed):
    wl = workloads.paper_gadgets(random.Random(seed))
    small = [label for label, _ in wl.requests({}) if label.startswith("small-")]
    labels = ["moral-machine/mg-exists", "nonuniqueness/mg-construct",
              "nonexistence/mg-exists", "nonexistence/mg-construct"]
    got = _answers(wl, set(small))
    nu = next(d for d in wl.docs if d.name == "nonuniqueness")
    grounds = sorted(sorted(g) for g in checks.nonuniqueness_grounds(nu))
    audit = {"ground-%d" % i: {p: "pass" for p in ("p1", "p2", "p3", "p4", "p5")}
             for i in range(len(grounds))}
    got[labels[0]] = _payload("mg-exists", "exists", witnesses=["(0,1,0) > (0,0,0)"])
    got[labels[1]] = _payload("mg-construct", "exists", grounds=grounds, postulates=audit)
    got[labels[2]] = _payload("mg-exists", "none")
    got[labels[3]] = _payload("mg-construct", "none", postulates={})
    bad_audit = copy.deepcopy(audit)
    bad_audit["ground-0"]["p5"] = "fail"
    extra_stmt = [grounds[0] + ["(1,1,1,1) >= (0,0,0,0)"]] + grounds[1:]  # a tautology
    rc, out = got[small[0]]
    other = json.loads(out)
    other["grounds"] = other["grounds"][:-1] if other["grounds"] else [["(0,0,1) > (0,0,0)"]]
    cases = [
        ("moral-machine: exit code 2", labels[0], (2, got[labels[0]][1])),
        ("moral-machine: a JSON key missing", labels[0],
         (0, json.dumps({"verdict": "exists", "witnesses": ["(0,1,0) > (0,0,0)"]}))),
        ("moral-machine: tautology as witness", labels[0],
         _payload("mg-exists", "exists", witnesses=["(1,1,1) >= (0,0,0)"])),
        ("moral-machine: witness clashes with p2", labels[0],
         _payload("mg-exists", "exists", witnesses=["(1,4,0) > (2,3,3)"])),
        ("moral-machine: called none", labels[0], _payload("mg-exists", "none")),
        ("nonuniqueness: a ground missing", labels[1],
         _payload("mg-construct", "exists", grounds=grounds[1:], postulates=audit)),
        ("nonuniqueness: a ground grows a statement", labels[1],
         _payload("mg-construct", "exists", grounds=extra_stmt, postulates=audit)),
        ("nonuniqueness: postulate audit fails", labels[1],
         _payload("mg-construct", "exists", grounds=grounds, postulates=bad_audit)),
        ("nonexistence: mg-exists says exists", labels[2],
         _payload("mg-exists", "exists", witnesses=["(1,0) > (0,0)"])),
        ("nonexistence: mg-construct finds a ground", labels[3],
         _payload("mg-construct", "exists", grounds=[["(1,0) > (0,0)"]])),
        ("small profile: grounds differ from the oracle", small[0],
         (0, json.dumps(other, sort_keys=True))),
    ]
    return wl, got, cases


def drift_counted(answers: list) -> int:
    """Drift ``run.run_rounds`` counts over one round of one repeated request."""
    it = iter(answers)
    requests = [("request", lambda: next(it)) for _ in answers]
    return run.run_rounds(requests, lambda out: False, 0.0)[4]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    bad = 0
    for name, make in (("lex-existence", lex_cases), ("hier-consistency", hier_cases),
                       ("middle-ground", middle_ground_cases),
                       ("paper-gadgets", gadget_cases)):
        wl, got, cases = make(args.seed)
        problems = wl.check(got)
        print("%s: right answers %s" % (name, "accepted" if not problems else
                                        "REJECTED: %s" % problems[:3]))
        bad += bool(problems)
        for what, label, wrong in cases:
            mutated = dict(got)
            mutated[label] = wrong
            problems = wl.check(mutated)
            print("  %-50s %s" % (what, "rejected: " + problems[0][:70] if problems
                                  else "ACCEPTED"))
            bad += not problems
    same, changed = drift_counted([1, 1, 1]), drift_counted([1, 1, 2])
    print("repeats: same answers %s, a changed repeat %s" % (
        "accepted" if not same else "REJECTED", "rejected" if changed else "ACCEPTED"))
    bad += bool(same) + (not changed)
    print("selftest %s" % ("passed" if not bad else "FAILED (%d)" % bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
