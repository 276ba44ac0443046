"""End-to-end acceptance checks, one per shipped guarantee.

Each test appends a verdict line to the shared report (echoed after the run)
and fails loudly if its guarantee does not hold at the stated tolerance.
"""

import functools
import itertools
import random
import statistics
import string
import time

from conftest import ACCEPTANCE_LINES, DATA_DIR, random_profile

from concord import dsl
from concord.cli import main as cli_main
from concord.domain import (
    Alternative,
    Combiner,
    Profile,
    Stakeholder,
    Statement,
    VariableSpace,
    binarize,
    complement,
)
from concord.errors import ConcordError
from concord.gadgets import (
    moral_machine_fixture,
    nonexistence_fixture,
    nonuniqueness_fixture,
    subset_sum_gadget,
)
from concord.midground import (
    binary_language,
    check_postulates,
    construct_mgs,
    exists_mg_hier,
    exists_mg_lex,
    full_language,
    hier_candidates,
)
from concord.models import HierarchicalModel, level_value, satisfies, satisfies_set
from concord.oracle import brute_mgs, enumerate_lex_models, subset_sum_brute
from concord.reasoner import (
    Reasoner,
    classify,
    entails,
    is_consistent,
    is_consistent_hier,
    is_consistent_lex,
)

SUM = Combiner("sum")

# Ground sets produced along the way, consumed by the dichotomy check.
_GROUND_SETS: list[tuple[Profile, tuple[tuple[Statement, ...], ...]]] = []


def _report(num: int, ok: bool, detail: str) -> None:
    line = "criterion %2d: %s  %s" % (num, "pass" if ok else "FAIL", detail)
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@functools.lru_cache(maxsize=1)
def _nonuniqueness_construct():
    profile, _ = nonuniqueness_fixture()
    t0 = time.perf_counter()
    result = construct_mgs(profile, language="candidates")
    elapsed = time.perf_counter() - t0
    _GROUND_SETS.append((profile, result.grounds))
    return profile, result, elapsed


def test_c01_rescue_scenario_claims():
    profile, pts = moral_machine_fixture()
    sp, c = profile.space, profile.combiner
    a, b, g = pts["alpha"], pts["beta"], pts["gamma"]
    t0 = time.perf_counter()
    humans_then_children = HierarchicalModel.from_names(sp, ("adult", "child"), ("child",))
    humans_then_dogs = HierarchicalModel.from_names(sp, ("adult", "child"), ("dog",))
    dogs_only = HierarchicalModel.from_names(sp, ("dog",))
    child_adult_dog = HierarchicalModel.from_names(sp, ("child",), ("adult",), ("dog",))
    claims = [
        (satisfies(humans_then_children, Statement(a, b, True), c), True),
        (satisfies(child_adult_dog, Statement(a, b, True), c), True),
        (satisfies(humans_then_children, Statement(a, g, True), c), True),
        (satisfies(humans_then_children, Statement(g, a, False), c), False),
        (satisfies(humans_then_dogs, Statement(b, a, True), c), True),
        (satisfies(humans_then_dogs, Statement(a, g, True), c), True),
        (satisfies(dogs_only, Statement(b, a, True), c), True),
        (satisfies(dogs_only, Statement(a, g, True), c), False),
        (entails((Statement(b, a, True),), Statement(a, g, True), sp, c, "hier"), False),
        (entails((Statement(b, a, True),), Statement(g, a, True), sp, c, "hier"), False),
    ]
    elapsed = time.perf_counter() - t0
    # The first model only reaches its second level because both groups hold
    # five humans.
    humans = frozenset((0, 1))
    tie = level_value(humans, a, c) == level_value(humans, b, c) == 5
    good = sum(1 for got, want in claims if got is want)
    ok = good == len(claims) and tie and elapsed < 1.0
    _report(1, ok, "%d/%d claims match, first-level tie holds, %.3fs < 1s"
            % (good, len(claims), elapsed))


def test_c02_two_incompatible_grounds():
    profile, result, elapsed = _nonuniqueness_construct()
    _, pts = nonuniqueness_fixture()
    grounds = result.grounds
    gd = Statement(pts["gamma"], pts["delta"], True)
    dg = Statement(pts["delta"], pts["gamma"], True)
    with_gd = sum(1 for g in grounds if gd in g)
    with_dg = sum(1 for g in grounds if dg in g)
    both = sum(1 for g in grounds if gd in g and dg in g)
    sp, c = profile.space, profile.combiner
    pairwise_bad = sum(
        1
        for g1, g2 in itertools.combinations(grounds, 2)
        if is_consistent_hier(g1 + g2, sp, c).consistent
    )
    postulates_ok = all(
        check_postulates(g, profile, check_p5=True).all_pass(include_p5=True)
        for g in grounds
    )
    ok = (
        len(grounds) >= 2
        and with_gd >= 1
        and with_dg >= 1
        and both == 0
        and pairwise_bad == 0
        and postulates_ok
        and elapsed < 60.0
    )
    _report(2, ok,
            "%d grounds (%d with g>d, %d with d>g, %d with both), "
            "all pairs jointly inconsistent, P1-P5 pass, %.1fs < 60s"
            % (len(grounds), with_gd, with_dg, both, elapsed))


def test_c03_no_ground_at_all():
    profile, _ = nonexistence_fixture()
    t0 = time.perf_counter()
    cands = hier_candidates(profile.space, profile.combiner)
    expected = {
        "(0,0) >= (0,1)", "(0,0) >= (1,0)",
        "(0,1) > (0,0)", "(0,1) >= (1,0)", "(0,1) > (1,0)", "(0,1) >= (1,1)",
        "(1,0) > (0,0)", "(1,0) >= (0,1)", "(1,0) > (0,1)", "(1,0) >= (1,1)",
        "(1,1) > (0,1)", "(1,1) > (1,0)",
    }
    rendered = {str(s) for s in cands}
    direct = exists_mg_hier(profile)
    swept = brute_mgs(profile, full_language(profile.space))
    elapsed = time.perf_counter() - t0
    ok = (
        rendered == expected
        and len(cands) == 12
        and not direct.exists
        and len(swept.grounds) == 0
        and elapsed < 10.0
    )
    _report(3, ok, "12/12 candidate statements, existence and sweep both "
            "report none, %.2fs < 10s" % elapsed)


def test_c04_consistent_union_collapses():
    rng = random.Random(20260822)
    spaces = [
        VariableSpace.binary(("x", "y")),
        VariableSpace.binary(("x", "y", "z")),
    ]
    t0 = time.perf_counter()
    checked = 0
    bad = 0
    attempts = 0
    while checked < 200 and attempts < 4000:
        attempts += 1
        space = rng.choice(spaces)
        mc = rng.choice(("hier", "lex"))
        c = Combiner(rng.choice(("sum", "sum", "and")))
        try:
            prof = random_profile(rng, space, c, mc, rng.randint(2, 3), 2)
        except RuntimeError:
            continue
        union = prof.union_statements()
        if not is_consistent(union, space, c, mc).consistent:
            continue
        checked += 1
        result = construct_mgs(prof)
        report = check_postulates(result.grounds[0], prof, check_p5=True) if result.grounds else None
        if (
            len(result.grounds) != 1
            or frozenset(result.grounds[0]) != frozenset(union)
            or report is None
            or not report.all_pass(include_p5=True)
        ):
            bad += 1
        else:
            _GROUND_SETS.append((prof, result.grounds))
    elapsed = time.perf_counter() - t0
    ok = checked == 200 and bad == 0 and elapsed < 60.0
    _report(4, ok, "%d/200 union-consistent profiles collapse to the union "
            "with P1-P5, %d failures, %.1fs < 60s" % (checked, bad, elapsed))


def test_c05_subset_sum_reduction():
    rng = random.Random(404)
    times = []
    bad = 0
    for _ in range(200):
        k = rng.randint(1, 10)
        values = [rng.randint(1, 50) for _ in range(k)]
        if rng.random() < 0.5:
            target = sum(v for v in values if rng.random() < 0.5)
            target = target or rng.randint(1, sum(values))
        else:
            target = rng.randint(1, sum(values))
        gadget = subset_sum_gadget(values, target)
        t0 = time.perf_counter()
        got = is_consistent_hier(
            gadget.union_statements(), gadget.space, gadget.combiner
        ).consistent
        times.append(time.perf_counter() - t0)
        if got != subset_sum_brute(values, target):
            bad += 1
    med = statistics.median(times)
    ok = bad == 0 and med < 0.5
    _report(5, ok, "200 instances, %d disagreements, median %.4fs < 0.5s "
            "(max %.3fs)" % (bad, med, max(times)))


def _lex_brute_consistent(stmts, space, c) -> bool:
    return any(satisfies_set(m, stmts, c) for m in enumerate_lex_models(space))


def test_c06_lex_decider_matches_enumeration():
    rng = random.Random(606)
    space4 = VariableSpace.binary(("a", "b", "c", "d"))
    models4 = enumerate_lex_models(space4)
    seen = set()
    pool = []
    while len(pool) < 40:
        left = tuple(rng.randint(0, 1) for _ in range(4))
        right = tuple(rng.randint(0, 1) for _ in range(4))
        s = Statement(Alternative(left), Alternative(right), rng.random() < 0.5)
        if s not in seen:
            seen.add(s)
            pool.append(s)
    masks = []
    for s in pool:
        m = 0
        for i, model in enumerate(models4):
            if satisfies(model, s, SUM):
                m |= 1 << i
        masks.append(m)
    full = (1 << len(models4)) - 1
    grid = 0
    bad = 0
    for size in (1, 2, 3):
        for combo in itertools.combinations(range(40), size):
            grid += 1
            joint = full
            for i in combo:
                joint &= masks[i]
            want = joint != 0
            stmts = [pool[i] for i in combo]
            if is_consistent_lex(stmts, space4, SUM).consistent != want:
                bad += 1
    randoms = 0
    for _ in range(500):
        nv = rng.randint(2, 6)
        space = VariableSpace.binary(tuple(string.ascii_lowercase[:nv]))
        stmts = [
            Statement(
                Alternative(tuple(rng.randint(0, 1) for _ in range(nv))),
                Alternative(tuple(rng.randint(0, 1) for _ in range(nv))),
                rng.random() < 0.5,
            )
            for _ in range(rng.randint(1, 8))
        ]
        res = is_consistent_lex(stmts, space, SUM)
        if res.consistent != _lex_brute_consistent(stmts, space, SUM):
            bad += 1
        elif res.consistent and not satisfies_set(res.witness, stmts, SUM):
            bad += 1
        randoms += 1
    ok = grid >= 5000 and bad == 0
    _report(6, ok, "%d grid + %d random instances, %d disagreements"
            % (grid, randoms, bad))


def test_c07_binary_projection_preserves_lex():
    rng = random.Random(707)
    pairs = 0
    bad = 0
    for nv in range(1, 6):
        space = VariableSpace(
            tuple(string.ascii_lowercase[:nv]),
            tuple((0, 1, 2, 3, 4, 5) for _ in range(nv)),
        )
        models = enumerate_lex_models(space)
        for _ in range(100):
            s = Statement(
                Alternative(tuple(rng.randint(0, 5) for _ in range(nv))),
                Alternative(tuple(rng.randint(0, 5) for _ in range(nv))),
                rng.random() < 0.5,
            )
            flat = binarize(s, SUM)
            for m in models:
                pairs += 1
                if satisfies(m, s, SUM) != satisfies(m, flat, SUM):
                    bad += 1
    ok = bad == 0 and pairs > 0
    _report(7, ok, "500 statements against every lex model up to 5 variables "
            "(%d pairs), %d disagreements" % (pairs, bad))


def test_c08_lex_existence_agrees_and_scales():
    rng = random.Random(808)
    bad = 0
    checked = 0
    while checked < 300:
        nv = rng.randint(2, 4)
        space = VariableSpace.binary(tuple(string.ascii_lowercase[:nv]))
        try:
            prof = random_profile(rng, space, SUM, "lex", rng.randint(1, 3), 3)
        except RuntimeError:
            continue
        checked += 1
        got = exists_mg_lex(prof).exists
        want = bool(brute_mgs(prof, binary_language(space)).grounds)
        if got != want:
            bad += 1
    big_times = _time_big_lex_existence(rng)
    med = statistics.median(big_times)
    ok = bad == 0 and med < 0.010
    _report(8, ok, "%d small instances, %d disagreements; 50 variables x 10 "
            "stakeholders x 100 statements: median %.1fms < 10ms"
            % (checked, bad, med * 1000))


def _time_big_lex_existence(rng):
    nvars, nstake, nstmt = 50, 10, 100
    space = VariableSpace.binary(tuple("v%d" % i for i in range(nvars)))

    def one_stakeholder(name):
        order = rng.sample(range(nvars), nvars)
        first = tuple(1 if i == order[0] else 0 for i in range(nvars))
        second = tuple(1 if i == order[1] else 0 for i in range(nvars))
        stmts = [Statement(Alternative(first), Alternative(second), True)]
        while len(stmts) < nstmt:
            a = tuple(rng.randint(0, 1) for _ in range(nvars))
            b = tuple(rng.randint(0, 1) for _ in range(nvars))
            lead = next((i for i in order if a[i] != b[i]), None)
            if lead is None:
                stmts.append(Statement(Alternative(a), Alternative(b), False))
            elif a[lead] > b[lead]:
                stmts.append(Statement(Alternative(a), Alternative(b), True))
            else:
                stmts.append(Statement(Alternative(b), Alternative(a), True))
        return Stakeholder(name, tuple(stmts))

    profiles = [
        Profile(space, SUM, "lex",
                tuple(one_stakeholder("s%d" % j) for j in range(nstake)))
        for _ in range(10)
    ]
    exists_mg_lex(profiles[0])
    times = []
    for prof in profiles:
        t0 = time.perf_counter()
        exists_mg_lex(prof)
        times.append(time.perf_counter() - t0)
    return times


def test_c09_triviality_shortcut_and_duality():
    rng = random.Random(909)
    bad = 0
    for _ in range(1000):
        nv = rng.randint(1, 12)
        space = VariableSpace(
            tuple("v%d" % i for i in range(nv)),
            tuple((0, 1, 2, 3, 4, 5, 6, 7, 8, 9) for _ in range(nv)),
        )
        s = Statement(
            Alternative(tuple(rng.randint(0, 9) for _ in range(nv))),
            Alternative(tuple(rng.randint(0, 9) for _ in range(nv))),
            rng.random() < 0.5,
        )
        if Reasoner(space, SUM)._classify_row(s) is not classify(s, space, SUM):
            bad += 1
    duality_checks = 0
    duality_bad = 0
    for nv in (1, 2, 3):
        for dom in (2, 3):
            space = VariableSpace(
                tuple("v%d" % i for i in range(nv)),
                tuple(tuple(range(dom)) for _ in range(nv)),
            )
            combiners = [SUM, Combiner("min"), Combiner("max"), Combiner("product")]
            if dom == 2:
                combiners += [Combiner("and"), Combiner("or")]
            alternatives = list(space.alternatives())
            for c in combiners:
                for left in alternatives:
                    for right in alternatives:
                        for strict in (True, False):
                            s = Statement(left, right, strict)
                            kind = Reasoner(space, c)._classify_row(s)
                            dual = Reasoner(space, c)._classify_row(complement(s))
                            duality_checks += 1
                            taut = kind.value == "tautology"
                            dual_contra = dual.value == "contradiction"
                            if taut != dual_contra:
                                duality_bad += 1
    ok = bad == 0 and duality_bad == 0
    _report(9, ok, "1000 random statements fast==generic (%d disagreements); "
            "complement duality on %d exhaustive checks (%d violations)"
            % (bad, duality_checks, duality_bad))


def test_c10_distinct_grounds_are_incompatible():
    if not any(len(grounds) >= 2 for _, grounds in _GROUND_SETS):
        _nonuniqueness_construct()
    pairs = 0
    bad = 0
    for profile, grounds in _GROUND_SETS:
        if len(grounds) < 2:
            continue
        for g1, g2 in itertools.combinations(grounds, 2):
            pairs += 1
            if is_consistent(
                g1 + g2, profile.space, profile.combiner, profile.model_class
            ).consistent:
                bad += 1
    ok = pairs > 0 and bad == 0
    _report(10, ok, "%d ground pairs across the construction runs, "
            "%d jointly consistent (want 0)" % (pairs, bad))


def test_c11_goldens_and_parser_fuzz(capsys):
    fixtures = {
        "moral_machine": moral_machine_fixture()[0],
        "nonuniqueness": nonuniqueness_fixture()[0],
        "nonexistence": nonexistence_fixture()[0],
        "subset_sum": subset_sum_gadget((3, 5, 7), 8),
    }
    equal = 0
    for name, profile in fixtures.items():
        if dsl.render_profile(profile) == (DATA_DIR / ("%s.pref" % name)).read_text():
            equal += 1
        code = cli_main(["check", str(DATA_DIR / ("%s.pref" % name)), "--json"])
        out, _ = capsys.readouterr()
        if code == 0 and out == (DATA_DIR / ("%s.check.json" % name)).read_text():
            equal += 1
    rng = random.Random(111)
    corpus = [dsl.render_profile(p) for p in fixtures.values()]
    alphabet = string.printable
    crashes = 0
    fuzzed = 10_000
    for _ in range(fuzzed):
        text = list(rng.choice(corpus))
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            pos = rng.randrange(len(text) + (kind == 1))
            if kind == 0 and text:
                text[min(pos, len(text) - 1)] = rng.choice(alphabet)
            elif kind == 1:
                text.insert(pos, rng.choice(alphabet))
            elif text:
                del text[min(pos, len(text) - 1)]
        try:
            dsl.parse_profile("".join(text))
        except ConcordError:
            pass
        except Exception:
            crashes += 1
    ok = equal == 8 and crashes == 0
    _report(11, ok, "%d/8 golden files byte-identical, %d fuzz inputs, "
            "%d crashes" % (equal, fuzzed, crashes))
