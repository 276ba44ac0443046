"""Candidate languages, existence deciders, construction, postulates."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from concord.domain import (
    BUILTIN_KINDS,
    Alternative,
    Combiner,
    Profile,
    Stakeholder,
    Statement,
    Triviality,
    VariableSpace,
)
from concord import dsl, midground, reasoner
from concord.errors import CapacityError, TrivialStakeholderError
from concord.midground import (
    _candidate_pool,
    _group_equivalent,
    _resolve_language,
    binary_language,
    check_postulates,
    construct_mgs,
    exists_mg_hier,
    exists_mg_lex,
    full_language,
    hier_candidates,
    lex_candidates,
)
from concord.oracle import (
    brute_consistent,
    brute_entails,
    brute_mgs,
    brute_p5,
    brute_tautology,
)
from concord.reasoner import (
    Limits,
    Reasoner,
    classify,
    entails,
    equivalent,
    is_consistent,
)
from concord.results import FAIL, NOT_CHECKED, PASS
from concord.gadgets import nonexistence_fixture, nonuniqueness_fixture
from conftest import random_profile, reference_row, stmt

SUM = Combiner("sum")
SP2 = VariableSpace.binary(("x", "y"))
SP3 = VariableSpace.binary(("x", "y", "z"))


def pool_of(profile, lang, r):
    """The statements of ``lang`` that ``_candidate_pool`` keeps, in order."""
    return [lang[k] for k, _ in _candidate_pool(profile, r.prepare(lang), r)]


def lex_profile(*stakeholder_sets, space=SP2, c=SUM):
    return Profile(
        space, c, "lex",
        tuple(
            Stakeholder("s%d" % i, tuple(states))
            for i, states in enumerate(stakeholder_sets)
        ),
    )


# ---------------------------------------------------------------------------
# languages and candidate sets


def test_full_language_counts_ordered_pairs_twice():
    lang = full_language(SP2)
    assert len(lang) == 4 * 4 * 2


def test_full_language_capacity():
    with pytest.raises(CapacityError):
        full_language(SP3, Limits(max_language=100))


def test_binary_language_sign_forms():
    lang = binary_language(SP2)
    # 3 signs per variable, strict and weak each
    assert len(lang) == (3 ** 2) * 2
    assert stmt((1, 0), (0, 1)) in lang
    assert stmt((0, 0), (0, 0), strict=False) in lang


def test_lex_candidates_example_and_count():
    cands = lex_candidates(SP3)
    assert len(cands) == 2 * 3
    # weak block first; for v=x the weak candidate is (0,1,1) >= (1,0,0)
    assert cands[0] == stmt((0, 1, 1), (1, 0, 0), strict=False)
    # the strict block keeps the same left side against the zero alternative
    assert stmt((0, 1, 1), (0, 0, 0), strict=True) in cands


def test_lex_candidates_all_nontrivial():
    for sp in (SP2, SP3, VariableSpace.binary(("a", "b", "c", "d"))):
        for s in lex_candidates(sp):
            assert classify(s, sp, SUM, "lex") is Triviality.NON_TRIVIAL


def test_hier_candidates_are_exactly_the_nontrivial_statements():
    c = Combiner("and")
    cands = hier_candidates(SP2, c)
    assert len(cands) == 12
    for s in cands:
        assert classify(s, SP2, c, "hier") is Triviality.NON_TRIVIAL
    full = full_language(SP2)
    nontrivial = [
        s for s in full
        if classify(s, SP2, c, "hier") is Triviality.NON_TRIVIAL
    ]
    assert set(cands) == set(nontrivial)


def test_hier_candidates_built_once_per_reasoner(monkeypatch):
    # construction over the candidate language, then P5 for each ground,
    # share one build of the language per request; a new request over the
    # same space reads that build, so it is built once per space
    builds = []
    real = reasoner.CompiledSpace._build_language
    monkeypatch.setattr(
        reasoner.CompiledSpace, "_build_language",
        lambda self, *a: builds.append(self) or real(self, *a),
    )
    monkeypatch.setattr(reasoner, "_compiled", None)
    c = Combiner("max")
    profile = Profile(SP3, c, "hier", (
        Stakeholder("a", (stmt((1, 0, 0), (0, 1, 0)),)),
        Stakeholder("b", (stmt((0, 1, 0), (1, 0, 0)),)),
    ))
    r = Reasoner(SP3, c, "hier")
    res = midground._construct_mgs(profile, "candidates", r)
    assert res.grounds and res.exhaustive
    for ground in res.grounds:
        assert midground._check_postulates(ground, profile, True, r).p5.verdict == PASS
    assert len(builds) == 1
    assert hier_candidates(SP3, c) == midground._hier_candidates(r)
    assert len(builds) == 1
    # a request over another combiner builds its own
    hier_candidates(SP3, Combiner("min"))
    assert len(builds) == 2


def test_statements_built_only_for_what_leaves_the_request(monkeypatch):
    """The hierarchical language, pool, grouping, search and P5 scan run on
    rows: existence builds one ``Statement``, its witness; construction one
    per pool member at most; the P5 audit of its grounds none."""
    profile, _ = nonuniqueness_fixture()
    built = []
    init = Statement.__init__
    monkeypatch.setattr(
        Statement, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k)
    )
    assert exists_mg_hier(profile).witness is not None
    assert len(built) == 1
    for language in ("full", "candidates"):
        built.clear()
        r = Reasoner(profile.space, profile.combiner)
        res = midground._construct_mgs(profile, language, r)
        assert res.stats["language"] > res.stats["pool"] >= len(built) > 0
        built.clear()
        for ground in res.grounds:
            assert midground._check_postulates(ground, profile, True, r).p5.verdict == PASS
        assert built == []


def _small_spaces():
    """1-3 variables over 0..1 or 0..2."""
    for n in (1, 2, 3):
        for top in (1, 2):
            dom = tuple(range(top + 1))
            yield VariableSpace(tuple("v%d" % i for i in range(n)), (dom,) * n)


def _combiner(kind, dom):
    return Combiner.tie_over(dom) if kind == "tie" else Combiner(kind)


@pytest.mark.parametrize("kind", BUILTIN_KINDS + ("tie",))
def test_row_built_candidates_match_the_classified_full_language(kind):
    """The candidates read off pair rows are the full language's non-trivial
    statements, in its order; the build stores the row of each and of no
    other statement, each the reference compile's, and every statement of
    the language gets the reference row."""
    for sp in _small_spaces():
        c = _combiner(kind, sp.domains[0])
        ref = Reasoner(sp, c)
        expected = tuple(
            s for s in full_language(sp) if ref.classify(s) is Triviality.NON_TRIVIAL
        )
        r = Reasoner(sp, c)
        assert midground._hier_candidates(r) == expected
        assert set(r._rows) == set(expected)
        for s, row in r._rows.items():
            assert row == reference_row(s, sp, c)
        for s in full_language(sp):
            assert r.row(s) == reference_row(s, sp, c)


@st.composite
def _p3_cases(draw):
    """A space of 1-3 variables over 0..1 or 0..2, a built-in or tie
    combiner, a union of statements each consistent alone (as
    ``_require_nontrivial`` leaves it), and a candidate as drawn, a
    tautology (a weak ``a >= a``) or a contradiction (a strict ``a > a``),
    as ``check_postulates`` can be given."""
    n = draw(st.integers(1, 3))
    dom = tuple(range(draw(st.integers(2, 3))))
    sp = VariableSpace(tuple("v%d" % i for i in range(n)), (dom,) * n)
    c = _combiner(draw(st.sampled_from(BUILTIN_KINDS + ("tie",))), dom)
    side = st.builds(Alternative, st.tuples(*[st.sampled_from(dom)] * n))
    statement = st.builds(Statement, side, side, st.booleans())
    union = [
        u for u in draw(st.lists(statement, min_size=1, max_size=4))
        if brute_consistent((u,), sp, c, "hier")
    ]
    assume(union)
    shape = draw(st.sampled_from(("drawn", "tautology", "contradiction")))
    if shape == "drawn":
        s = draw(statement)
    else:
        a = draw(side)
        s = Statement(a, a, shape == "contradiction")
    return sp, c, tuple(union), s


@settings(max_examples=400)
@given(case=_p3_cases())
def test_p3_pair_test_matches_greedy_and_oracle(case):
    sp, c, union, s = case
    r = Reasoner(sp, c)
    verdict = r.consistent_with_each(s, r.prepare(union))
    assert verdict == all(r.consistent((s, u)) for u in union)
    assert verdict == all(brute_consistent((s, u), sp, c, "hier") for u in union)


@settings(max_examples=400)
@given(case=_p3_cases())
def test_p4_pair_test_for_one_statement_stakeholders(case):
    # Each union statement as a one-statement stakeholder: P4's pair test on
    # the complement row against the greedy and the oracle, tautology and
    # contradiction candidates included.
    sp, c, union, s = case
    r = Reasoner(sp, c)
    for u in union:
        verdict = r.entailed_by_some([r.prepare((u,))], s)
        assert verdict == r.entails((u,), s)
        assert verdict == brute_entails((u,), s, sp, c, "hier")
    assert r.entailed_by_some([r.prepare((u,)) for u in union], s) == any(
        brute_entails((u,), s, sp, c, "hier") for u in union
    )


def test_hier_candidates_single_binary_variable_empty():
    # with one binary variable every statement is decided by the only level,
    # so nothing non-trivial survives
    sp = VariableSpace.binary(("x",))
    assert hier_candidates(sp, SUM) == ()


# ---------------------------------------------------------------------------
# preconditions


def test_no_stakeholders_rejected():
    profile = Profile(SP2, SUM, "hier", ())
    with pytest.raises(TrivialStakeholderError):
        exists_mg_hier(profile)


def test_inconsistent_stakeholder_rejected():
    s = stmt((1, 0), (0, 1))
    bad = Stakeholder("p", (s, stmt((0, 1), (1, 0), strict=False)))
    profile = Profile(SP2, SUM, "hier", (bad,))
    with pytest.raises(TrivialStakeholderError):
        exists_mg_hier(profile)


def test_tautology_only_stakeholder_rejected():
    taut = stmt((1, 1), (0, 0), strict=False)
    profile = Profile(SP2, Combiner("and"), "hier", (Stakeholder("p", (taut,)),))
    with pytest.raises(TrivialStakeholderError):
        exists_mg_hier(profile)
    with pytest.raises(TrivialStakeholderError):
        construct_mgs(profile)
    with pytest.raises(TrivialStakeholderError):
        check_postulates((taut,), profile)


# ---------------------------------------------------------------------------
# existence, hierarchical


def test_exists_hier_consistent_union_short_circuit():
    profile = Profile(
        SP2, SUM, "hier",
        (Stakeholder("p", (stmt((1, 0), (0, 1)),)),),
    )
    res = exists_mg_hier(profile)
    assert res.exists and res.via_union


def test_exists_hier_nonexistence_fixture():
    profile, _ = nonexistence_fixture()
    res = exists_mg_hier(profile)
    assert not res.exists
    assert not res.via_union
    assert res.stats == {"candidates": 12, "pool": 0}


def test_exists_hier_nonuniqueness_fixture():
    profile, alts = nonuniqueness_fixture()
    res = exists_mg_hier(profile)
    assert res.exists and not res.via_union
    assert res.witness is not None
    # the two statements distinguished by the construction are both available
    pool = pool_of(
        profile,
        hier_candidates(profile.space, profile.combiner),
        Reasoner(profile.space, profile.combiner),
    )
    psi1 = Statement(alts["gamma"], alts["delta"], True)
    psi2 = Statement(alts["delta"], alts["gamma"], True)
    assert psi1 in pool and psi2 in pool
    assert res.witness in pool


def test_exists_hier_stops_at_first_pool_member():
    profile, _ = nonuniqueness_fixture()
    res = exists_mg_hier(profile)
    assert str(res.witness) == "(0,0,0,1) > (0,0,0,0)"
    # 350 non-trivial candidates are listed, but the scan of the 109-member
    # pool stops at its first member.
    assert res.stats == {"candidates": 350, "pool": 1}


# ---------------------------------------------------------------------------
# existence, lexicographic


def test_exists_lex_consistent_union():
    profile = lex_profile((stmt((1, 0), (0, 1)),))
    res = exists_mg_lex(profile)
    assert res.exists and res.via_union


def test_exists_lex_engineered_nonexistence():
    """Two weak statements with disjoint single-model sets kill every candidate."""
    profile = lex_profile(
        (stmt((0, 0), (0, 1), strict=False),),
        (stmt((0, 0), (1, 0), strict=False),),
    )
    res = exists_mg_lex(profile)
    assert not res.exists
    assert res.stats == {"pairwise_checks": 8, "entailment_checks": 8}


def test_exists_lex_check_counts():
    profile = lex_profile(
        (stmt((1, 0, 0), (0, 1, 0)),),
        (stmt((0, 1, 0), (1, 0, 0)),),
        space=SP3,
    )
    res = exists_mg_lex(profile)
    assert res.exists
    assert res.stats["pairwise_checks"] == 2 * 3 * 2
    assert res.stats["entailment_checks"] == 2 * 3 * 2


def test_exists_lex_witness_comes_from_candidates():
    profile = lex_profile(
        (stmt((1, 0), (0, 1)),),
        (stmt((0, 1), (1, 0)),),
    )
    res = exists_mg_lex(profile)
    assert res.exists
    assert res.witness in lex_candidates(SP2)


def test_exists_lex_reads_each_stakeholder_against_its_own_lanes():
    # Values above 127 have no 8-bit lanes, so rows are packed by rank: each
    # stakeholder's 100 values fit 8-bit lanes, the union's 200 need 16.
    rng = random.Random(1214)
    sp = VariableSpace(("x", "y", "z"), (tuple(range(400)),) * 3)

    def draw(lo):
        # 40 statements that the lexicographic model over ``order`` satisfies.
        order = rng.sample(range(3), rng.randint(1, 3))
        out = []
        for _ in range(40):
            a = tuple(rng.randrange(lo, lo + 100) for _ in range(3))
            b = tuple(v if rng.random() < 0.5 else rng.randrange(lo, lo + 100) for v in a)
            lead = next((v for v in order if a[v] != b[v]), None)
            if lead is None:
                out.append(stmt(a, b, strict=False))
            else:
                out.append(stmt(*((a, b) if a[lead] > b[lead] else (b, a)),
                                strict=rng.random() < 0.5))
        return tuple(out)

    via_union = set()
    done = 0
    while done < 30:
        sets = (draw(128), draw(228))
        if any(all(brute_tautology(s, sp, SUM, "lex") for s in stmts) for stmts in sets):
            continue
        profile = lex_profile(*sets, space=sp)
        assert len({v for s in profile.union_statements()
                    for v in s.left.values + s.right.values}) > 128
        res = exists_mg_lex(profile)
        assert res.exists == bool(brute_mgs(profile, binary_language(sp)).grounds), profile
        via_union.add(res.via_union)
        # A third stakeholder asserting only a tautology, in 8-bit rank lanes
        # of its own, breaks the precondition, as the oracle says.
        taut = stmt((300, 301, 302), (200, 200, 200))
        assert brute_tautology(taut, sp, SUM, "lex")
        with pytest.raises(TrivialStakeholderError, match="nothing falsifiable"):
            exists_mg_lex(lex_profile(*sets, (taut,), space=sp))
        done += 1
    assert via_union == {True, False}


def test_exists_lex_agrees_with_binary_construction():
    rng = random.Random(20260822)
    done = 0
    while done < 60:
        n = rng.randint(1, 3)
        sp = VariableSpace.binary(tuple("v%d" % i for i in range(n)))
        try:
            profile = random_profile(rng, sp, SUM, "lex", rng.randint(1, 3), 2)
        except RuntimeError:
            continue
        res = exists_mg_lex(profile)
        built = construct_mgs(profile, "binary")
        assert res.exists == bool(built), profile
        done += 1


# ---------------------------------------------------------------------------
# candidate pool properties


def test_pool_strict_implies_weak_closure():
    rng = random.Random(5)
    done = 0
    while done < 40:
        n = rng.randint(2, 3)
        sp = VariableSpace.binary(tuple("v%d" % i for i in range(n)))
        try:
            profile = random_profile(rng, sp, SUM, "hier", 2, 2)
        except RuntimeError:
            continue
        cands = hier_candidates(sp, SUM)
        pool = set(pool_of(profile, cands, Reasoner(sp, SUM)))
        for s in pool:
            if not s.strict:
                continue
            weak = Statement(s.left, s.right, False)
            if classify(weak, sp, SUM, "hier") is Triviality.NON_TRIVIAL:
                assert weak in pool, (profile, s)
        done += 1


def test_pool_filters_once_per_equivalence_key(monkeypatch):
    profile, _ = nonuniqueness_fixture()
    lang = hier_candidates(profile.space, profile.combiner)
    ref = Reasoner(profile.space, profile.combiner)
    facts = midground._facts(profile, ref)
    expected = [
        s
        for s in lang
        if ref.classify(s) is Triviality.NON_TRIVIAL
        and ref.consistent_with_each(s, facts.union_rows)
        and ref.entailed_by_some(facts.stakeholder_rows, s)
    ]
    keys = {ref.equivalence_key(s) for s in lang}
    assert (len(lang), len(keys)) == (350, 130)

    asked = []
    compatible = Reasoner.consistent_with_each

    def counting(self, s, others):
        asked.append(ref.equivalence_key(s))
        return compatible(self, s, others)

    monkeypatch.setattr(Reasoner, "consistent_with_each", counting)
    r = Reasoner(profile.space, profile.combiner)
    assert pool_of(profile, lang, r) == expected
    assert len(asked) == len(set(asked)) <= len(keys)


def test_audit_asks_p4_that_the_pool_filter_left_unasked():
    """The pool filter does not ask P4 of a key that fails P3; an audit in
    the same request asks it, and reports what a fresh request does."""
    profile, _ = nonuniqueness_fixture()
    r = Reasoner(profile.space, profile.combiner)
    midground._construct_mgs(profile, "candidates", r)
    verdicts = r.memo["facts"].verdicts
    skipped = [
        s for s in hier_candidates(profile.space, profile.combiner)
        if verdicts[r.equivalence_key(s)][1] is None
    ]
    reports = [check_postulates((s,), profile) for s in skipped]
    assert any(not report.p4.ok for report in reports)
    for s, report in zip(skipped, reports):
        assert midground._check_postulates((s,), profile, False, r) == report


def test_one_reasoner_keeps_each_profiles_answers_apart():
    """What a request settles about a profile is kept per profile: one
    reasoner asked about two profiles over one space, in turn, answers each
    as a fresh reasoner does."""
    c = Combiner("max")
    clash = Profile(SP3, c, "hier", (
        Stakeholder("a", (stmt((1, 0, 0), (0, 1, 0)),)),
        Stakeholder("b", (stmt((0, 1, 0), (1, 0, 0)),)),
    ))
    other = Profile(SP3, c, "hier", (
        Stakeholder("a", (stmt((0, 0, 1), (1, 0, 0)),)),
        Stakeholder("b", (stmt((1, 0, 0), (0, 0, 1)), stmt((0, 1, 0), (0, 0, 0)))),
    ))
    agree = Profile(SP3, c, "hier", (Stakeholder("a", (stmt((0, 0, 1), (1, 0, 0)),)),))
    r = Reasoner(SP3, c)
    answers = {}
    for profile in (clash, other, agree, clash, agree, other):
        res = midground._construct_mgs(profile, None, r)
        fresh = construct_mgs(profile)
        assert (res.grounds, res.stats) == (fresh.grounds, fresh.stats)
        answers.setdefault(profile, res.grounds)
        for ground in res.grounds + ((stmt((0, 1, 0), (0, 0, 1)),),):
            report = midground._check_postulates(ground, profile, True, r)
            assert report == check_postulates(ground, profile, True)
    assert len(set(answers.values())) == 3


def test_construct_rechecks_every_returned_ground(monkeypatch):
    profile, _ = nonuniqueness_fixture()
    checked = []
    satisfies_set = reasoner.satisfies_set

    def counting(model, stmts, c):
        checked.append(frozenset(stmts))
        return satisfies_set(model, stmts, c)

    monkeypatch.setattr(reasoner, "satisfies_set", counting)
    res = construct_mgs(profile, "candidates")
    assert len(res.grounds) == 4
    # One witness re-check per ground; the inner questions build none.
    assert len(checked) == 4 and set(checked) == set(map(frozenset, res.grounds))

    monkeypatch.setattr(reasoner, "satisfies_set", lambda model, stmts, c: False)
    with pytest.raises(RuntimeError, match="re-check"):
        construct_mgs(profile, "candidates")


def test_pool_filters_agree_with_postulate_audit():
    """The pool is exactly the non-trivial statements passing P3 and P4."""
    rng = random.Random(17)
    settings = [
        ("hier", SUM),
        ("hier", Combiner("max")),
        ("hier", Combiner.tie_over((0, 1))),
        ("lex", SUM),
    ]
    lang = full_language(SP2)
    done = 0
    for _ in range(400):
        if done == 40:
            break
        mc, c = settings[done % len(settings)]
        try:
            profile = random_profile(rng, SP2, c, mc, 2, 2)
        except RuntimeError:
            continue
        if is_consistent(profile.union_statements(), SP2, c, mc).consistent:
            continue
        # The pool is given the language as construction resolves it, with
        # trivial statements dropped.
        r = Reasoner(SP2, c, mc)
        pool = set(pool_of(profile, _resolve_language(profile, "full", r)[0], r))
        audited = set()
        for s in lang:
            if classify(s, SP2, c, mc) is not Triviality.NON_TRIVIAL:
                continue
            report = check_postulates((s,), profile)
            if report.p3.ok and report.p4.ok:
                audited.add(s)
        assert pool == audited, (profile, pool ^ audited)
        done += 1
    assert done == 40


def test_grouping_key_matches_pairwise_equivalence():
    """Grouping by the row key gives the classes, in the order, that
    comparing each statement with every class found so far gives."""
    rng = random.Random(23)
    for trial in range(60):
        n = rng.randint(1, 3)
        dom = tuple(range(rng.randint(2, 3 if n < 3 else 2)))
        sp = VariableSpace(tuple("v%d" % i for i in range(n)), (dom,) * n)
        kind = ("sum", "product", "min", "max", "tie")[trial % 5]
        c = Combiner.tie_over(dom) if kind == "tie" else Combiner(kind)
        cands = hier_candidates(sp, c)
        pool = rng.sample(cands, min(len(cands), 40))
        expected: list[list[Statement]] = []
        for s in pool:
            for cls in expected:
                if equivalent((s,), (cls[0],), sp, c, "hier"):
                    cls.append(s)
                    break
            else:
                expected.append([s])
        r = Reasoner(sp, c)
        keyed = [(s, r.equivalence_key(s)) for s in pool]
        assert _group_equivalent(keyed) == expected, (sp, c)


# ---------------------------------------------------------------------------
# construction


def test_construct_consistent_union_exact():
    a = stmt((1, 0), (0, 1))
    b = stmt((1, 1), (0, 1))
    profile = Profile(
        SP2, SUM, "hier",
        (Stakeholder("p1", (a,)), Stakeholder("p2", (b,))),
    )
    res = construct_mgs(profile)
    assert len(res.grounds) == 1
    assert set(res.grounds[0]) == {a, b}
    assert res.exhaustive
    assert res.stats["via_union"]


def test_construct_nonexistence_empty():
    profile, _ = nonexistence_fixture()
    res = construct_mgs(profile)
    assert len(res.grounds) == 0
    assert res.exhaustive


def test_construct_explicit_language_not_exhaustive():
    a = stmt((1, 0), (0, 1))
    profile = lex_profile((a,), (stmt((0, 1), (1, 0)),))
    res = construct_mgs(profile, language=(a,))
    assert not res.exhaustive


def test_construct_full_refuses_oversized_language():
    profile, _ = nonexistence_fixture()
    with pytest.raises(CapacityError):
        construct_mgs(profile, "full", Limits(max_language=10))


def test_binary_language_capacity():
    """The binary selector, the default for lexicographic construction, obeys
    the language cap like the others; P5, which scans it, turns not-checked."""
    small = Limits(max_language=2 * 3**3 - 1)
    with pytest.raises(CapacityError):
        binary_language(SP3, small)
    a = stmt((1, 0, 0), (0, 1, 0))
    b = stmt((0, 1, 0), (1, 0, 0))
    profile = lex_profile((a,), (b,), space=SP3)
    with pytest.raises(CapacityError):
        construct_mgs(profile, limits=small)
    ground = construct_mgs(profile).grounds[0]
    assert check_postulates(ground, profile, check_p5=True).p5.verdict == PASS
    report = check_postulates(ground, profile, check_p5=True, limits=small)
    assert report.p5.verdict == NOT_CHECKED


def test_hier_candidates_refuse_a_large_space_before_building_it(monkeypatch):
    """Four variables over 0..99 make 10^8 alternatives, so the full language
    is far over the cap. Existence, the candidate selector and P5 refuse it
    from the domain sizes alone, without building one alternative."""
    dom = tuple(range(100))
    sp = VariableSpace(("a", "b", "c", "d"), (dom,) * 4)
    up = stmt((1, 0, 0, 0), (0, 1, 0, 0))
    down = stmt((0, 1, 0, 0), (1, 0, 0, 0))
    profile = Profile(sp, Combiner("max"), "hier", (
        Stakeholder("a", (up,)),
        Stakeholder("b", (down,)),
    ))

    def refuse(self):
        raise AssertionError("alternatives built before the language cap")

    monkeypatch.setattr(VariableSpace, "alternatives", refuse)
    with pytest.raises(CapacityError, match="full language"):
        exists_mg_hier(profile)
    with pytest.raises(CapacityError, match="full language"):
        construct_mgs(profile, "candidates")
    report = check_postulates((up,), profile, check_p5=True)
    assert report.p5.verdict == NOT_CHECKED


# Planted random lexicographic profiles of four variables on which the
# branch and bound that searched subsets of classes ran past its deadline,
# by combiner; the product one is the smallest of those found, 37 classes.
SLOW_LEX_DOCS = {
    "product": """vars a:0..1, b:0..1, c:0..1, d:0..1
combiner product
models lexicographic
stakeholder p0 { (0,1,0,1) > (0,0,1,1); (1,0,0,1) >= (0,1,0,0); (0,1,1,1) >= (0,1,1,0) }
stakeholder p1 { (0,0,1,0) >= (1,0,0,1) }
""",
    "or": """vars a:0..1, b:0..1, c:0..1, d:0..1
combiner or
models lexicographic
stakeholder p0 { (0,1,1,1) > (1,0,1,1); (1,0,1,1) > (1,0,0,0) }
stakeholder p1 { (0,1,0,0) >= (1,1,1,0) }
stakeholder p2 { (1,1,1,1) >= (1,0,1,1); (1,0,0,0) >= (1,1,0,1); (1,1,1,0) >= (0,0,1,0) }
""",
    "max": """vars a:0..2, b:0..2, c:0..2, d:0..2
combiner max
models lexicographic
stakeholder p0 { (2,1,1,0) > (2,2,0,2); (1,2,1,2) > (2,1,1,2) }
stakeholder p1 { (0,2,1,0) > (1,2,0,0); (2,2,2,2) > (2,0,0,1); (0,2,0,1) >= (0,0,1,1) }
""",
    "sum": """vars a:0..1, b:0..1, c:0..1, d:0..1
combiner sum
models lexicographic
stakeholder p0 { (1,0,0,0) > (0,1,0,0); (1,0,1,0) >= (0,0,1,1) }
stakeholder p1 { (1,1,1,1) >= (1,0,1,1); (0,1,0,0) > (0,0,0,0); (0,1,1,1) > (1,0,1,0) }
stakeholder p2 { (1,1,1,1) >= (0,1,0,0); (1,0,0,1) >= (1,0,1,0) }
""",
    "tie": """vars a:0..2, b:0..2, c:0..2, d:0..2
combiner tie
models lexicographic
stakeholder p0 { (2,2,1,0) > (1,1,2,2) }
stakeholder p1 { (2,2,1,2) >= (1,1,2,1) }
stakeholder p2 { (2,0,0,0) >= (0,1,0,1); (1,0,2,0) > (2,0,1,2) }
""",
    "min": """vars a:0..2, b:0..2, c:0..2, d:0..2
combiner min
models lexicographic
stakeholder p0 { (2,1,2,2) > (0,0,0,1); (2,0,2,0) >= (0,2,2,2) }
stakeholder p1 { (2,0,1,1) > (2,2,0,2) }
stakeholder p2 { (0,0,0,2) >= (0,1,1,0); (0,0,2,1) >= (1,0,2,1) }
""",
}


@pytest.mark.parametrize("kind", BUILTIN_KINDS + ("tie",))
@pytest.mark.parametrize("model_class", ["lex", "hier"])
def test_construct_matches_oracle_small(model_class, kind):
    """Twenty random profiles of three stakeholders over one or two binary
    variables, seeded by the case, over the whole language (the sign-form
    one under lexicographic models), and the case's slow document if it has
    one. About 60% of the random ones have an inconsistent union."""
    rng = random.Random(model_class + kind)
    profiles = []
    while len(profiles) < 20:
        sp = VariableSpace.binary(tuple("v%d" % i for i in range(rng.randint(1, 2))))
        c = Combiner.tie_over((0, 1)) if kind == "tie" else Combiner(kind)
        try:
            profiles.append(random_profile(rng, sp, c, model_class, 3, 2))
        except RuntimeError:
            continue
    if model_class == "lex" and kind in SLOW_LEX_DOCS:
        profiles.append(dsl.parse_profile(SLOW_LEX_DOCS[kind]))
    for profile in profiles:
        if model_class == "lex":
            lang = binary_language(profile.space)
        else:
            lang = full_language(profile.space)
        built = construct_mgs(profile, lang)
        brute = brute_mgs(profile, lang)
        assert set(map(frozenset, built.grounds)) == set(
            map(frozenset, brute.grounds)
        ), profile


def test_sweep_takes_a_step_before_it_stops():
    """Two weak classes, each lost where the other wins: together they hold
    only in a model that takes no step, which there is none of, unless some
    step decides neither."""
    r = Reasoner(SP2, SUM, "lex")
    rows = [(0b10, 0b01, False), (0b01, 0b10, False)]
    assert midground._best_slices(rows, [0b01, 0b10], 0b11, r) == ({0b01, 0b10}, 2)
    assert midground._best_slices(rows, [0b01, 0b10], 0b111, r)[0] == {0b11}


def test_construct_grounds_pairwise_inconsistent_and_maximal():
    rng = random.Random(17)
    done = 0
    while done < 20:
        try:
            profile = random_profile(rng, SP2, SUM, "hier", 2, 2)
        except RuntimeError:
            continue
        res = construct_mgs(profile, "candidates")
        grounds = res.grounds
        sizes = {len(g) for g in grounds}
        assert len(sizes) <= 1  # cardinality-maximal, so all the same size
        for i in range(len(grounds)):
            for j in range(i + 1, len(grounds)):
                joint = grounds[i] + grounds[j]
                assert not is_consistent(
                    joint, profile.space, profile.combiner, "hier"
                ).consistent
        done += 1


# ---------------------------------------------------------------------------
# postulates


def test_postulates_consistent_union_all_pass():
    a = stmt((1, 0), (0, 1))
    profile = Profile(SP2, SUM, "hier", (Stakeholder("p", (a,)),))
    report = check_postulates((a,), profile, check_p5=True)
    assert report.all_pass(include_p5=True)


def test_postulates_distinguished_statement_nonuniqueness():
    profile, alts = nonuniqueness_fixture()
    psi1 = Statement(alts["gamma"], alts["delta"], True)
    report = check_postulates((psi1,), profile)
    assert report.p1.verdict == PASS
    assert report.p2.verdict == PASS  # vacuous, union inconsistent
    assert report.p3.verdict == PASS
    assert report.p4.verdict == PASS
    assert report.p5.verdict == NOT_CHECKED


def test_postulates_conflicting_pair_fails_p1():
    profile, alts = nonuniqueness_fixture()
    psi1 = Statement(alts["gamma"], alts["delta"], True)
    psi2 = Statement(alts["delta"], alts["gamma"], True)
    report = check_postulates((psi1, psi2), profile)
    assert report.p1.verdict == FAIL


def test_postulates_p2_fail_when_union_consistent():
    a = stmt((1, 0), (0, 1))
    b = stmt((1, 1), (0, 1))
    profile = Profile(
        SP2, SUM, "hier",
        (Stakeholder("p1", (a,)), Stakeholder("p2", (b,))),
    )
    # {b} is satisfied by the tie-only model that refutes a, so it is strictly
    # weaker than the consistent union {a, b}
    report = check_postulates((b,), profile, check_p5=True)
    assert report.p2.verdict == FAIL
    assert report.p5.verdict == FAIL


def test_postulates_p3_offenders():
    profile, alts = nonexistence_fixture()
    # (1,1) > (0,1) clashes with stakeholder p2's statement (0,1) >= (1,1)
    cand = stmt((1, 1), (0, 1))
    report = check_postulates((cand,), profile)
    assert report.p3.verdict == FAIL
    assert report.p3.offenders


def test_postulates_p4_offender_for_unanchored_statement():
    profile, alts = nonuniqueness_fixture()
    # non-trivial, but entailed by neither stakeholder: both leave models
    # that refute it and models that satisfy it
    loose = stmt((0, 0, 0, 0), (1, 0, 1, 0), strict=False)
    report = check_postulates((loose,), profile)
    assert report.p4.verdict == FAIL
    assert loose in report.p4.offenders


def test_p3_p4_offenders_are_every_failing_member_in_order():
    """P3 and P4 are asked once per equivalence class, yet the offenders are
    exactly the members that fail when each is asked on its own."""
    rng = random.Random(31)
    settings = [("hier", Combiner(kind)) for kind in ("sum", "max", "min", "product")]
    settings += [("hier", Combiner.tie_over((0, 1))), ("lex", SUM)]
    lang = full_language(SP2)
    failing = shared = 0
    for i in range(36):
        mc, c = settings[i % len(settings)]
        try:
            profile = random_profile(rng, SP2, c, mc, 2, 2)
        except RuntimeError:
            continue
        union = profile.union_statements()
        cand = rng.sample(lang, rng.randint(2, 12))
        report = check_postulates(cand, profile)
        p3 = tuple(
            s for s in cand
            if not all(is_consistent((s, u), SP2, c, mc).consistent for u in union)
        )
        p4 = tuple(
            s for s in cand
            if not any(entails(sh.statements, s, SP2, c, mc) for sh in profile.stakeholders)
        )
        assert report.p3.offenders == p3 and report.p4.offenders == p4, (profile, cand)
        failing += len(p3) + len(p4)
        r = Reasoner(SP2, c, mc)
        shared += len(cand) - len({r.equivalence_key(s) for s in cand})
    assert failing > 0 and shared > 0, (failing, shared)


def test_p5_matches_oracle():
    """The split scan gives ``oracle.brute_p5``'s verdict whenever it decides,
    and leaves P5 not-checked only for candidates that fail P3 or P4."""
    rng = random.Random(29)
    settings = [("hier", Combiner(kind)) for kind in
                ("sum", "max", "min", "product", "and", "or")]
    settings += [("hier", Combiner.tie_over((0, 1))), ("lex", SUM)]
    lang = full_language(SP2)
    verdicts = {PASS: 0, FAIL: 0, NOT_CHECKED: 0}
    done = 0
    for _ in range(400):
        if done == 48:
            break
        mc, c = settings[done % len(settings)]
        try:
            profile = random_profile(rng, SP2, c, mc, 2, 2)
        except RuntimeError:
            continue
        if is_consistent(profile.union_statements(), SP2, c, mc).consistent:
            continue
        r = Reasoner(SP2, c, mc)
        default = binary_language(SP2) if mc == "lex" else hier_candidates(SP2, c)
        pool = pool_of(profile, default, r)
        cands = list(construct_mgs(profile).grounds)
        for _ in range(4):
            if pool:
                cands.append(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
            cands.append(rng.sample(lang, rng.randint(1, 3)))
        for cand in cands:
            report = check_postulates(cand, profile, check_p5=True)
            verdict = report.p5.verdict
            verdicts[verdict] += 1
            if verdict == NOT_CHECKED:
                assert not (report.p3.ok and report.p4.ok), (profile, cand)
            else:
                want = PASS if brute_p5(cand, profile, default) else FAIL
                assert verdict == want, (profile, cand)
        done += 1
    assert done == 48
    assert min(verdicts.values()) > 0, verdicts


def test_postulates_p5_oracle_fail_on_extendable_candidate():
    profile, alts = nonuniqueness_fixture()
    psi1 = Statement(alts["gamma"], alts["delta"], True)
    report = check_postulates((psi1,), profile, check_p5=True)
    assert report.p5.verdict == FAIL
