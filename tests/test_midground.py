"""Candidate languages, existence deciders, construction, postulates."""

import random

import pytest

from concord.domain import (
    Combiner,
    Profile,
    Stakeholder,
    Statement,
    Triviality,
    VariableSpace,
)
from concord.errors import CapacityError, TrivialStakeholderError
from concord.midground import (
    _candidate_pool,
    _group_equivalent,
    binary_language,
    check_postulates,
    construct_mgs,
    exists_mg_hier,
    exists_mg_lex,
    full_language,
    hier_candidates,
    lex_candidates,
)
from concord.oracle import brute_mgs
from concord.reasoner import Limits, Reasoner, classify, equivalent, is_consistent
from concord.results import FAIL, NOT_CHECKED, PASS
from concord.gadgets import nonexistence_fixture, nonuniqueness_fixture
from conftest import random_profile, stmt

SUM = Combiner("sum")
SP2 = VariableSpace.binary(("x", "y"))
SP3 = VariableSpace.binary(("x", "y", "z"))


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
    pool = tuple(_candidate_pool(
        profile,
        hier_candidates(profile.space, profile.combiner),
        Reasoner(profile.space, profile.combiner),
    ))
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
        pool = set(_candidate_pool(profile, cands, Reasoner(sp, SUM)))
        for s in pool:
            if not s.strict:
                continue
            weak = Statement(s.left, s.right, False)
            if classify(weak, sp, SUM, "hier") is Triviality.NON_TRIVIAL:
                assert weak in pool, (profile, s)
        done += 1


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
        pool = set(_candidate_pool(profile, lang, Reasoner(SP2, c, mc)))
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
        assert _group_equivalent(pool, Reasoner(sp, c)) == expected, (sp, c)


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


def test_construct_lex_matches_oracle_small():
    rng = random.Random(11)
    done = 0
    while done < 25:
        n = rng.randint(1, 2)
        sp = VariableSpace.binary(tuple("v%d" % i for i in range(n)))
        try:
            profile = random_profile(rng, sp, SUM, "lex", 2, 2)
        except RuntimeError:
            continue
        lang = binary_language(sp)
        built = construct_mgs(profile, lang)
        brute = brute_mgs(profile, lang)
        assert set(map(frozenset, built.grounds)) == set(
            map(frozenset, brute.grounds)
        ), profile
        done += 1


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


def test_postulates_p5_oracle_fail_on_extendable_candidate():
    profile, alts = nonuniqueness_fixture()
    psi1 = Statement(alts["gamma"], alts["delta"], True)
    report = check_postulates((psi1,), profile, check_p5=True)
    assert report.p5.verdict == FAIL
