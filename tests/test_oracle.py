"""Brute-force reference implementations."""

import ast
import random
from pathlib import Path

import pytest

import concord
from concord.domain import Combiner, Statement, VariableSpace, complement
from concord.errors import CapacityError
from concord.models import HierarchicalModel, LexicographicModel, satisfies_set
from concord.oracle import (
    all_levels,
    brute_consistent,
    brute_entails,
    brute_mgs,
    brute_p5,
    brute_tautology,
    enumerate_hier_models,
    enumerate_lex_models,
    pool_masks,
    subset_sum_brute,
    universe_for,
)
from concord.domain import Profile, Stakeholder
from concord.gadgets import nonexistence_fixture, nonuniqueness_fixture
from concord.midground import binary_language
from conftest import random_statement, stmt

SUM = Combiner("sum")


# ---------------------------------------------------------------------------
# enumeration


def test_lex_counts():
    sp1 = VariableSpace.binary(("a",))
    sp2 = VariableSpace.binary(("a", "b"))
    sp3 = VariableSpace.binary(("a", "b", "c"))
    assert len(enumerate_lex_models(sp1)) == 1
    assert len(enumerate_lex_models(sp2)) == 4
    assert len(enumerate_lex_models(sp3)) == 15


def test_lex_enumeration_exact_for_two_variables():
    sp = VariableSpace.binary(("a", "b"))
    got = set(enumerate_lex_models(sp))
    assert got == {
        LexicographicModel((0,)),
        LexicographicModel((1,)),
        LexicographicModel((0, 1)),
        LexicographicModel((1, 0)),
    }


def test_lex_enumeration_capacity():
    sp = VariableSpace.binary(tuple("v%d" % i for i in range(8)))
    with pytest.raises(CapacityError):
        enumerate_lex_models(sp)


def test_hier_counts():
    sp = VariableSpace.binary(("a", "b"))
    assert len(enumerate_hier_models(sp, 1)) == 3
    assert len(enumerate_hier_models(sp, 2)) == 9


def test_hier_enumeration_capacity():
    sp5 = VariableSpace.binary(tuple("v%d" % i for i in range(5)))
    with pytest.raises(CapacityError):
        enumerate_hier_models(sp5, 1)
    sp2 = VariableSpace.binary(("a", "b"))
    with pytest.raises(CapacityError):
        enumerate_hier_models(sp2, 4)


def test_all_levels_canonical_order():
    sp = VariableSpace.binary(("a", "b", "c"))
    got = all_levels(sp)
    assert got[:3] == [frozenset({0}), frozenset({1}), frozenset({2})]
    assert got[3:6] == [
        frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}),
    ]
    assert got[6] == frozenset({0, 1, 2})


def test_nonexistence_sole_satisfying_model():
    """Among depth-2 models, only ({x}) satisfies the first stakeholder."""
    profile, alts = nonexistence_fixture()
    sp, c = profile.space, profile.combiner
    phi1 = profile.stakeholders[0].statements
    sat = [
        m for m in enumerate_hier_models(sp, 2)
        if satisfies_set(m, phi1, c)
    ]
    assert sat == [HierarchicalModel((frozenset({0}),))]


# ---------------------------------------------------------------------------
# brute verdicts


def test_contradictory_pair_never_consistent():
    sp = VariableSpace.binary(("x", "y"))
    rng = random.Random(3)
    for _ in range(20):
        s = random_statement(rng, sp)
        for mc in ("hier", "lex"):
            assert not brute_consistent((s, complement(s)), sp, SUM, mc)


def test_brute_entails_nonuniqueness_point():
    profile, alts = nonuniqueness_fixture()
    phi1 = profile.stakeholders[0].statements
    psi1 = Statement(alts["gamma"], alts["delta"], True)
    assert brute_entails(
        phi1, psi1, profile.space, profile.combiner, profile.model_class
    )


def test_brute_tautology():
    sp = VariableSpace.binary(("x", "y"))
    c = Combiner("and")
    assert brute_tautology(stmt((1, 1), (0, 0), strict=False), sp, c, "hier")
    assert not brute_tautology(stmt((1, 0), (0, 1)), sp, c, "hier")


def test_universe_accepts_profile_or_parts():
    profile, _ = nonexistence_fixture()
    u1 = universe_for(profile, statements=profile.union_statements())
    u2 = universe_for(
        profile.space, profile.combiner, "hier",
        statements=profile.union_statements(),
    )
    assert set(u1.models) == set(u2.models)


# ---------------------------------------------------------------------------
# middle grounds


def test_brute_mgs_nonexistence_empty():
    profile, _ = nonexistence_fixture()
    from concord.midground import hier_candidates

    lang = hier_candidates(profile.space, profile.combiner)
    res = brute_mgs(profile, lang)
    assert len(res.grounds) == 0


def test_brute_mgs_consistent_union():
    sp = VariableSpace.binary(("x", "y"))
    a = stmt((1, 0), (0, 1))
    profile = Profile(sp, SUM, "hier", (Stakeholder("p", (a,)),))
    res = brute_mgs(profile, (a,))
    assert [set(g) for g in res.grounds] == [{a}]


def test_brute_mgs_definitional_vs_sweep():
    """The subset-scan regime and the model-sweep regime agree."""
    sp = VariableSpace.binary(("x", "y"))
    profile = Profile(
        sp, SUM, "lex",
        (
            Stakeholder("p1", (stmt((1, 0), (0, 1)),)),
            Stakeholder("p2", (stmt((0, 1), (1, 0)),)),
        ),
    )
    lang = binary_language(sp)  # 18 statements: subset scan
    small = brute_mgs(profile, lang)
    # pad the language past the definitional cutoff with duplicates of
    # distinct but equivalent-statement forms drawn from the full language
    from concord.midground import full_language

    lang_big = tuple(lang) + tuple(full_language(sp))[:10]
    big = brute_mgs(profile, lang_big)
    assert small.grounds  # sanity
    # every small-language ground reappears in the bigger scan restricted
    # to the small language's statements
    small_sets = {frozenset(g) for g in small.grounds}
    big_sets = {frozenset(s for s in g if s in set(lang)) for g in big.grounds}
    assert small_sets <= big_sets


def test_brute_mgs_deterministic():
    profile, _ = nonuniqueness_fixture()
    from concord.midground import hier_candidates

    lang = hier_candidates(profile.space, profile.combiner)[:30]
    r1 = brute_mgs(profile, lang)
    r2 = brute_mgs(profile, lang)
    assert r1.grounds == r2.grounds


def test_pool_masks_nonexistence_empty_pool():
    profile, _ = nonexistence_fixture()
    from concord.midground import hier_candidates

    lang = hier_candidates(profile.space, profile.combiner)
    pm = pool_masks(profile, lang)
    assert pm.pool == ()


def test_brute_p5_accepts_union_ground():
    sp = VariableSpace.binary(("x", "y"))
    a = stmt((1, 0), (0, 1))
    profile = Profile(sp, SUM, "hier", (Stakeholder("p", (a,)),))
    assert brute_p5((a,), profile, (a,))


def test_brute_p5_rejects_extendable_candidate():
    profile, alts = nonuniqueness_fixture()
    from concord.midground import hier_candidates

    lang = hier_candidates(profile.space, profile.combiner)
    psi1 = Statement(alts["gamma"], alts["delta"], True)
    assert not brute_p5((psi1,), profile, lang)


# ---------------------------------------------------------------------------
# subset sum


def test_subset_sum_examples():
    assert subset_sum_brute((3, 5, 7), 8)
    assert not subset_sum_brute((2, 4), 5)
    assert subset_sum_brute((), 0)


def test_subset_sum_empty_subset_convention():
    assert subset_sum_brute((4, 9), 0)


def test_subset_sum_multiset_reuse():
    # a duplicated value may be used twice
    assert subset_sum_brute((5, 5), 10)
    assert not subset_sum_brute((5,), 10)


def test_subset_sum_capacity():
    with pytest.raises(CapacityError):
        subset_sum_brute(tuple(range(1, 22)), 5)


def test_subset_sum_against_bitmask_reference():
    rng = random.Random(13)
    for _ in range(100):
        k = rng.randint(0, 8)
        values = tuple(rng.randint(1, 12) for _ in range(k))
        target = rng.randint(0, 40)
        ref = any(
            sum(v for i, v in enumerate(values) if mask >> i & 1) == target
            for mask in range(1 << k)
        )
        assert subset_sum_brute(values, target) == ref


def test_no_production_module_uses_oracle_privates():
    """The oracle is a test-facing reference; production code may use only its
    public names."""
    offenders = []
    for path in sorted(Path(concord.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "oracle", "concord.oracle"
            ):
                names = [a.name for a in node.names if a.name.startswith("_")]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "oracle"
                and node.attr.startswith("_")
            ):
                names = [node.attr]
            else:
                continue
            offenders.extend("%s: %s" % (path.name, name) for name in names)
    assert offenders == []
