"""Consistency, entailment and triviality engines against the brute oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concord.domain import (
    Combiner,
    Profile,
    Stakeholder,
    Statement,
    Triviality,
    VariableSpace,
    binarize,
    complement,
)
from concord.errors import CapacityError, DomainMismatchError, IndeterminateError
from concord.models import (
    HierarchicalModel,
    LexicographicModel,
    satisfies,
    satisfies_set,
)
from concord.midground import exists_mg_lex, full_language
from concord.oracle import brute_consistent, brute_tautology, enumerate_lex_models
from concord.reasoner import (
    DEFAULT_LIMITS,
    Limits,
    Reasoner,
    classify,
    classify_lex,
    entails,
    equivalent,
    is_consistent,
    is_consistent_hier,
    is_consistent_lex,
    sign_matrix,
)
from concord.gadgets import nonuniqueness_fixture
from conftest import alt, lane_signs, random_statement, stmt

AND = Combiner("and")
SUM = Combiner("sum")
SP2 = VariableSpace.binary(("x", "y"))


# ---------------------------------------------------------------------------
# triviality


def test_classify_tautology_nonexistence_pair():
    s = stmt((1, 1), (0, 0), strict=False)
    assert classify(s, SP2, AND) is Triviality.TAUTOLOGY


def test_classify_contradiction_nonexistence_pair():
    s = stmt((0, 0), (1, 1), strict=True)
    assert classify(s, SP2, AND) is Triviality.CONTRADICTION


def test_classify_self_comparison():
    a = (1, 0)
    assert classify(stmt(a, a, strict=False), SP2, SUM) is Triviality.TAUTOLOGY
    assert classify(stmt(a, a, strict=True), SP2, SUM) is Triviality.CONTRADICTION


def test_classify_generic_capacity():
    sp = VariableSpace.binary(tuple("v%d" % i for i in range(25)))
    s = Statement(alt(*([1] * 25)), alt(*([0] * 25)), True)
    with pytest.raises(CapacityError):
        classify(s, sp, Combiner("max"))
    # the sum combiner and lexicographic models only read per-variable signs
    assert classify(s, sp, SUM) is Triviality.TAUTOLOGY
    assert classify(s, sp, Combiner("max"), "lex") is Triviality.TAUTOLOGY


@given(st.data())
@settings(max_examples=300)
def test_classify_fast_equals_generic_on_sum(data):
    n = data.draw(st.integers(1, 6))
    sp = VariableSpace(
        tuple("v%d" % i for i in range(n)),
        tuple((0, 1, 2, 3) for _ in range(n)),
    )
    left = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
    right = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
    strict = data.draw(st.booleans())
    s = stmt(left, right, strict)
    assert classify(s, sp, SUM) is Reasoner(sp, SUM)._classify_row(s)


@given(st.data())
@settings(max_examples=200)
def test_strict_nontrivial_weakening_never_contradiction(data):
    """For non-trivial strict s, the non-strict version cannot be a contradiction."""
    n = data.draw(st.integers(1, 4))
    sp = VariableSpace(
        tuple("v%d" % i for i in range(n)),
        tuple((0, 1, 2) for _ in range(n)),
    )
    kind = data.draw(st.sampled_from(("sum", "min", "max", "and", "or")))
    c = Combiner(kind)
    left = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
    right = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
    s = stmt(left, right, strict=True)
    if classify(s, sp, c) is not Triviality.NON_TRIVIAL:
        return
    weak = Statement(s.left, s.right, False)
    assert classify(weak, sp, c) in (Triviality.NON_TRIVIAL, Triviality.TAUTOLOGY)


def test_classify_lex_only_signs_matter():
    sp = VariableSpace(("x", "y"), ((0, 1, 2, 3, 4, 5),) * 2)
    # strict tautology needs a win at every variable (a tie-only model refutes
    # any strict statement with a tying position)
    assert classify_lex(stmt((5, 4), (1, 0)), sp, SUM) is Triviality.TAUTOLOGY
    assert classify_lex(stmt((5, 0), (1, 0)), sp, SUM) is Triviality.NON_TRIVIAL
    assert classify_lex(stmt((0, 3), (2, 3)), sp, SUM) is Triviality.CONTRADICTION
    assert classify_lex(stmt((5, 0), (0, 3)), sp, SUM) is Triviality.NON_TRIVIAL
    # a non-strict statement is a tautology as soon as no variable loses
    assert classify_lex(stmt((5, 0), (1, 0), strict=False), sp, SUM) is Triviality.TAUTOLOGY


def test_classify_matches_oracle():
    """Tautology and contradiction verdicts agree with model enumeration."""
    spaces = [VariableSpace.binary(tuple("v%d" % i for i in range(n))) for n in (1, 2, 3)]
    spaces.append(VariableSpace(("x", "y"), ((0, 1, 2),) * 2))
    checked = 0
    for sp in spaces:
        values = sorted({v for dom in sp.domains for v in dom})
        combiners = [SUM, Combiner("product"), Combiner("min"), Combiner("max"),
                     Combiner.tie_over(values)]
        if values == [0, 1]:
            combiners += [AND, Combiner("or")]
        for c in combiners:
            for model_class in ("hier", "lex"):
                for s in full_language(sp):
                    kind = classify(s, sp, c, model_class)
                    taut = brute_tautology(s, sp, c, model_class)
                    contra = brute_tautology(complement(s), sp, c, model_class)
                    assert (kind is Triviality.TAUTOLOGY) == taut, (s, c, model_class)
                    assert (kind is Triviality.CONTRADICTION) == contra, (s, c, model_class)
                    checked += 1
    assert checked == 3972


# ---------------------------------------------------------------------------
# lexicographic consistency


def test_lex_greedy_example_witness():
    sp = VariableSpace(("adult", "child", "dog"), ((0, 1, 2, 3, 4, 5),) * 3)
    res = is_consistent_lex((stmt((1, 4, 0), (2, 3, 3)),), sp, SUM)
    assert res.consistent
    assert res.witness == LexicographicModel((1,))
    assert res.witness.render(sp) == "(child)"


def test_lex_empty_set_vacuous():
    res = is_consistent_lex((), SP2, SUM)
    assert res.consistent
    assert res.witness is not None


def test_lex_contradictory_pair():
    a = stmt((1, 0), (0, 1))
    res = is_consistent_lex((a, complement(a)), SP2, SUM)
    assert not res.consistent
    assert res.witness is None


def test_lex_nonstrict_single_tie_variable():
    # nothing can progress, but y ties both statements
    statements = (
        stmt((1, 0), (0, 0), strict=False),
        stmt((0, 0), (1, 0), strict=False),
    )
    res = is_consistent_lex(statements, SP2, SUM)
    assert res.consistent
    assert res.witness == LexicographicModel((1,))


@pytest.mark.parametrize(
    "domain,combiner",
    [
        (lambda rng: tuple(range(rng.randint(2, 3))), SUM),
        (lambda rng: tuple(range(-3, 3)), SUM),
        # more than 128 values, and values either side of 127/128: the sign
        # rows pack ranks instead of values
        (lambda rng: tuple(range(294)), SUM),
        (lambda rng: tuple(range(120, 136)), SUM),
        # a table combiner over 295 values: ranks in 16-bit lanes
        (lambda rng: tuple(range(294)), Combiner.tie_over(range(294))),
    ],
    ids=["0..2", "-3..2", "0..293", "120..135", "tie_over-0..293"],
)
def test_lex_random_against_enumeration(domain, combiner):
    """Greedy verdict equals brute force over all lex models."""
    rng = random.Random(20260822)
    checked = 0
    for _ in range(500):
        n = rng.randint(1, 5)
        sp = VariableSpace(
            tuple("v%d" % i for i in range(n)),
            tuple(domain(rng) for _ in range(n)),
        )
        k = rng.randint(1, 6)
        statements = tuple(random_statement(rng, sp) for _ in range(k))
        res = is_consistent_lex(statements, sp, combiner)
        brute = any(
            satisfies_set(m, statements, combiner) for m in enumerate_lex_models(sp)
        )
        assert res.consistent == brute, (sp, statements)
        if res.consistent:
            assert satisfies_set(res.witness, statements, combiner)
        checked += 1
    assert checked == 500


UNSORTED = Combiner("table", table=((7, 7, 7), (7, 2, 7), (2, 7, 7), (2, 2, 2)),
                    universe=(7, 2))


def test_sign_matrix_table_ranks():
    signs, strict = sign_matrix(
        (stmt((2,), (7,)), stmt((7,), (2,), strict=False)), UNSORTED
    )
    assert [lane_signs(signs, i) for i in range(2)] == [(1,), (-1,)]
    assert strict == (True, False)


def test_signs_binarize_and_sign_matrix_agree_on_unsorted_universe():
    c = UNSORTED
    sides = list(itertools.product((7, 2), repeat=3))
    statements = [stmt(a, b, strict=bool(i % 2))
                  for i, (a, b) in enumerate(itertools.product(sides, sides))]
    matrix, _ = sign_matrix(statements, c)
    for i, s in enumerate(statements):
        row = list(lane_signs(matrix, i))
        signs = c.signs(s)
        flat = binarize(s, c)
        assert list(signs) == row
        assert [x - y for x, y in zip(flat.left.values, flat.right.values)] == row
    # 2 ranks above 7, so the all-2 side beats the all-7 side everywhere
    assert c.signs(stmt((2, 2, 2), (7, 7, 7))) == (1, 1, 1)


@pytest.mark.parametrize(
    "values,combiner,width",
    [
        (range(2), SUM, 8),
        (range(128), SUM, 8),
        (range(-3, 3), SUM, 8),
        (range(120, 136), SUM, 8),
        (range(300), SUM, 16),
        ((-(10**30), 0, 10**30), Combiner("max"), 8),
        (range(300), Combiner.tie_over(range(300)), 16),
        ((7, 2), UNSORTED, 8),
    ],
    ids=["0..1", "0..127", "-3..2", "120..135", "300-values", "huge", "tie_over-300",
         "unsorted-table"],
)
def test_sign_rows_read_back_as_combiner_signs(values, combiner, width):
    rng = random.Random(11)
    values = list(values)
    # Every value appears, so the ranks span them all.
    lefts = [tuple(values[(i + j) % len(values)] for j in range(4))
             for i in range(len(values))]
    statements = [stmt(a, tuple(rng.choice(values) for _ in a), strict=rng.random() < 0.5)
                  for a in lefts]
    signs, strict = sign_matrix(statements, combiner)
    assert signs.width == width and signs.size == 4 * len(statements)
    assert strict == tuple(s.strict for s in statements)
    for i, s in enumerate(statements):
        assert lane_signs(signs, i) == combiner.signs(s), s


def test_sign_rows_refuse_values_they_cannot_place():
    # 9 is in the space but outside the combiner's universe
    sp = VariableSpace(("x", "y"), ((2, 7, 9), (2, 7)))
    bad = (stmt((2, 7), (7, 2)), stmt((9, 2), (7, 7)))
    for call in (lambda: sign_matrix(bad, UNSORTED),
                 lambda: is_consistent_lex(bad, sp, UNSORTED),
                 lambda: UNSORTED.signs(bad[1])):
        with pytest.raises(DomainMismatchError, match="outside combiner universe"):
            call()
    profile = Profile(sp, UNSORTED, "lex", (Stakeholder("a", bad),))
    with pytest.raises(DomainMismatchError, match="outside combiner universe"):
        exists_mg_lex(profile)
    # sides of another length than the first statement's
    with pytest.raises(DomainMismatchError, match="values a side"):
        sign_matrix((stmt((0, 1), (1, 0)), stmt((0, 1, 1), (1, 0))), SUM)


# ---------------------------------------------------------------------------
# hierarchical consistency


def test_hier_nonexistence_union_inconsistent():
    statements = (
        stmt((1, 0), (1, 1), strict=False),
        stmt((0, 1), (1, 1), strict=False),
    )
    assert not is_consistent_hier(statements, SP2, AND).consistent


def test_hier_nonexistence_single_stakeholder():
    res = is_consistent_hier((stmt((1, 0), (1, 1), strict=False),), SP2, AND)
    assert res.consistent
    assert satisfies_set(res.witness, (stmt((1, 0), (1, 1), strict=False),), AND)


def test_hier_capacity_guard():
    sp = VariableSpace.binary(tuple("v%d" % i for i in range(15)))
    s = Statement(alt(*([1] * 15)), alt(*([0] * 15)), True)
    with pytest.raises(CapacityError):
        is_consistent_hier((s,), sp, SUM)


def test_hier_timeout_zero():
    profile, _ = nonuniqueness_fixture()
    limits = Limits(timeout_ms=0)
    with pytest.raises(IndeterminateError):
        is_consistent_hier(
            profile.union_statements(), profile.space, profile.combiner, limits
        )


def test_hier_witness_reported_in_stats():
    res = is_consistent_hier((stmt((1, 0), (0, 1)),), SP2, SUM)
    assert res.consistent
    assert res.stats.nodes >= 0


def test_hier_random_against_oracle():
    """The greedy's verdict is the oracle's, its witness holds, and it never
    backtracks: each node takes at most one level, and each level taken
    decides some pending statement, so there are at most as many nodes as
    distinct statements."""
    rng = random.Random(7)
    agreements = 0
    for trial in range(600):
        n = rng.randint(1, 3)
        dom = tuple(range(rng.randint(2, 3)))
        sp = VariableSpace(tuple("v%d" % i for i in range(n)), (dom,) * n)
        kind = rng.choice(("sum", "product", "min", "max", "tie"))
        c = Combiner.tie_over(dom) if kind == "tie" else Combiner(kind)
        k = rng.randint(1, 5)
        statements = tuple(random_statement(rng, sp) for _ in range(k))
        if trial % 4 == 0:
            statements = tuple(Statement(s.left, s.right, False) for s in statements)
        res = is_consistent_hier(statements, sp, c)
        assert res.consistent == brute_consistent(statements, sp, c, "hier")
        if res.consistent:
            assert satisfies_set(res.witness, statements, c)
        nodes, taken = res.stats.nodes, res.stats.levels_tried
        assert nodes <= len(set(statements))
        assert taken == (nodes if res.consistent else max(nodes - 1, 0))
        agreements += 1
    assert agreements == 600


def _planted_max_set(rng, n, m, top=3):
    """m statements over n variables (domain 0..top), each oriented by one
    hidden max-combiner model, about 70% of the decided ones strict."""
    order = rng.sample(range(n), n)
    levels = []
    while order:
        size = rng.randint(1, 3)
        levels.append(frozenset(order[:size]))
        order = order[size:]
    model = HierarchicalModel(tuple(levels))
    c = Combiner("max")
    statements = []
    while len(statements) < m:
        a = alt(*(rng.randint(0, top) for _ in range(n)))
        b = alt(*(rng.randint(0, top) for _ in range(n)))
        if a == b:
            continue
        if satisfies(model, Statement(b, a, True), c):
            a, b = b, a
        strict = satisfies(model, Statement(a, b, True), c) and rng.random() < 0.7
        statements.append(Statement(a, b, strict))
    return model, c, tuple(statements)


def test_hier_entailment_of_a_member_on_a_planted_max_set():
    # Proving that a 40-statement max-combiner set entails one of its members
    # means showing the set plus the member's complement inconsistent, which
    # a backtracking search can only do by exhausting every branch; the
    # greedy spends at most one node per statement.
    rng = random.Random(1)
    n = 12
    sp = VariableSpace(tuple("x%d" % i for i in range(n)), ((0, 1, 2, 3),) * n)
    model, c, statements = _planted_max_set(rng, n, 40)
    assert satisfies_set(model, statements, c)
    member = statements[0]
    assert entails(statements, member, sp, c, "hier")
    probe = statements + (complement(member),)
    res = is_consistent_hier(probe, sp, c)
    assert not res.consistent
    assert res.stats.nodes <= len(set(probe))


# ---------------------------------------------------------------------------
# entailment and equivalence


def test_entails_nonuniqueness_distinguished_statements():
    profile, alts = nonuniqueness_fixture()
    sp, c = profile.space, profile.combiner
    phi1 = profile.stakeholders[0].statements
    psi1 = Statement(alts["gamma"], alts["delta"], True)
    assert entails(phi1, psi1, sp, c, "hier")
    phi2 = profile.stakeholders[1].statements
    psi2 = Statement(alts["delta"], alts["gamma"], True)
    assert entails(phi2, psi2, sp, c, "hier")


def test_no_deduction_from_reversed_preference():
    sp = VariableSpace(("adult", "child", "dog"), ((0, 1, 2, 3, 4, 5),) * 3)
    beta_over_alpha = stmt((2, 3, 3), (1, 4, 0))
    alpha_over_gamma = stmt((1, 4, 0), (1, 3, 5))
    assert not entails((beta_over_alpha,), alpha_over_gamma, sp, SUM, "hier")


def test_entails_reflexive_and_ex_falso():
    s = stmt((1, 0), (0, 1))
    assert entails((s,), s, SP2, SUM, "hier")
    contradiction = (s, complement(s))
    anything = stmt((0, 0), (1, 1), strict=False)
    assert entails(contradiction, anything, SP2, SUM, "hier")


@given(st.data())
@settings(max_examples=100)
def test_entails_monotone(data):
    n = data.draw(st.integers(1, 3))
    sp = VariableSpace.binary(tuple("v%d" % i for i in range(n)))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    base = tuple(random_statement(rng, sp) for _ in range(rng.randint(0, 3)))
    extra = tuple(random_statement(rng, sp) for _ in range(rng.randint(1, 2)))
    target = random_statement(rng, sp)
    mc = data.draw(st.sampled_from(("hier", "lex")))
    if entails(base, target, sp, SUM, mc):
        assert entails(base + extra, target, sp, SUM, mc)


def test_equivalent_modulo_tautology():
    s = stmt((1, 0), (0, 1))
    taut = stmt((1, 0), (1, 0), strict=False)
    assert equivalent((s,), (s, taut), SP2, SUM, "hier")
    assert not equivalent((s,), (complement(s),), SP2, SUM, "hier")


def test_is_consistent_dispatch():
    s = stmt((1, 0), (0, 1))
    assert is_consistent((s,), SP2, SUM, "lex").consistent
    assert is_consistent((s,), SP2, SUM, "hier").consistent
