"""Value objects: spaces, combiners, statements, binarization."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from concord.domain import (
    BUILTIN_KINDS,
    Alternative,
    Combiner,
    Profile,
    Stakeholder,
    Statement,
    VariableSpace,
    binarize,
    complement,
    dedupe_statements,
)
from concord.errors import DomainMismatchError
from concord.models import LexicographicModel, satisfies
from conftest import alt, stmt


class TestVariableSpace:
    def test_binary_constructor(self):
        sp = VariableSpace.binary(("x", "y"))
        assert sp.size == 2
        assert sp.domains == ((0, 1), (0, 1))
        assert sp.index("y") == 1

    def test_alternatives_row_major(self):
        sp = VariableSpace.binary(("x", "y"))
        assert [a.values for a in sp.alternatives()] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_rejects_empty(self):
        with pytest.raises(DomainMismatchError):
            VariableSpace((), ())

    def test_rejects_duplicate_names(self):
        with pytest.raises(DomainMismatchError):
            VariableSpace.binary(("x", "x"))

    def test_rejects_singleton_domain(self):
        with pytest.raises(DomainMismatchError):
            VariableSpace(("x",), ((3,),))

    def test_rejects_unsorted_domain(self):
        with pytest.raises(DomainMismatchError):
            VariableSpace(("x",), ((1, 0),))

    def test_check_alternative(self):
        sp = VariableSpace(("x", "y"), ((0, 1), (0, 1, 2)))
        sp.check_alternative(alt(1, 2))
        with pytest.raises(DomainMismatchError):
            sp.check_alternative(alt(1))
        with pytest.raises(DomainMismatchError):
            sp.check_alternative(alt(2, 0))


def _reference_check(sp: VariableSpace, a: Alternative) -> str | None:
    """The per-value domain check: the message it raises, or None."""
    if len(a.values) != sp.size:
        return f"alternative has {len(a.values)} values, space has {sp.size}"
    for name, dom, v in zip(sp.variables, sp.domains, a.values):
        if v not in dom:
            return f"value {v} outside domain of {name!r}"
    return None


def _checked(sp: VariableSpace, a: Alternative) -> str | None:
    try:
        sp.check_alternative(a)
    except DomainMismatchError as exc:
        return str(exc)
    return None


class TestLanes:
    @given(values=st.lists(
        st.one_of(
            st.integers(0, 127),
            st.sampled_from((-1, 127, 128, 255, 256, True, False)),
            st.integers(-(10**30), 10**30),
        ),
        max_size=60,
    ))
    def test_lanes_pack_values_in_0_to_127(self, values):
        a = Alternative(tuple(values))
        if all(0 <= v <= 127 for v in values):
            assert a.lanes is not None
            packed = a.lanes.to_bytes(len(values), "little")
            assert a.lanes >> 8 * len(values) == 0
            assert list(packed) == [int(v) for v in values]
        else:
            assert a.lanes is None

    def test_lanes_stay_out_of_equality_hash_and_repr(self):
        a, b = Alternative((1, 2)), Alternative((1, 2))
        assert a.lanes == 0x0201
        assert a == b and hash(a) == hash(b) == hash((1, 2))
        assert repr(a) == "Alternative(values=(1, 2))"
        assert Alternative((200,)).lanes is None

    @pytest.mark.parametrize(
        "domains",
        [
            ((0, 1), (0, 1, 2)),  # contiguous: the lane path
            ((0, 1, 2, 3), tuple(range(5, 128))),
            ((0, 2, 3), (1, 2)),  # a gap
            ((120, 121, 122, 123, 124, 125, 126, 127, 128, 129), (0, 1)),  # crosses 127
            ((-2, -1, 0, 1), (0, 1)),  # negative
            (tuple(range(126, 131)), (-1, 0)),
        ],
        ids=["contiguous", "up-to-127", "gapped", "crosses-127", "negative",
             "both-sides"],
    )
    def test_check_alternative_matches_per_value_reference(self, domains):
        sp = VariableSpace(("x", "y"), domains)
        contiguous = all(0 <= d[0] and d[-1] <= 127 and d == tuple(range(d[0], d[-1] + 1))
                         for d in domains)
        assert (sp._lane_bounds is not None) == contiguous
        probe = sorted({v + dv for d in domains for v in (d[0], d[-1], d[len(d) // 2])
                        for dv in (-1, 0, 1)} | {True, False, 255, 256})
        cases = [Alternative(v) for v in itertools.product(probe, repeat=2)]
        cases += [Alternative(()), Alternative((0,)), Alternative((1, 1, 1)),
                  Alternative((domains[0][0],)), Alternative((0, 1, 0))]
        accepted = 0
        for a in cases:
            want = _reference_check(sp, a)
            assert _checked(sp, a) == want, a
            accepted += want is None
        assert accepted and accepted < len(cases)


class TestCombiner:
    @pytest.mark.parametrize("kind", BUILTIN_KINDS)
    @given(values=st.lists(st.integers(0, 7), min_size=1, max_size=5))
    def test_fold_matches_reference(self, kind, values):
        import functools
        import operator

        ops = {
            "sum": operator.add,
            "product": operator.mul,
            "min": min,
            "max": max,
            "and": operator.and_,
            "or": operator.or_,
        }
        c = Combiner(kind)
        assert c.fold(values) == functools.reduce(ops[kind], values)

    @pytest.mark.parametrize("kind", BUILTIN_KINDS)
    def test_laws_exhaustive_small(self, kind):
        # commutativity and associativity over a small sample
        c = Combiner(kind)
        sample = (0, 1, 2, 3)
        for x, y, z in itertools.product(sample, repeat=3):
            assert c.fold((x, y)) == c.fold((y, x))
            assert c.fold((c.fold((x, y)), z)) == c.fold((x, c.fold((y, z))))

    def test_table_laws_exhaustive(self):
        c = Combiner.tie_over((0, 1, 2))
        uni = c.universe
        assert len(uni) <= 8
        for x, y, z in itertools.product(uni, repeat=3):
            assert c.fold((x, y)) == c.fold((y, x))
            assert c.fold((c.fold((x, y)), z)) == c.fold((x, c.fold((y, z))))

    def test_empty_fold_rejected(self):
        with pytest.raises(DomainMismatchError):
            Combiner("sum").fold(())

    def test_table_outside_universe(self):
        c = Combiner.tie_over((0, 1))
        with pytest.raises(DomainMismatchError):
            c.fold((0, 5))
        with pytest.raises(DomainMismatchError):
            c.compare_values(0, 5)
        with pytest.raises(DomainMismatchError):
            c.op(0, 5)
        with pytest.raises(DomainMismatchError):
            c.signs(stmt((0,), (5,)))

    def test_tie_over_always_ties_multi(self):
        c = Combiner.tie_over((0, 1))
        sentinel = c.universe[-1]
        assert c.fold((0, 1)) == sentinel
        assert c.fold((1, 1)) == sentinel
        assert c.fold((0,)) == 0
        assert c.compare_values(c.fold((0, 1)), c.fold((1, 1))) == 0

    @pytest.mark.parametrize(
        "values", [(3,), (0, 1), tuple(range(-4, 5)), tuple(range(256))],
        ids=["1", "2", "9", "256"],
    )
    def test_tie_over_equals_the_checked_table(self, values):
        # tie_over skips the generic table checks; it builds the same
        # combiner that the checked constructor does, with the same errors.
        c = Combiner.tie_over(values)
        universe = tuple(sorted(values)) + (max(values) + 1,)
        table = tuple((a, b, universe[-1]) for a in universe for b in universe)
        ref = Combiner("table", table=table, universe=universe)
        assert c == ref and c.rank == ref.rank
        for a, b in itertools.product(universe[:3] + universe[-2:], repeat=2):
            assert c.op(a, b) == ref.op(a, b)
        outside = universe[-1] + 1
        for call in (
            lambda k: k.fold((values[0], outside)),
            lambda k: k.fold((outside,)),
            lambda k: k.op(outside, values[0]),
            lambda k: k.compare_values(values[0], outside),
        ):
            with pytest.raises(DomainMismatchError) as got:
                call(c)
            with pytest.raises(DomainMismatchError) as want:
                call(ref)
            assert str(got.value) == str(want.value)

    def test_unknown_kind(self):
        with pytest.raises(DomainMismatchError):
            Combiner("xor")

    def test_builtin_takes_no_table(self):
        with pytest.raises(DomainMismatchError):
            Combiner("sum", universe=(0, 1))

    def test_bad_tables_rejected(self):
        # missing entry
        with pytest.raises(DomainMismatchError):
            Combiner("table", table=((0, 0, 0),), universe=(0, 1))
        # non-commutative
        table = tuple(
            (a, b, a) for a in (0, 1) for b in (0, 1)
        )
        with pytest.raises(DomainMismatchError):
            Combiner("table", table=table, universe=(0, 1))


class TestStatement:
    def test_str(self):
        assert str(stmt((1, 4, 0), (2, 3, 3))) == "(1,4,0) > (2,3,3)"
        assert str(stmt((1, 0), (0, 1), strict=False)) == "(1,0) >= (0,1)"

    def test_complement_swaps_and_flips(self):
        s = stmt((1, 4, 0), (2, 3, 3), strict=False)
        c = complement(s)
        assert c == stmt((2, 3, 3), (1, 4, 0), strict=True)

    def test_complement_involution(self):
        s = stmt((1, 0), (0, 1), strict=True)
        assert complement(complement(s)) == s

    def test_complement_flips_satisfaction_exhaustively(self):
        """No model satisfies both a statement and its complement."""
        sp = VariableSpace.binary(("x", "y"))
        c = Combiner("sum")
        alts = list(sp.alternatives())
        models = [
            LexicographicModel(order)
            for k in (1, 2)
            for order in itertools.permutations(range(2), k)
        ]
        for a, b in itertools.product(alts, repeat=2):
            for strict in (True, False):
                s = Statement(a, b, strict)
                for m in models:
                    assert satisfies(m, s, c) != satisfies(m, complement(s), c)

    def test_dedupe_keeps_first_order(self):
        a = stmt((1, 0), (0, 1))
        b = stmt((0, 1), (1, 0))
        assert dedupe_statements([a, b, a, b, a]) == (a, b)


class TestBinarize:
    def test_example_pair(self):
        s = stmt((1, 4, 0), (2, 3, 3))
        b = binarize(s)
        assert b.left.values == (0, 1, 0)
        assert b.right.values == (1, 0, 1)
        assert b.strict

    def test_tie_positions_go_flat(self):
        s = stmt((2, 2, 5), (2, 3, 1), strict=False)
        b = binarize(s)
        assert b.left.values == (0, 0, 1)
        assert b.right.values == (0, 1, 0)
        assert not b.strict

    def test_combiner_order_respected(self):
        # table order can disagree with integer order
        c = Combiner("table", table=((7, 7, 7), (7, 2, 7), (2, 7, 7), (2, 2, 2)),
                     universe=(7, 2))
        s = stmt((2,), (7,))
        b = binarize(s, c)
        # 2 ranks above 7 in this universe
        assert (b.left.values, b.right.values) == ((1,), (0,))


class TestProfile:
    def test_union_dedupes(self):
        sp = VariableSpace.binary(("x", "y"))
        a = stmt((1, 0), (0, 1))
        p = Profile(
            sp, Combiner("sum"), "hier",
            (Stakeholder("p1", (a,)), Stakeholder("p2", (a,))),
        )
        assert p.union_statements() == (a,)

    def test_duplicate_stakeholder_names_rejected(self):
        sp = VariableSpace.binary(("x",))
        with pytest.raises(DomainMismatchError):
            Profile(sp, Combiner("sum"), "hier",
                    (Stakeholder("p", ()), Stakeholder("p", ())))

    def test_unknown_model_class_rejected(self):
        sp = VariableSpace.binary(("x",))
        with pytest.raises(DomainMismatchError):
            Profile(sp, Combiner("sum"), "flat", ())

    def test_statements_checked_against_space(self):
        sp = VariableSpace.binary(("x",))
        bad = Stakeholder("p", (stmt((2,), (0,)),))
        with pytest.raises(DomainMismatchError):
            Profile(sp, Combiner("sum"), "hier", (bad,))
