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
