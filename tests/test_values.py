"""The value-object contract every concord value class keeps: equality and
hashing over its compared fields, a fixed ``repr``, no assignment, and copy
and pickle support."""

import copy
import operator
import pickle

import pytest

from concord.domain import (
    Alternative,
    Combiner,
    Profile,
    Stakeholder,
    Statement,
    VariableSpace,
)
from concord.dsl import Document, StakeholderBlock, StatementNode, VarDecl
from concord.errors import DomainMismatchError
from concord.models import HierarchicalModel, LexicographicModel
from concord.reasoner import Limits, SignRows, is_consistent_hier, sign_matrix
from concord.results import (
    ConsistencyResult,
    ExistenceResult,
    MiddleGroundSet,
    PostulateCheck,
    PostulateReport,
    SearchStats,
)


def _stmt() -> Statement:
    return Statement(Alternative((1, 0)), Alternative((0, 1)), True)


def _node() -> StatementNode:
    return StatementNode(left=(1, 0), right=(0, 1), strict=True, span=(7, 9))


def _check() -> PostulateCheck:
    return PostulateCheck(verdict="fail", offenders=(_stmt(),))


_STMT = "Statement(left=Alternative(values=(1, 0)), right=Alternative(values=(0, 1)), strict=True)"
_NODE = "StatementNode(left=(1, 0), right=(0, 1), strict=True)"
_CHECK = f"PostulateCheck(verdict='fail', offenders=({_STMT},))"

# (class, keyword arguments by the constructor's parameter names, repr,
# slots left out of equality, hashing and repr). Each call of the lambda
# builds its arguments afresh.
CASES = [
    (
        VariableSpace,
        lambda: dict(variables=("x", "y"), domains=((0, 1), (0, 1))),
        "VariableSpace(variables=('x', 'y'), domains=((0, 1), (0, 1)))",
        ("_lane_bounds",),
    ),
    (Alternative, lambda: dict(values=(0, 1)), "Alternative(values=(0, 1))", ("lanes",)),
    (
        Combiner,
        lambda: dict(kind="sum", table=None, universe=None),
        "Combiner(kind='sum', table=None, universe=None)",
        ("op", "rank"),
    ),
    (
        Statement,
        lambda: dict(left=Alternative((1, 0)), right=Alternative((0, 1)), strict=True),
        _STMT,
        ("sign_row",),
    ),
    (
        Stakeholder,
        lambda: dict(name="p", statements=(_stmt(),)),
        f"Stakeholder(name='p', statements=({_STMT},))",
        (),
    ),
    (
        Profile,
        lambda: dict(
            space=VariableSpace.binary(("x", "y")),
            combiner=Combiner("sum"),
            model_class="lex",
            stakeholders=(Stakeholder("p", (_stmt(),)),),
        ),
        "Profile(space=VariableSpace(variables=('x', 'y'), domains=((0, 1), (0, 1))), "
        "combiner=Combiner(kind='sum', table=None, universe=None), model_class='lex', "
        f"stakeholders=(Stakeholder(name='p', statements=({_STMT},)),))",
        ("_union",),
    ),
    (
        VarDecl,
        lambda: dict(name="x", lo=0, hi=1, span=(2, 5)),
        "VarDecl(name='x', lo=0, hi=1)",
        ("span",),
    ),
    (
        StatementNode,
        lambda: dict(left=(1, 0), right=(0, 1), strict=True, span=(7, 9)),
        _NODE,
        ("span", "statement"),
    ),
    (
        StakeholderBlock,
        lambda: dict(name="p", statements=(_node(),), span=(1, 2)),
        f"StakeholderBlock(name='p', statements=({_NODE},))",
        ("span",),
    ),
    (
        Document,
        lambda: dict(
            variables=(VarDecl("x", 0, 1),),
            combiner="sum",
            model_class="lexicographic",
            stakeholders=(StakeholderBlock("p", (_node(),)),),
        ),
        "Document(variables=(VarDecl(name='x', lo=0, hi=1),), combiner='sum', "
        f"model_class='lexicographic', stakeholders=(StakeholderBlock(name='p', "
        f"statements=({_NODE},)),))",
        (),
    ),
    (
        HierarchicalModel,
        lambda: dict(levels=(frozenset({0}), frozenset({1}))),
        "HierarchicalModel(levels=(frozenset({0}), frozenset({1})))",
        (),
    ),
    (
        LexicographicModel,
        lambda: dict(variables=(1, 0)),
        "LexicographicModel(variables=(1, 0))",
        (),
    ),
    (
        Limits,
        lambda: dict(max_vars_hier=14, max_language=1_000_000, timeout_ms=None),
        "Limits(max_vars_hier=14, max_language=1000000, timeout_ms=None)",
        (),
    ),
    (
        SignRows,
        lambda: dict(rows=[(1, 2, True)], nvars=2, width=8),
        "SignRows(rows=[(1, 2, True)], nvars=2, width=8)",
        (),
    ),
    (
        SearchStats,
        lambda: dict(nodes=3, levels_tried=2),
        "SearchStats(nodes=3, levels_tried=2)",
        (),
    ),
    (
        ConsistencyResult,
        lambda: dict(
            consistent=True, witness=LexicographicModel((0,)), stats=SearchStats(1, 1)
        ),
        "ConsistencyResult(consistent=True, witness=LexicographicModel(variables=(0,)), "
        "stats=SearchStats(nodes=1, levels_tried=1))",
        (),
    ),
    (PostulateCheck, lambda: dict(verdict="fail", offenders=(_stmt(),)), _CHECK, ()),
    (
        PostulateReport,
        lambda: dict(p1=_check(), p2=_check(), p3=_check(), p4=_check(), p5=_check()),
        f"PostulateReport(p1={_CHECK}, p2={_CHECK}, p3={_CHECK}, p4={_CHECK}, p5={_CHECK})",
        (),
    ),
    (
        MiddleGroundSet,
        lambda: dict(grounds=((_stmt(),),), exhaustive=True, stats={"pool": 1}),
        f"MiddleGroundSet(grounds=(({_STMT},),), exhaustive=True, stats={{'pool': 1}})",
        (),
    ),
    (
        ExistenceResult,
        lambda: dict(exists=True, via_union=False, witness=_stmt(), stats={"pool": 2}),
        f"ExistenceResult(exists=True, via_union=False, witness={_STMT}, "
        "stats={'pool': 2})",
        (),
    ),
]
IDS = [case[0].__name__ for case in CASES]


def _slots(obj) -> dict:
    return {name: getattr(obj, name) for name in type(obj).__slots__}


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


def test_the_table_covers_twenty_classes():
    assert len(set(IDS)) == len(CASES) == 20


@pytest.mark.parametrize("cls, make, shown, ignored", CASES, ids=IDS)
class TestValueObject:
    def test_equal_fields_are_equal_and_hash_alike(self, cls, make, shown, ignored):
        a, b = cls(**make()), cls(**make())
        assert a is not b and a == b and not a != b
        assert _hash_or_error(a) == _hash_or_error(b)
        assert a != object() and a != 1

    def test_fields_outside_the_comparison_are_ignored(self, cls, make, shown, ignored):
        a, b = cls(**make()), cls(**make())
        for name in ignored:
            object.__setattr__(b, name, (9, 9))
            assert getattr(b, name) == (9, 9) != getattr(a, name)
        assert a == b and _hash_or_error(a) == _hash_or_error(b)
        assert repr(b) == shown

    def test_repr(self, cls, make, shown, ignored):
        assert repr(cls(**make())) == shown

    def test_assignment_and_deletion_raise(self, cls, make, shown, ignored):
        obj = cls(**make())
        for name in type(obj).__slots__:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1

    def test_deepcopy_and_pickle_keep_every_slot(self, cls, make, shown, ignored):
        obj = cls(**make())
        for twin in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert twin is not obj and type(twin) is cls
            assert _slots(twin) == _slots(obj)
            assert twin == obj and repr(twin) == shown
            with pytest.raises(AttributeError):
                setattr(twin, type(obj).__slots__[0], None)
        assert copy.copy(obj) == obj


# The table combiner of ``combiner tie``, apart from CASES (one row per
# class): its ``op`` is a module-level lookup bound with ``functools.partial``,
# which compares by identity, so ``op`` is compared by its results over the
# universe.
_TIE_TABLE = tuple((a, b, 2) for a in (0, 1, 2) for b in (0, 1, 2))
_TIE_REPR = f"Combiner(kind='table', table={_TIE_TABLE!r}, universe=(0, 1, 2))"


def _tie_slots(c: Combiner) -> dict:
    return dict(_slots(c), op=[c.op(a, b) for a in c.universe for b in c.universe])


@pytest.mark.parametrize(
    "build",
    [
        lambda: Combiner("table", table=_TIE_TABLE, universe=(0, 1, 2)),
        lambda: Combiner.tie_over((0, 1)),
    ],
    ids=["constructor", "tie_over"],
)
def test_tie_combiner_keeps_the_contract(build):
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b) and repr(a) == _TIE_REPR
    for name in ("op", "rank"):
        object.__setattr__(b, name, (9, 9))
    assert a == b and hash(a) == hash(b) and repr(b) == _TIE_REPR
    for name in Combiner.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    for twin in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin is not a and type(twin) is Combiner
        assert _tie_slots(twin) == _tie_slots(a)
        assert twin == a and repr(twin) == _TIE_REPR
    assert copy.copy(a) == a
    with pytest.raises(DomainMismatchError, match=r"no table entry for \(0,7\)"):
        pickle.loads(pickle.dumps(a)).op(0, 7)


def test_results_get_a_fresh_stats_dict_each():
    a, b = MiddleGroundSet((), True), MiddleGroundSet((), True)
    assert a.stats == b.stats == {} and a.stats is not b.stats
    c, d = ExistenceResult(False), ExistenceResult(False)
    assert c.stats == d.stats == {} and c.stats is not d.stats
    assert (c.via_union, c.witness) == (False, None)


def test_defaults():
    assert Limits() == Limits(14, 1_000_000, None)
    assert SearchStats() == SearchStats(0, 0)
    assert ConsistencyResult(False, None).stats == SearchStats()
    assert PostulateCheck("pass").offenders == ()
    assert VarDecl("x", 0, 1).span == (0, 0)
    assert Profile(VariableSpace.binary(("x",)), Combiner("sum"), "hier").stakeholders == ()


def test_derived_slots():
    sp = VariableSpace.binary(("x", "y"))
    assert sp._lane_bounds == (0, 0x0101, 0x8080)
    assert Alternative((1, 2)).lanes == 0x0201
    assert Combiner("max").op is max and Combiner("max").rank is None
    table = tuple((a, b, a & b) for a in (0, 1) for b in (0, 1))
    c = Combiner("table", table=table, universe=(0, 1))
    assert c.rank == {0: 0, 1: 1} and c.op(1, 1) == 1
    assert Combiner.tie_over((0, 1)) == Combiner(
        "table", table=Combiner.tie_over((0, 1)).table, universe=(0, 1, 2)
    )
    s = _stmt()
    assert s.sign_row is None and hash(s) == hash(_stmt())
    p = Profile(sp, Combiner("sum"), "lex", (Stakeholder("p", (s, _stmt())),))
    assert p.union_statements() == (s,)
    assert LexicographicModel((1, 0, 1)).variables == (1, 0)


def test_the_tracer_attributes():
    stmts = [_stmt(), Statement(Alternative((0, 0)), Alternative((1, 1)), False)]
    signs, strict = sign_matrix(stmts, Combiner("sum"))
    assert signs.size == 4 and strict == (True, False)
    assert stmts[0].sign_row == signs.rows[0]
    res = is_consistent_hier(stmts, VariableSpace.binary(("x", "y")), Combiner("sum"))
    assert isinstance(res.stats.nodes, int) and isinstance(res.stats.levels_tried, int)
    assert res.stats.nodes >= 1


def test_value_objects_are_not_ordered():
    with pytest.raises(TypeError):
        operator.lt(SearchStats(1, 2), SearchStats(2, 3))
