"""Importance models and the satisfaction relation.

A hierarchical model ranks non-empty sets of variables from most to least
important; an alternative beats another if it wins the first level on which
the two differ. A lexicographic model is the special case of distinct
singleton levels covering any subset of variables.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

from .domain import Alternative, Combiner, Frozen, Statement, VariableSpace, _set
from .errors import DomainMismatchError


class Comparison(Enum):
    LEFT = "left"  # left side strictly preferred
    RIGHT = "right"
    TIE = "tie"


class HierarchicalModel(Frozen):
    """Sequence of non-empty variable-index sets, most important first."""

    __slots__ = _fields = ("levels",)

    def __init__(self, levels: tuple[frozenset[int], ...]) -> None:
        if not levels:
            raise DomainMismatchError("a model needs at least one level")
        for lv in levels:
            if not lv:
                raise DomainMismatchError("levels must be non-empty")
        _set(self, "levels", levels)

    @classmethod
    def from_names(cls, space: VariableSpace, *levels: Iterable[str]) -> "HierarchicalModel":
        return cls(tuple(frozenset(space.index(n) for n in lv) for lv in levels))

    def render(self, space: VariableSpace) -> str:
        parts = []
        for lv in self.levels:
            names = [space.variables[i] for i in sorted(lv)]
            parts.append("{" + ",".join(names) + "}")
        return "(" + ",".join(parts) + ")"


class LexicographicModel(Frozen):
    """Strict order over a subset of variables, most important first.

    A repeated variable can only ever be a no-op (the earlier occurrence already
    compared the values), so repeats are dropped on construction.
    """

    __slots__ = _fields = ("variables",)

    def __init__(self, variables: tuple[int, ...]) -> None:
        if not variables:
            raise DomainMismatchError("a model needs at least one variable")
        if len(set(variables)) != len(variables):
            variables = tuple(dict.fromkeys(variables))
        _set(self, "variables", variables)

    def as_hierarchical(self) -> HierarchicalModel:
        return HierarchicalModel(tuple(frozenset((i,)) for i in self.variables))

    def render(self, space: VariableSpace) -> str:
        return "(" + ",".join(space.variables[i] for i in self.variables) + ")"


Model = HierarchicalModel | LexicographicModel


def level_value(level: frozenset[int], alt: Alternative, combiner: Combiner) -> int:
    """Aggregate an alternative's values over one level of variables."""
    idx = sorted(level)
    return combiner.fold([alt.values[i] for i in idx])


def compare(model: Model, a: Alternative, b: Alternative, combiner: Combiner) -> Comparison:
    """First level that separates the two alternatives decides; none ties."""
    levels = (
        model.levels
        if isinstance(model, HierarchicalModel)
        else tuple(frozenset((i,)) for i in model.variables)
    )
    for lv in levels:
        c = combiner.compare_values(level_value(lv, a, combiner), level_value(lv, b, combiner))
        if c > 0:
            return Comparison.LEFT
        if c < 0:
            return Comparison.RIGHT
    return Comparison.TIE


def satisfies(model: Model, s: Statement, combiner: Combiner) -> bool:
    c = compare(model, s.left, s.right, combiner)
    if s.strict:
        return c is Comparison.LEFT
    return c is not Comparison.RIGHT


def satisfies_set(model: Model, statements: Sequence[Statement], combiner: Combiner) -> bool:
    """True when every statement holds; vacuously true on an empty set."""
    return all(satisfies(model, s, combiner) for s in statements)
