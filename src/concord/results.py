"""Result containers shared by the reasoning and middle-ground layers."""

from __future__ import annotations

from typing import Any, Sequence

from .domain import Frozen, Statement, _set
from .models import Model


class SearchStats(Frozen):
    __slots__ = _fields = ("nodes", "levels_tried")

    def __init__(self, nodes: int = 0, levels_tried: int = 0) -> None:
        _set(self, "nodes", nodes)
        _set(self, "levels_tried", levels_tried)


class ConsistencyResult(Frozen):
    __slots__ = _fields = ("consistent", "witness", "stats")

    # The default ``stats`` is shared: a ``SearchStats`` cannot change.
    def __init__(
        self, consistent: bool, witness: Model | None, stats: SearchStats = SearchStats()
    ) -> None:
        _set(self, "consistent", consistent)
        _set(self, "witness", witness)
        _set(self, "stats", stats)

    def __bool__(self) -> bool:
        return self.consistent


# Verdicts for a single postulate. "not-checked" appears only for the
# entailment-maximality postulate when no oracle scan is feasible.
PASS = "pass"
FAIL = "fail"
NOT_CHECKED = "not-checked"


class PostulateCheck(Frozen):
    __slots__ = _fields = ("verdict", "offenders")

    def __init__(self, verdict: str, offenders: tuple[Statement, ...] = ()) -> None:
        _set(self, "verdict", verdict)
        _set(self, "offenders", offenders)

    @property
    def ok(self) -> bool:
        return self.verdict == PASS


class PostulateReport(Frozen):
    __slots__ = _fields = ("p1", "p2", "p3", "p4", "p5")

    def __init__(
        self,
        p1: PostulateCheck,
        p2: PostulateCheck,
        p3: PostulateCheck,
        p4: PostulateCheck,
        p5: PostulateCheck,
    ) -> None:
        _set(self, "p1", p1)
        _set(self, "p2", p2)
        _set(self, "p3", p3)
        _set(self, "p4", p4)
        _set(self, "p5", p5)

    def all_pass(self, include_p5: bool = False) -> bool:
        core = (self.p1, self.p2, self.p3, self.p4)
        if include_p5:
            core = core + (self.p5,)
        return all(c.ok for c in core)


class MiddleGroundSet(Frozen):
    """All middle grounds found, pairwise non-equivalent.

    ``exhaustive`` records whether the scan covered the complete statement
    language of the profile's space (directly, through the trivially complete
    consistent-union case, or through a candidate set known to filter to the
    same pool). ``stats`` defaults to a new empty dict.
    """

    __slots__ = _fields = ("grounds", "exhaustive", "stats")

    def __init__(
        self,
        grounds: tuple[tuple[Statement, ...], ...],
        exhaustive: bool,
        stats: dict[str, Any] | None = None,
    ) -> None:
        _set(self, "grounds", grounds)
        _set(self, "exhaustive", exhaustive)
        _set(self, "stats", {} if stats is None else stats)

    def __len__(self) -> int:
        return len(self.grounds)

    def __bool__(self) -> bool:
        return bool(self.grounds)


class ExistenceResult(Frozen):
    """Whether a middle ground exists; ``stats`` defaults to a new empty dict."""

    __slots__ = _fields = ("exists", "via_union", "witness", "stats")

    def __init__(
        self,
        exists: bool,
        via_union: bool = False,
        witness: Statement | None = None,
        stats: dict[str, Any] | None = None,
    ) -> None:
        _set(self, "exists", exists)
        _set(self, "via_union", via_union)
        _set(self, "witness", witness)
        _set(self, "stats", {} if stats is None else stats)

    def __bool__(self) -> bool:
        return self.exists


def _statement_key(s: Statement) -> tuple:
    return (s.left.values, s.right.values, s.strict)


def canonical_grounds(
    grounds: Sequence[Sequence[Statement]],
) -> tuple[tuple[Statement, ...], ...]:
    """Deduplicated grounds, each sorted by statement and the whole sorted."""
    normal = sorted(
        {tuple(sorted(g, key=_statement_key)) for g in grounds},
        key=lambda g: tuple(_statement_key(s) for s in g),
    )
    return tuple(normal)
