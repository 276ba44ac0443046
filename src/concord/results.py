"""Result containers shared by the reasoning and middle-ground layers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from .domain import Statement
from .models import Model


@dataclass(frozen=True)
class SearchStats:
    nodes: int = 0
    levels_tried: int = 0


@dataclass(frozen=True)
class ConsistencyResult:
    consistent: bool
    witness: Model | None
    stats: SearchStats = field(default_factory=SearchStats)

    def __bool__(self) -> bool:
        return self.consistent


# Verdicts for a single postulate. "not-checked" appears only for the
# entailment-maximality postulate when no oracle scan is feasible.
PASS = "pass"
FAIL = "fail"
NOT_CHECKED = "not-checked"


@dataclass(frozen=True)
class PostulateCheck:
    verdict: str
    offenders: tuple[Statement, ...] = ()

    @property
    def ok(self) -> bool:
        return self.verdict == PASS


@dataclass(frozen=True)
class PostulateReport:
    p1: PostulateCheck
    p2: PostulateCheck
    p3: PostulateCheck
    p4: PostulateCheck
    p5: PostulateCheck

    def all_pass(self, include_p5: bool = False) -> bool:
        core = (self.p1, self.p2, self.p3, self.p4)
        if include_p5:
            core = core + (self.p5,)
        return all(c.ok for c in core)


@dataclass(frozen=True)
class MiddleGroundSet:
    """All middle grounds found, pairwise non-equivalent.

    ``exhaustive`` records whether the scan covered the complete statement
    language of the profile's space (directly, through the trivially complete
    consistent-union case, or through a candidate set known to filter to the
    same pool).
    """

    grounds: tuple[tuple[Statement, ...], ...]
    exhaustive: bool
    stats: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.grounds)

    def __bool__(self) -> bool:
        return bool(self.grounds)


@dataclass(frozen=True)
class ExistenceResult:
    exists: bool
    via_union: bool = False
    witness: Statement | None = None
    stats: dict[str, Any] = field(default_factory=dict)

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
