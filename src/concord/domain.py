"""Core value objects: variable spaces, alternatives, combiners, statements.

Everything here is immutable and hashable so statements can live in sets and
serve as dict keys throughout the reasoning layers.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainMismatchError

# Combiner kinds with built-in integer semantics. "table" is the escape hatch
# for custom associative-commutative operations over a finite value universe.
_BUILTIN_OPS: dict[str, Callable[[int, int], int]] = {
    "sum": operator.add,
    "product": operator.mul,
    "min": min,
    "max": max,
    "and": operator.and_,
    "or": operator.or_,
}
BUILTIN_KINDS = tuple(_BUILTIN_OPS)


@dataclass(frozen=True, slots=True)
class VariableSpace:
    """An ordered tuple of named variables with finite integer domains."""

    variables: tuple[str, ...]
    domains: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.variables:
            raise DomainMismatchError("a variable space needs at least one variable")
        if len(self.variables) != len(self.domains):
            raise DomainMismatchError(
                f"{len(self.variables)} variables but {len(self.domains)} domains"
            )
        if len(set(self.variables)) != len(self.variables):
            raise DomainMismatchError("duplicate variable names")
        for name, dom in zip(self.variables, self.domains):
            if len(dom) < 2:
                raise DomainMismatchError(f"variable {name!r} needs at least two values")
            if len(set(dom)) != len(dom):
                raise DomainMismatchError(f"variable {name!r} repeats domain values")
            if tuple(sorted(dom)) != dom:
                raise DomainMismatchError(f"domain of {name!r} must be sorted ascending")

    @classmethod
    def binary(cls, names: Sequence[str]) -> "VariableSpace":
        return cls(tuple(names), tuple((0, 1) for _ in names))

    @property
    def size(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise DomainMismatchError(f"unknown variable {name!r}") from None

    def check_alternative(self, alt: "Alternative") -> None:
        if len(alt.values) != self.size:
            raise DomainMismatchError(
                f"alternative has {len(alt.values)} values, space has {self.size}"
            )
        for name, dom, v in zip(self.variables, self.domains, alt.values):
            if v not in dom:
                raise DomainMismatchError(f"value {v} outside domain of {name!r}")

    def alternatives(self) -> Iterator["Alternative"]:
        """All alternatives of the space, in row-major domain order."""
        for combo in itertools.product(*self.domains):
            yield Alternative(combo)


@dataclass(frozen=True, slots=True)
class Alternative:
    """A full assignment of one integer value per variable."""

    values: tuple[int, ...]
    # Alternatives are hashed constantly (statement dedup, model-set keys), so
    # the hash is computed once up front.
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.values))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.values) + ")"


@dataclass(frozen=True, slots=True)
class Combiner:
    """Associative commutative fold used to aggregate values inside a level.

    ``kind`` is one of the built-ins (integer semantics) or ``"table"``. Table
    combiners carry an explicit value universe; the fold must stay inside it,
    and values are compared by their rank in the universe rather than by the
    usual integer order.

    This is the one place that knows how values combine and compare:
    ``op`` is the binary operation as a plain callable and ``rank`` maps each
    table value to its position in the universe (``None`` for built-ins).
    Both are derived once on construction.
    """

    kind: str
    table: tuple[tuple[int, int, int], ...] | None = None
    universe: tuple[int, ...] | None = None
    op: Callable[[int, int], int] = field(
        init=False, repr=False, compare=False, default=None
    )
    rank: dict[int, int] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if self.kind in BUILTIN_KINDS:
            if self.table is not None or self.universe is not None:
                raise DomainMismatchError(f"{self.kind!r} takes no table")
            object.__setattr__(self, "op", _BUILTIN_OPS[self.kind])
            return
        if self.kind != "table":
            raise DomainMismatchError(f"unknown combiner kind {self.kind!r}")
        if self.table is None or self.universe is None:
            raise DomainMismatchError("table combiner needs a table and a universe")
        if len(set(self.universe)) != len(self.universe):
            raise DomainMismatchError("combiner universe repeats values")
        uni = set(self.universe)
        seen: dict[tuple[int, int], int] = {}
        for a, b, out in self.table:
            if a not in uni or b not in uni or out not in uni:
                raise DomainMismatchError("table entry leaves the value universe")
            if seen.setdefault((a, b), out) != out:
                raise DomainMismatchError(f"conflicting table entries for ({a},{b})")
        for a in self.universe:
            for b in self.universe:
                if (a, b) not in seen:
                    raise DomainMismatchError(f"table missing entry for ({a},{b})")
                if seen[(a, b)] != seen[(b, a)]:
                    raise DomainMismatchError(f"table not commutative at ({a},{b})")
        # Associativity is only affordable to verify on small universes.
        if len(self.universe) <= 8:
            for a in self.universe:
                for b in self.universe:
                    for c in self.universe:
                        if seen[(seen[(a, b)], c)] != seen[(a, seen[(b, c)])]:
                            raise DomainMismatchError(
                                f"table not associative at ({a},{b},{c})"
                            )

        def lookup(a: int, b: int) -> int:
            try:
                return seen[(a, b)]
            except KeyError:
                raise DomainMismatchError(f"no table entry for ({a},{b})") from None

        object.__setattr__(self, "op", lookup)
        object.__setattr__(self, "rank", {v: i for i, v in enumerate(self.universe)})

    def fold(self, values: Sequence[int]) -> int:
        """Combine one or more values. A singleton folds to the value itself."""
        if not values:
            raise DomainMismatchError("cannot fold an empty value sequence")
        if self.rank is not None:
            for v in values:
                if v not in self.rank:
                    raise DomainMismatchError(f"value {v} outside combiner universe")
        return functools.reduce(self.op, values)

    def compare_values(self, a: int, b: int) -> int:
        """Three-way compare in the combiner's value order (-1, 0 or 1)."""
        # Hot path (millions of calls in the hierarchical search): one inline
        # dict lookup per side, no nested method calls.
        rank = self.rank
        if rank is not None:
            try:
                a, b = rank[a], rank[b]
            except KeyError as exc:
                raise DomainMismatchError(
                    f"value {exc.args[0]} outside combiner universe"
                ) from None
        return (a > b) - (a < b)

    def signs(self, s: "Statement") -> tuple[int, ...]:
        """Per-variable comparison signs of a statement's left against its right."""
        return tuple(map(self.compare_values, s.left.values, s.right.values))

    @classmethod
    def tie_over(cls, values: Iterable[int]) -> "Combiner":
        """Table combiner where every genuine combination lands on one shared
        sentinel above all declared values, so multi-variable levels always tie."""
        base = tuple(sorted(set(values)))
        sentinel = base[-1] + 1
        universe = base + (sentinel,)
        table = tuple(
            (a, b, sentinel) for a in universe for b in universe
        )
        return cls("table", table=table, universe=universe)


@dataclass(frozen=True, slots=True)
class Statement:
    """A comparative claim between two alternatives, weak or strict."""

    left: Alternative
    right: Alternative
    strict: bool
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.left._hash, self.right._hash, self.strict))
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        op = ">" if self.strict else ">="
        return f"{self.left} {op} {self.right}"


def complement(s: Statement) -> Statement:
    """The claim whose models are exactly the non-models of ``s``."""
    return Statement(left=s.right, right=s.left, strict=not s.strict)


class Triviality(Enum):
    TAUTOLOGY = "tautology"
    CONTRADICTION = "contradiction"
    NON_TRIVIAL = "non-trivial"


@dataclass(frozen=True, slots=True)
class Stakeholder:
    name: str
    statements: tuple[Statement, ...]


@dataclass(frozen=True, slots=True)
class Profile:
    """A joint scenario: shared space and combiner, several stakeholders."""

    space: VariableSpace
    combiner: Combiner
    model_class: str  # "hier" or "lex"
    stakeholders: tuple[Stakeholder, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.model_class not in ("hier", "lex"):
            raise DomainMismatchError(f"unknown model class {self.model_class!r}")
        names = [sh.name for sh in self.stakeholders]
        if len(set(names)) != len(names):
            raise DomainMismatchError("duplicate stakeholder names")
        for sh in self.stakeholders:
            for st in sh.statements:
                self.space.check_alternative(st.left)
                self.space.check_alternative(st.right)

    def union_statements(self) -> tuple[Statement, ...]:
        out: list[Statement] = []
        for sh in self.stakeholders:
            out.extend(sh.statements)
        return dedupe_statements(out)


def dedupe_statements(statements: Iterable[Statement]) -> tuple[Statement, ...]:
    """Drop duplicates, keeping first-occurrence order."""
    seen: set[Statement] = set()
    out: list[Statement] = []
    for s in statements:
        if s not in seen:
            seen.add(s)
            out.append(s)
    return tuple(out)


def binarize(s: Statement, combiner: Combiner | None = None) -> Statement:
    """Project a statement onto the binary space via per-variable comparison.

    Each variable contributes (1,0), (0,1) or (0,0) depending on the sign of
    the comparison between the two sides at that variable. Comparison uses the
    combiner's value order when one is supplied.
    """
    signs = (combiner or _INTEGER_ORDER).signs(s)
    left = Alternative(tuple(1 if x > 0 else 0 for x in signs))
    right = Alternative(tuple(1 if x < 0 else 0 for x in signs))
    return Statement(left, right, s.strict)


# Every built-in compares values in the plain integer order.
_INTEGER_ORDER = Combiner("sum")
