"""Core value objects: variable spaces, alternatives, combiners, statements.

Everything here is immutable and hashable so statements can live in sets and
serve as dict keys throughout the reasoning layers.

Every concord value class, here and in ``dsl``, ``models``, ``reasoner`` and
``results``, is a plain ``__slots__`` class on ``Frozen``: a hand-written
``__init__`` validates and derives, and ``Frozen`` alone gives equality and
hashing over the compared fields, the ``repr``, refusal of assignment and
deletion, and copy and pickle support. They are not dataclasses: the
dataclass decorator generates and compiles every method when the class is
made, and with the ``inspect`` module it imports, that was about half of
``import concord``, which every ``concord`` process pays. A changed copy of
a value is built with its constructor (``dataclasses.replace`` does not
apply).
"""

from __future__ import annotations

import functools
import itertools
import operator
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import DomainMismatchError

# Sets a slot of a ``Frozen`` instance, past its refusing ``__setattr__``.
_set = object.__setattr__


class Frozen:
    """Base of the immutable value classes.

    A subclass declares its slots in ``__slots__`` and, in ``_fields``, the
    ones that make up its value, in constructor order: two instances of one
    class are equal when those fields are, hash as the tuple of them, and
    show them in their ``repr`` as a dataclass would. Other slots hold what
    is derived or cached (a hash, a packing, a source span). ``__init__``
    sets slots with ``object.__setattr__``; assignment and deletion raise
    ``AttributeError``. Copies and pickles carry every slot.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        get = operator.attrgetter(*cls._fields)
        # The compared fields as one tuple, by one C call per instance.
        cls._values = staticmethod(
            get if len(cls._fields) > 1 else lambda obj: (get(obj),)
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            _set(self, name, value)


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


def _top_bits(nvars: int, width: int) -> int:
    """Top bit of each of ``nvars`` lanes of ``width`` bits."""
    return ((1 << nvars * width) - 1) // ((1 << width) - 1) << width - 1


def lanes_at_most(a: int, b: int, top: int) -> int:
    """The top bit of every lane where ``a``'s value is at most ``b``'s.

    ``a`` and ``b`` hold one value per lane, each below its lane's top bit,
    and ``top`` is every lane's top bit. Lane ``v`` of ``(b | top) - a`` is
    ``top_v + b_v - a_v``, which is positive, so no lane borrows from the
    next, and its top bit is set exactly where ``a_v <= b_v``: every lane in
    two operations (the borrow trick). ``reasoner.CompiledSpace.pair_row``
    uses it, and ``lanes_within`` inlines it.
    """
    return ((b | top) - a) & top


def pack_lanes(values: Sequence[int]) -> int | None:
    """``values`` as 8-bit lanes, value ``i`` in byte ``i``, or ``None``
    when some value is outside 0..127 (or is not an integer)."""
    try:
        packed = bytes(values)
    except (ValueError, TypeError):  # a value outside 0..255, or no int
        return None
    return int.from_bytes(packed, "little") if packed.isascii() else None


def lane_bounds(
    lows: Sequence[int], highs: Sequence[int]
) -> tuple[int, int, int] | None:
    """Per-variable bounds ``lows[i]..highs[i]`` in the form ``lanes_within``
    reads: both packed (``pack_lanes``), and every lane's top bit. ``None``
    when some bound is outside 0..127."""
    lo, hi = pack_lanes(lows), pack_lanes(highs)
    if lo is None or hi is None:
        return None
    return lo, hi, _top_bits(len(lows), 8)


def lanes_within(lanes: int | None, bounds: tuple[int, int, int] | None) -> bool:
    """Whether every lane of ``lanes`` lies inside its ``bounds``
    (``lane_bounds``): two subtractions for all variables at once. It is
    ``False`` when either is ``None``; the caller then looks value by value.
    Both must have the same number of lanes, which the caller checks first.
    ``VariableSpace.check_alternative`` and the parser's range check use it.
    """
    if lanes is None or bounds is None:
        return False
    lo, hi, top = bounds
    # lanes_at_most(lanes, hi, top) & lanes_at_most(lo, lanes, top), inlined:
    # building a Profile from text runs this twice on every side.
    return ((hi | top) - lanes) & ((lanes | top) - lo) & top == top


class VariableSpace(Frozen):
    """An ordered tuple of named variables with finite integer domains.

    When every domain is a contiguous range inside 0..127, ``_lane_bounds``
    holds the lowest and highest values as 8-bit lanes, and every lane's top
    bit, so that ``check_alternative`` can test a packed alternative all at
    once; otherwise it is ``None``.
    """

    __slots__ = ("variables", "domains", "_lane_bounds")
    _fields = ("variables", "domains")

    def __init__(
        self, variables: tuple[str, ...], domains: tuple[tuple[int, ...], ...]
    ) -> None:
        _set(self, "variables", variables)
        _set(self, "domains", domains)
        if not variables:
            raise DomainMismatchError("a variable space needs at least one variable")
        if len(variables) != len(domains):
            raise DomainMismatchError(
                f"{len(variables)} variables but {len(domains)} domains"
            )
        if len(set(variables)) != len(variables):
            raise DomainMismatchError("duplicate variable names")
        for name, dom in zip(variables, domains):
            if len(dom) < 2:
                raise DomainMismatchError(f"variable {name!r} needs at least two values")
            if len(set(dom)) != len(dom):
                raise DomainMismatchError(f"variable {name!r} repeats domain values")
            if tuple(sorted(dom)) != dom:
                raise DomainMismatchError(f"domain of {name!r} must be sorted ascending")
        bounds = None
        if all(
            isinstance(dom[0], int)
            and isinstance(dom[-1], int)
            and 0 <= dom[0]
            and dom[-1] <= 127
            and dom == tuple(range(dom[0], dom[-1] + 1))
            for dom in domains
        ):
            bounds = lane_bounds(
                tuple(dom[0] for dom in domains), tuple(dom[-1] for dom in domains)
            )
        _set(self, "_lane_bounds", bounds)

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
        # Fast path: a packed alternative of the right arity, inside every
        # contiguous domain, needs two subtractions.
        if len(alt.values) == len(self.variables) and lanes_within(alt.lanes, self._lane_bounds):
            return
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


class Alternative(Frozen):
    """A full assignment of one integer value per variable.

    Alternatives are packed once, when they are built: ``lanes`` holds value
    ``i`` in byte ``i`` (``pack_lanes``) when every value lies in 0..127, and
    is ``None`` otherwise. A caller that has the packing already passes it as
    ``lanes`` (it must equal ``pack_lanes(values)``): the document scanner
    decodes a tuple of single digits straight into its bytes, which are its
    lanes, so a parsed tuple is packed once, on the way in, and never again.
    Lexicographic rows (``reasoner.CompiledSpace.packed``), the parser's
    range check and ``VariableSpace.check_alternative`` read ``lanes``
    instead of walking the values. It is computed eagerly, so its cost falls where the
    alternative is made (a document's set-up) and not in the first request.
    """

    __slots__ = ("values", "_hash", "lanes")
    _fields = ("values",)

    def __init__(self, values: tuple[int, ...], lanes: int | None = None) -> None:
        _set(self, "values", values)
        # Alternatives are hashed constantly (statement dedup, model-set
        # keys), so the hash is computed once up front.
        _set(self, "_hash", hash(values))
        _set(self, "lanes", pack_lanes(values) if lanes is None else lanes)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.values) + ")"


def _table_lookup(seen: dict[tuple[int, int], int], a: int, b: int) -> int:
    """A table combiner's ``op``: the entry for ``(a, b)`` in ``seen``."""
    try:
        return seen[(a, b)]
    except KeyError:
        raise DomainMismatchError(f"no table entry for ({a},{b})") from None


class Combiner(Frozen):
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

    __slots__ = ("kind", "table", "universe", "op", "rank")
    _fields = ("kind", "table", "universe")

    def __init__(
        self,
        kind: str,
        table: tuple[tuple[int, int, int], ...] | None = None,
        universe: tuple[int, ...] | None = None,
    ) -> None:
        _set(self, "kind", kind)
        _set(self, "table", table)
        _set(self, "universe", universe)
        if kind in BUILTIN_KINDS:
            if table is not None or universe is not None:
                raise DomainMismatchError(f"{kind!r} takes no table")
            _set(self, "op", _BUILTIN_OPS[kind])
            _set(self, "rank", None)
            return
        if kind != "table":
            raise DomainMismatchError(f"unknown combiner kind {kind!r}")
        if table is None or universe is None:
            raise DomainMismatchError("table combiner needs a table and a universe")
        if len(set(universe)) != len(universe):
            raise DomainMismatchError("combiner universe repeats values")
        uni = set(universe)
        seen: dict[tuple[int, int], int] = {}
        for a, b, out in table:
            if a not in uni or b not in uni or out not in uni:
                raise DomainMismatchError("table entry leaves the value universe")
            if seen.setdefault((a, b), out) != out:
                raise DomainMismatchError(f"conflicting table entries for ({a},{b})")
        for a in universe:
            for b in universe:
                if (a, b) not in seen:
                    raise DomainMismatchError(f"table missing entry for ({a},{b})")
                if seen[(a, b)] != seen[(b, a)]:
                    raise DomainMismatchError(f"table not commutative at ({a},{b})")
        # Associativity is only affordable to verify on small universes.
        if len(universe) <= 8:
            for a in universe:
                for b in universe:
                    for c in universe:
                        if seen[(seen[(a, b)], c)] != seen[(a, seen[(b, c)])]:
                            raise DomainMismatchError(
                                f"table not associative at ({a},{b},{c})"
                            )
        self._use_table(seen)

    def _use_table(self, seen: dict[tuple[int, int], int]) -> None:
        """Derive ``op`` and ``rank`` from a checked table, as ``seen``. The
        ``op`` is a module-level function bound to it, so a table combiner
        pickles."""
        _set(self, "op", functools.partial(_table_lookup, seen))
        _set(self, "rank", {v: i for i, v in enumerate(self.universe)})

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
        sentinel above all declared values, so multi-variable levels always tie.

        It equals ``Combiner("table", table=..., universe=...)`` over the same
        table, but skips that constructor's checks (O(U^2) for U values, and
        O(U^3) associativity up to 8), which the table passes by construction:
        it is total, commutative and associative.
        """
        base = tuple(sorted(set(values)))
        sentinel = base[-1] + 1
        universe = base + (sentinel,)
        seen = {(a, b): sentinel for a in universe for b in universe}
        tie = object.__new__(cls)
        _set(tie, "kind", "table")
        _set(tie, "table", tuple((a, b, sentinel) for a, b in seen))
        _set(tie, "universe", universe)
        tie._use_table(seen)
        return tie


class Statement(Frozen):
    """A comparative claim between two alternatives, weak or strict.

    A statement keeps its row over the singleton levels once a built-in
    combiner's request derives it (``reasoner.CompiledSpace.row``):
    ``sign_row`` is ``(win, lose, strict)``, bit ``v`` of ``win`` set where
    the left side beats the right at variable ``v``, of ``lose`` where it is
    beaten, in the plain integer order every built-in combiner compares by.
    Table combiners never read it. It is not derived here: hierarchical
    requests make statements by the hundred and never ask for it.
    """

    __slots__ = ("left", "right", "strict", "_hash", "sign_row")
    _fields = ("left", "right", "strict")

    def __init__(self, left: Alternative, right: Alternative, strict: bool) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "strict", strict)
        _set(self, "_hash", hash((left._hash, right._hash, strict)))
        _set(self, "sign_row", None)

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


class Stakeholder(Frozen):
    __slots__ = _fields = ("name", "statements")

    def __init__(self, name: str, statements: tuple[Statement, ...]) -> None:
        _set(self, "name", name)
        _set(self, "statements", statements)


class Profile(Frozen):
    """A joint scenario: shared space and combiner, several stakeholders.

    ``model_class`` is ``"hier"`` or ``"lex"``. ``_union`` holds every
    stakeholder's statements, duplicates dropped, derived once here.
    """

    __slots__ = ("space", "combiner", "model_class", "stakeholders", "_union")
    _fields = ("space", "combiner", "model_class", "stakeholders")

    def __init__(
        self,
        space: VariableSpace,
        combiner: Combiner,
        model_class: str,
        stakeholders: tuple[Stakeholder, ...] = (),
    ) -> None:
        _set(self, "space", space)
        _set(self, "combiner", combiner)
        _set(self, "model_class", model_class)
        _set(self, "stakeholders", stakeholders)
        if model_class not in ("hier", "lex"):
            raise DomainMismatchError(f"unknown model class {model_class!r}")
        names = [sh.name for sh in stakeholders]
        if len(set(names)) != len(names):
            raise DomainMismatchError("duplicate stakeholder names")
        for sh in stakeholders:
            for st in sh.statements:
                space.check_alternative(st.left)
                space.check_alternative(st.right)
        _set(self, "_union", dedupe_statements(
            itertools.chain.from_iterable(sh.statements for sh in stakeholders)
        ))

    def union_statements(self) -> tuple[Statement, ...]:
        """Every stakeholder's statements in order, duplicates dropped."""
        return self._union


def dedupe_statements(statements: Iterable[Statement]) -> tuple[Statement, ...]:
    """Drop duplicates, keeping first-occurrence order."""
    return tuple(dict.fromkeys(statements))


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
