"""Consistency, entailment, equivalence and triviality classification.

Both engines are greedy constructions that never undo a step. The
lexicographic one goes variable by variable (safe because appending a
variable at which no pending statement strictly loses preserves
satisfiability, and a satisfying model's first separating variable is always
such a variable). The hierarchical one makes the same argument with levels
in place of variables: it appends the first canonical level at which some
pending statement wins and none loses. That needs levels to be free to
overlap, as ``models`` and ``oracle`` allow; ``is_consistent_hier`` gives
the argument. It reads each statement's win and lose levels from rows that a
``Reasoner`` compiles once per statement, and scans all 2^n - 1 levels, so it
stays exponential in the number of variables.

Both run one kernel, ``_greedy``, on rows of two Python ints per statement:
the steps at which its left side wins and those at which it loses, one bit
per step, lowest bit first. Hierarchical rows have a bit per canonical level.
Lexicographic rows have a lane of bits per variable: each side of a
statement is packed into one int whose lane ``v`` (bits ``v * w`` up to
``v * w + w - 1``, for a lane width ``w`` of whole bytes) holds the side's
value at variable ``v``, or that value's rank (``sign_matrix``). With ``top``
the top bit of every lane, the lanes where side ``a`` beats side ``b`` are
``top ^ (((b | top) - a) & top)``, all variables in four operations. This
needs every packed value below its lane's top bit: then lane ``v`` of
``(b | top) - a`` is ``2^(w-1) + b_v - a_v``, which is positive, so no lane
borrows from the next, and its top bit is set exactly where ``a_v <= b_v``.
A statement's signs are the top bits of its win and lose lanes.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Sequence

from .domain import (
    Alternative,
    Combiner,
    Statement,
    Triviality,
    VariableSpace,
    complement,
    dedupe_statements,
)
from .errors import CapacityError, DomainMismatchError, IndeterminateError
from .models import HierarchicalModel, LexicographicModel, satisfies_set
from .results import ConsistencyResult, SearchStats


@dataclass(frozen=True)
class Limits:
    """Capacity knobs; the defaults match the documented caps."""

    max_vars_hier: int = 14
    max_language: int = 1_000_000
    timeout_ms: int | None = None


DEFAULT_LIMITS = Limits()

# Hierarchical classification compiles a row over 2^n - 1 levels; refuse it
# beyond this many variables.
MAX_VARS_CLASSIFY = 20


def _subset_folds(alt: Alternative, n: int, c: Combiner) -> list[int]:
    """Fold values over every non-empty variable subset, indexed by bitmask."""
    op = c.op
    vals: list[int] = [0] * (1 << n)
    for v in range(n):
        vals[1 << v] = alt.values[v]
    for mask in range(1, 1 << n):
        low = mask & -mask
        if mask != low:
            vals[mask] = op(vals[low], vals[mask ^ low])
    return vals


def classify(
    s: Statement,
    space: VariableSpace,
    c: Combiner,
    model_class: str = "hier",
    limits: Limits = DEFAULT_LIMITS,
) -> Triviality:
    """Tautology / contradiction / non-trivial, over the given model class
    (``Reasoner.classify``)."""
    return Reasoner(space, c, model_class, limits).classify(s)


def classify_lex(s: Statement, space: VariableSpace, c: Combiner) -> Triviality:
    """Triviality over lexicographic models; only per-variable signs matter."""
    return _triviality(c.signs(s), s.strict)


def _triviality(signs: Sequence[int], strict: bool) -> Triviality:
    """Verdict from a statement's signs across the models: a strict statement
    holds where its sign is positive, a weak one where it is not negative."""
    need = 1 if strict else 0
    if min(signs) >= need:
        return Triviality.TAUTOLOGY
    if max(signs) < need:
        return Triviality.CONTRADICTION
    return Triviality.NON_TRIVIAL


@dataclass(frozen=True, slots=True)
class SignRows:
    """Per-variable comparison signs of a statement sequence, as bit lanes.

    ``rows[i]`` is statement ``i``'s ``(win, lose, strict)``: ``win`` has the
    top bit of lane ``v`` set where the left side beats the right at variable
    ``v``, ``lose`` where it is beaten. Lanes are ``width`` bits wide; lane
    ``v`` holds bits ``v * width`` up to ``v * width + width - 1``.
    """

    rows: list[tuple[int, int, bool]]
    nvars: int
    width: int

    @property
    def size(self) -> int:
        """Statements x variables: the signs the rows hold."""
        return len(self.rows) * self.nvars

    @property
    def lanes(self) -> int:
        """Every lane's top bit."""
        return _top_bits(self.nvars, self.width)

    def bit(self, v: int) -> int:
        """Variable ``v``'s lane bit."""
        return 1 << (v + 1) * self.width - 1

    def variable(self, bit: int) -> int:
        """The variable whose lane bit ``bit`` is."""
        return bit.bit_length() // self.width - 1

    def take(self, indices: Sequence[int]) -> "SignRows":
        """The rows at ``indices``, in that order."""
        rows = self.rows
        return SignRows([rows[i] for i in indices], self.nvars, self.width)


def _top_bits(nvars: int, width: int) -> int:
    """Top bit of each of ``nvars`` lanes of ``width`` bits."""
    return ((1 << nvars * width) - 1) // ((1 << width) - 1) << width - 1


def sign_matrix(
    statements: Sequence[Statement], c: Combiner
) -> tuple[SignRows, tuple[bool, ...]]:
    """Per-variable comparison signs as bit lanes, plus strictness flags.

    Each side is packed into one int, a lane per variable (module docstring).
    Built-in combiners pack the values themselves into 8-bit lanes when they
    all lie in 0..127. Otherwise each value is replaced by its rank: its
    position in a table combiner's universe, or among the distinct values
    present; ranks keep the value order, so the signs are the same.
    """
    nvars = len(statements[0].left.values) if statements else 0
    for s in statements:
        if len(s.left.values) != nvars or len(s.right.values) != nvars:
            raise DomainMismatchError(f"statement {s} does not have {nvars} values a side")
    packed, width = _pack(statements, nvars, c)
    top = _top_bits(nvars, width)
    rows = [
        (top ^ (((b | top) - a) & top), top ^ (((a | top) - b) & top), strict)
        for a, b, strict in packed
    ]
    return SignRows(rows, nvars, width), tuple(s.strict for s in statements)


def _pack(
    statements: Sequence[Statement], nvars: int, c: Combiner
) -> tuple[list[tuple[int, int, bool]], int]:
    """Each statement's sides as ints of ``nvars`` lanes, its strictness, and
    the lane width (``sign_matrix``)."""
    if c.rank is None:
        try:
            packed = [
                (
                    int.from_bytes(bytes(s.left.values), "little"),
                    int.from_bytes(bytes(s.right.values), "little"),
                    s.strict,
                )
                for s in statements
            ]
        except ValueError:  # a value outside 0..255
            pass
        else:
            used = 0
            for a, b, _ in packed:
                used |= a | b
            if not used & _top_bits(nvars, 8):
                return packed, 8
    rank = c.rank
    if rank is None:
        present = {v for s in statements for v in s.left.values + s.right.values}
        rank = {v: i for i, v in enumerate(sorted(present))}
    # Whole bytes per lane, enough to keep every rank below the top bit.
    nbytes = (max(len(rank) - 1, 0).bit_length() + 8) // 8

    def pack(alt: Alternative) -> int:
        try:
            ranks = [rank[v] for v in alt.values]
        except KeyError as exc:
            raise DomainMismatchError(
                f"value {exc.args[0]} outside combiner universe"
            ) from None
        return int.from_bytes(
            b"".join(r.to_bytes(nbytes, "little") for r in ranks), "little"
        )

    return [(pack(s.left), pack(s.right), s.strict) for s in statements], 8 * nbytes


def _lex_witness_ok(signs: SignRows, variables: Sequence[int]) -> bool:
    """Whether the lexicographic model over ``variables`` satisfies every row:
    the first of them at which a row is not tied must be a win, and a row
    tied at all of them must be weak."""
    pending = signs.rows
    for v in variables:
        bit = signs.bit(v)
        if any(lose & bit for _, lose, _ in pending):
            return False
        pending = [r for r in pending if not (r[0] | r[1]) & bit]
    return not any(strict for _, _, strict in pending)


def _greedy(
    rows: list[tuple[int, int, bool]],
    settle_weak: bool,
    deadline: float | None = None,
) -> tuple[list[int], list[tuple[int, int, bool]], bool]:
    """The greedy both engines run, on ``(win, lose, strict)`` rows whose bits
    are the steps a model can take, lowest bit first (a variable's lane bit,
    or a canonical level).

    While a strict row is pending (any row, with ``settle_weak``), append the
    lowest bit at which some pending row wins and none loses, and keep only
    the rows that tie there. Returns the bits taken, the rows still pending,
    and whether the greedy stalled: found no such bit while it had a row to
    settle.
    """
    path: list[int] = []
    pending = rows
    while pending if settle_weak else any(r[2] for r in pending):
        if deadline is not None and time.monotonic() > deadline:
            raise IndeterminateError("hierarchical search timed out")
        win = lose = 0
        for w, l, _ in pending:
            win |= w
            lose |= l
        eligible = win & ~lose
        if not eligible:
            return path, pending, True
        step = eligible & -eligible
        path.append(step)
        pending = [r for r in pending if not (r[0] | r[1]) & step]
    return path, pending, False


def _lowest_safe(rows: list[tuple[int, int, bool]], everything: int) -> int:
    """The lowest bit of ``everything`` at which no row loses, or 0."""
    lose = 0
    for _, l, _ in rows:
        lose |= l
    safe = everything & ~lose
    return safe & -safe


def _lex_greedy(signs: SignRows) -> tuple[list[int], list, int, int]:
    """The greedy over lexicographic rows, run until every row is decided or
    it stalls.

    Returns the chosen variable prefix, the rows still undecided when the
    greedy stalls, and the node / candidate counters.
    """
    path, pending, stalled = _greedy(signs.rows, True)
    chosen = [signs.variable(bit) for bit in path]
    return chosen, pending, len(path), signs.nvars * (len(path) + stalled)


def _lex_consistent_from_signs(
    signs: SignRows,
) -> tuple[tuple[int, ...] | None, int, int]:
    """The lexicographic verdict over sign rows: the greedy plus its stall rule.

    Returns the witness variables (``None`` when inconsistent) and the
    greedy's node / candidate counters. When the greedy stalls with only
    non-strict statements pending and nothing chosen yet, a single variable at
    which nothing loses still witnesses consistency (models cannot be empty);
    with something chosen, the pending statements tie on every chosen variable
    and the prefix itself is a witness. With no rows at all, variable 0 is.
    """
    chosen, pending, nodes, tried = _lex_greedy(signs)
    if any(strict for _, _, strict in pending):
        return None, nodes, tried
    if chosen:
        return tuple(chosen), nodes, tried
    if not pending:
        return (0,), nodes, tried
    safe = _lowest_safe(pending, signs.lanes)
    if not safe:
        return None, nodes, tried
    return (signs.variable(safe),), nodes, tried


def is_consistent_lex(
    statements: Sequence[Statement],
    space: VariableSpace,
    c: Combiner,
    limits: Limits = DEFAULT_LIMITS,
) -> ConsistencyResult:
    """Greedy lexicographic consistency with a constructed, re-checked witness."""
    stmts = dedupe_statements(statements)
    if not stmts:
        return ConsistencyResult(True, LexicographicModel((0,)))
    signs, _ = sign_matrix(stmts, c)
    variables, nodes, tried = _lex_consistent_from_signs(signs)
    stats = SearchStats(nodes=nodes, levels_tried=tried)
    if variables is None:
        return ConsistencyResult(False, None, stats)
    if not _lex_witness_ok(signs, variables):
        raise RuntimeError("internal error: lex witness failed re-check")
    return ConsistencyResult(True, LexicographicModel(variables), stats)


def _canonical_levels(n: int) -> list[int]:
    """Level bitmasks ordered by cardinality, then by sorted variable indices.

    Built size by size: the levels of size k + 1 with lowest variable v are v
    added to each level of size k whose lowest variable is above v, in order.
    (Ten times faster than summing the bits of each ``combinations`` tuple,
    which matters for classification at up to 20 variables.)
    """
    by_lowest = [[1 << v] for v in range(n)]
    levels = [1 << v for v in range(n)]
    for _ in range(1, n):
        above: list[int] = []
        grown: list[list[int]] = [[]] * n
        for v in range(n - 1, -1, -1):
            grown[v] = [1 << v | mask for mask in above]
            above = by_lowest[v] + above
        by_lowest = grown
        levels.extend(itertools.chain.from_iterable(grown))
    return levels


# Sign + 1 (0, 1, 2 for lose, tie, win) to the binary digit of a win or a
# lose row.
_WIN_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"001")
_LOSE_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"100")


class Reasoner:
    """Consistency, entailment, equivalence and triviality for one space,
    combiner, model class and set of limits.

    Lexicographic questions go to the lexicographic functions above. Under
    hierarchical models every statement met is compiled once, on first use,
    into its *row*: the canonical levels (``_canonical_levels``) at which its
    left side wins and those at which it loses, as two bitmasks whose bit
    ``j`` is canonical level ``j``. Each alternative's folds over all variable
    subsets are computed once too. Every later question about the statement
    reads the row, so one object serves one request; it holds no state beyond
    the rows it compiled and nothing outlives it.
    """

    def __init__(
        self,
        space: VariableSpace,
        c: Combiner,
        model_class: str = "hier",
        limits: Limits = DEFAULT_LIMITS,
    ) -> None:
        self.space = space
        self.c = c
        self.model_class = model_class
        self.limits = limits
        self._folds: dict[Alternative, list[int]] = {}
        self._rows: dict[Statement, tuple[int, int]] = {}

    @functools.cached_property
    def levels(self) -> list[int]:
        """The canonical level bitmasks over the space's variables."""
        return _canonical_levels(self.space.size)

    @functools.cached_property
    def _all_levels(self) -> int:
        return (1 << len(self.levels)) - 1

    def row(self, s: Statement) -> tuple[int, int]:
        """The levels at which ``s``'s left side wins, and at which it loses."""
        row = self._rows.get(s)
        if row is None:
            lf, rf = self._fold(s.left), self._fold(s.right)
            compare = self.c.compare_values
            # One digit per level, reversed to put level 0 last, parsed in
            # base 2: linear in the number of levels, where setting bits one
            # at a time on a growing int is quadratic.
            signs = bytes([compare(lf[mask], rf[mask]) + 1 for mask in self.levels])
            signs = signs[::-1]
            win = int(signs.translate(_WIN_DIGITS), 2)
            lose = int(signs.translate(_LOSE_DIGITS), 2)
            row = self._rows[s] = (win, lose)
        return row

    def _fold(self, alt: Alternative) -> list[int]:
        folds = self._folds.get(alt)
        if folds is None:
            folds = self._folds[alt] = _subset_folds(alt, self.space.size, self.c)
        return folds

    def classify(self, s: Statement) -> Triviality:
        """Tautology / contradiction / non-trivial, over the model class.

        A statement is a tautology when it holds at every model and a
        contradiction when it holds at none. Lexicographic models only see
        the per-variable comparison signs. Hierarchical ones see the
        comparison of the two sides' folds on every non-empty variable subset,
        except under the sum combiner, where subset sums inherit the signs of
        the per-variable differences and the lexicographic verdict applies.
        """
        if self.model_class == "lex" or self.c.kind == "sum":
            return classify_lex(s, self.space, self.c)
        if self.space.size > MAX_VARS_CLASSIFY:
            raise CapacityError(
                f"generic classification capped at {MAX_VARS_CLASSIFY} variables"
            )
        return self._classify_row(s)

    def _classify_row(self, s: Statement) -> Triviality:
        """Triviality over hierarchical models, read off the statement's row.

        A one-level model decides at that level, so a strict statement holds
        at every model iff it wins at every level, and a weak one iff it
        loses at none; both hold at no model iff they hold at no level.
        """
        win, lose = self.row(s)
        everywhere = self._all_levels
        holds = win if s.strict else everywhere & ~lose
        if holds == everywhere:
            return Triviality.TAUTOLOGY
        if not holds:
            return Triviality.CONTRADICTION
        return Triviality.NON_TRIVIAL

    def is_consistent(self, statements: Sequence[Statement]) -> ConsistencyResult:
        """Consistency with a constructed, re-checked witness.

        Hierarchical sets are decided by the greedy below; see
        ``is_consistent_hier`` for why it never needs to undo a level.
        """
        if self.model_class == "lex":
            return is_consistent_lex(statements, self.space, self.c, self.limits)
        stmts = dedupe_statements(statements)
        n = self.space.size
        cap = self.limits.max_vars_hier
        if n > cap:
            raise CapacityError(
                f"hierarchical search capped at {cap} variables, got {n}"
            )
        if not stmts:
            return ConsistencyResult(True, HierarchicalModel((frozenset((0,)),)))
        deadline = None
        if self.limits.timeout_ms is not None:
            deadline = time.monotonic() + self.limits.timeout_ms / 1000.0
        rows = [self.row(s) + (s.strict,) for s in stmts]
        path, _, stalled = _greedy(rows, False, deadline)
        if stalled:
            return ConsistencyResult(
                False, None, SearchStats(len(path) + 1, len(path))
            )
        stats = SearchStats(len(path), len(path))
        if not path:
            # Only weak statements: a model needs one level, and any level at
            # which nothing loses will do.
            safe = _lowest_safe(rows, self._all_levels)
            if not safe:
                return ConsistencyResult(False, None, stats)
            path.append(safe)
        levels = self.levels
        witness = HierarchicalModel(
            tuple(
                frozenset(v for v in range(n) if levels[bit.bit_length() - 1] >> v & 1)
                for bit in path
            )
        )
        if not satisfies_set(witness, stmts, self.c):
            raise RuntimeError("internal error: hierarchical witness failed re-check")
        return ConsistencyResult(True, witness, stats)

    def entails(self, premises: Sequence[Statement], s: Statement) -> bool:
        combined = tuple(premises) + (complement(s),)
        return not self.is_consistent(combined).consistent

    def equivalent(
        self, first: Sequence[Statement], second: Sequence[Statement]
    ) -> bool:
        a = dedupe_statements(first)
        b = dedupe_statements(second)
        if frozenset(a) == frozenset(b):
            return True
        return all(self.entails(a, s) for s in b) and all(
            self.entails(b, s) for s in a
        )

    def equivalence_key(self, s: Statement) -> tuple:
        """Grouping key: non-trivial statements that hold in the same models
        share it.

        Lexicographic statements key on their signs and strictness.
        Hierarchical ones key on their row, plus their strictness when the
        row has a tie. For non-trivial statements the key is exact. Where two
        rows differ at a level, the one-level model at that level separates
        the two statements, unless one wins there and the other ties and is
        weak; then that level followed by one where the weak statement loses
        (it loses somewhere, being no tautology) does. Equal rows with a tie
        differ only in strictness, which the one-level model at the tie
        shows; equal rows without one decide every model alike.
        """
        if self.model_class == "lex":
            return self.c.signs(s), s.strict
        win, lose = self.row(s)
        tie = (win | lose) != self._all_levels
        return win, lose, s.strict if tie else None


def is_consistent_hier(
    statements: Sequence[Statement],
    space: VariableSpace,
    c: Combiner,
    limits: Limits = DEFAULT_LIMITS,
) -> ConsistencyResult:
    """Hierarchical consistency with a constructed, re-checked witness.

    A greedy over the canonical levels (by cardinality, then by sorted
    variable indices) builds the witness. While a strict statement is
    pending, it appends the first level at which some pending statement wins
    and none loses; the statements it ties stay pending. No such level means
    the set is inconsistent. With no strict statement pending, the levels
    chosen so far are the witness; with none chosen yet, the first canonical
    level at which nothing loses is.

    The greedy never needs to undo a level. Putting such a level in front of
    any model satisfying the pending statements gives a model that still
    satisfies them: those it decides are won, the rest tie there and go on as
    before. And a satisfying model's first level that decides a pending
    statement is such a level, so one exists whenever the pending set is
    consistent. This relies on hierarchical models being any sequence of
    non-empty variable sets, overlapping ones included, as ``models`` and
    ``oracle`` define them; it would not hold if levels had to be disjoint.

    The scan is over all 2^n - 1 levels, so the cost stays exponential in the
    number of variables. The witness is re-checked against every statement
    before it is returned. ``limits.timeout_ms`` bounds this one call, not
    the request that makes it.
    """
    return Reasoner(space, c, "hier", limits).is_consistent(statements)


def is_consistent(
    statements: Sequence[Statement],
    space: VariableSpace,
    c: Combiner,
    model_class: str,
    limits: Limits = DEFAULT_LIMITS,
) -> ConsistencyResult:
    return Reasoner(space, c, model_class, limits).is_consistent(statements)


def entails(
    premises: Sequence[Statement],
    s: Statement,
    space: VariableSpace,
    c: Combiner,
    model_class: str,
    limits: Limits = DEFAULT_LIMITS,
) -> bool:
    return Reasoner(space, c, model_class, limits).entails(premises, s)


def equivalent(
    first: Sequence[Statement],
    second: Sequence[Statement],
    space: VariableSpace,
    c: Combiner,
    model_class: str,
    limits: Limits = DEFAULT_LIMITS,
) -> bool:
    return Reasoner(space, c, model_class, limits).equivalent(first, second)
