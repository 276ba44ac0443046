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
value at variable ``v``, or that value's rank (``sign_matrix``). With
``top`` the top bit of every lane, the lanes where side ``a`` beats side
``b`` are ``top ^ lanes_at_most(a, b, top)``, all variables in four
operations; ``domain.lanes_at_most`` states why, and its precondition that
every packed value sits below its lane's top bit. A statement's signs are
the top bits of its win and lose lanes. Under a built-in combiner, with
every value in 0..127, the packing is done once per alternative when it is
built (``Alternative.lanes``, 8-bit lanes), and the row once per statement,
on first need, and kept on it (``Statement.sign_row``): a lexicographic
call gathers the rows of the statements it is given and derives only those
of statements no call has met before.

Hierarchical rows come from the same kernel. A ``CompiledSpace`` packs each
alternative's folds over the canonical levels into one int, a lane per
level, of one width for the whole space, and a pair's win and lose levels
are ``lanes_at_most`` both ways, compacted to one bit per level
(``CompiledSpace.pair_row``).
"""

from __future__ import annotations

import atexit
import functools
import itertools
import math
import operator
import time
from typing import Sequence

from .domain import (
    Alternative,
    Combiner,
    Frozen,
    Statement,
    Triviality,
    VariableSpace,
    _set,
    _top_bits,
    complement,
    dedupe_statements,
    lanes_at_most,
)
from .errors import CapacityError, DomainMismatchError, IndeterminateError
from .models import HierarchicalModel, LexicographicModel, satisfies_set
from .results import ConsistencyResult, SearchStats


class Limits(Frozen):
    """Capacity knobs; the defaults match the documented caps."""

    __slots__ = _fields = ("max_vars_hier", "max_language", "timeout_ms")

    def __init__(
        self,
        max_vars_hier: int = 14,
        max_language: int = 1_000_000,
        timeout_ms: int | None = None,
    ) -> None:
        _set(self, "max_vars_hier", max_vars_hier)
        _set(self, "max_language", max_language)
        _set(self, "timeout_ms", timeout_ms)

    def deadline(self) -> float | None:
        """The ``time.monotonic()`` reading past which a request started now
        has run out of ``timeout_ms``, or ``None`` when it has no timeout."""
        if self.timeout_ms is None:
            return None
        return time.monotonic() + self.timeout_ms / 1000.0


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


class SignRows(Frozen):
    """Per-variable comparison signs of a statement sequence, as bit lanes.

    ``rows[i]`` is statement ``i``'s ``(win, lose, strict)``: ``win`` has the
    top bit of lane ``v`` set where the left side beats the right at variable
    ``v``, ``lose`` where it is beaten. Lanes are ``width`` bits wide; lane
    ``v`` holds bits ``v * width`` up to ``v * width + width - 1``.
    """

    __slots__ = _fields = ("rows", "nvars", "width")

    def __init__(self, rows: list[tuple[int, int, bool]], nvars: int, width: int) -> None:
        _set(self, "rows", rows)
        _set(self, "nvars", nvars)
        _set(self, "width", width)

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


# A row's lose bits and its strictness; a ``nontrivial_rows`` entry's row.
_LOSE = operator.itemgetter(1)
_STRICT = operator.itemgetter(2)
_ENTRY_ROW = operator.itemgetter(3)


def sign_matrix(
    statements: Sequence[Statement], c: Combiner
) -> tuple[SignRows, tuple[bool, ...]]:
    """Per-variable comparison signs as bit lanes, plus strictness flags.

    Each side is packed into one int, a lane per variable (module docstring).
    Under a built-in combiner, when every side has its values packed
    (``Alternative.lanes``: all in 0..127), each statement's row over those
    8-bit lanes is the one it keeps (``Statement.sign_row``), derived and
    kept on first need; a kept row shows that its two sides have the same
    length, so only its left side is measured against the other statements'.
    Otherwise each value is replaced by its rank: its position in a table
    combiner's universe, or among the distinct values present; ranks keep
    the value order, so the signs are the same. The rank path neither reads
    nor keeps a row: table combiners order values their own way.
    """
    nvars = len(statements[0].left.values) if statements else 0
    if c.rank is None:
        top = _top_bits(nvars, 8)
        rows = [
            len(s.left.values) == nvars and s.sign_row or _keep_row(s, nvars, top)
            for s in statements
        ]
        if all(rows):
            return SignRows(rows, nvars, 8), tuple(map(_STRICT, rows))
    rows, width = _rank_rows(statements, c, nvars)
    return SignRows(rows, nvars, width), tuple(s.strict for s in statements)


def _sign_row(a: int, b: int, strict: bool, top: int) -> tuple[int, int, bool]:
    """The row of packed sides ``a`` and ``b``: the top bit of each lane where
    ``a`` beats ``b``, where it is beaten, and the strictness."""
    return top ^ lanes_at_most(a, b, top), top ^ lanes_at_most(b, a, top), strict


def _check_sides(s: Statement, nvars: int) -> None:
    """Refuse a statement without ``nvars`` values on each side."""
    if len(s.left.values) != nvars or len(s.right.values) != nvars:
        raise DomainMismatchError(f"statement {s} does not have {nvars} values a side")


def _keep_row(s: Statement, nvars: int, top: int) -> tuple[int, int, bool] | None:
    """``s``'s row over 8-bit lanes, kept on ``s``; ``None`` when a side
    has no lanes."""
    _check_sides(s, nvars)
    a, b = s.left.lanes, s.right.lanes
    if a is None or b is None:
        return None
    row = _sign_row(a, b, s.strict, top)
    _set(s, "sign_row", row)
    return row


def _rank_rows(
    statements: Sequence[Statement], c: Combiner, nvars: int
) -> tuple[list[tuple[int, int, bool]], int]:
    """The statements' rows over lanes of ranks, and the lane width
    (``sign_matrix``)."""
    for s in statements:
        _check_sides(s, nvars)
    rank = c.rank
    if rank is None:
        present = {v for s in statements for v in s.left.values + s.right.values}
        rank = {v: i for i, v in enumerate(sorted(present))}
    # Whole bytes per lane, enough to keep every rank below the top bit.
    nbytes = (max(len(rank) - 1, 0).bit_length() + 8) // 8
    top = _top_bits(nvars, 8 * nbytes)

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

    rows = [_sign_row(pack(s.left), pack(s.right), s.strict, top) for s in statements]
    return rows, 8 * nbytes


def _lex_witness_ok(signs: SignRows, variables: Sequence[int]) -> bool:
    """Whether the lexicographic model over ``variables`` satisfies every row:
    the first of them at which a row is not tied must be a win, and a row
    tied at all of them must be weak.

    Each step ORs the pending rows' lose bits once; when none loses at the
    variable, the rows that do not win there are the ones tied."""
    pending = signs.rows
    for v in variables:
        bit = signs.bit(v)
        if functools.reduce(operator.or_, map(_LOSE, pending), 0) & bit:
            return False
        pending = [r for r in pending if not r[0] & bit]
    return not any(map(_STRICT, pending))


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
            raise IndeterminateError("request timed out")
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


def complement_row(row: tuple[int, int, bool]) -> tuple[int, int, bool]:
    """The row of a statement's complement (``domain.complement``), from the
    statement's row, hierarchical or lexicographic: its wins and losses
    swapped, its strictness flipped."""
    return row[1], row[0], not row[2]


def _lowest_safe(rows: list[tuple[int, int, bool]], everything: int) -> int:
    """The lowest bit of ``everything`` at which no row loses, or 0."""
    lose = 0
    for _, l, _ in rows:
        lose |= l
    safe = everything & ~lose
    return safe & -safe


def _lex_greedy(
    signs: SignRows, deadline: float | None = None
) -> tuple[list[int], list, int, int]:
    """The greedy over lexicographic rows, run until every row is decided or
    it stalls; past ``deadline`` it raises ``IndeterminateError``.

    Returns the chosen variable prefix, the rows still undecided when the
    greedy stalls, and the node / candidate counters.
    """
    path, pending, stalled = _greedy(signs.rows, True, deadline)
    chosen = [signs.variable(bit) for bit in path]
    return chosen, pending, len(path), signs.nvars * (len(path) + stalled)


def _lex_consistent_from_signs(
    signs: SignRows, deadline: float | None = None
) -> tuple[tuple[int, ...] | None, int, int]:
    """The lexicographic verdict over sign rows: the greedy plus its stall rule.
    Past ``deadline`` (``Limits.deadline``) it raises ``IndeterminateError``.

    Returns the witness variables (``None`` when inconsistent) and the
    greedy's node / candidate counters. When the greedy stalls with only
    non-strict statements pending and nothing chosen yet, a single variable at
    which nothing loses still witnesses consistency (models cannot be empty);
    with something chosen, the pending statements tie on every chosen variable
    and the prefix itself is a witness. With no rows at all, variable 0 is.
    """
    chosen, pending, nodes, tried = _lex_greedy(signs, deadline)
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
    """Greedy lexicographic consistency with a constructed, re-checked witness.

    Duplicates are not dropped: a repeated row changes neither the greedy's
    path, nor the witness, nor its counters. ``limits.timeout_ms`` bounds the
    call, which is one request.
    """
    return _is_consistent_lex(statements, c, limits.deadline())


def _is_consistent_lex(
    statements: Sequence[Statement], c: Combiner, deadline: float | None
) -> ConsistencyResult:
    """``is_consistent_lex`` within a request's ``deadline``."""
    if not statements:
        return ConsistencyResult(True, LexicographicModel((0,)))
    signs, _ = sign_matrix(statements, c)
    variables, nodes, tried = _lex_consistent_from_signs(signs, deadline)
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


# A lane's top byte, read as the binary digit of a win or a lose row: set
# (at most) is 0, clear (strictly above) is 1.
_ABOVE_DIGITS = bytes.maketrans(b"\x00\x80", b"10")


class CompiledSpace:
    """What hierarchical rows need of a space and combiner, compiled once per
    process (``compile_space``): the canonical levels, every level's bit, the
    lane shape, each alternative's packed lanes, and the non-trivial row
    language. None of it depends on variable names, stakeholders or a
    request, only on the space's domains and the combiner.

    Lanes are packed on first need and kept per alternative (``packed``).
    The row language and the alternatives it indexes are built on first ask
    (``row_language``) and stored, as tuples, only once complete: a build
    stopped by the deadline or a ``DomainMismatchError`` leaves nothing.
    """

    __slots__ = (
        "space", "c", "levels", "all_levels", "bias", "most", "nbytes", "size", "top",
        "lanes", "alternatives", "language",
    )

    def __init__(self, space: VariableSpace, c: Combiner) -> None:
        """The levels and the lane shape: table folds are packed as their
        rank in the universe. Built-in folds are biased by a bound on every
        subset fold over the space's domains, the product of
        max(|lo|, |hi|, 2) over the variables. It bounds sums (a + b <= ab
        for a, b >= 2), products, minima and maxima, and, with two variables
        or more, bitwise and and or, which stay within the two's-complement
        width of their arguments. Lanes are whole bytes with the highest
        value below the top bit, as ``lanes_at_most`` needs."""
        self.space, self.c = space, c
        self.levels = _canonical_levels(space.size)
        nlevels = len(self.levels)
        self.all_levels = (1 << nlevels) - 1
        rank = c.rank
        bounds = (max(abs(d[0]), abs(d[-1]), 2) for d in space.domains)
        self.bias = 0 if rank else math.prod(bounds)
        self.most = len(rank) - 1 if rank else 2 * self.bias
        self.nbytes = (self.most.bit_length() + 8) // 8
        self.size = nlevels * self.nbytes
        self.top = _top_bits(nlevels, 8 * self.nbytes)
        self.lanes: dict[tuple[int, ...], int] = {}
        self.alternatives: tuple[Alternative, ...] | None = None
        self.language: tuple[tuple, tuple] | None = None

    def packed(self, alt: Alternative) -> int:
        """``alt``'s folds over the canonical levels, lane ``j`` holding level
        ``j``'s, packed once per compiled space. A value the lanes cannot
        hold (one outside a table's universe, or a built-in fold beyond the
        bound that the domains give) is refused."""
        lanes = self.lanes.get(alt.values)
        if lanes is None:
            folds = _subset_folds(alt, self.space.size, self.c)
            rank, bias = self.c.rank, self.bias
            vals = [rank.get(folds[m], -1) if rank else folds[m] + bias for m in self.levels]
            if min(vals) < 0 or max(vals) > self.most:
                raise DomainMismatchError(f"alternative {alt} is outside the universe or domains")
            nbytes = self.nbytes
            packed = b"".join(v.to_bytes(nbytes, "little") for v in vals)
            lanes = self.lanes[alt.values] = int.from_bytes(packed, "little")
        return lanes

    def pair_row(self, a: int, b: int) -> tuple[int, int]:
        """The levels at which packed side ``a`` beats packed side ``b``, and
        at which it loses, one bit per level: ``lanes_at_most`` both ways,
        with each lane's top byte (every ``nbytes``-th byte, big-endian, from
        the highest lane down) read as one binary digit."""
        nbytes, size, top = self.nbytes, self.size, self.top
        win = lanes_at_most(a, b, top).to_bytes(size, "big")[::nbytes]
        lose = lanes_at_most(b, a, top).to_bytes(size, "big")[::nbytes]
        return int(win.translate(_ABOVE_DIGITS), 2), int(lose.translate(_ABOVE_DIGITS), 2)

    def row_language(self, check_deadline) -> tuple[tuple, tuple]:
        """The non-trivial row language (``Reasoner.nontrivial_rows``),
        built on first ask, calling ``check_deadline`` once per left
        alternative, and stored once complete."""
        if self.language is None:
            self._build_language(check_deadline)
        return self.language

    def _build_language(self, check_deadline) -> None:
        """Build the row language and store it with its alternatives."""
        alternatives = tuple(self.space.alternatives())
        packed = list(map(self.packed, alternatives))
        everywhere = self.all_levels
        pair_row, found, later = self.pair_row, [], {}
        for i, pa in enumerate(packed):
            check_deadline()
            for j, pb in enumerate(packed):
                if j > i:
                    win, lose = later[i, j] = pair_row(pa, pb)
                elif j < i:
                    lose, win = later.pop((j, i))
                else:
                    continue
                if lose and lose != everywhere:
                    found.append((i, j, False, (win, lose, False)))
                if win and win != everywhere:
                    found.append((i, j, True, (win, lose, True)))
        self.alternatives = alternatives
        self.language = tuple(found), tuple(map(_ENTRY_ROW, found))


# The space compiled last. One is kept, so what outlives a request is bounded
# by one space's language; a request over another space replaces it.
_compiled: CompiledSpace | None = None


@atexit.register
def _release() -> None:
    """Drop the kept space at exit. Freed here, before the interpreter's
    closing garbage collections, it costs a one-request process what
    freeing it at the end of the request would; kept alive into them, they
    also traverse it."""
    global _compiled
    _compiled = None


def compile_space(space: VariableSpace, c: Combiner) -> CompiledSpace:
    """The compiled space for ``space``'s domains and ``c``: the one kept if
    it matches, else a new one, which is then kept instead."""
    global _compiled
    cs = _compiled
    if cs is None or cs.space.domains != space.domains or cs.c != c:
        cs = _compiled = CompiledSpace(space, c)
    return cs


class Reasoner:
    """Consistency, entailment, equivalence and triviality for one space,
    combiner, model class and set of limits: one request.

    Lexicographic questions go to the lexicographic functions above. Under
    hierarchical models a statement's *row* is the ``(win, lose, strict)``
    that ``_greedy`` reads: the canonical levels (``_canonical_levels``) at
    which its left side wins and those at which it loses, bit ``j`` for
    level ``j``, and its strictness. Each alternative met is packed once
    (``CompiledSpace.packed``) and a pair's row read off two
    ``lanes_at_most`` calls (``CompiledSpace.pair_row``); a statement's row
    is kept for the request once compiled (``row``). The inner questions
    (``consistent_rows``, ``consistent_with_each``, ``entailed_by_some``,
    ``equivalence_key``, and ``midground``'s searches) take rows;
    ``nontrivial_rows`` gives the non-trivial part of the full language as
    rows, and ``statement`` builds a ``Statement`` only for an entry a
    caller keeps.

    The request's deadline (``limits.timeout_ms``) is armed once, when the
    reasoner is made, and every greedy call and ``check_deadline`` reads it,
    so the timeout binds the whole request. What depends only on the
    space's domains and the combiner (the levels, the packed lanes, the row
    language) outlives the request: it is the ``CompiledSpace`` kept for the
    process, fetched on first hierarchical need (``compiled``), and only the
    last space compiled is kept (``compile_space``). The rest is per
    request: the rows of the statements met, and ``memo``, which keeps what
    ``midground`` settles about a profile.
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
        self.deadline = limits.deadline()
        self._cs: CompiledSpace | None = None
        self._rows: dict[Statement, tuple[int, int, bool]] = {}
        self.memo: dict[str, object] = {}

    def check_deadline(self) -> None:
        """Raise ``IndeterminateError`` once the request's deadline has passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise IndeterminateError("request timed out")

    def compiled(self) -> CompiledSpace:
        """The compiled space of the reasoner's space and combiner, fetched
        (``compile_space``) on first need and held for the request."""
        cs = self._cs
        if cs is None:
            cs = self._cs = compile_space(self.space, self.c)
        return cs

    def row(self, s) -> tuple[int, int, bool]:
        """``s``'s row: where its left side wins, where it loses, and whether
        ``s`` is strict, compiled once per request from its sides' lanes,
        which are packed once per compiled space. A row is its own row, so
        each question that reads one statement's row takes the row instead."""
        if type(s) is tuple:
            return s
        return self._rows.get(s) or self._add_row(s)

    def _add_row(self, s: Statement) -> tuple[int, int, bool]:
        cs = self.compiled()
        row = cs.pair_row(cs.packed(s.left), cs.packed(s.right)) + (s.strict,)
        self._rows[s] = row
        return row

    def rows(self, statements: Sequence[Statement]) -> list[tuple[int, int, bool]]:
        """The statements' rows, in order."""
        get = self._rows.get
        return [get(s) or self._add_row(s) for s in statements]

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
        self.check_classify_cap()
        return self._classify_row(s)

    def check_classify_cap(self) -> None:
        """Refuse hierarchical rows beyond ``MAX_VARS_CLASSIFY`` variables."""
        if self.space.size > MAX_VARS_CLASSIFY:
            raise CapacityError(
                f"generic classification capped at {MAX_VARS_CLASSIFY} variables"
            )

    def _classify_row(self, s: Statement) -> Triviality:
        """Triviality over hierarchical models, read off the statement's row.

        A one-level model decides at that level, so a strict statement holds
        at every model iff it wins at every level, and a weak one iff it
        loses at none; both hold at no model iff they hold at no level.
        """
        win, lose, strict = self.row(s)
        everywhere = self.compiled().all_levels
        holds = win if strict else everywhere & ~lose
        if holds == everywhere:
            return Triviality.TAUTOLOGY
        if not holds:
            return Triviality.CONTRADICTION
        return Triviality.NON_TRIVIAL

    def nontrivial_rows(self) -> tuple[tuple, tuple]:
        """The non-trivial hierarchical statements between two alternatives
        of the space as entries ``(i, j, strict, row)``: ``alternatives[i]``
        over ``alternatives[j]`` (``CompiledSpace.alternatives``), ``i`` in
        the outer loop, then ``j``, weak before strict, and the statement's
        row; no ``Statement`` is built. Returns the entries and, in the same
        order, their rows.

        The weak ``a >= b`` is non-trivial when ``a`` loses at some level but
        not at all, the strict ``a > b`` when it wins at some level but not
        at all (``_classify_row``; under ``sum``, whose ``classify`` reads
        signs, a subset sum wins or loses everywhere iff every variable
        does). Each pair is compared once: ``b`` over ``a`` wins where ``a``
        over ``b`` loses, and ``a`` over ``a`` is trivial.

        The language is built once per compiled space, so a request over a
        space compiled before reads it. The classification cap is checked,
        and then the deadline read, before it is fetched or built; a build
        reads the deadline once per ``i``.
        """
        self.check_classify_cap()
        self.check_deadline()
        return self.compiled().row_language(self.check_deadline)

    def statement(self, entry: tuple[int, int, bool, tuple[int, int, bool]]) -> Statement:
        """The ``Statement`` of a ``nontrivial_rows`` entry, its row stored."""
        i, j, strict, row = entry
        alternatives = self.compiled().alternatives
        s = Statement(alternatives[i], alternatives[j], strict)
        self._rows[s] = row
        return s

    def prepare(self, statements: Sequence[Statement]) -> Sequence:
        """The statements as ``consistent_with_each`` and ``entailed_by_some``
        take them, so that a set asked about again and again is made ready
        once: their rows under hierarchical models, the statements
        themselves under lexicographic ones."""
        return statements if self.model_class == "lex" else self.rows(statements)

    def _pair_consistent(self, a: tuple[int, int, bool], b: tuple[int, int, bool]) -> bool:
        """Whether two rows, each of a statement consistent alone, are
        consistent together: some level is won by either and lost by neither
        when either is strict, or lost by neither when both are weak.

        The first is the greedy's first step: the greedy is complete, so with
        no such level the pair is inconsistent; with one, each row left
        pending ties there and, being consistent alone, finishes on its own
        (a lone statement that is not a contradiction always does). The
        second is the greedy's all-weak fallback.
        """
        steps = a[0] | b[0] if a[2] or b[2] else self.compiled().all_levels
        return bool(steps & ~(a[1] | b[1]))

    def consistent_with_each(self, s: Statement, others: Sequence) -> bool:
        """Whether ``{s, u}`` is consistent for every ``u`` in ``others``
        (given as ``prepare`` makes them), each consistent alone.

        Under hierarchical models this is ``_pair_consistent`` on rows, with
        no greedy. A contradiction ``s`` is consistent with nothing.
        """
        if self.model_class == "lex":
            return all(self.consistent((s, u)) for u in others)
        if self._classify_row(s) is Triviality.CONTRADICTION:
            return not others
        row = self.row(s)
        return all(self._pair_consistent(row, u) for u in others)

    def entailed_by_some(self, premise_sets: Sequence[Sequence], s: Statement) -> bool:
        """Whether some set of ``premise_sets`` (each consistent, and given as
        ``prepare`` makes it) entails ``s``.

        Under hierarchical models a set entails ``s`` when its rows plus
        ``s``'s complement row (``entails``) are inconsistent. For a set of
        one statement that is ``_pair_consistent`` negated, with no greedy:
        the complement is consistent alone unless ``s`` is a tautology, and
        every set entails a tautology.
        """
        if self.model_class == "lex":
            return any(self.entails(premises, s) for premises in premise_sets)
        if self._classify_row(s) is Triviality.TAUTOLOGY:
            return True
        neg = complement_row(self.row(s))
        return not all(
            self._pair_consistent(rows[0], neg) if len(rows) == 1
            else self.consistent_rows(rows + [neg]) for rows in premise_sets
        )

    def consistent(self, statements: Sequence[Statement]) -> bool:
        """Whether ``statements`` have a common model: the verdict alone.

        The inner questions of a request (entailment, the stakeholder check)
        ask this, or ``consistent_rows`` when they hold rows already. It
        builds no witness and re-checks nothing, and it does not dedupe: a
        repeated row changes nothing in the greedy. What leaves the process
        goes through ``is_consistent`` instead.
        """
        if self.model_class == "lex":
            signs, _ = sign_matrix(statements, self.c)
            return _lex_consistent_from_signs(signs, self.deadline)[0] is not None
        return self.consistent_rows(self.rows(statements))

    def consistent_rows(self, rows: list, everything: int | None = None) -> bool:
        """``consistent`` for statements given by their rows: hierarchical
        ones, or any that ``search_rows`` made, with its ``everything``."""
        return self._path(rows, everything)[0] is not None

    def search_rows(self, items: Sequence) -> tuple[list[tuple[int, int, bool]], int]:
        """The rows of statements given as ``prepare`` makes them, and every
        step a model can take, as one mask: the canonical levels
        (``all_levels``) under hierarchical models, every variable's lane
        bit under lexicographic ones, whose rows are packed over the whole
        set at once (``sign_matrix``) so that they share one lane width."""
        if self.model_class != "lex":
            return list(items), self.compiled().all_levels
        signs, _ = sign_matrix(items, self.c)
        return signs.rows, signs.lanes

    def is_consistent(self, statements: Sequence[Statement]) -> ConsistencyResult:
        """Consistency with a constructed, re-checked witness.

        This is the call for answers that leave the process: ``check``, the
        public ``is_consistent*`` functions, P1 of ``check_postulates`` and
        each ground ``construct_mgs`` returns. The witness is re-checked
        against every statement (``models.satisfies_set``, or its lexicographic
        twin) and a failure raises ``RuntimeError``. Inner questions that
        only read the verdict ask ``consistent``.

        Hierarchical sets are decided by the greedy below; see
        ``is_consistent_hier`` for why it never needs to undo a level.
        """
        if self.model_class == "lex":
            return _is_consistent_lex(statements, self.c, self.deadline)
        stmts = dedupe_statements(statements)
        path, nodes = self._path(self.rows(stmts))
        if path is None:
            return ConsistencyResult(False, None, SearchStats(nodes, max(nodes - 1, 0)))
        n = self.space.size
        levels = self.compiled().levels
        witness = HierarchicalModel(
            tuple(
                frozenset(v for v in range(n) if levels[bit.bit_length() - 1] >> v & 1)
                for bit in path
            )
        )
        if not satisfies_set(witness, stmts, self.c):
            raise RuntimeError("internal error: hierarchical witness failed re-check")
        return ConsistencyResult(True, witness, SearchStats(nodes, nodes))

    def _path(self, rows: list, everything: int | None = None) -> tuple[list[int] | None, int]:
        """The greedy on rows: a model's steps, bits of ``everything`` (the
        canonical levels by default), or ``None`` when inconsistent, and the
        node count; hierarchical rows are held to the cap. With only weak
        rows the greedy takes no step; a model needs one, and any step at
        which nothing loses will do. Without ``settle_weak`` the greedy takes
        the same steps, only fewer, so on lexicographic rows the verdict is
        ``_lex_consistent_from_signs``'s."""
        n = self.space.size
        cap = self.limits.max_vars_hier
        if n > cap and self.model_class != "lex":
            raise CapacityError(
                f"hierarchical search capped at {cap} variables, got {n}"
            )
        path, _, stalled = _greedy(rows, False, self.deadline)
        if stalled:
            return None, len(path) + 1
        if not path:
            safe = _lowest_safe(
                rows, self.compiled().all_levels if everything is None else everything
            )
            return ([safe] if safe else None), 0
        return path, len(path)

    def entails(self, premises: Sequence[Statement], s: Statement) -> bool:
        """Whether every model of ``premises`` satisfies ``s``: the premises
        plus ``s``'s complement are inconsistent. Under hierarchical models
        the complement is ``s``'s row read the other way round, with the
        strictness flipped."""
        if self.model_class == "lex":
            return not self.consistent(tuple(premises) + (complement(s),))
        return not self.consistent_rows(self.rows(premises) + [complement_row(self.row(s))])

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
        win, lose, strict = self.row(s)
        tie = (win | lose) != self.compiled().all_levels
        return win, lose, strict if tie else None


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
    before it is returned. ``limits.timeout_ms`` bounds the call, which is
    one request.
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
