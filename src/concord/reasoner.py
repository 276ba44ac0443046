"""Consistency, entailment, equivalence and triviality classification.

One greedy construction, which never undoes a step, decides both model
classes. A hierarchical model is a sequence of levels, non-empty variable
sets; a lexicographic model is the special case in which every level holds
one variable. The greedy appends the first level at which some pending
statement wins and none loses. Putting such a level in front of any model
that satisfies the pending statements keeps them satisfied, and a
satisfying model's first level that decides a pending statement is always
such a level. That needs levels to be free to overlap, as ``models`` and
``oracle`` allow; ``is_consistent_hier`` gives the argument. Over
singleton levels a variable taken twice decides nothing the second time,
so the argument holds for lexicographic models as it stands.

The greedy, ``_greedy``, runs on rows of two Python ints per statement: the
levels at which its left side wins and those at which it loses, bit ``j``
for level ``j``, lowest bit first. A ``CompiledSpace`` compiles rows over
one level list: the canonical levels (``_canonical_levels``: by size, then
by sorted variable indices, all 2^n - 1 of them, so hierarchical search
stays exponential in the number of variables), or the n singletons, which
are the first n canonical levels. A statement's lexicographic row is
therefore the low n bits of its hierarchical row. Each alternative's folds
over the levels are packed into one int, a lane per level
(``CompiledSpace.packed``), and a pair's win and lose levels are
``domain.lanes_at_most`` both ways, compacted to one bit per level
(``CompiledSpace.pair_row``). Over the singletons a fold is a single value:
under a built-in combiner, with every value in 0..127, the lanes are the
``Alternative.lanes`` the alternative was built with, and a statement's row
is kept on it once derived (``Statement.sign_row``), so a call gathers the
rows of statements met before instead of comparing their sides again.

Consistency, entailment (the premises plus the complement's row: wins and
losses swapped, strictness flipped), the pairwise tests ``midground``
filters with, equivalence keys and triviality all read these rows, in the
same code for both classes. What stays class-specific is the witness and
its re-check, and the caps on hierarchical spaces.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import math
import operator
import time
from types import SimpleNamespace
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
    return Reasoner(space, c, "lex").classify(s)


# A row's lose bits and its strictness; a ``nontrivial_rows`` entry's row.
_LOSE = operator.itemgetter(1)
_STRICT = operator.itemgetter(2)
_ENTRY_ROW = operator.itemgetter(3)


def _lex_witness_ok(rows: Sequence[tuple[int, int, bool]], steps: Sequence[int]) -> bool:
    """Whether the model taking ``steps`` (level bits, repeats allowed) in
    order satisfies every row: the first step at which a row is not tied
    must be a win, and a row tied at all of them must be weak.

    Each step ORs the pending rows' lose bits once; when none loses at the
    step, the rows that do not win there are the ones tied."""
    pending = rows
    for bit in steps:
        if functools.reduce(operator.or_, map(_LOSE, pending), 0) & bit:
            return False
        pending = [r for r in pending if not r[0] & bit]
    return not any(map(_STRICT, pending))


def _greedy(
    rows: list[tuple[int, int, bool]],
    settle_weak: bool,
    deadline: float | None = None,
) -> tuple[list[int], list[tuple[int, int, bool]], bool]:
    """The greedy, on ``(win, lose, strict)`` rows whose bits are the levels
    a model can take, lowest bit first.

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
    statement's row: its wins and losses swapped, its strictness flipped."""
    return row[1], row[0], not row[2]


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
    return Reasoner(space, c, "lex", limits).is_consistent(statements)


# Kept for the benchmark's tracer, which wraps ``sign_matrix``, ``_lex_greedy``
# and ``_lex_consistent_from_signs`` (after ``Reasoner``) by name and reads
# ``sign_matrix(...)[0].size`` and ``_lex_greedy(...)[2]``. Each delegates to
# the one kernel; nothing in the package calls them.
def sign_matrix(statements: Sequence[Statement], space: VariableSpace, c: Combiner):
    rows = Reasoner(space, c, "lex").rows(statements)
    return SimpleNamespace(rows=rows, size=len(rows) * space.size), tuple(map(_STRICT, rows))


def _lex_greedy(rows: list[tuple[int, int, bool]], deadline: float | None = None):
    path, pending, stalled = _greedy(rows, True, deadline)
    return path, pending, len(path), stalled


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
    """What rows need of a space and a combiner over one level list, the
    canonical levels or the singletons: the levels, every level's bit, the
    lane shape, each alternative's packed lanes, and the non-trivial row
    language. None of it depends on variable names, stakeholders or a
    request, only on the space's domains and the combiner.

    Lanes are packed on first need and kept per alternative (``packed``),
    except where they are the alternatives' own (``bytewise``). The row
    language and the alternatives it indexes are built on first ask
    (``row_language``) and stored, as tuples, only once complete: a build
    stopped by the deadline or a ``DomainMismatchError`` leaves nothing.
    """

    __slots__ = (
        "space", "c", "singletons", "levels", "all_levels", "bias", "most", "nbytes",
        "size", "top", "keeps", "bytewise", "lanes", "alternatives", "language",
    )

    def __init__(self, space: VariableSpace, c: Combiner, singletons: bool = False) -> None:
        """The levels and the lane shape. Table folds are packed as their
        rank in the universe. Built-in folds over canonical levels are
        biased by a bound on every subset fold over the space's domains, the
        product of max(|lo|, |hi|, 2) over the variables. It bounds sums
        (a + b <= ab for a, b >= 2), products, minima and maxima, and, with
        two variables or more, bitwise and and or, which stay within the
        two's-complement width of their arguments. A singleton fold is a
        single value: biased by the lowest domain value below 0, and held in
        lanes wide enough for the highest, up to what they can hold. Lanes
        are whole bytes with the highest value below the top bit, as
        ``lanes_at_most`` needs."""
        self.space, self.c, self.singletons = space, c, singletons
        n = space.size
        self.levels = [1 << v for v in range(n)] if singletons else _canonical_levels(n)
        nlevels = len(self.levels)
        self.all_levels = (1 << nlevels) - 1
        rank = c.rank
        if rank:
            self.bias, self.most = 0, len(rank) - 1
        elif singletons:
            self.bias = max(-min(d[0] for d in space.domains), 0)
            self.most = max(d[-1] for d in space.domains) + self.bias
        else:
            self.bias = math.prod(max(abs(d[0]), abs(d[-1]), 2) for d in space.domains)
            self.most = 2 * self.bias
        self.nbytes = (self.most.bit_length() + 8) // 8
        # Singleton rows under a built-in combiner compare values in the
        # plain integer order whatever the space, so they are kept on the
        # statement, and any value the lanes hold is packed.
        self.keeps = singletons and not rank
        if self.keeps:
            self.most = (1 << 8 * self.nbytes - 1) - 1
        self.bytewise = self.keeps and self.nbytes == 1 and not self.bias
        self.size = nlevels * self.nbytes
        self.top = _top_bits(nlevels, 8 * self.nbytes)
        self.lanes: dict[tuple[int, ...], int] = {}
        self.alternatives: tuple[Alternative, ...] | None = None
        self.language: tuple[tuple, tuple] | None = None

    def packed(self, alt: Alternative) -> int:
        """``alt``'s folds over the levels, lane ``j`` holding level ``j``'s,
        packed once per compiled space, or the alternative's own lanes. A
        value the lanes cannot hold (one outside a table's universe, or a
        built-in fold beyond the bound) is refused."""
        if self.bytewise:
            if alt.lanes is None:
                raise DomainMismatchError(f"alternative {alt} is outside the universe or domains")
            return alt.lanes
        lanes = self.lanes.get(alt.values)
        if lanes is None:
            if self.singletons:
                folds = alt.values
            else:
                every = _subset_folds(alt, self.space.size, self.c)
                folds = [every[m] for m in self.levels]
            rank, bias = self.c.rank, self.bias
            if rank:
                try:
                    vals = [rank[f] for f in folds]
                except KeyError as exc:
                    raise DomainMismatchError(
                        f"value {exc.args[0]} outside combiner universe"
                    ) from None
            else:
                vals = [f + bias for f in folds]
                if min(vals) < 0 or max(vals) > self.most:
                    raise DomainMismatchError(
                        f"alternative {alt} is outside the universe or domains"
                    )
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

    def row(self, s: Statement) -> tuple[int, int, bool]:
        """``s``'s row, derived from its sides' lanes, and kept on ``s`` when
        the space ``keeps``. A side without a value per variable is refused."""
        n = self.space.size
        if len(s.left.values) != n or len(s.right.values) != n:
            raise DomainMismatchError(f"statement {s} does not have {n} values a side")
        row = self.pair_row(self.packed(s.left), self.packed(s.right)) + (s.strict,)
        if self.keeps:
            _set(s, "sign_row", row)
        return row

    def rows(self, statements: Sequence[Statement], memo: dict) -> list[tuple[int, int, bool]]:
        """The statements' rows, in order: gathered from the statements when
        the space ``keeps`` them, else from ``memo``, a request's rows by
        statement, and derived for the rest. A kept row shows that both
        sides had the length they have now, so only the left side is
        measured against the space."""
        row = self.row
        if self.keeps:
            n = self.space.size
            return [len(s.left.values) == n and s.sign_row or row(s) for s in statements]
        get = memo.get
        return [get(s) or memo.setdefault(s, row(s)) for s in statements]

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


# The canonical space and the singleton space compiled last. One of each is
# kept, so what outlives a request is bounded by one space's language; a
# request over another space replaces the one of its kind, and neither
# evicts the other.
_compiled: CompiledSpace | None = None
_singles: CompiledSpace | None = None


@atexit.register
def _release() -> None:
    """Drop the kept spaces at exit. Freed here, before the interpreter's
    closing garbage collections, they cost a one-request process what
    freeing them at the end of the request would; kept alive into them,
    they also traverse them."""
    global _compiled, _singles
    _compiled = _singles = None


def compile_space(space: VariableSpace, c: Combiner, singletons: bool = False) -> CompiledSpace:
    """The compiled space for ``space``'s domains and ``c``, over the
    canonical levels or the singletons: the one of that kind kept if it
    matches, else a new one, which is then kept instead. The same domains
    and combiner objects match without comparing their values."""
    global _compiled, _singles
    cs = _singles if singletons else _compiled
    if (
        cs is None
        or cs.space.domains is not space.domains and cs.space.domains != space.domains
        or cs.c is not c and cs.c != c
    ):
        cs = CompiledSpace(space, c, singletons)
        if singletons:
            _singles = cs
        else:
            _compiled = cs
    return cs


class Reasoner:
    """Consistency, entailment, equivalence and triviality for one space,
    combiner, model class and set of limits: one request.

    A statement's *row* is the ``(win, lose, strict)`` that ``_greedy``
    reads, compiled over the model class's levels: the n singletons under
    lexicographic models, the canonical levels under hierarchical ones
    (``compiled``). Each question reads rows, whichever the class:
    ``consistent`` and ``entails`` run the greedy (``_path``), and the inner
    questions (``consistent_rows``, ``consistent_with_each``,
    ``entailed_by_some``, ``equivalence_key``, and ``midground``'s
    searches) take rows. ``nontrivial_rows`` gives the non-trivial part of
    the full language as rows, and ``statement`` builds a ``Statement`` only
    for an entry a caller keeps. Only ``is_consistent``'s witness, and the
    caps on hierarchical spaces (``_check_cap``), depend on the class.

    The request's deadline (``limits.timeout_ms``) is armed once, when the
    reasoner is made, and every greedy call and ``check_deadline`` reads it,
    so the timeout binds the whole request. What depends only on the
    space's domains and the combiner (the levels, the packed lanes, the row
    language) outlives the request: it is a ``CompiledSpace`` kept for the
    process, fetched on first need, and only the last canonical space and
    the last singleton space compiled are kept (``compile_space``). The
    rest is per request: the rows of the
    statements met (singleton rows under a built-in combiner are kept on
    the statements instead), and ``memo``, which keeps what ``midground``
    settles about a profile.
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
        """The compiled space the model class's rows are read from, over the
        singleton levels under lexicographic models and the canonical ones
        under hierarchical models, fetched (``compile_space``) on first need
        and held for the request."""
        cs = self._cs
        if cs is None:
            cs = self._cs = compile_space(self.space, self.c, self.model_class == "lex")
        return cs

    def _check_cap(self, cap: int, what: str) -> None:
        """Refuse a hierarchical space of more than ``cap`` variables, before
        any of its 2^n - 1 levels is compiled; a singleton space has n."""
        n = self.space.size
        if n > cap and self.model_class != "lex":
            raise CapacityError(f"{what} capped at {cap} variables, got {n}")

    def row(self, s) -> tuple[int, int, bool]:
        """``s``'s row: where its left side wins, where it loses, and whether
        ``s`` is strict. A row is its own row, so each question that reads
        one statement's row takes the row instead."""
        if type(s) is tuple:
            return s
        return self._rows.get(s) or self.compiled().rows((s,), self._rows)[0]

    def rows(self, statements: Sequence[Statement]) -> list[tuple[int, int, bool]]:
        """The statements' rows, in order (``CompiledSpace.rows``)."""
        return self.compiled().rows(statements, self._rows)

    def classify(self, s: Statement) -> Triviality:
        """Tautology / contradiction / non-trivial, over the model class.

        A statement is a tautology when it holds at every model and a
        contradiction when it holds at none, read off its row
        (``_classify_row``). Under the sum combiner subset sums inherit the
        signs of the per-variable differences, so the row over the singleton
        levels decides for both classes, with no cap.
        """
        if self.c.kind == "sum":
            single = compile_space(self.space, self.c, singletons=True)
            return self._classify_row(single.rows((s,), self._rows)[0], single)
        self._check_cap(MAX_VARS_CLASSIFY, "generic classification")
        return self._classify_row(s)

    def _classify_row(self, s, cs: CompiledSpace | None = None) -> Triviality:
        """Triviality read off the row of ``s`` (or ``s``, a row) over the
        levels of ``cs``, by default the model class's.

        A one-level model decides at that level, so a strict statement holds
        at every model iff it wins at every level, and a weak one iff it
        loses at none; both hold at no model iff they hold at no level.
        """
        win, lose, strict = self.row(s)
        everywhere = (cs or self.compiled()).all_levels
        holds = win if strict else everywhere & ~lose
        if holds == everywhere:
            return Triviality.TAUTOLOGY
        if not holds:
            return Triviality.CONTRADICTION
        return Triviality.NON_TRIVIAL

    def nontrivial_rows(self) -> tuple[tuple, tuple]:
        """The non-trivial statements between two alternatives of the space
        as entries ``(i, j, strict, row)``: ``alternatives[i]`` over
        ``alternatives[j]`` (``CompiledSpace.alternatives``), ``i`` in the
        outer loop, then ``j``, weak before strict, and the statement's row;
        no ``Statement`` is built. Returns the entries and, in the same
        order, their rows.

        The weak ``a >= b`` is non-trivial when ``a`` loses at some level but
        not at all, the strict ``a > b`` when it wins at some level but not
        at all (``_classify_row``; under ``sum``, whose ``classify`` reads
        singleton rows, a subset sum wins or loses everywhere iff every
        variable does). Each pair is compared once: ``b`` over ``a`` wins
        where ``a`` over ``b`` loses, and ``a`` over ``a`` is trivial.

        The language is built once per compiled space, so a request over a
        space compiled before reads it. The classification cap is checked,
        and then the deadline read, before it is fetched or built; a build
        reads the deadline once per ``i``.
        """
        self._check_cap(MAX_VARS_CLASSIFY, "generic classification")
        self.check_deadline()
        return self.compiled().row_language(self.check_deadline)

    def statement(self, entry: tuple[int, int, bool, tuple[int, int, bool]]) -> Statement:
        """The ``Statement`` of a ``nontrivial_rows`` entry, its row stored."""
        i, j, strict, row = entry
        alternatives = self.compiled().alternatives
        s = Statement(alternatives[i], alternatives[j], strict)
        self._rows[s] = row
        return s

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

    def consistent_with_each(self, s, others: Sequence) -> bool:
        """Whether ``{s, u}`` is consistent for every row ``u`` in
        ``others``, each consistent alone: ``_pair_consistent``, with no
        greedy. ``s`` is a statement or its row; a contradiction is
        consistent with nothing.
        """
        if self._classify_row(s) is Triviality.CONTRADICTION:
            return not others
        row = self.row(s)
        return all(self._pair_consistent(row, u) for u in others)

    def entailed_by_some(self, premise_sets: Sequence[Sequence], s) -> bool:
        """Whether some set of ``premise_sets`` (each consistent, and given
        as rows) entails ``s``, a statement or its row.

        A set entails ``s`` when its rows plus ``s``'s complement row
        (``entails``) are inconsistent. For a set of one statement that is
        ``_pair_consistent`` negated, with no greedy: the complement is
        consistent alone unless ``s`` is a tautology, and every set entails
        a tautology.
        """
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
        return self.consistent_rows(self._capped_rows(statements))

    def consistent_rows(self, rows: list) -> bool:
        """``consistent`` for statements given by their rows."""
        return self._path(rows)[0] is not None

    def _capped_rows(self, statements: Sequence[Statement]) -> list[tuple[int, int, bool]]:
        """The rows a search over ``statements`` runs on. The hierarchical
        search cap is checked first, so a space too wide to search is
        refused before any of it is compiled."""
        self._check_cap(self.limits.max_vars_hier, "hierarchical search")
        return self.rows(statements)

    def is_consistent(self, statements: Sequence[Statement]) -> ConsistencyResult:
        """Consistency with a constructed, re-checked witness.

        This is the call for answers that leave the process: ``check``, the
        public ``is_consistent*`` functions, P1 of ``check_postulates`` and
        each ground ``construct_mgs`` returns. A lexicographic witness is
        the greedy run until every row is settled, re-checked on the rows
        (``_lex_witness_ok``); a hierarchical one is the greedy's levels,
        re-checked statement by statement (``models.satisfies_set``). A
        failure raises ``RuntimeError``. Inner questions that only read the
        verdict ask ``consistent``. See ``is_consistent_hier`` for why the
        greedy never needs to undo a level.
        """
        lex = self.model_class == "lex"
        stmts = statements if lex else dedupe_statements(statements)
        rows = self._capped_rows(stmts)
        steps, taken, stalled = self._path(rows, settle_weak=lex)
        # Each class's counters, as its engine has always reported them.
        if lex:
            stats = SearchStats(taken, self.space.size * (taken + stalled))
        else:
            stats = SearchStats(taken + stalled, taken)
        if steps is None:
            return ConsistencyResult(False, None, stats)
        if lex:
            witness = LexicographicModel(tuple(bit.bit_length() - 1 for bit in steps))
            holds = _lex_witness_ok(rows, steps)
        else:
            n, levels = self.space.size, self.compiled().levels
            witness = HierarchicalModel(
                tuple(
                    frozenset(v for v in range(n) if levels[bit.bit_length() - 1] >> v & 1)
                    for bit in steps
                )
            )
            holds = satisfies_set(witness, stmts, self.c)
        if not holds:
            raise RuntimeError("internal error: witness failed re-check")
        return ConsistencyResult(True, witness, stats)

    def _path(
        self, rows: list, settle_weak: bool = False
    ) -> tuple[list[int] | None, int, bool]:
        """The greedy on rows: a model's steps (bits of ``all_levels``), or
        ``None`` when the rows have no model, then the number of steps the
        greedy took and whether it stalled.

        The rows have no model iff the greedy leaves a strict row pending.
        With only weak rows left it stops, or, with ``settle_weak``, goes on
        while it can: the same verdict, by longer paths. A path with no step
        is no model; any step at which nothing loses will do. The deadline
        is read on entry, so a request whose rows are all weak, on which the
        greedy takes no step, still stops once it has run out of time.
        """
        self.check_deadline()
        path, pending, stalled = _greedy(rows, settle_weak, self.deadline)
        if any(map(_STRICT, pending)):
            return None, len(path), stalled
        if path:
            return path, len(path), stalled
        lose = functools.reduce(operator.or_, map(_LOSE, pending), 0)
        safe = self.compiled().all_levels & ~lose
        return ([safe & -safe] if safe else None), 0, stalled

    def entails(self, premises: Sequence[Statement], s: Statement) -> bool:
        """Whether every model of ``premises`` satisfies ``s``: the premises
        plus ``s``'s complement are inconsistent. The complement's row is
        ``s``'s row read the other way round, with the strictness flipped."""
        rows = self._capped_rows((*premises, s))
        rows[-1] = complement_row(rows[-1])
        return not self.consistent_rows(rows)

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

    def equivalence_key(self, s) -> tuple:
        """Grouping key: non-trivial statements that hold in the same models
        share it. ``s`` is a statement or its row.

        The key is the row, plus the strictness when the row has a tie. For
        non-trivial statements it is exact. Where two rows differ at a level,
        the one-level model at that level separates the two statements,
        unless one wins there and the other ties and is weak; then that
        level followed by one where the weak statement loses (it loses
        somewhere, being no tautology) does. Equal rows with a tie differ
        only in strictness, which the one-level model at the tie shows;
        equal rows without one decide every model alike.
        """
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


# Kept for the benchmark's tracer, with ``sign_matrix`` and ``_lex_greedy``.
_lex_consistent_from_signs = Reasoner.consistent_rows
