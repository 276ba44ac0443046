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
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import (
    Alternative,
    Combiner,
    Statement,
    Triviality,
    VariableSpace,
    complement,
    dedupe_statements,
)
from .errors import CapacityError, IndeterminateError
from .models import HierarchicalModel, LexicographicModel, satisfies_set
from .results import ConsistencyResult, SearchStats


@dataclass(frozen=True)
class Limits:
    """Capacity knobs; the defaults match the documented caps."""

    max_vars_hier: int = 14
    max_vars_classify: int = 20
    max_language: int = 1_000_000
    timeout_ms: int | None = None
    oracle_budget: int = 200_000


DEFAULT_LIMITS = Limits()


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


def sign_matrix(
    statements: Sequence[Statement], c: Combiner
) -> tuple[np.ndarray, np.ndarray]:
    """Per-variable comparison signs (rows = statements) plus strictness flags."""
    if c.rank is None:
        left = np.array([s.left.values for s in statements], dtype=np.int64)
        right = np.array([s.right.values for s in statements], dtype=np.int64)
        signs = np.sign(left - right).astype(np.int8)
    else:
        signs = np.array([c.signs(s) for s in statements], dtype=np.int8)
    strict = np.array([s.strict for s in statements], dtype=bool)
    return signs, strict


def _lex_witness_ok(
    signs: np.ndarray, strict: np.ndarray, variables: Sequence[int]
) -> bool:
    if signs.shape[0] == 0:
        return True
    sub = signs[:, list(variables)]
    nz = sub != 0
    decided = nz.any(axis=1)
    first = np.argmax(nz, axis=1)
    val = sub[np.arange(sub.shape[0]), first]
    ok = np.where(decided, val > 0, ~strict)
    return bool(ok.all())


def _lex_greedy(
    signs: np.ndarray, nvars: int
) -> tuple[list[int], np.ndarray, int, int]:
    """Shared greedy elimination over a sign matrix.

    Returns the chosen variable prefix, the statements still undecided when
    the greedy stalls, and the node / candidate counters.
    """
    active = np.ones(signs.shape[0], dtype=bool)
    avail = np.ones(nvars, dtype=bool)
    chosen: list[int] = []
    nodes = 0
    tried = 0
    while active.any():
        sub = signs[active]
        losing = (sub < 0).any(axis=0)
        winning = (sub > 0).any(axis=0)
        prog = avail & ~losing & winning
        tried += nvars
        hits = np.flatnonzero(prog)
        if hits.size == 0:
            break
        v = int(hits[0])
        chosen.append(v)
        avail[v] = False
        active &= signs[:, v] == 0
        nodes += 1
    return chosen, active, nodes, tried


def _lex_consistent_from_signs(
    signs: np.ndarray, strict: np.ndarray, nvars: int
) -> tuple[tuple[int, ...] | None, int, int]:
    """The lexicographic verdict over a sign matrix: the greedy plus its stall rule.

    Returns the witness variables (``None`` when inconsistent) and the
    greedy's node / candidate counters. When the greedy stalls with only
    non-strict statements pending and nothing chosen yet, a single variable at
    which nothing loses still witnesses consistency (models cannot be empty);
    with something chosen, the pending statements tie on every chosen variable
    and the prefix itself is a witness.
    """
    chosen, active, nodes, tried = _lex_greedy(signs, nvars)
    if bool(strict[active].any()):
        return None, nodes, tried
    if chosen:
        return tuple(chosen), nodes, tried
    if not bool(active.any()):
        return (0,), nodes, tried
    safe = np.flatnonzero(~(signs[active] < 0).any(axis=0))
    if safe.size == 0:
        return None, nodes, tried
    return (int(safe[0]),), nodes, tried


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
    signs, strict = sign_matrix(stmts, c)
    variables, nodes, tried = _lex_consistent_from_signs(signs, strict, space.size)
    stats = SearchStats(nodes=nodes, levels_tried=tried)
    if variables is None:
        return ConsistencyResult(False, None, stats)
    if not _lex_witness_ok(signs, strict, variables):
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
        cap = self.limits.max_vars_classify
        if self.space.size > cap:
            raise CapacityError(f"generic classification capped at {cap} variables")
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
        pending = rows
        path: list[int] = []
        nodes = 0
        while any(strict for _, _, strict in pending):
            nodes += 1
            if deadline is not None and time.monotonic() > deadline:
                raise IndeterminateError("hierarchical search timed out")
            win = lose = 0
            for w, l, _ in pending:
                win |= w
                lose |= l
            eligible = win & ~lose
            if not eligible:
                return ConsistencyResult(False, None, SearchStats(nodes, len(path)))
            level = eligible & -eligible
            path.append(level.bit_length() - 1)
            pending = [r for r in pending if not (r[0] | r[1]) & level]
        stats = SearchStats(nodes, len(path))
        if not path:
            # Only weak statements: a model needs one level, and any level at
            # which nothing loses will do.
            lose = 0
            for _, l, _ in rows:
                lose |= l
            safe = self._all_levels & ~lose
            if not safe:
                return ConsistencyResult(False, None, stats)
            path.append((safe & -safe).bit_length() - 1)
        witness = HierarchicalModel(
            tuple(
                frozenset(v for v in range(n) if self.levels[j] >> v & 1)
                for j in path
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
    if model_class == "lex":
        return is_consistent_lex(statements, space, c, limits)
    return is_consistent_hier(statements, space, c, limits)


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
