"""Consistency, entailment, equivalence and triviality classification.

Two engines live here. The lexicographic one is a greedy variable-by-variable
construction (safe because appending a variable at which no pending statement
strictly loses preserves satisfiability, and a satisfying model's first
separating variable is always such a variable). The hierarchical one is a
backtracking search over sequences of distinct canonical levels; it only
expands levels that decide at least one pending statement and never lets a
pending statement lose, which bounds the depth by the number of statements.
"""

from __future__ import annotations

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
    """Tautology / contradiction / non-trivial, over the given model class.

    A statement is a tautology when it holds at every model and a
    contradiction when it holds at none. Lexicographic models only see the
    per-variable comparison signs. Hierarchical ones see the comparison of the
    two sides' folds on every non-empty variable subset, except under the sum
    combiner, where subset sums inherit the signs of the per-variable
    differences and the lexicographic verdict applies.
    """
    if model_class == "lex" or c.kind == "sum":
        return classify_lex(s, space, c)
    if space.size > limits.max_vars_classify:
        raise CapacityError(
            f"generic classification capped at {limits.max_vars_classify} variables"
        )
    return _classify_hier(s, space, c)


def _classify_hier(s: Statement, space: VariableSpace, c: Combiner) -> Triviality:
    """Triviality over hierarchical models, read off the statement's table row."""
    n = space.size
    return _triviality(_level_table((s,), n, c, range(1, 1 << n))[0], s.strict)


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
    """Level bitmasks ordered by cardinality, then by sorted variable indices."""
    levels = [
        (tuple(v for v in range(n) if mask >> v & 1), mask)
        for mask in range(1, 1 << n)
    ]
    levels.sort(key=lambda pair: (len(pair[0]), pair[0]))
    return [mask for _, mask in levels]


def _level_table(
    stmts: Sequence[Statement], n: int, c: Combiner, level_masks: Sequence[int]
) -> list[list[int]]:
    """Statement x level comparison signs; each distinct alternative folds once.

    Rows stay plain lists: element reads on numpy rows are several times slower."""
    folds: dict[Alternative, list[int]] = {}
    for s in stmts:
        for alt in (s.left, s.right):
            if alt not in folds:
                folds[alt] = _subset_folds(alt, n, c)
    compare = c.compare_values
    table = []
    for s in stmts:
        lf, rf = folds[s.left], folds[s.right]
        table.append([compare(lf[m], rf[m]) for m in level_masks])
    return table


def is_consistent_hier(
    statements: Sequence[Statement],
    space: VariableSpace,
    c: Combiner,
    limits: Limits = DEFAULT_LIMITS,
) -> ConsistencyResult:
    """Hierarchical consistency with a constructed, re-checked witness.

    The search runs over sequences of distinct levels taken from the
    canonical order (by cardinality, then by sorted variable indices). Each
    chosen level must decide some pending statement and let none lose; the
    statements it ties stay pending. With no strict statement pending, the
    path found so far is the witness; with none chosen yet, the first
    canonical level at which nothing loses is. The witness is re-checked
    against every statement before it is returned. ``limits.timeout_ms``
    bounds this one call, not the request that makes it.
    """
    stmts = dedupe_statements(statements)
    n = space.size
    if n > limits.max_vars_hier:
        raise CapacityError(
            f"hierarchical search capped at {limits.max_vars_hier} variables, got {n}"
        )
    if not stmts:
        return ConsistencyResult(True, HierarchicalModel((frozenset((0,)),)))
    level_masks = _canonical_levels(n)
    cmp = np.array(_level_table(stmts, n, c, level_masks), dtype=np.int8)
    strict = np.array([s.strict for s in stmts], dtype=bool)
    deadline = None
    if limits.timeout_ms is not None:
        deadline = time.monotonic() + limits.timeout_ms / 1000.0
    stats = {"nodes": 0, "tried": 0}
    failed: set[frozenset[int]] = set()

    def search(undecided: frozenset[int]) -> list[int] | None:
        if not any(strict[i] for i in undecided):
            return []
        stats["nodes"] += 1
        if deadline is not None and time.monotonic() > deadline:
            raise IndeterminateError("hierarchical search timed out")
        rows = sorted(undecided)
        block = cmp[rows]
        lose = (block < 0).any(axis=0)
        win = (block > 0).any(axis=0)
        for j in np.flatnonzero(~lose & win):
            stats["tried"] += 1
            nxt = frozenset(i for i in rows if cmp[i, j] == 0)
            if nxt in failed:
                continue
            rec = search(nxt)
            if rec is not None:
                return [int(j)] + rec
        failed.add(undecided)
        return None

    path = search(frozenset(range(len(stmts))))
    if path == []:
        # Only weak statements: a model needs one level, and any level at
        # which nothing loses will do.
        safe = np.flatnonzero(~(cmp < 0).any(axis=0))
        path = [int(safe[0])] if safe.size else None
    stats_out = SearchStats(stats["nodes"], stats["tried"])
    if path is None:
        return ConsistencyResult(False, None, stats_out)
    witness = HierarchicalModel(
        tuple(
            frozenset(v for v in range(n) if level_masks[j] >> v & 1) for j in path
        )
    )
    _check_hier_witness(witness, stmts, c)
    return ConsistencyResult(True, witness, stats_out)


def _check_hier_witness(
    witness: HierarchicalModel, stmts: Sequence[Statement], c: Combiner
) -> None:
    if not satisfies_set(witness, stmts, c):
        raise RuntimeError("internal error: hierarchical witness failed re-check")


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
    combined = tuple(premises) + (complement(s),)
    return not is_consistent(combined, space, c, model_class, limits).consistent


def equivalent(
    first: Sequence[Statement],
    second: Sequence[Statement],
    space: VariableSpace,
    c: Combiner,
    model_class: str,
    limits: Limits = DEFAULT_LIMITS,
) -> bool:
    a = dedupe_statements(first)
    b = dedupe_statements(second)
    if frozenset(a) == frozenset(b):
        return True
    return all(entails(a, s, space, c, model_class, limits) for s in b) and all(
        entails(b, s, space, c, model_class, limits) for s in a
    )
