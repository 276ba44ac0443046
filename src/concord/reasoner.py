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
    limits: Limits = DEFAULT_LIMITS,
    method: str = "auto",
) -> Triviality:
    """Tautology / contradiction / non-trivial, over hierarchical models.

    A non-strict statement is a tautology exactly when its left side folds at
    least as high as its right side on every non-empty variable subset (strict:
    strictly higher everywhere); a contradiction is a statement whose
    complement is a tautology. The sum combiner admits a per-variable shortcut
    because subset sums inherit the signs of the per-variable differences: its
    verdict is the lexicographic one.
    """
    if method not in ("auto", "generic", "fast"):
        raise ValueError(f"unknown classify method {method!r}")
    if method == "fast" or (method == "auto" and c.kind == "sum"):
        if c.kind != "sum":
            raise ValueError("the fast path only covers the sum combiner")
        return classify_lex(s, space, c)
    if space.size > limits.max_vars_classify:
        raise CapacityError(
            f"generic classification capped at {limits.max_vars_classify} variables"
        )
    return _classify_generic(s, space, c)


def _classify_generic(s: Statement, space: VariableSpace, c: Combiner) -> Triviality:
    n = space.size
    left = _subset_folds(s.left, n, c)
    right = _subset_folds(s.right, n, c)
    has_lt = has_gt = has_eq = False
    for mask in range(1, 1 << n):
        cv = c.compare_values(left[mask], right[mask])
        if cv < 0:
            has_lt = True
        elif cv > 0:
            has_gt = True
        else:
            has_eq = True
        if has_lt and has_gt:
            break
    return _verdict_from_flags(s.strict, has_lt, has_gt, has_eq)


def _verdict_from_flags(strict: bool, lt: bool, gt: bool, eq: bool) -> Triviality:
    if strict:
        if not lt and not eq:
            return Triviality.TAUTOLOGY
        if not gt:
            return Triviality.CONTRADICTION
    else:
        if not lt:
            return Triviality.TAUTOLOGY
        if not gt and not eq:
            return Triviality.CONTRADICTION
    return Triviality.NON_TRIVIAL


def classify_lex(s: Statement, space: VariableSpace, c: Combiner) -> Triviality:
    """Triviality over lexicographic models; only per-variable signs matter."""
    signs = c.signs(s)
    has_neg = any(x < 0 for x in signs)
    has_pos = any(x > 0 for x in signs)
    has_zero = any(x == 0 for x in signs)
    return _verdict_from_flags(s.strict, has_neg, has_pos, has_zero)


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


def _canonical_levels(n: int, max_level_size: int | None) -> list[int]:
    """Level bitmasks ordered by cardinality, then by sorted variable indices."""
    cap = n if max_level_size is None else min(n, max_level_size)
    levels: list[tuple[tuple[int, ...], int]] = []
    for mask in range(1, 1 << n):
        idx = tuple(v for v in range(n) if mask >> v & 1)
        if len(idx) <= cap:
            levels.append((idx, mask))
    levels.sort(key=lambda pair: (len(pair[0]), pair[0]))
    return [mask for _, mask in levels]


def is_consistent_hier(
    statements: Sequence[Statement],
    space: VariableSpace,
    c: Combiner,
    limits: Limits = DEFAULT_LIMITS,
    max_level_size: int | None = None,
) -> ConsistencyResult:
    stmts = dedupe_statements(statements)
    n = space.size
    if n > limits.max_vars_hier:
        raise CapacityError(
            f"hierarchical search capped at {limits.max_vars_hier} variables, got {n}"
        )
    if not stmts:
        return ConsistencyResult(True, HierarchicalModel((frozenset((0,)),)))
    folds: dict[Alternative, list[int]] = {}
    for s in stmts:
        for alt in (s.left, s.right):
            if alt not in folds:
                folds[alt] = _subset_folds(alt, n, c)
    level_masks = _canonical_levels(n, max_level_size)
    cmp = np.empty((len(stmts), len(level_masks)), dtype=np.int8)
    for i, s in enumerate(stmts):
        lf = folds[s.left]
        rf = folds[s.right]
        row = cmp[i]
        for j, mask in enumerate(level_masks):
            row[j] = c.compare_values(lf[mask], rf[mask])
    strict = np.array([s.strict for s in stmts], dtype=bool)
    deadline = None
    if limits.timeout_ms is not None:
        deadline = time.monotonic() + limits.timeout_ms / 1000.0

    def to_level(mask: int) -> frozenset[int]:
        return frozenset(v for v in range(n) if mask >> v & 1)

    stats = {"nodes": 0, "tried": 0}

    if not strict.any():
        # Only non-strict statements: one level at which nothing loses settles
        # it (later levels could not overturn anything anyway).
        for j, mask in enumerate(level_masks):
            stats["tried"] += 1
            if not (cmp[:, j] < 0).any():
                witness = HierarchicalModel((to_level(mask),))
                _check_hier_witness(witness, stmts, c)
                return ConsistencyResult(
                    True, witness, SearchStats(0, stats["tried"])
                )
        return ConsistencyResult(False, None, SearchStats(0, stats["tried"]))

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
    stats_out = SearchStats(stats["nodes"], stats["tried"])
    if path is None:
        return ConsistencyResult(False, None, stats_out)
    witness = HierarchicalModel(tuple(to_level(level_masks[j]) for j in path))
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
    from .domain import complement

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
