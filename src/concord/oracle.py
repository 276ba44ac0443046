"""Brute-force reference implementations.

Everything in this module trades speed for being definitionally right. The
fast engines in ``reasoner`` and ``midground`` are tested against these.

Enumerating every hierarchical model is impossible (levels may repeat without
bound), so the hierarchical oracles enumerate a finite universe that is
*verdict-complete* for a given set of statements: every model agrees with some
enumerated model on all of those statements. The argument: deleting a level
that is not the first deciding level of any statement never changes a verdict,
what remains is a sequence of distinct levels each separating at least one
statement, and its length is at most min(#statements, #separating levels). A
model whose levels all tie everything is covered by one representative built
from a single universally tying level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .domain import (
    Combiner,
    Profile,
    Statement,
    VariableSpace,
    dedupe_statements,
)
from .errors import CapacityError
from .results import MiddleGroundSet, canonical_grounds
from .models import (
    HierarchicalModel,
    LexicographicModel,
    Model,
    compare,
    Comparison,
    satisfies,
    satisfies_set,
)

DEFAULT_BUDGET = 200_000


def enumerate_lex_models(space: VariableSpace) -> list[LexicographicModel]:
    """All non-empty sequences of distinct variables (complete for |V| <= 7)."""
    if space.size > 7:
        raise CapacityError(f"lex enumeration capped at 7 variables, got {space.size}")
    out = []
    idx = range(space.size)
    for k in range(1, space.size + 1):
        for perm in itertools.permutations(idx, k):
            out.append(LexicographicModel(perm))
    return out


def enumerate_hier_models(space: VariableSpace, max_depth: int) -> list[HierarchicalModel]:
    """All sequences of distinct non-empty variable subsets up to max_depth."""
    if space.size > 4 or max_depth > 3:
        raise CapacityError("hier enumeration capped at 4 variables, depth 3")
    levels = all_levels(space)
    out = []
    for k in range(1, max_depth + 1):
        for seq in itertools.permutations(levels, k):
            out.append(HierarchicalModel(seq))
    return out


def all_levels(space: VariableSpace) -> list[frozenset[int]]:
    """Non-empty variable subsets in canonical order: by size, then by index."""
    idx = range(space.size)
    out = []
    for k in range(1, space.size + 1):
        for combo in itertools.combinations(idx, k):
            out.append(frozenset(combo))
    return out


@dataclass(frozen=True)
class ModelUniverse:
    """A verdict-complete finite model set for a fixed statement universe."""

    models: tuple[Model, ...]
    statements: tuple[Statement, ...]


def hier_universe(
    space: VariableSpace,
    combiner: Combiner,
    statements: Sequence[Statement],
    budget: int = DEFAULT_BUDGET,
) -> ModelUniverse:
    """Verdict-complete hierarchical universe for the given statements."""
    stmts = dedupe_statements(statements)
    separating: list[frozenset[int]] = []
    tying: frozenset[int] | None = None
    for level in all_levels(space):
        model = HierarchicalModel((level,))
        if any(compare(model, s.left, s.right, combiner) is not Comparison.TIE for s in stmts):
            separating.append(level)
        elif tying is None:
            tying = level
    depth = min(len(stmts), len(separating))
    total = 0
    count = 1
    for k in range(1, depth + 1):
        count = count * (len(separating) - k + 1)
        total += count
        if total > budget:
            raise CapacityError(
                f"hierarchical universe needs more than {budget} models"
            )
    models: list[Model] = []
    for k in range(1, depth + 1):
        for seq in itertools.permutations(separating, k):
            models.append(HierarchicalModel(seq))
    if tying is not None:
        models.append(HierarchicalModel((tying,)))
    if not models:
        # No statements at all; a single arbitrary level represents every model.
        models.append(HierarchicalModel((frozenset((0,)),)))
    return ModelUniverse(tuple(models), stmts)


def lex_universe(space: VariableSpace, statements: Sequence[Statement]) -> ModelUniverse:
    return ModelUniverse(
        tuple(enumerate_lex_models(space)), dedupe_statements(statements)
    )


def universe_for(
    profile_or_space,
    combiner: Combiner | None = None,
    model_class: str | None = None,
    statements: Sequence[Statement] = (),
    budget: int = DEFAULT_BUDGET,
) -> ModelUniverse:
    """Universe for either a Profile or an explicit (space, combiner, class)."""
    if isinstance(profile_or_space, Profile):
        p = profile_or_space
        space, combiner, model_class = p.space, p.combiner, p.model_class
    else:
        space = profile_or_space
        assert combiner is not None and model_class is not None
    if model_class == "lex":
        return lex_universe(space, statements)
    return hier_universe(space, combiner, statements, budget)


def brute_consistent(
    statements: Sequence[Statement],
    space: VariableSpace,
    combiner: Combiner,
    model_class: str,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    uni = universe_for(space, combiner, model_class, statements, budget)
    return any(satisfies_set(m, uni.statements, combiner) for m in uni.models)


def brute_entails(
    premises: Sequence[Statement],
    conclusion: Statement,
    space: VariableSpace,
    combiner: Combiner,
    model_class: str,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    stmts = tuple(premises) + (conclusion,)
    uni = universe_for(space, combiner, model_class, stmts, budget)
    prem = dedupe_statements(premises)
    return all(
        satisfies(m, conclusion, combiner)
        for m in uni.models
        if satisfies_set(m, prem, combiner)
    )


def brute_tautology(
    s: Statement,
    space: VariableSpace,
    combiner: Combiner,
    model_class: str,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    uni = universe_for(space, combiner, model_class, (s,), budget)
    return all(satisfies(m, s, combiner) for m in uni.models)


def _sat_masks(
    uni: ModelUniverse, combiner: Combiner, statements: Sequence[Statement]
) -> dict[Statement, int]:
    """Bitmask over the universe's models per statement (bit i = model i)."""
    masks: dict[Statement, int] = {}
    for s in statements:
        m = 0
        for i, model in enumerate(uni.models):
            if satisfies(model, s, combiner):
                m |= 1 << i
        masks[s] = m
    return masks


def _mod_mask(masks: dict[Statement, int], stmts: Iterable[Statement], full: int) -> int:
    m = full
    for s in stmts:
        m &= masks[s]
    return m


@dataclass(frozen=True)
class PoolMasks:
    """Candidate pool of a profile plus satisfaction bitmask bookkeeping."""

    universe: ModelUniverse
    masks: dict[Statement, int]
    pool: tuple[Statement, ...]
    full: int


def pool_masks(
    profile: Profile, language: Sequence[Statement], budget: int = DEFAULT_BUDGET
) -> PoolMasks:
    """Statements of the language that individually pass the three per-statement
    filters: non-trivial, compatible with every stakeholder statement, and
    entailed by at least one stakeholder."""
    lang = dedupe_statements(language)
    union = profile.union_statements()
    scope = dedupe_statements(tuple(lang) + tuple(union))
    uni = universe_for(profile, statements=scope, budget=budget)
    masks = _sat_masks(uni, profile.combiner, scope)
    full = (1 << len(uni.models)) - 1
    stake_mods = [
        _mod_mask(masks, sh.statements, full) for sh in profile.stakeholders
    ]
    pool = []
    for s in lang:
        m = masks[s]
        if m == 0 or m == full:
            continue
        if any(m & masks[u] == 0 for u in union):
            continue
        if not any(sm and sm & m == sm for sm in stake_mods):
            continue
        pool.append(s)
    return PoolMasks(uni, masks, tuple(pool), full)


def brute_mgs(
    profile: Profile,
    language: Sequence[Statement],
    budget: int = DEFAULT_BUDGET,
) -> MiddleGroundSet:
    """Exact middle-ground sets by definition.

    Small languages (<= 20 statements) get the fully definitional route: every
    subset of the candidate pool is tested against the postulates, with
    entailment-maximality decided by model-set minimality inside that family,
    so every entailment-maximal ground is returned. Larger languages use the
    sweep: maximum-size satisfied-pool slices over the model universe, so
    only the cardinality-maximal grounds are returned, as
    ``midground.construct_mgs`` returns them.

    The two routes differ where a smaller ground is entailment-maximal too.
    On the planted ``tie`` document of ``construct_mgs``'s docstring the
    definitional route, over ``hier_candidates``' 14 statements, returns the
    two grounds of 4 that construction returns and ``{(0,1) >= (1,0),
    (1,1) > (0,0)}`` beside them.
    """
    union = profile.union_statements()
    if brute_consistent(union, profile.space, profile.combiner, profile.model_class, budget):
        return MiddleGroundSet(
            grounds=canonical_grounds((union,)), exhaustive=True, stats={}
        )
    pm = pool_masks(profile, language, budget)
    lang = dedupe_statements(language)
    if len(lang) <= 20:
        grounds = _mgs_by_definition(pm)
    else:
        grounds = _mgs_by_sweep(pm)
    return MiddleGroundSet(grounds=grounds, exhaustive=True, stats={})


def _mgs_by_definition(pm: PoolMasks) -> tuple[tuple[Statement, ...], ...]:
    pool = pm.pool
    # Model sets reachable by consistent pool subsets. Every subset of the pool
    # satisfies the per-statement postulates; the set-level ones need the model
    # set to be non-empty (consistent) and, since pool members are falsifiable,
    # non-full model sets come for free for non-empty subsets.
    best: dict[int, int] = {}  # mod mask -> occurrence flag
    for r in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            m = pm.full
            for s in combo:
                m &= pm.masks[s]
            if m:
                best[m] = 1
    minimal = [
        m
        for m in best
        if not any(other != m and other & m == other for other in best)
    ]
    grounds = []
    for m in sorted(minimal):
        # The largest subset with this model set: all pool statements that
        # every model in the set satisfies.
        g = tuple(s for s in pool if m & pm.masks[s] == m)
        grounds.append(g)
    return canonical_grounds(grounds)


def _mgs_by_sweep(pm: PoolMasks) -> tuple[tuple[Statement, ...], ...]:
    sizes: dict[frozenset[Statement], tuple[Statement, ...]] = {}
    best = 0
    for i in range(len(pm.universe.models)):
        bit = 1 << i
        slice_ = tuple(s for s in pm.pool if pm.masks[s] & bit)
        if len(slice_) > best:
            best = len(slice_)
            sizes = {frozenset(slice_): slice_}
        elif len(slice_) == best and best > 0:
            sizes.setdefault(frozenset(slice_), slice_)
    return canonical_grounds(list(sizes.values()))


def brute_p5(
    candidate: Sequence[Statement],
    profile: Profile,
    language: Sequence[Statement],
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Entailment-maximality of ``candidate`` against the scanned language.

    A violating set may be assumed to be of the form sat(model) ∩ pool: drop
    tautologies from a violator (model set unchanged), then grow it to the full
    satisfied-pool slice of one of its models, which keeps it a violator. So a
    scan over the universe's slices is complete.
    """
    cand = dedupe_statements(candidate)
    lang = dedupe_statements(tuple(language) + tuple(cand))
    pm = pool_masks(profile, lang, budget)
    cand_mod = _mod_mask(pm.masks, cand, pm.full)
    for i in range(len(pm.universe.models)):
        bit = 1 << i
        slice_ = [s for s in pm.pool if pm.masks[s] & bit]
        if not slice_:
            continue
        m = pm.full
        for s in slice_:
            m &= pm.masks[s]
        if m != cand_mod and m & cand_mod == m:
            return False
    return True


def subset_sum_brute(values: Sequence[int], target: int) -> bool:
    """Reachability of ``target`` as a sum over a sub-multiset of ``values``."""
    if len(values) > 20:
        raise CapacityError("subset-sum oracle capped at 20 values")
    reachable = {0}
    for v in values:
        reachable |= {r + v for r in reachable}
    return target in reachable
