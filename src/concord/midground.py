"""Middle grounds: postulate checking, existence tests, and construction.

A middle ground for several stakeholders is a statement set that is non-trivial
(P1), collapses to the plain union whenever that union is consistent (P2),
stays compatible with every individual stakeholder statement (P3), only says
things some stakeholder already implies (P4), and is entailment-maximal among
sets with these properties (P5). With an inconsistent union, P5 is decided
without enumerating models (``_p5_verdict``): a consistent candidate passes
when no pool statement it does not entail is consistent with it, fails when
one is and every member is in the pool, and is left not-checked otherwise.

Construction follows the candidate-filter route: keep the statements of a
language that individually pass the non-triviality, compatibility and
entailment filters, then return all cardinality-maximal consistent subsets of
that pool. Equivalent statements are grouped first so the search runs over
equivalence classes; a maximal subset always takes whole classes.

Each entry point asks all its questions of one ``Reasoner``, made for the
call, so every statement's hierarchical level row is compiled once per
request and dies with it. A request that makes several calls (``cli``'s
``mg-construct --verify``) passes one ``Reasoner`` to the private
``_construct_mgs`` and ``_check_postulates`` instead.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .domain import (
    Alternative,
    Combiner,
    Profile,
    Statement,
    Triviality,
    VariableSpace,
    dedupe_statements,
)
from .errors import CapacityError, DomainMismatchError, TrivialStakeholderError
from .reasoner import (
    DEFAULT_LIMITS,
    Limits,
    Reasoner,
    _lex_consistent_from_signs,
    sign_matrix,
)
from .results import (
    FAIL,
    NOT_CHECKED,
    PASS,
    ExistenceResult,
    MiddleGroundSet,
    PostulateCheck,
    PostulateReport,
    canonical_grounds,
)


def _falsifiable(stmts: Sequence[Statement], r: Reasoner) -> bool:
    """Some statement is not a tautology (P1, and the stakeholder precondition)."""
    return any(r.classify(s) is not Triviality.TAUTOLOGY for s in stmts)


def _compatible(s: Statement, union: Sequence[Statement], r: Reasoner) -> bool:
    """P3 for one statement: consistent with each union statement on its own."""
    return all(r.is_consistent((s, u)).consistent for u in union)


def _entailed(s: Statement, profile: Profile, r: Reasoner) -> bool:
    """P4 for one statement: some stakeholder's set entails it."""
    return any(r.entails(sh.statements, s) for sh in profile.stakeholders)


def _require_nontrivial(profile: Profile, r: Reasoner) -> None:
    """Every stakeholder set must be consistent and falsifiable."""
    if not profile.stakeholders:
        raise TrivialStakeholderError("profile has no stakeholders")
    for sh in profile.stakeholders:
        if not r.is_consistent(sh.statements).consistent:
            raise TrivialStakeholderError(f"stakeholder {sh.name!r} is inconsistent")
        if not _falsifiable(sh.statements, r):
            raise TrivialStakeholderError(
                f"stakeholder {sh.name!r} asserts nothing falsifiable"
            )


def _check_language_size(size: int, limits: Limits, what: str = "language") -> None:
    """The ``max_language`` cap, checked before a language is built."""
    if size > limits.max_language:
        raise CapacityError(
            f"{what} has {size} statements, cap is {limits.max_language}"
        )


def full_language(
    space: VariableSpace, limits: Limits = DEFAULT_LIMITS
) -> tuple[Statement, ...]:
    """Every weak and strict comparison between two alternatives of the space."""
    n_alts = 1
    for dom in space.domains:
        n_alts *= len(dom)
    _check_language_size(2 * n_alts * n_alts, limits, "full language")
    out: list[Statement] = []
    alts = list(space.alternatives())
    for a, b in itertools.product(alts, alts):
        out.append(Statement(a, b, strict=False))
        out.append(Statement(a, b, strict=True))
    return tuple(out)


def binary_language(
    space: VariableSpace, limits: Limits = DEFAULT_LIMITS
) -> tuple[Statement, ...]:
    """All statements over the binary space in per-variable sign form.

    One pair of sides per sign vector: a variable carries (1,0), (0,1) or
    (0,0) as the left/right values. Under lexicographic models every statement
    is equivalent to its sign form, so this set is complete for that class.
    """
    _check_language_size(2 * 3**space.size, limits, "binary language")
    out: list[Statement] = []
    for signs in itertools.product((1, 0, -1), repeat=space.size):
        left = Alternative(tuple(1 if s > 0 else 0 for s in signs))
        right = Alternative(tuple(1 if s < 0 else 0 for s in signs))
        out.append(Statement(left, right, strict=False))
        out.append(Statement(left, right, strict=True))
    return tuple(out)


def lex_candidates(space: VariableSpace) -> tuple[Statement, ...]:
    """The 2|V| statements that decide lexicographic existence.

    For each variable v: the weak statement saying "everything except v beats
    v alone", and the strict statement saying "everything except v beats the
    all-zero alternative". A set of stakeholders admits a middle ground exactly
    when one of these survives the compatibility and entailment filters.
    """
    n = space.size
    return tuple(
        _lex_candidate(n, v, strict) for strict in (False, True) for v in range(n)
    )


def _lex_candidate(n: int, v: int, strict: bool) -> Statement:
    """The weak or strict lexicographic candidate statement for variable v."""
    others = Alternative(tuple(0 if u == v else 1 for u in range(n)))
    if strict:
        return Statement(others, Alternative((0,) * n), strict=True)
    only_v = Alternative(tuple(1 if u == v else 0 for u in range(n)))
    return Statement(others, only_v, strict=False)


def hier_candidates(
    space: VariableSpace, c: Combiner, limits: Limits = DEFAULT_LIMITS
) -> tuple[Statement, ...]:
    """All non-trivial statements of the space's full language.

    Trivial statements can never contribute to a middle ground: a tautology
    adds nothing a set does not already say, and a contradiction breaks
    consistency outright. So existence and construction may restrict their
    scans to this set without losing anything up to logical equivalence.
    """
    return _hier_candidates(Reasoner(space, c, "hier", limits))


def _hier_candidates(r: Reasoner) -> tuple[Statement, ...]:
    """``hier_candidates`` for the reasoner's space and combiner."""
    return tuple(
        s
        for s in full_language(r.space, r.limits)
        if r.classify(s) is Triviality.NON_TRIVIAL
    )


def _candidate_pool(
    profile: Profile, language: Sequence[Statement], r: Reasoner
) -> Iterator[Statement]:
    """Language statements passing the three per-statement filters, lazily
    and in language order."""
    union = profile.union_statements()
    for s in dedupe_statements(language):
        if r.classify(s) is not Triviality.NON_TRIVIAL:
            continue
        if _compatible(s, union, r) and _entailed(s, profile, r):
            yield s


def exists_mg_lex(
    profile: Profile, limits: Limits = DEFAULT_LIMITS
) -> ExistenceResult:
    """Middle-ground existence for lexicographic profiles, in closed form.

    When the union is inconsistent, existence reduces to scanning the 2|V|
    candidate statements; both filters have per-variable sign
    characterizations, so the scan is one pass over the union's sign rows. The
    reported stats carry the nominal check counts of the direct procedure:
    2|V|·|union| pairwise consistency checks and 2|V|·n entailment checks.
    """
    if profile.model_class != "lex":
        raise DomainMismatchError("exists_mg_lex needs a lexicographic profile")
    if not profile.stakeholders:
        raise TrivialStakeholderError("profile has no stakeholders")
    nvars = profile.space.size
    union = profile.union_statements()
    signs, _ = sign_matrix(union, profile.combiner)
    lanes = signs.lanes
    union_index = {s: i for i, s in enumerate(union)}
    # Precondition and union checks run on subsets of the one set of sign rows
    # instead of re-deriving each stakeholder's.
    for sh in profile.stakeholders:
        own = signs.take([union_index[s] for s in dedupe_statements(sh.statements)])
        if _lex_consistent_from_signs(own)[0] is None:
            raise TrivialStakeholderError(f"stakeholder {sh.name!r} is inconsistent")
        if all(win == lanes if strict else not lose for win, lose, strict in own.rows):
            raise TrivialStakeholderError(
                f"stakeholder {sh.name!r} asserts nothing falsifiable"
            )
    if _lex_consistent_from_signs(signs)[0] is not None:
        return ExistenceResult(
            True, via_union=True, stats={"pairwise_checks": 0, "entailment_checks": 0}
        )
    # The variables whose weak or strict candidate clashes with some union
    # statement (P3), and those where some stakeholder entails it (P4), as
    # lane masks. Every union statement belongs to a stakeholder, so entailment
    # by one stakeholder is entailment by some union statement.
    weak_clash = strict_clash = weak_entailed = strict_entailed = 0
    for win, lose, strict in signs.rows:
        # The weak candidate for v follows from any statement losing at v; the
        # strict one also from a strict statement that ties at v.
        weak_entailed |= lose
        if strict:
            ties = lanes & ~(win | lose)
            strict_entailed |= lose | ties
            # A strict statement that wins nowhere clashes with both
            # candidates everywhere; one whose only win is at v and that has
            # no ties to hide behind clashes with v's weak candidate.
            if not win:
                weak_clash |= lanes
                strict_clash |= lanes
            elif not ties and win.bit_count() == 1:
                weak_clash |= win
        else:
            strict_entailed |= lose
            # A weak statement losing everywhere outside v clashes with v's
            # weak candidate, and with its strict one if it ties at v.
            losses = lose.bit_count()
            if losses == nvars:
                weak_clash |= lanes
                strict_clash |= lanes
            elif losses == nvars - 1:
                weak_clash |= lanes & ~lose
                strict_clash |= lanes & ~(lose | win)
    stats = {
        "pairwise_checks": 2 * nvars * len(union),
        "entailment_checks": 2 * nvars * len(profile.stakeholders),
    }
    # The first surviving candidate in lex_candidates order is the witness.
    for strict_candidate, ok in (
        (False, weak_entailed & ~weak_clash),
        (True, strict_entailed & ~strict_clash),
    ):
        if ok:
            variable = signs.variable(ok & -ok)
            witness = _lex_candidate(nvars, variable, strict_candidate)
            return ExistenceResult(True, witness=witness, stats=stats)
    return ExistenceResult(False, stats=stats)


def exists_mg_hier(
    profile: Profile, limits: Limits = DEFAULT_LIMITS
) -> ExistenceResult:
    """Middle-ground existence for hierarchical profiles.

    Consistent union settles it. Otherwise a middle ground exists exactly when
    some non-trivial statement passes the compatibility and entailment
    filters, since any single such statement is itself consistent. The scan
    stops at the first such statement in language order, so ``stats["pool"]``
    counts the pool members found before stopping (0 or 1), not the pool.
    """
    if profile.model_class != "hier":
        raise DomainMismatchError("exists_mg_hier needs a hierarchical profile")
    r = Reasoner(profile.space, profile.combiner, profile.model_class, limits)
    _require_nontrivial(profile, r)
    if r.is_consistent(profile.union_statements()).consistent:
        return ExistenceResult(True, via_union=True)
    cands = _hier_candidates(r)
    witness = next(_candidate_pool(profile, cands, r), None)
    stats = {"candidates": len(cands), "pool": int(witness is not None)}
    return ExistenceResult(witness is not None, witness=witness, stats=stats)


def _resolve_language(
    profile: Profile, language, r: Reasoner
) -> tuple[tuple[Statement, ...], bool]:
    """Materialize the language argument; returns (statements, exhaustive)."""
    lex = profile.model_class == "lex"
    if language is None:
        language = "binary" if lex else "full"
    if isinstance(language, str):
        if language == "full":
            return full_language(profile.space, r.limits), True
        if language == "binary":
            return binary_language(profile.space, r.limits), lex
        if language == "candidates":
            if lex:
                return lex_candidates(profile.space), False
            return _hier_candidates(r), True
        raise ValueError(f"unknown language selector {language!r}")
    lang = dedupe_statements(language)
    _check_language_size(len(lang), r.limits)
    return lang, False


def _group_equivalent(
    pool: Sequence[Statement], r: Reasoner
) -> list[list[Statement]]:
    """Partition the non-trivial pool into logical-equivalence classes, in
    order of first member (``Reasoner.equivalence_key``)."""
    keyed: dict[tuple, list[Statement]] = {}
    for s in pool:
        keyed.setdefault(r.equivalence_key(s), []).append(s)
    return list(keyed.values())


def construct_mgs(
    profile: Profile,
    language=None,
    limits: Limits = DEFAULT_LIMITS,
) -> MiddleGroundSet:
    """All middle grounds over a statement language, up to equivalence.

    ``language`` may be an explicit statement sequence or one of the selectors
    ``"full"``, ``"binary"``, ``"candidates"``; the default is the sign-form
    binary language for lexicographic profiles and the full language for
    hierarchical ones. The result is exhaustive (complete for the space's
    whole language up to equivalence) except for explicit sequences, the
    binary selector on hierarchical profiles, and the candidate selector on
    lexicographic profiles, where the scan covers just what was given.

    A consistent union short-circuits to the single ground it defines. The
    returned grounds are cardinality-maximal consistent subsets of the
    filtered pool; distinct ones are never equivalent, so no further
    deduplication happens beyond dropping identical subsets.
    """
    r = Reasoner(profile.space, profile.combiner, profile.model_class, limits)
    return _construct_mgs(profile, language, r)


def _construct_mgs(profile: Profile, language, r: Reasoner) -> MiddleGroundSet:
    """``construct_mgs``, asking every question of ``r``."""
    _require_nontrivial(profile, r)
    union = profile.union_statements()
    if r.is_consistent(union).consistent:
        return MiddleGroundSet(
            grounds=canonical_grounds((union,)),
            exhaustive=True,
            stats={"via_union": True},
        )
    lang, exhaustive = _resolve_language(profile, language, r)
    pool = tuple(_candidate_pool(profile, lang, r))
    stats: dict = {
        "language": len(lang),
        "pool": len(pool),
        "via_union": False,
    }
    if not pool:
        stats["classes"] = 0
        stats["nodes"] = 0
        return MiddleGroundSet(grounds=(), exhaustive=exhaustive, stats=stats)
    classes = _group_equivalent(pool, r)
    order = sorted(
        range(len(classes)), key=lambda i: (-len(classes[i]), i)
    )
    ordered = [classes[i] for i in order]
    weights = [len(cls) for cls in ordered]
    suffix = [0] * (len(ordered) + 1)
    for i in range(len(ordered) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]
    best = 0
    found: list[tuple[int, ...]] = []
    nodes = 0

    def descend(i: int, picked: tuple[int, ...], reps: tuple[Statement, ...], weight: int) -> None:
        nonlocal best, found, nodes
        nodes += 1
        if i == len(ordered):
            if weight > best:
                best = weight
                found = [picked]
            elif weight == best and weight > 0:
                found.append(picked)
            return
        if weight + suffix[i] < best:
            return
        trial = reps + (ordered[i][0],)
        if r.is_consistent(trial).consistent:
            descend(i + 1, picked + (i,), trial, weight + weights[i])
        descend(i + 1, picked, reps, weight)

    descend(0, (), (), 0)
    stats["classes"] = len(classes)
    stats["nodes"] = nodes
    grounds = [
        tuple(itertools.chain.from_iterable(ordered[i] for i in picked))
        for picked in found
    ]
    return MiddleGroundSet(
        grounds=canonical_grounds(grounds), exhaustive=exhaustive, stats=stats
    )


def check_postulates(
    candidate: Sequence[Statement],
    profile: Profile,
    check_p5: bool = False,
    limits: Limits = DEFAULT_LIMITS,
) -> PostulateReport:
    """Evaluate a candidate set against the five middle-ground postulates.

    The entailment-maximality postulate is only decided when ``check_p5`` is
    set. With a consistent union it reduces to two entailment questions
    against the union. Otherwise it is the split scan of ``_p5_verdict`` over
    the default language (``binary_language`` for lexicographic profiles,
    ``hier_candidates`` for hierarchical ones): it passes when no pool
    statement splits the candidate, fails when one does and every
    non-tautological member is in the pool, and is not-checked when one does
    but some member fails P3 or P4, or when the scan is out of capacity.
    """
    r = Reasoner(profile.space, profile.combiner, profile.model_class, limits)
    return _check_postulates(candidate, profile, check_p5, r)


def _check_postulates(
    candidate: Sequence[Statement], profile: Profile, check_p5: bool, r: Reasoner
) -> PostulateReport:
    """``check_postulates``, asking every question of ``r``."""
    _require_nontrivial(profile, r)
    cand = dedupe_statements(candidate)
    union = profile.union_statements()

    consistent = r.is_consistent(cand).consistent
    falsifiable = _falsifiable(cand, r)
    p1 = PostulateCheck(PASS if consistent and falsifiable else FAIL)

    union_consistent = r.is_consistent(union).consistent
    if union_consistent:
        p2 = PostulateCheck(PASS if r.equivalent(cand, union) else FAIL)
    else:
        p2 = PostulateCheck(PASS)

    # Statements sharing an equivalence key hold in the same models, so P3
    # and P4 are asked once per key.
    keys = [r.equivalence_key(s) for s in cand]
    verdicts: dict[tuple, tuple[bool, bool]] = {}
    for s, key in zip(cand, keys):
        if key not in verdicts:
            verdicts[key] = (_compatible(s, union, r), _entailed(s, profile, r))

    p3_bad = tuple(s for s, key in zip(cand, keys) if not verdicts[key][0])
    p3 = PostulateCheck(PASS if not p3_bad else FAIL, p3_bad)

    p4_bad = tuple(s for s, key in zip(cand, keys) if not verdicts[key][1])
    p4 = PostulateCheck(PASS if not p4_bad else FAIL, p4_bad)

    if not check_p5:
        p5 = PostulateCheck(NOT_CHECKED)
    elif union_consistent:
        # Any competing set must be equivalent to the union, so maximality
        # fails exactly when the union says strictly more than the candidate.
        union_stronger = all(r.entails(union, s) for s in cand) and not all(
            r.entails(cand, u) for u in union
        )
        p5 = PostulateCheck(FAIL if union_stronger else PASS)
    elif not consistent:
        # No set narrows an empty model set.
        p5 = PostulateCheck(PASS)
    else:
        try:
            p5 = PostulateCheck(_p5_verdict(cand, profile, r))
        except CapacityError:
            p5 = PostulateCheck(NOT_CHECKED)
    return PostulateReport(p1, p2, p3, p4, p5)


def _p5_verdict(cand: Sequence[Statement], profile: Profile, r: Reasoner) -> str:
    """P5 for a consistent candidate when the union is inconsistent.

    The pool is the default language's non-trivial statements that pass P3
    and P4. A pool statement ``s`` *splits* the candidate when the candidate
    plus ``s`` is consistent and the candidate does not entail ``s``.

    - No splitter: pass. A violator ``S`` (a consistent pool subset whose
      models are a proper subset of the candidate's) holds some ``s`` the
      candidate does not entail, and the models of the candidate plus ``s``
      include those of ``S``, so ``s`` splits.
    - A splitter ``s`` and every non-tautological member in the pool: fail,
      with the candidate plus ``s`` as the violator.
    - A splitter and a member outside the pool: not-checked. That member
      fails P3 or P4, so the candidate is no middle ground either way.

    Equivalent statements split alike and pass the filters alike, so the
    scan asks about one statement per ``Reasoner.equivalence_key``, and the
    members shrink to one per key as well; keys the candidate holds are
    entailed and skipped. The split test (two greedy calls) runs before the
    filters, which only the splitters reach.
    """
    members = {
        r.equivalence_key(s): s
        for s in cand
        if r.classify(s) is not Triviality.TAUTOLOGY
    }
    reps = tuple(members.values())
    seen = set(members)
    lex = profile.model_class == "lex"
    lang = binary_language(r.space, r.limits) if lex else _hier_candidates(r)
    union = profile.union_statements()

    def in_pool(s: Statement) -> bool:
        return _compatible(s, union, r) and _entailed(s, profile, r)

    for s in lang:
        key = r.equivalence_key(s)
        if key in seen:
            continue
        seen.add(key)
        if not r.is_consistent(reps + (s,)).consistent or r.entails(reps, s):
            continue
        if in_pool(s):
            return FAIL if all(in_pool(m) for m in reps) else NOT_CHECKED
    return PASS
