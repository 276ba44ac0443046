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
that pool. Those are exactly the pool slices of the models that satisfy the
most pool statements: a consistent subset holds in some model, so it lies
in that model's slice, which is consistent too. So ``_best_slices``
searches models, not subsets, under both model classes: a memoised sweep
over model prefixes, on classes of equivalent statements. Its worst case
stays exponential, and the request's deadline bounds it.

Each entry point asks all its questions of one ``Reasoner``, made for the
call. A request that makes several calls (``cli``'s ``mg-construct
--verify``) passes one ``Reasoner`` to the private ``_construct_mgs`` and
``_check_postulates`` instead. What the request has settled about a profile
lives on its ``Reasoner`` (``_Facts``): the stakeholder precondition, the
union's verdict, the rows of the union and of each stakeholder, P3 and P4
per equivalence key, and the grounds returned. The postulate audit reads
those instead of asking again.

The pipeline runs on rows, not statements, under both model classes: a
statement's row over the singleton levels under lexicographic models, over
the canonical levels under hierarchical ones (``reasoner.Reasoner``). Only
non-trivial statements can join the pool. Under hierarchical models those
of the full language (the ``full`` language and the ``candidates``) are
read off pair rows as the *row language* (``_row_language``): entries of
two alternative indices and a row, with no ``Statement`` built. It depends
only on the space's domains and the combiner, so it outlives the request:
it is built once per process for the space compiled last
(``reasoner.CompiledSpace``), and a request over another space replaces
it. Any other language is classified once per member (``_language``) and
enters as rows too. The pool filter, the grouping by
``Reasoner.equivalence_key``, the hierarchical existence scan, the sweep
and the P5 scan read rows and keys. A ``Statement`` is built only for a
language member that is not in the row language, a pool member, the
existence witness, and what a caller asks for (``hier_candidates``,
``oracle mgs``).

These inner questions read only a verdict, so they build no witness.
Entailment appends the complement's row (the statement's row swapped, its
strictness flipped), and P3 needs no greedy:
for statements ``s`` and ``u`` that are each consistent alone, ``{s, u}``
is consistent iff some level is won by either and lost by neither when
either is strict, or lost by neither when both are weak
(``Reasoner._pair_consistent``). Union statements meet the precondition
once the stakeholder check has passed, and a candidate that is a
contradiction is caught first. P4 for a one-statement stakeholder is the
same test, negated, on the candidate's complement row.

What leaves the process is decided by ``Reasoner.is_consistent``, which
builds a witness and re-checks it statement by statement: every ground
``construct_mgs`` returns, the union check, and P1 of ``check_postulates``
(for a ground the same request returned, P1 reads that re-check). The
request's deadline (``Limits.timeout_ms``) is armed when its ``Reasoner``
is made; the greedy, the language build, the pool filter and the sweep
read it, so a timeout stops the whole request.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, Sequence

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
from .reasoner import DEFAULT_LIMITS, Limits, Reasoner, complement_row
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


class _Facts:
    """What a request has settled about one profile, kept on its
    ``Reasoner`` (``_facts``): the stakeholder precondition (each set is
    consistent and falsifiable, checked here), the union and its verdict,
    the union's and each stakeholder's rows, P3 and P4 per equivalence key
    (``_verdicts``), and the grounds returned after their re-check."""

    def __init__(self, profile: Profile, r: Reasoner) -> None:
        if not profile.stakeholders:
            raise TrivialStakeholderError("profile has no stakeholders")
        self.stakeholder_rows = []
        for sh in profile.stakeholders:
            if not r.consistent(sh.statements):
                raise TrivialStakeholderError(f"stakeholder {sh.name!r} is inconsistent")
            if not _falsifiable(sh.statements, r):
                raise TrivialStakeholderError(
                    f"stakeholder {sh.name!r} asserts nothing falsifiable"
                )
            self.stakeholder_rows.append(r.rows(sh.statements))
        self.profile = profile
        self.union = profile.union_statements()
        self.union_consistent = r.is_consistent(self.union).consistent
        self.union_rows = r.rows(self.union)
        self.verdicts: dict[tuple, tuple[bool, bool | None]] = {}
        self.grounds: set[frozenset[Statement]] = set()


def _facts(profile: Profile, r: Reasoner) -> _Facts:
    """``r``'s facts about ``profile``, settled on first use; a reasoner
    asked about another profile settles that one's afresh."""
    facts = r.memo.get("facts")
    if facts is None or facts.profile is not profile:
        facts = r.memo["facts"] = _Facts(profile, r)
    return facts


def _verdicts(s, key: tuple, facts: _Facts, r: Reasoner, both: bool = False) -> tuple:
    """P3 (compatible with each union statement, ``consistent_with_each``)
    and P4 (entailed by some stakeholder, ``entailed_by_some``) of ``s``, a
    statement or its row, once per equivalence key and request: statements
    sharing a key hold in the same models.
    Unless ``both`` is set, P4 is not asked while P3 fails: it reads None."""
    verdicts = facts.verdicts.get(key)
    if verdicts is None or both and verdicts[1] is None:
        p3 = r.consistent_with_each(s, facts.union_rows) if verdicts is None else verdicts[0]
        p4 = r.entailed_by_some(facts.stakeholder_rows, s) if p3 or both else None
        verdicts = facts.verdicts[key] = p3, p4
    return verdicts


def _check_language_size(size: int, limits: Limits, what: str = "language") -> None:
    """The ``max_language`` cap, checked before a language is built."""
    if size > limits.max_language:
        raise CapacityError(
            f"{what} has {size} statements, cap is {limits.max_language}"
        )


def _check_full_language(space: VariableSpace, limits: Limits) -> int:
    """The ``max_language`` cap on the full language, from the domain sizes
    alone, so nothing is built when it is refused; returns its size."""
    size = 2 * math.prod(map(len, space.domains)) ** 2
    _check_language_size(size, limits, "full language")
    return size


def full_language(
    space: VariableSpace, limits: Limits = DEFAULT_LIMITS
) -> tuple[Statement, ...]:
    """Every weak and strict comparison between two alternatives of the space."""
    _check_full_language(space, limits)
    alts = list(space.alternatives())
    pairs = itertools.product(alts, alts)
    return tuple(Statement(a, b, strict) for a, b in pairs for strict in (False, True))


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
    """``hier_candidates`` for the reasoner's space and combiner, built from
    its row language (``_row_language``)."""
    return tuple(map(r.statement, _row_language(r)[0]))


def _row_language(r: Reasoner) -> tuple[tuple, tuple[tuple[int, int, bool], ...]]:
    """The non-trivial statements of ``full_language``, in its order, as
    ``Reasoner.nontrivial_rows`` entries and as their rows, with the
    language cap checked first: built once per compiled space, so once per
    process for a space asked about again."""
    _check_full_language(r.space, r.limits)
    return r.nontrivial_rows()


def _candidate_pool(
    profile: Profile, items: Sequence, r: Reasoner
) -> Iterator[tuple[int, tuple]]:
    """The members of a language as ``_language`` gives it (no duplicates,
    nothing trivial) that pass P3 and P4, lazily and in language order, as
    (index, ``Reasoner.equivalence_key``) pairs; ``_verdicts`` asks the
    filters once per key."""
    facts = _facts(profile, r)
    key_of = r.equivalence_key
    for k, x in enumerate(items):
        if not k & 1023:
            r.check_deadline()
        key = key_of(x)
        if all(_verdicts(x, key, facts, r)):
            yield k, key


def exists_mg_lex(
    profile: Profile, limits: Limits = DEFAULT_LIMITS
) -> ExistenceResult:
    """Middle-ground existence for lexicographic profiles, in closed form.

    When the union is inconsistent, existence reduces to scanning the 2|V|
    candidate statements; both filters have per-variable sign
    characterizations, so the scan is one pass over the union's rows over
    the singleton levels, bit ``v`` for variable ``v``. The reported stats
    carry the nominal check counts of the direct procedure: 2|V|·|union|
    pairwise consistency checks and 2|V|·n entailment checks.
    ``limits.timeout_ms`` bounds the call, which is one request.
    """
    if profile.model_class != "lex":
        raise DomainMismatchError("exists_mg_lex needs a lexicographic profile")
    r = Reasoner(profile.space, profile.combiner, profile.model_class, limits)
    facts = _facts(profile, r)
    if facts.union_consistent:
        return ExistenceResult(
            True, via_union=True, stats={"pairwise_checks": 0, "entailment_checks": 0}
        )
    # The variables whose weak or strict candidate clashes with some union
    # statement (P3), and those where some stakeholder entails it (P4), as
    # bit masks. Every union statement belongs to a stakeholder, so entailment
    # by one stakeholder is entailment by some union statement.
    nvars, lanes = profile.space.size, r.compiled().all_levels
    weak_clash = strict_clash = weak_entailed = strict_entailed = 0
    for win, lose, strict in facts.union_rows:
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
        "pairwise_checks": 2 * nvars * len(facts.union),
        "entailment_checks": 2 * nvars * len(profile.stakeholders),
    }
    # The first surviving candidate in lex_candidates order is the witness.
    for strict_candidate, ok in (
        (False, weak_entailed & ~weak_clash),
        (True, strict_entailed & ~strict_clash),
    ):
        if ok:
            variable = (ok & -ok).bit_length() - 1
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
    if _facts(profile, r).union_consistent:
        return ExistenceResult(True, via_union=True)
    entries, rows = _row_language(r)
    first = next(_candidate_pool(profile, rows, r), None)
    witness = None if first is None else r.statement(entries[first[0]])
    stats = {"candidates": len(entries), "pool": int(first is not None)}
    return ExistenceResult(witness is not None, witness=witness, stats=stats)


def _language(
    profile: Profile, language, r: Reasoner
) -> tuple[Sequence, Callable[[int], Statement], bool, int]:
    """The language argument as the pool filter reads it, trivial
    statements dropped: (items, statement, exhaustive, the size before the
    drop), where ``statement(k)`` builds item ``k``'s ``Statement``. A
    hierarchical profile's ``full`` language and ``candidates`` are its row
    language; any other is classified here, reading the deadline as the
    pool filter does, and its items are the rows of the statements kept."""
    lex = profile.model_class == "lex"
    if language is None:
        language = "binary" if lex else "full"
    if not lex and language in ("full", "candidates"):
        entries, rows = _row_language(r)
        size = _check_full_language(r.space, r.limits) if language == "full" else len(rows)
        return rows, lambda k: r.statement(entries[k]), True, size
    if language == "full":
        lang, exhaustive = full_language(profile.space, r.limits), True
    elif language == "binary":
        lang, exhaustive = binary_language(profile.space, r.limits), lex
    elif language == "candidates":
        lang, exhaustive = lex_candidates(profile.space), False
    elif isinstance(language, str):
        raise ValueError(f"unknown language selector {language!r}")
    else:
        lang, exhaustive = dedupe_statements(language), False
        _check_language_size(len(lang), r.limits)
    kept = []
    for i, s in enumerate(lang):
        if not i & 1023:
            r.check_deadline()
        if r.classify(s) is Triviality.NON_TRIVIAL:
            kept.append(s)
    return r.rows(kept), kept.__getitem__, exhaustive, len(lang)


def _resolve_language(
    profile: Profile, language, r: Reasoner
) -> tuple[tuple[Statement, ...], bool, int]:
    """``_language`` with every item's ``Statement`` built: (statements,
    exhaustive, the language's size before the drop)."""
    items, statement, exhaustive, size = _language(profile, language, r)
    return tuple(map(statement, range(len(items)))), exhaustive, size


def _group_equivalent(pool: Iterable[tuple[object, tuple]]) -> list[list]:
    """Partition a pool of (member, ``Reasoner.equivalence_key``) pairs into
    logical-equivalence classes of members, in order of first member."""
    keyed: dict[tuple, list] = {}
    for member, key in pool:
        keyed.setdefault(key, []).append(member)
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

    A consistent union short-circuits to the single ground it defines.
    Otherwise the returned grounds are the cardinality-maximal consistent
    subsets of the filtered pool; distinct ones are never equivalent, so no
    further deduplication happens beyond dropping identical subsets.

    A smaller consistent subset can pass P1-P5 too, and is not returned.
    On this planted document (two binary variables ``v0``, ``v1``,
    ``combiner tie``, hierarchical models; stakeholder ``p0`` says
    ``(1,1) >= (0,1); (1,1) > (0,1); (1,0) >= (1,1)`` and ``p1`` says
    ``(0,1) >= (1,1)``), construction returns two grounds of 4 statements,
    while ``{(0,1) >= (1,0), (1,1) > (0,0)}`` also passes P1-P5:
    ``oracle.brute_mgs`` over ``hier_candidates`` (14 statements) returns
    all three.
    """
    r = Reasoner(profile.space, profile.combiner, profile.model_class, limits)
    return _construct_mgs(profile, language, r)


def _construct_mgs(profile: Profile, language, r: Reasoner) -> MiddleGroundSet:
    """``construct_mgs``, asking every question of ``r``."""
    facts = _facts(profile, r)
    if facts.union_consistent:
        facts.grounds.add(frozenset(facts.union))
        return MiddleGroundSet(
            grounds=canonical_grounds((facts.union,)),
            exhaustive=True,
            stats={"via_union": True},
        )
    items, statement, exhaustive, size = _language(profile, language, r)
    pool = list(_candidate_pool(profile, items, r))
    stats: dict = {"language": size, "pool": len(pool), "via_union": False}
    if not pool:
        stats.update(classes=0, nodes=0)
        return MiddleGroundSet(grounds=(), exhaustive=exhaustive, stats=stats)
    classes = _group_equivalent(pool)
    stats["classes"] = len(classes)
    # A class's members hold in the same models, so its first one's row
    # stands for it. Class i owns its members' bits in ``members``, built here.
    rows = [items[cls[0]] for cls in classes]
    members = tuple(map(statement, itertools.chain.from_iterable(classes)))
    ends = list(itertools.accumulate(map(len, classes)))
    masks = [(1 << end) - (1 << start) for start, end in zip([0] + ends, ends)]
    slices, stats["nodes"] = _best_slices(rows, masks, r.compiled().all_levels, r)
    grounds = [tuple(itertools.compress(members, map(int, bin(m)[:1:-1]))) for m in slices]
    # The search asked for verdicts only; what is returned gets a witness,
    # re-checked statement by statement.
    for ground in grounds:
        if not r.is_consistent(ground).consistent:
            raise RuntimeError("internal error: middle ground failed re-check")
        facts.grounds.add(frozenset(ground))
    return MiddleGroundSet(
        grounds=canonical_grounds(grounds), exhaustive=exhaustive, stats=stats
    )


def _best_slices(
    rows: list[tuple[int, int, bool]], masks: list[int], everything: int, r: Reasoner
) -> tuple[set[int], int]:
    """The pool slices of the maximum-weight models, as masks, and the
    number of states swept.

    Class ``i`` has row ``rows[i]`` and owns pool bits ``masks[i]``, so a
    slice weighs its bit count. A state is the mask of the classes still
    tied. A step, a bit of ``everything``, counts only if it decides one of
    them: it adds those it wins and drops those it decides; stopping adds
    the weak ones left. A step taken decides every tied class it touches,
    so no step repeats, and a lexicographic model takes each variable once.
    A model needs a step, so the first state may stop only if some step
    decides no class. Each state is expanded once, reading the deadline;
    moves lead to smaller masks, so states are settled in increasing order,
    with no recursion (a path can take a step per class).
    """
    won_at: dict[int, int] = {}
    decided_at: dict[int, int] = {}
    for (win, lose, _), mask in zip(rows, masks):
        for at, bits in ((won_at, win), (decided_at, win | lose)):
            while bits:
                step = bits & -bits
                at[step] = at.get(step, 0) | mask
                bits ^= step
    # Steps that win and decide the same classes move alike.
    steps = {(won_at.get(step, 0), decided) for step, decided in decided_at.items()}
    weak = sum(mask for (_, _, strict), mask in zip(rows, masks) if not strict)
    root, idle = sum(masks), sum(decided_at) != everything
    moves: dict[int, list[tuple[int, int]]] = {}
    todo = [root]
    while todo:
        tied = todo.pop()
        if tied not in moves:
            r.check_deadline()
            moves[tied] = [(won & tied, tied & ~dec) for won, dec in steps if dec & tied]
            todo.extend(rest for _, rest in moves[tied] if rest not in moves)
    best: dict[int, tuple[int, set[int]]] = {}
    for tied in sorted(moves):
        ways = [(won.bit_count() + best[rest][0], won, best[rest][1]) for won, rest in moves[tied]]
        if idle or tied != root:
            ways.append(((weak & tied).bit_count(), weak & tied, {0}))
        top = max(way[0] for way in ways)
        best[tied] = top, {won | s for w, won, after in ways if w == top for s in after}
    return best[root][1], len(moves)


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
    """``check_postulates``, asking every question of ``r``: what the
    request already settled (``_Facts``) is read, not asked again."""
    facts = _facts(profile, r)
    cand = dedupe_statements(candidate)

    # A ground this request returned was re-checked then.
    consistent = frozenset(cand) in facts.grounds or r.is_consistent(cand).consistent
    falsifiable = _falsifiable(cand, r)
    p1 = PostulateCheck(PASS if consistent and falsifiable else FAIL)

    if facts.union_consistent:
        p2 = PostulateCheck(PASS if r.equivalent(cand, facts.union) else FAIL)
    else:
        p2 = PostulateCheck(PASS)

    # P3 and P4 are asked once per equivalence key and request: the pool
    # filter has asked them of every member of a ground it returned.
    keys = [r.equivalence_key(s) for s in cand]
    verdicts = {key: _verdicts(s, key, facts, r, both=True) for s, key in zip(cand, keys)}

    p3_bad = tuple(s for s, key in zip(cand, keys) if not verdicts[key][0])
    p3 = PostulateCheck(PASS if not p3_bad else FAIL, p3_bad)

    p4_bad = tuple(s for s, key in zip(cand, keys) if not verdicts[key][1])
    p4 = PostulateCheck(PASS if not p4_bad else FAIL, p4_bad)

    if not check_p5:
        p5 = PostulateCheck(NOT_CHECKED)
    elif facts.union_consistent:
        # Any competing set must be equivalent to the union, so maximality
        # fails exactly when the union says strictly more than the candidate.
        union_stronger = all(r.entails(facts.union, s) for s in cand) and not all(
            r.entails(cand, u) for u in facts.union
        )
        p5 = PostulateCheck(FAIL if union_stronger else PASS)
    elif not consistent:
        # No set narrows an empty model set.
        p5 = PostulateCheck(PASS)
    else:
        try:
            p5 = PostulateCheck(_p5_verdict(cand, facts, r))
        except CapacityError:
            p5 = PostulateCheck(NOT_CHECKED)
    return PostulateReport(p1, p2, p3, p4, p5)


def _p5_verdict(cand: Sequence[Statement], facts: _Facts, r: Reasoner) -> str:
    """P5 for a consistent candidate when the union is inconsistent.

    The pool is the default language's non-trivial statements (``_language``)
    that pass P3 and P4. A pool statement ``s`` *splits* the candidate when the candidate
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
    scan, over the default language's rows, asks about one statement per
    ``Reasoner.equivalence_key``, skipping the candidate's own keys; the
    split test is two verdicts on the members' rows plus ``s``'s row, then
    its complement row. Only splitters reach the filters (``_verdicts``).
    """
    members = {
        r.equivalence_key(s): s
        for s in cand
        if r.classify(s) is not Triviality.TAUTOLOGY
    }
    taken = r.rows(tuple(members.values()))
    seen = set(members)
    verdict = r.consistent_rows
    for row in _language(facts.profile, None, r)[0]:
        key = r.equivalence_key(row)
        if key in seen:
            continue
        seen.add(key)
        split = verdict(taken + [row]) and verdict(taken + [complement_row(row)])
        if split and all(_verdicts(row, key, facts, r)):
            every = all(all(_verdicts(m, k, facts, r)) for k, m in members.items())
            return FAIL if every else NOT_CHECKED
    return PASS
