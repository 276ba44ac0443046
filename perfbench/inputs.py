"""Seeded inputs for the four workloads, as profile document text.

Every generator takes a ``random.Random`` and returns plain data: the
document text the program parses, plus the raw statements the output checks
read, so that no check depends on the program's parser. Generation itself
uses only the standard library; the gadget documents and the catalogue
profiles go through the program's ``gadgets`` and ``oracle`` modules
(``catalogue_profiles``, ``_gadget``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# A raw statement: (left values, right values, strict).
Raw = tuple[tuple[int, ...], tuple[int, ...], bool]


@dataclass
class Doc:
    """One profile document and what the checks need to know about it."""

    name: str
    text: str
    combiner: str
    stakeholders: list[tuple[str, list[Raw]]]
    meta: dict = field(default_factory=dict)

    @property
    def statements(self) -> list[Raw]:
        return [s for _, stmts in self.stakeholders for s in stmts]


def _tuple(values) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def render(names, his, combiner: str, models: str, stakeholders) -> str:
    """Document text in the program's format (``vars``/``combiner``/``models``)."""
    lines = [
        "vars " + ", ".join("%s:0..%d" % (n, h) for n, h in zip(names, his)),
        "combiner " + combiner,
        "models " + models,
    ]
    for name, stmts in stakeholders:
        lines.append("")
        lines.append("stakeholder %s {" % name)
        body = [
            "  %s %s %s" % (_tuple(a), ">" if strict else ">=", _tuple(b))
            for a, b, strict in stmts
        ]
        lines.append(";\n".join(body))
        lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# lex-existence: binary variables, sum combiner, lexicographic models


def _ordered_statements(rng: random.Random, n: int, order: list[int], m: int) -> list[Raw]:
    """Statements that the lexicographic order ``order`` satisfies.

    The first one ranks the order's first variable above its second, so the
    set is never a tautology.
    """
    first = tuple(1 if i == order[0] else 0 for i in range(n))
    second = tuple(1 if i == order[1] else 0 for i in range(n))
    out: list[Raw] = [(first, second, True)]
    while len(out) < m:
        a = tuple(rng.randint(0, 1) for _ in range(n))
        b = tuple(rng.randint(0, 1) for _ in range(n))
        lead = next((i for i in order if a[i] != b[i]), None)
        if lead is None:
            out.append((a, b, False))
        elif a[lead] > b[lead]:
            out.append((a, b, rng.random() < 0.5))
        else:
            out.append((b, a, rng.random() < 0.5))
    return out


def _pinned_statements(rng: random.Random, n: int, v: int, m: int) -> list[Raw]:
    """Statements whose only model is the single-variable order (v).

    The first one says the all-zero alternative is at least as good as the
    alternative that is 1 everywhere except at v: it loses at every variable
    but v and ties at v. The rest hold under (v) alone.
    """
    zero = (0,) * n
    ones_but_v = tuple(0 if i == v else 1 for i in range(n))
    out: list[Raw] = [(zero, ones_but_v, False)]
    while len(out) < m:
        a = [rng.randint(0, 1) for _ in range(n)]
        b = [rng.randint(0, 1) for _ in range(n)]
        if a == b:
            continue
        if a[v] < b[v]:
            a, b = b, a
        out.append((tuple(a), tuple(b), a[v] > b[v] and rng.random() < 0.5))
    return out


def _lex_doc(name: str, n: int, stakeholders, kind: str) -> Doc:
    names = ["v%d" % i for i in range(n)]
    text = render(names, [1] * n, "sum", "lexicographic", stakeholders)
    return Doc(name, text, "sum", stakeholders, {"n": n, "kind": kind})


def lex_inputs(rng: random.Random) -> list[Doc]:
    """Three 1,000-statement lexicographic profiles over 50 binary variables.

    ``split``: 10 stakeholders x 100 statements, each with its own hidden
    order, so the union is inconsistent (criterion-8 shape).
    ``agree``: the same shape with one shared hidden order, so the union is
    consistent and a middle ground exists through it.
    ``none``: 50 stakeholders x 20 statements, stakeholder v pinned to the
    single-variable order (v); every candidate clashes, so no middle ground.
    """
    n = 50
    split = [
        ("s%d" % i, _ordered_statements(rng, n, rng.sample(range(n), n), 100))
        for i in range(10)
    ]
    shared = rng.sample(range(n), n)
    agree = [("s%d" % i, _ordered_statements(rng, n, shared, 100)) for i in range(10)]
    none = [("s%d" % v, _pinned_statements(rng, n, v, 20)) for v in range(n)]
    return [
        _lex_doc("split", n, split, "split"),
        _lex_doc("agree", n, agree, "agree"),
        _lex_doc("none", n, none, "none"),
    ]


# ---------------------------------------------------------------------------
# hier-consistency: subset-sum gadgets, planted sets, catalogue random sets


def fold(combiner: str, values: list[int], top: int) -> int:
    """A level's value under the sum, max or tie combiner.

    ``tie`` sends every combination of two or more values to one sentinel
    above the domain, so only single-variable levels ever separate.
    """
    if len(values) == 1:
        return values[0]
    if combiner == "sum":
        return sum(values)
    if combiner == "max":
        return max(values)
    if combiner == "tie":
        return top + 1
    raise ValueError(combiner)


def compare(levels, a, b, combiner: str, top: int) -> int:
    """First separating level decides: 1 if a wins, -1 if b wins, 0 on a tie."""
    for lv in levels:
        x = fold(combiner, [a[i] for i in lv], top)
        y = fold(combiner, [b[i] for i in lv], top)
        if x != y:
            return 1 if x > y else -1
    return 0


def satisfies(levels, stmt: Raw, combiner: str, top: int) -> bool:
    a, b, strict = stmt
    c = compare(levels, a, b, combiner, top)
    return c > 0 if strict else c >= 0


def _hier_doc(name, names, his, combiner, stmts, meta) -> Doc:
    stakeholders = [("s", stmts)]
    text = render(names, his, combiner, "hierarchical", stakeholders)
    return Doc(name, text, combiner, stakeholders, meta)


def subset_sum_doc(rng: random.Random, k: int, reachable: bool) -> Doc:
    """The subset-sum reduction on k values (k+1 variables).

    One strict statement forces the target variable into the model; two
    opposed weak statements then force its first level to sum the chosen
    values exactly to the target.
    """
    values = [rng.randint(1, 40) for _ in range(k)]
    sums = {0}
    for v in values:
        sums |= {s + v for s in sums}
    if reachable:
        target = sum(rng.sample(values, k // 2))
    else:
        target = rng.choice([t for t in range(1, sum(values) + 2) if t not in sums])
    n = k + 1
    zeros = (0,) * n
    only_t = (0,) * k + (1,)
    alpha = tuple(values) + (0,)
    beta = (0,) * k + (target,)
    stmts = [(only_t, zeros, True), (alpha, beta, False), (beta, alpha, False)]
    names = ["v%d" % i for i in range(k)] + ["vT"]
    return _hier_doc(
        "subset-sum-%d-%s" % (k, "yes" if reachable else "no"),
        names, values + [target], "sum", stmts,
        {"kind": "subset-sum", "values": values, "target": target, "top": target},
    )


def planted_doc(rng: random.Random, n: int, m: int, combiner: str, top: int = 3) -> Doc:
    """m statements over n variables (domain 0..top) that a hidden model satisfies."""
    order = rng.sample(range(n), n)
    levels: list[list[int]] = []
    i = 0
    while i < n:
        size = rng.randint(1, 3)
        levels.append(order[i:i + size])
        i += size
    stmts: list[Raw] = []
    while len(stmts) < m:
        a = tuple(rng.randint(0, top) for _ in range(n))
        b = tuple(rng.randint(0, top) for _ in range(n))
        if a == b:
            continue
        c = compare(levels, a, b, combiner, top)
        if c < 0:
            a, b = b, a
        stmts.append((a, b, c != 0 and rng.random() < 0.7))
    names = ["x%d" % i for i in range(n)]
    return _hier_doc(
        "planted-%d-%s" % (n, combiner), names, [top] * n, combiner, stmts,
        {"kind": "planted", "levels": levels, "top": top},
    )


# The unplanted random sets come from this fixed catalogue seed, not from the
# run seed: at 10 variables x 16 statements their branch-and-bound cost
# swings from 1 to over 10,000 nodes between draws, which no run-to-run bound
# survives. The run seed re-encodes each catalogue set instead (statement
# order and a value map that keeps every level comparison), so documents
# differ between seeds while the search does not.
CATALOGUE_SEED = 20250813
CATALOGUE = (("max", 0.5, 0.5),) * 4 + (("sum", 0.5, 0.5), ("tie", 0.5, 0.5))
RANDOM_VARS, RANDOM_STATEMENTS, RANDOM_TOP = 10, 16, 3


def _catalogue() -> list[tuple[str, list[Raw], list[int]]]:
    """(combiner, binary statements, variable permutation) per catalogue set."""
    rng = random.Random(CATALOGUE_SEED)
    n, out = RANDOM_VARS, []
    for combiner, p_strict, p_redraw in CATALOGUE:
        stmts: list[Raw] = []
        while len(stmts) < RANDOM_STATEMENTS:
            a = tuple(rng.randint(0, 1) for _ in range(n))
            b = tuple(x if rng.random() > p_redraw else rng.randint(0, 1) for x in a)
            if a != b:
                stmts.append((a, b, rng.random() < p_strict))
        out.append((combiner, stmts, rng.sample(range(n), n)))
    return out


def _value_maps(rng: random.Random, combiner: str, n: int, top: int) -> list[tuple[int, int]]:
    """Per-variable images of 0 and 1 that keep every level comparison.

    sum: a shared offset per variable (differences of level sums unchanged);
    max: one increasing map for all variables (max commutes with it);
    tie: any increasing map per variable (only single variables separate).
    """
    if combiner == "sum":
        return [(c, c + 1) for c in (rng.randint(0, top - 1) for _ in range(n))]
    if combiner == "max":
        lo, hi = sorted(rng.sample(range(top + 1), 2))
        return [(lo, hi)] * n
    return [tuple(sorted(rng.sample(range(top + 1), 2))) for _ in range(n)]


def random_set_docs(rng: random.Random) -> list[tuple[Doc, Doc]]:
    """Each catalogue set re-encoded by the run seed, plus a permuted copy.

    The copy renames variables by the catalogue's permutation and shuffles
    statement order again; consistency must not change under either.
    """
    n, top = RANDOM_VARS, RANDOM_TOP
    names = ["x%d" % i for i in range(n)]
    pairs = []
    for idx, (combiner, stmts, perm) in enumerate(_catalogue()):
        maps = _value_maps(rng, combiner, n, top)
        enc = [
            (tuple(maps[i][x] for i, x in enumerate(a)),
             tuple(maps[i][x] for i, x in enumerate(b)), strict)
            for a, b, strict in stmts
        ]
        rng.shuffle(enc)
        copy = [
            (tuple(a[perm[i]] for i in range(n)), tuple(b[perm[i]] for i in range(n)), s)
            for a, b, s in enc
        ]
        rng.shuffle(copy)
        meta = {"kind": "random", "top": top}
        pairs.append((
            _hier_doc("random-%d-%s" % (idx, combiner), names, [top] * n, combiner, enc, meta),
            _hier_doc("random-%d-%s-perm" % (idx, combiner), names, [top] * n, combiner,
                      copy, meta),
        ))
    return pairs


def hier_inputs(rng: random.Random) -> dict:
    gadgets = [subset_sum_doc(rng, k, r) for k in (11, 12, 13) for r in (True, False)]
    planted = [
        planted_doc(rng, n, 40, c)
        for n, c in ((6, "max"), (8, "sum"), (10, "tie"), (12, "sum"), (12, "max"), (12, "tie"))
    ]
    return {"gadgets": gadgets, "planted": planted, "random": random_set_docs(rng)}


# ---------------------------------------------------------------------------
# middle-ground: small random tie profiles; paper-gadgets: the paper's gadgets

SMALL_PROFILES = 32  # over three binary variables, in paper-gadgets
TINY_PROFILES = 12  # over two binary variables, in middle-ground


def catalogue_profiles(rng: random.Random, letters: str, count: int, most: int,
                       prefix: str) -> list[Doc]:
    """``count`` random profiles over the binary variables ``letters`` with the
    tie combiner: two consistent, falsifiable stakeholders of 1 to ``most``
    statements each whose union is inconsistent (so the middle-ground search
    runs).

    Like the random hierarchical sets, the profiles come from the fixed
    catalogue seed: their cost spans 25-110 ms between draws over three
    variables. Statement and stakeholder order steer the pool filter and the
    search, so the run seed only names the variables and stakeholders.
    """
    from concord import oracle
    from concord.domain import Alternative, Combiner, Statement, VariableSpace

    n = len(letters)
    space = VariableSpace.binary(tuple(letters))
    tie = Combiner.tie_over((0, 1))

    def to_stmts(raw):
        return tuple(Statement(Alternative(a), Alternative(b), s) for a, b, s in raw)

    def usable(raw) -> bool:
        st = to_stmts(raw)
        return oracle.brute_consistent(st, space, tie, "hier") and any(
            not oracle.brute_tautology(s, space, tie, "hier") for s in st
        )

    cat = random.Random(CATALOGUE_SEED)

    def draw_stakeholder():
        while True:
            raw = []
            for _ in range(cat.randint(1, most)):
                a = tuple(cat.randint(0, 1) for _ in range(n))
                b = tuple(cat.randint(0, 1) for _ in range(n))
                raw.append((a, b, cat.random() < 0.5))
            if usable(raw):
                return raw

    out = []
    while len(out) < count:
        shs = [("p1", draw_stakeholder()), ("p2", draw_stakeholder())]
        union = to_stmts(shs[0][1] + shs[1][1])
        if oracle.brute_consistent(union, space, tie, "hier"):
            continue
        names = ["%s%d" % (c, rng.randint(0, 99)) for c in letters]
        shs = [(who + "_" + str(rng.randint(0, 99)), raw) for who, raw in shs]
        text = render(names, [1] * n, "tie", "hierarchical", shs)
        out.append(Doc("%s-%d" % (prefix, len(out)), text, "tie", shs,
                       {"names": names, "domains": space.domains}))
    return out


def _gadget(name: str) -> Doc:
    from concord import dsl, gadgets

    p = getattr(gadgets, name.replace("-", "_") + "_fixture")()[0]
    return Doc(
        name, dsl.render_profile(p),
        "tie" if p.combiner.kind == "table" else p.combiner.kind,
        [(sh.name, [(s.left.values, s.right.values, s.strict) for s in sh.statements])
         for sh in p.stakeholders],
        {"names": p.space.variables, "domains": p.space.domains},
    )


def middle_ground_inputs(rng: random.Random) -> dict:
    """The nonexistence gadget and TINY_PROFILES catalogue profiles over two
    binary variables."""
    return {"nonexistence": _gadget("nonexistence"),
            "tiny": catalogue_profiles(rng, "ab", TINY_PROFILES, 2, "tiny")}


def gadget_inputs(rng: random.Random) -> dict:
    """The moral-machine, nonuniqueness and nonexistence gadgets, and
    SMALL_PROFILES catalogue profiles over three binary variables."""
    return {"fixed": {name: _gadget(name)
                      for name in ("moral-machine", "nonuniqueness", "nonexistence")},
            "small": catalogue_profiles(rng, "abc", SMALL_PROFILES, 3, "small")}
