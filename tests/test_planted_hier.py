"""Randomised gate for the hierarchical middle-ground pipeline.

Each stakeholder of a planted profile has a hidden hierarchical model, and
every statement it makes holds there: its two sides are one of a few pairs
of alternatives that the whole profile shares, oriented so that the model
prefers the left one, strictly only where the model separates them. So
every stakeholder is consistent; one that says nothing falsifiable is
redrawn, and so is a profile whose union is consistent. Spaces have 2-3
variables over 0..1 or 0..2, under every built-in combiner and ``tie``.

The grounds are compared with ``oracle.brute_mgs`` wherever its universe
is small: on 2 variables always (at most 15 models), on 3 only when few
levels separate the language's statements (``tie``). Elsewhere on 3
variables every level separates and the universe has 13,699 models, about
4 s of oracle time a profile, so there the other checks stand alone.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from concord import cli, dsl
from concord.domain import (
    BUILTIN_KINDS,
    Alternative,
    Combiner,
    Profile,
    Stakeholder,
    Statement,
    Triviality,
    VariableSpace,
)
from concord.errors import ConcordError
from concord.midground import check_postulates, construct_mgs, exists_mg_hier, hier_candidates
from concord.models import Comparison, HierarchicalModel, compare
from concord.oracle import brute_mgs, hier_universe
from concord.reasoner import Reasoner, classify, is_consistent
from concord.results import PASS

# The largest oracle universe compared against: 2-variable spaces have at
# most 15 models, 3-variable ones 16 under ``tie`` or 13,699 otherwise.
ORACLE_MODELS = 100

KINDS = pytest.mark.parametrize("kind", BUILTIN_KINDS + ("tie",))
# A drawn profile whose union is consistent is redrawn: that case is settled
# by the union alone (acceptance criterion 4).
GATE = settings(
    max_examples=12, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@st.composite
def planted_profiles(draw, kind: str) -> Profile:
    """A planted profile under combiner ``kind`` whose union is
    inconsistent. Stakeholders compare the same few pairs, so they often
    order a pair differently."""
    n = draw(st.integers(2, 3))
    dom = tuple(range(draw(st.integers(2, 3))))
    space = VariableSpace(tuple("v%d" % i for i in range(n)), (dom,) * n)
    c = Combiner.tie_over(dom) if kind == "tie" else Combiner(kind)
    alt = st.builds(Alternative, st.tuples(*[st.sampled_from(dom)] * n))
    alts = st.lists(alt, min_size=2, max_size=3, unique=True)
    pair = st.sampled_from(draw(st.lists(st.permutations(draw(alts)), min_size=1, max_size=3)))
    level = st.frozensets(st.integers(0, n - 1), min_size=1)
    stakeholders = []
    for i in range(draw(st.integers(2, 3))):
        model = HierarchicalModel(tuple(draw(st.lists(level, min_size=1, max_size=3))))
        statements = []
        for _ in range(draw(st.integers(1, 3))):
            a, b = draw(pair)[:2]
            verdict = compare(model, a, b, c)
            if verdict is Comparison.RIGHT:
                a, b = b, a
            strict = verdict is not Comparison.TIE and draw(st.booleans())
            statements.append(Statement(a, b, strict))
        assume(any(classify(s, space, c) is not Triviality.TAUTOLOGY for s in statements))
        stakeholders.append(Stakeholder("p%d" % i, tuple(dict.fromkeys(statements))))
    profile = Profile(space, c, "hier", tuple(stakeholders))
    assume(not is_consistent(profile.union_statements(), space, c, "hier").consistent)
    return profile


def _first_passing_p3_p4(profile: Profile, cands) -> Statement | None:
    """The first of ``cands`` consistent with each union statement (P3) and
    entailed by some stakeholder (P4), each asked of the greedy."""
    r = Reasoner(profile.space, profile.combiner)
    union = profile.union_statements()
    for s in cands:
        if all(r.consistent((s, u)) for u in union) and any(
            r.entails(sh.statements, s) for sh in profile.stakeholders
        ):
            return s
    return None


@KINDS
@GATE
@given(data=st.data())
def test_planted_grounds_witness_and_p5(kind, data):
    profile = data.draw(planted_profiles(kind))
    built = construct_mgs(profile, "full")
    for ground in built.grounds:
        assert check_postulates(ground, profile, check_p5=True).p5.verdict == PASS, ground
    existence = exists_mg_hier(profile)
    assert existence.exists == bool(built.grounds) and not existence.via_union
    cands = hier_candidates(profile.space, profile.combiner)
    assert existence.witness == _first_passing_p3_p4(profile, cands)
    scope = cands + profile.union_statements()
    if len(hier_universe(profile.space, profile.combiner, scope).models) <= ORACLE_MODELS:
        # Over at most 20 statements the oracle returns every entailment-
        # maximal ground; construction returns the cardinality-maximal ones,
        # which are the largest of those. Under ``tie`` the two differ: a
        # ground of 2 can be entailment-maximal beside grounds of 4.
        brute = set(map(frozenset, brute_mgs(profile, cands).grounds))
        most = max(map(len, brute), default=0)
        assert set(map(frozenset, built.grounds)) == {g for g in brute if len(g) == most}


def _cli(argv: list[str], text: str) -> tuple[int, str, str]:
    """``concord <argv>`` in this process, with ``text`` on stdin."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@KINDS
@GATE
@given(data=st.data())
def test_planted_documents_through_the_cli(kind, data):
    """``mg-exists`` and ``mg-construct --verify`` exit 0, 2 or 3 without a
    traceback, and report what the library returns."""
    profile = data.draw(planted_profiles(kind))
    text = dsl.render_profile(profile)
    try:
        existence = exists_mg_hier(profile)
        grounds = construct_mgs(profile).grounds
    except ConcordError:
        existence = grounds = None
    for argv in (["mg-exists", "-", "--json"], ["mg-construct", "-", "--verify", "--json"]):
        code, out, err = _cli(argv, text)
        assert code in (0, 2, 3) and "Traceback" not in err, (argv, code, err)
        if grounds is None:
            assert code != 0
            continue
        assert code == 0, err
        payload = json.loads(out)
        if argv[0] == "mg-exists":
            witness = existence.witness
            assert payload["witnesses"] == ([] if witness is None else [str(witness)])
        else:
            assert payload["grounds"] == [[str(s) for s in g] for g in grounds]
            for checks in payload["postulates"].values():
                assert set(checks.values()) == {PASS}
