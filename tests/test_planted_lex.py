"""Randomised gate for the lexicographic middle-ground pipeline.

The lexicographic half of the planted gate beside ``test_planted_hier.py``.
Each stakeholder of a planted profile has a hidden lexicographic model, and
every statement it makes holds there: its two sides are one of a few pairs
of alternatives that the whole profile shares, oriented so that the model
prefers the left one, strictly only where the model separates them. So
every stakeholder is consistent; one that says nothing falsifiable is
redrawn, and so is a profile whose union is consistent. Spaces have 2-3
variables over 0..1 or 0..2, under every built-in combiner.

Construction runs over its default language for lexicographic profiles,
``binary_language`` (18 statements on 2 variables, 54 on 3), and its
grounds are compared with ``oracle.brute_mgs`` over the same language. The
oracle's lexicographic universe is small (15 models on 3 variables), so the
comparison runs on every profile.
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
from concord.midground import binary_language, check_postulates, construct_mgs, exists_mg_lex
from concord.models import Comparison, LexicographicModel, compare
from concord.oracle import brute_mgs
from concord.reasoner import classify, is_consistent
from concord.results import PASS

KINDS = pytest.mark.parametrize("kind", BUILTIN_KINDS)
# A drawn profile whose union is consistent is redrawn: that case is settled
# by the union alone (acceptance criterion 4).
GATE = settings(
    max_examples=12, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@st.composite
def planted_profiles(draw, kind: str) -> Profile:
    """A planted lexicographic profile under combiner ``kind`` whose union
    is inconsistent. Stakeholders compare the same few pairs, so they often
    order a pair differently."""
    n = draw(st.integers(2, 3))
    dom = tuple(range(draw(st.integers(2, 3))))
    space = VariableSpace(tuple("v%d" % i for i in range(n)), (dom,) * n)
    c = Combiner(kind)
    alt = st.builds(Alternative, st.tuples(*[st.sampled_from(dom)] * n))
    alts = st.lists(alt, min_size=2, max_size=3, unique=True)
    pair = st.sampled_from(draw(st.lists(st.permutations(draw(alts)), min_size=1, max_size=3)))
    order = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    stakeholders = []
    for i in range(draw(st.integers(2, 3))):
        model = LexicographicModel(tuple(draw(order)))
        statements = []
        for _ in range(draw(st.integers(1, 3))):
            a, b = draw(pair)[:2]
            verdict = compare(model, a, b, c)
            if verdict is Comparison.RIGHT:
                a, b = b, a
            strict = verdict is not Comparison.TIE and draw(st.booleans())
            statements.append(Statement(a, b, strict))
        assume(any(
            classify(s, space, c, "lex") is not Triviality.TAUTOLOGY for s in statements
        ))
        stakeholders.append(Stakeholder("p%d" % i, tuple(dict.fromkeys(statements))))
    profile = Profile(space, c, "lex", tuple(stakeholders))
    assume(not is_consistent(profile.union_statements(), space, c, "lex").consistent)
    return profile


@KINDS
@GATE
@given(data=st.data())
def test_planted_grounds_match_the_oracle_and_pass_p1_to_p5(kind, data):
    profile = data.draw(planted_profiles(kind))
    built = construct_mgs(profile)
    assert built.exhaustive
    for ground in built.grounds:
        report = check_postulates(ground, profile, check_p5=True)
        assert all(getattr(report, p).verdict == PASS for p in report._fields), ground
    assert exists_mg_lex(profile).exists == bool(built.grounds)
    # Over at most 20 statements the oracle returns every entailment-maximal
    # ground, over more only the largest; construction returns the largest.
    brute = set(map(frozenset, brute_mgs(profile, binary_language(profile.space)).grounds))
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
        existence = exists_mg_lex(profile)
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
