"""Profile document grammar: parsing, rendering, round-trips, totality."""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concord import dsl
from concord.domain import Combiner
from concord.errors import ParseError
from concord.gadgets import (
    moral_machine_fixture,
    nonexistence_fixture,
    nonuniqueness_fixture,
    subset_sum_gadget,
)

EXAMPLE = """\
vars adult:0..5, child:0..5, dog:0..5
combiner sum
models hierarchical

stakeholder S1 {
  (1,4,0) > (2,3,3)
}
"""


def test_parse_example_document():
    doc = dsl.parse(EXAMPLE)
    assert [v.name for v in doc.variables] == ["adult", "child", "dog"]
    assert doc.combiner == "sum"
    assert doc.model_class == "hierarchical"
    assert len(doc.stakeholders) == 1
    block = doc.stakeholders[0]
    assert block.name == "S1"
    assert len(block.statements) == 1
    s = block.statements[0]
    assert s.left == (1, 4, 0) and s.right == (2, 3, 3) and s.strict


def test_render_is_canonical_fixed_point():
    doc = dsl.parse(EXAMPLE)
    once = dsl.render(doc)
    assert dsl.render(dsl.parse(once)) == once


@pytest.mark.parametrize(
    "profile",
    [
        moral_machine_fixture()[0],
        nonuniqueness_fixture()[0],
        nonexistence_fixture()[0],
        subset_sum_gadget((3, 5, 7), 8),
    ],
    ids=["moral-machine", "nonuniqueness", "nonexistence", "subset-sum"],
)
def test_round_trip_fixture(profile):
    text = dsl.render_profile(profile)
    doc = dsl.parse(text)
    assert dsl.parse(dsl.render(doc)) == doc


def test_tie_combiner_survives_round_trip():
    profile, _ = nonuniqueness_fixture()
    back = dsl.parse_profile(dsl.render_profile(profile))
    assert back == profile


def test_comments_and_whitespace():
    text = (
        "# header comment\n"
        "vars a:0..2,   b:-1..1   # trailing\n"
        "combiner min\n"
        "models lexicographic\n"
        "stakeholder s {   # open\n"
        "  (0,\n   -1) >= (2, 1)\n"
        "}\n"
    )
    doc = dsl.parse(text)
    assert doc.variables[1].lo == -1
    assert doc.stakeholders[0].statements[0].left == (0, -1)


def test_crlf_line_endings():
    doc = dsl.parse(EXAMPLE.replace("\n", "\r\n"))
    assert doc.combiner == "sum"


@pytest.mark.parametrize(
    "text,code",
    [
        ("vars x:1..0\ncombiner sum\nmodels hierarchical\nstakeholder p {(0)>(0)}", "bad-range"),
        ("vars x:0..1, x:0..1\ncombiner sum\nmodels hierarchical\nstakeholder p {(0,0)>(0,1)}", "dup-variable"),
        ("vars x:0..1\ncombiner nope\nmodels hierarchical\nstakeholder p {(0)>(1)}", "bad-combiner"),
        ("vars x:0..1\ncombiner sum\nmodels flat\nstakeholder p {(0)>(1)}", "bad-models"),
        ("vars x:0..1\ncombiner sum\nmodels hierarchical\nstakeholder p {(0,1)>(1)}", "bad-tuple-arity"),
        ("vars x:0..1\ncombiner sum\nmodels hierarchical\nstakeholder p {(2)>(1)}", "value-out-of-range"),
        ("vars x:0..1\ncombiner sum\nmodels hierarchical\nstakeholder p {(0)>(1)} stakeholder p {(1)>(0)}", "dup-stakeholder"),
        ("vars x:0..1\ncombiner sum\nmodels hierarchical\n", "syntax"),
        ("vars x:0..1 combiner sum\nmodels hierarchical\nstakeholder p {(0)>(1)}", "syntax"),
        ("", "syntax"),
        ("vars x:0..1\ncombiner sum\nmodels hierarchical\nstakeholder p {(0)>(1)} trailing", "syntax"),
        ("vars x:0..1\ncombiner sum\nmodels hierarchical\nstakeholder p {(0) = (1)}", "syntax"),
        ("vars x:0..1\ncombiner sum\nmodels hierarchical\nstakeholder p {(0)>(1);}", "syntax"),
    ],
)
def test_error_codes(text, code):
    with pytest.raises(ParseError) as exc:
        dsl.parse(text)
    assert exc.value.code == code
    assert exc.value.line >= 1 and exc.value.col >= 1


def test_error_position_points_at_offender():
    with pytest.raises(ParseError) as exc:
        dsl.parse("vars x:0..1\ncombiner wat\nmodels hierarchical\nstakeholder p {(0)>(1)}")
    assert (exc.value.line, exc.value.col) == (2, 10)


_HEAD = "vars x:0..1, y:0..1\ncombiner sum\nmodels hierarchical\n"


@pytest.mark.parametrize(
    "text,message,line,col",
    [
        # a tuple where the grammar wants something else reads as '('
        (_HEAD + "stakeholder (0,1) {(0,1)>(1,0)}",
         "expected a stakeholder name, got '('", 4, 13),
        (_HEAD + "stakeholder p (0,1)>(1,0)}", "expected {, got '('", 4, 15),
        (_HEAD + "stakeholder p {(0,1)>(1,0) (1,1)>(0,0)}",
         "expected }, got '('", 4, 28),
        (_HEAD + "stakeholder p {(0,1) (1,0)}",
         "expected '>' or '>=', got '('", 4, 22),
        (_HEAD + "(0,1)", "expected keyword 'stakeholder', got '('", 4, 1),
        ("vars x:0..1, y:0..1 (0,1)\ncombiner sum\nmodels hierarchical\n"
         "stakeholder p {(0,1)>(1,0)}", "expected end of line, got '('", 1, 21),
        ("vars x:(0)..1\ncombiner sum\nmodels hierarchical\nstakeholder p {(0)>(1)}",
         "expected an integer, got '('", 1, 8),
        # missing ';' between two statements
        (_HEAD + "stakeholder p {\n  (0,1) > (1,0)\n  (1,1) > (0,0)\n}\n",
         "expected }, got '('", 6, 3),
        # after a multi-line tuple
        (_HEAD + "stakeholder p {\n  (0,\n   1) > (1,\n 0) $\n}\n",
         "unexpected character '$'", 7, 5),
        (_HEAD + "stakeholder p {\n  (0,\n   1) > (1,\n 0); (1,1) >= (0,\n0) q\n}\n",
         "expected }, got 'q'", 8, 4),
        # CRLF lines: the '\r' is whitespace and takes a column
        ((_HEAD + "stakeholder p {\n (0,1) > (1,0)\n (1,1) > (0,0)\n}\n")
         .replace("\n", "\r\n"), "expected }, got '('", 6, 2),
        ((_HEAD + "stakeholder p {\n  (0,1) > (1,0);\n  (1,1) = (0,0)\n}\n")
         .replace("\n", "\r\n"), "unexpected character '='", 6, 9),
        ("vars x:0..1, y:0..1 \r\ncombiner sum extra\r\n",
         "expected end of line, got 'extra'", 2, 14),
        # duplicate names are reported at the second declaration
        (_HEAD + "# c 1\nstakeholder p { # (9,9)\n (0,\n 1) > (1,0) }\n"
         "# more (1,1)\n  stakeholder p {(1,1)>(0,0)}\n",
         "stakeholder 'p' declared twice", 9, 3),
        ("# a (1,2)\n  vars x:0..1,   y:0..1, x:0..2\ncombiner sum\n"
         "models hierarchical\nstakeholder p {(0,1,0)>(1,0,0)}",
         "variable 'x' declared twice", 2, 26),
        # tuple contents: reported at the '(' or at the offending element
        (_HEAD + "stakeholder p {\n (0,\n 1, 1) > (1,0)}",
         "tuple has 3 values but 2 variables are declared", 5, 2),
        (_HEAD + "stakeholder p {(0, # 5,5\n 1, 1) > (1,0)}",
         "tuple has 3 values but 2 variables are declared", 4, 16),
        (_HEAD + "stakeholder p {(0,1) > (1,\n 2)}",
         "value 2 is outside 0..1 for variable 'y'", 4, 24),
        (_HEAD + "stakeholder p {(0,a) > (1,0)}", "expected an integer, got 'a'", 4, 19),
        (_HEAD + "stakeholder p {(0,1 > (1,0)}", "expected ), got '>'", 4, 21),
        (_HEAD + "stakeholder p {(0,1,) > (1,0)}", "expected an integer, got ')'", 4, 21),
        (_HEAD + "stakeholder p {(0,- 1) > (1,0)}", "unexpected character '-'", 4, 19),
        (_HEAD + "stakeholder p {(0,\x0b1) > (1,0)}", "unexpected character '\\x0b'", 4, 19),
        (_HEAD + "stakeholder p {(0,1) > (1,", "expected an integer, got end of input", 4, 27),
        (_HEAD + "stakeholder p {(0,1) > (1,0)", "expected }, got end of input", 4, 29),
        # integers longer than int() converts, in a whole tuple and in a range
        (_HEAD + "stakeholder p {(0,1) > (1,\n " + "9" * 5000 + ")}",
         "integer has 5000 digits, more than the 4300 allowed", 5, 2),
        ("vars x:0.." + "9" * 5000 + ", y:0..1\ncombiner sum\nmodels hierarchical\n"
         "stakeholder p {(0,1)>(1,0)}",
         "integer has 5000 digits, more than the 4300 allowed", 1, 11),
    ],
)
def test_error_text_and_position(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        dsl.parse(text)
    e = exc.value
    assert (e.message, e.line, e.col) == (message, line, col)
    assert str(e) == "%d:%d: %s [%s]" % (line, col, message, e.code)


@pytest.mark.parametrize(
    "text,message,col",
    [
        ("(0,1) >= (1,0) (1,1)", "unexpected trailing '('", 16),
        ("(0,1) >= (1,0) x", "unexpected trailing 'x'", 16),
        ("(0,1) (1,0)", "expected '>' or '>=', got '('", 7),
    ],
)
def test_parse_statement_error_text(text, message, col):
    variables = dsl.parse(_HEAD + "stakeholder p {(0,1)>(1,0)}").variables
    with pytest.raises(ParseError) as exc:
        dsl.parse_statement(text, variables)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, 1, col)


def test_large_document_round_trip():
    rng = random.Random(8)
    nvars = 50
    decls = tuple(dsl.VarDecl("v%d" % i, -3, 9) for i in range(nvars))
    blocks = tuple(
        dsl.StakeholderBlock(
            "s%d" % b,
            tuple(
                dsl.StatementNode(
                    tuple(rng.randint(-3, 9) for _ in range(nvars)),
                    tuple(rng.randint(-3, 9) for _ in range(nvars)),
                    rng.random() < 0.5,
                )
                for _ in range(100)
            ),
        )
        for b in range(10)
    )
    doc = dsl.Document(decls, "sum", "lexicographic", blocks)
    assert dsl.parse(dsl.render(doc)) == doc


def test_digits_in_a_comment_inside_a_tuple_are_not_values():
    text = _HEAD + "stakeholder p {\n  (1, # was 0, 0\n   0) > ( # 1,1\n 0,1)\n}\n"
    node = dsl.parse(text).stakeholders[0].statements[0]
    assert (node.left, node.right) == ((1, 0), (0, 1))
    assert node.span == (5, 3)


def test_spans_are_line_and_column_of_each_node():
    text = (
        "# spans\r\nvars x:0..1,\ty:0..1\r\ncombiner sum\r\nmodels hierarchical\r\n"
        "stakeholder p { (0,1) > (1,0);\r\n  (1,\r\n 1) >= (0,0); # (0,0)\r\n"
        "(0,0)>(1,1) }\r\n  stakeholder q {(1,1)>(0,0)}"
    )
    doc = dsl.parse(text)
    assert [d.span for d in doc.variables] == [(2, 6), (2, 14)]
    assert [b.span for b in doc.stakeholders] == [(5, 1), (9, 3)]
    spans = [s.span for b in doc.stakeholders for s in b.statements]
    assert spans == [(5, 17), (6, 3), (8, 1), (9, 18)]


def test_parse_statement():
    doc = dsl.parse(EXAMPLE)
    node = dsl.parse_statement("(0,0,0) >= (5,5,5)", doc.variables)
    assert not node.strict
    with pytest.raises(ParseError) as exc:
        dsl.parse_statement("(0,0) >= (5,5,5)", doc.variables)
    assert exc.value.code == "bad-tuple-arity"
    with pytest.raises(ParseError) as exc:
        dsl.parse_statement("(0,0,9) >= (5,5,5)", doc.variables)
    assert exc.value.code == "value-out-of-range"
    with pytest.raises(ParseError):
        dsl.parse_statement("(0,0,0) >= (5,5,5) junk", doc.variables)


def test_to_profile_semantics():
    profile = dsl.parse_profile(EXAMPLE)
    assert profile.model_class == "hier"
    assert profile.combiner == Combiner("sum")
    assert profile.space.domains == ((0, 1, 2, 3, 4, 5),) * 3


def test_to_profile_rejects_degenerate_range():
    # 0..0 is grammatical, but a one-value domain has no preference content
    from concord.errors import DomainMismatchError

    doc = dsl.parse(
        "vars x:0..0, y:0..1\ncombiner sum\nmodels hierarchical\n"
        "stakeholder p {(0,0)>(0,1)}"
    )
    with pytest.raises(DomainMismatchError):
        dsl.to_profile(doc)


def test_from_profile_rejects_opaque_table():
    profile, _ = nonexistence_fixture()
    import dataclasses

    table = tuple((a, b, a & b) for a in (0, 1) for b in (0, 1))
    odd = dataclasses.replace(
        profile, combiner=Combiner("table", table=table, universe=(0, 1))
    )
    with pytest.raises(ValueError):
        dsl.render_profile(odd)


# ---------------------------------------------------------------------------
# property tests

_name = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)


@st.composite
def documents(draw):
    nvars = draw(st.integers(1, 4))
    varnames = draw(
        st.lists(_name, min_size=nvars, max_size=nvars, unique=True)
    )
    bounds = []
    for _ in range(nvars):
        a = draw(st.integers(-6, 6))
        b = draw(st.integers(-6, 6))
        bounds.append((min(a, b), max(a, b)))
    decls = tuple(
        dsl.VarDecl(n, lo, hi) for n, (lo, hi) in zip(varnames, bounds)
    )
    nstake = draw(st.integers(1, 3))
    stakenames = draw(
        st.lists(_name, min_size=nstake, max_size=nstake, unique=True)
    )
    blocks = []
    for sn in stakenames:
        statements = []
        for _ in range(draw(st.integers(1, 3))):
            left = tuple(draw(st.integers(lo, hi)) for lo, hi in bounds)
            right = tuple(draw(st.integers(lo, hi)) for lo, hi in bounds)
            statements.append(
                dsl.StatementNode(left, right, draw(st.booleans()))
            )
        blocks.append(dsl.StakeholderBlock(sn, tuple(statements)))
    return dsl.Document(
        decls,
        draw(st.sampled_from(dsl.COMBINER_WORDS)),
        draw(st.sampled_from(dsl.MODEL_WORDS)),
        tuple(blocks),
    )


@given(documents())
@settings(max_examples=200)
def test_render_parse_round_trip(doc):
    assert dsl.parse(dsl.render(doc)) == doc


@given(st.text(alphabet=string.printable, max_size=120))
@settings(max_examples=400)
def test_parser_total_on_noise(text):
    try:
        dsl.parse(text)
    except ParseError:
        pass


def test_parser_total_on_mutated_documents():
    """Single-character edits of a valid document never escape ParseError."""
    rng = random.Random(20260822)
    base = dsl.render_profile(nonuniqueness_fixture()[0])
    glyphs = string.printable
    for _ in range(500):
        pos = rng.randrange(len(base))
        mutated = base[:pos] + rng.choice(glyphs) + base[pos + 1:]
        try:
            dsl.parse(mutated)
        except ParseError:
            pass
