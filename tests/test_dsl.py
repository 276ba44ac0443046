"""Profile document grammar: parsing, rendering, round-trips, totality."""

import random
import string
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from concord import domain, dsl
from concord.domain import (
    Alternative,
    Combiner,
    Profile,
    Stakeholder,
    Statement,
    pack_lanes,
)
from concord.errors import ParseError
from concord.gadgets import (
    moral_machine_fixture,
    nonexistence_fixture,
    nonuniqueness_fixture,
    subset_sum_gadget,
)
from test_planted_hier import planted_profiles as planted_hier
from test_planted_lex import planted_profiles as planted_lex

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
        ("vars x:0..0\ncombiner sum\nmodels hierarchical\nstakeholder p {(0)>(0)}", "bad-range"),
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
        # a range of one value, reported at its variable's name
        ("vars x:0..1, y:0..0\ncombiner sum\nmodels hierarchical\n"
         "stakeholder p {(0,0)>(1,0)}", "one-value range 0..0 for variable 'y'", 1, 14),
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
        # values with no 8-bit lane: negative, and above 127
        (_HEAD + "stakeholder p {(0,-1) > (1,0)}",
         "value -1 is outside 0..1 for variable 'y'", 4, 16),
        (_HEAD + "stakeholder p {(1,0) >= (200,0)}",
         "value 200 is outside 0..1 for variable 'x'", 4, 25),
        (_HEAD + "stakeholder p {(1,0) >= (0,128)}",
         "value 128 is outside 0..1 for variable 'y'", 4, 25),
        (_HEAD + "stakeholder p {(0,a) > (1,0)}", "expected an integer, got 'a'", 4, 19),
        (_HEAD + "stakeholder p {(0,1 > (1,0)}", "expected ), got '>'", 4, 21),
        (_HEAD + "stakeholder p {(0,1,) > (1,0)}", "expected an integer, got ')'", 4, 21),
        (_HEAD + "stakeholder p {(0,- 1) > (1,0)}", "unexpected character '-'", 4, 19),
        (_HEAD + "stakeholder p {(0,\x0b1) > (1,0)}", "unexpected character '\\x0b'", 4, 19),
        (_HEAD + "stakeholder p {(0,1) > (1,", "expected an integer, got end of input", 4, 27),
        (_HEAD + "stakeholder p {(0,1) > (1,0)", "expected }, got end of input", 4, 29),
        # malformed statement bodies, each between two parentheses
        (_HEAD + "stakeholder p {(0,,1) > (1,0)}", "expected an integer, got ','", 4, 19),
        (_HEAD + "stakeholder p {(0 1) > (1,0)}", "expected ), got '1'", 4, 19),
        (_HEAD + "stakeholder p {() > (1,0)}", "expected an integer, got ')'", 4, 17),
        (_HEAD + "stakeholder p {(0,1) > (1,0,)}", "expected an integer, got ')'", 4, 29),
        (_HEAD + "stakeholder p {(0,-) > (1,0)}", "unexpected character '-'", 4, 19),
        (_HEAD + "stakeholder p {(0,1) > = (1,0)}", "unexpected character '='", 4, 24),
        # integers longer than int() converts, in a whole tuple and in a range
        (_HEAD + "stakeholder p {(0," + "9" * 5000 + ") > (1,0)}",
         "integer has 5000 digits, more than the 4300 allowed", 4, 19),
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
    # A one-value domain has no preference content. The parser refuses 0..0
    # (bad-range, in the error table); a Document built by hand that
    # declares it still fails in the engine.
    from concord.errors import DomainMismatchError

    doc = dsl.parse(
        "vars x:0..1, y:0..1\ncombiner sum\nmodels hierarchical\n"
        "stakeholder p {(0,0)>(0,1)}"
    )
    doc = dsl.Document(
        (dsl.VarDecl("x", 0, 0),) + doc.variables[1:], doc.combiner,
        doc.model_class, doc.stakeholders,
    )
    with pytest.raises(DomainMismatchError):
        dsl.to_profile(doc)


def test_from_profile_rejects_opaque_table():
    profile, _ = nonexistence_fixture()
    table = tuple((a, b, a & b) for a in (0, 1) for b in (0, 1))
    odd = Profile(
        profile.space,
        Combiner("table", table=table, universe=(0, 1)),
        profile.model_class,
        profile.stakeholders,
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
        # two values or more: a one-value range is a bad-range error
        a = draw(st.integers(-6, 6))
        b = draw(st.integers(-6, 6).filter(lambda b: b != a))
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


_GAPS = ("", "", " ", "\t", "\n", "\r\n", " \t\r\n  ")


@given(documents(), st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_spacing_and_spelling_leave_the_document_unchanged(doc, rng):
    """Whitespace around every comma, parenthesis and operator, and values
    spelled with leading zeros or as -0, parse as the canonical text does."""
    def gap() -> str:
        return rng.choice(_GAPS)

    def spell(v: int) -> str:
        sign = "-" if v < 0 or (v == 0 and rng.random() < 0.5) else ""
        return sign + "0" * rng.randint(0, 2) + str(abs(v))

    def tuple_text(values) -> str:
        return "(" + ",".join(gap() + spell(v) + gap() for v in values) + ")"

    blocks = []
    for block in doc.stakeholders:
        statements = (gap() + ";" + gap()).join(
            tuple_text(s.left) + gap() + (">" if s.strict else ">=") + gap()
            + tuple_text(s.right)
            for s in block.statements
        )
        blocks.append("stakeholder %s {%s%s%s}" % (block.name, gap(), statements, gap()))
    head = dsl.render(dsl.Document(doc.variables, doc.combiner, doc.model_class, ()))
    assert dsl.parse(head + gap().join(blocks)) == doc


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


# ---------------------------------------------------------------------------
# one pass from text to Profile


def _by_hand(doc: dsl.Document, like: Profile) -> Profile:
    """``doc``'s Profile by the route that builds every engine object anew
    from the node's values: two Alternatives, a Statement, a Profile."""
    return Profile(like.space, like.combiner, like.model_class, tuple(
        Stakeholder(block.name, tuple(
            Statement(Alternative(node.left), Alternative(node.right), node.strict)
            for node in block.statements
        ))
        for block in doc.stakeholders
    ))


# Per variable, the range values are drawn from: single digits only, single
# digits past 0..1, negative and multi-digit values, values past 127 (no lanes).
_RANGES = ((0, 1), (0, 9), (-12, 12), (5, 140))


@given(st.data(), st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_parse_profile_builds_the_profile_of_the_nodes(data, rng):
    """Over bodies that the one-step decode takes and bodies that go through
    ``int()`` (multi-digit and negative values, spellings such as ``007`` and
    ``-0``, whitespace and newlines inside the parentheses), ``parse_profile``
    gives the Profile built by hand from ``parse``'s nodes: the same values,
    lanes (``pack_lanes`` of the values), strictness and order."""
    bounds = data.draw(st.lists(st.sampled_from(_RANGES), min_size=1, max_size=4))

    def spell(v: int) -> str:
        if rng.random() < 0.6:
            return str(v)
        sign = "-" if v < 0 or (v == 0 and rng.random() < 0.5) else ""
        return rng.choice(_GAPS) + sign + "0" * rng.randint(0, 2) + str(abs(v)) + rng.choice(_GAPS)

    def body() -> str:
        values = [rng.randint(lo, hi) for lo, hi in bounds]
        if rng.random() < 0.5:
            return "(" + ",".join(map(str, values)) + ")"
        return "(" + ",".join(map(spell, values)) + ")"

    names = ["v%d" % i for i in range(len(bounds))]
    text = "vars %s\ncombiner %s\nmodels %s\n" % (
        ", ".join("%s:%d..%d" % (n, lo, hi) for n, (lo, hi) in zip(names, bounds)),
        rng.choice(("sum", "max", "product")), rng.choice(dsl.MODEL_WORDS),
    )
    for k in range(rng.randint(1, 3)):
        statements = ";\n".join(
            "  %s %s %s" % (body(), rng.choice((">", ">=")), body())
            for _ in range(rng.randint(1, 4))
        )
        text += "stakeholder s%d {\n%s\n}\n" % (k, statements)
    got = dsl.parse_profile(text)
    want = _by_hand(dsl.parse(text), got)
    assert got == want
    for mine, theirs in zip(got.stakeholders, want.stakeholders):
        assert len(mine.statements) == len(theirs.statements)
        for s, t in zip(mine.statements, theirs.statements):
            assert (s.left.values, s.right.values, s.strict) == (
                t.left.values, t.right.values, t.strict
            )
            for side, twin in ((s.left, t.left), (s.right, t.right)):
                assert side.lanes == twin.lanes == pack_lanes(side.values)
                assert hash(side) == hash(twin)
    assert got.union_statements() == want.union_statements()


_TWO = "vars x:0..1, y:0..1\ncombiner sum\nmodels hierarchical\n"


@pytest.mark.parametrize(
    "body,code,message,line,col",
    [
        # a single-digit value out of range, on either side, on a later line
        ("(0,1) > (1,2)", "value-out-of-range", "value 2 is outside 0..1 for variable 'y'", 4, 24),
        ("(0,7) >= (1,0)", "value-out-of-range", "value 7 is outside 0..1 for variable 'y'", 4, 16),
        ("\n  (1,0) > (0,0);\n  (0,1) >= (1,9)\n", "value-out-of-range",
         "value 9 is outside 0..1 for variable 'y'", 6, 12),
        # arity, on either side
        ("(0,1,1) > (1,0)", "bad-tuple-arity",
         "tuple has 3 values but 2 variables are declared", 4, 16),
        ("(0,1) > (1,0,0,1)", "bad-tuple-arity",
         "tuple has 4 values but 2 variables are declared", 4, 24),
        ("(0) > (1)", "bad-tuple-arity", "tuple has 1 values but 2 variables are declared", 4, 16),
        # non-ASCII digits are values too, read by int()
        ("(0,٢) > (1,0)", "value-out-of-range",
         "value 2 is outside 0..1 for variable 'y'", 4, 16),
        ("(0,1) > (١,٢)", "value-out-of-range",
         "value 2 is outside 0..1 for variable 'y'", 4, 24),
        ("(0,1) > (1,２)", "value-out-of-range",
         "value 2 is outside 0..1 for variable 'y'", 4, 24),
        ("(١,0,1) > (1,0)", "bad-tuple-arity",
         "tuple has 3 values but 2 variables are declared", 4, 16),
    ],
)
def test_single_digit_bodies_keep_their_errors(body, code, message, line, col):
    with pytest.raises(ParseError) as exc:
        dsl.parse_profile(_TWO + "stakeholder p {" + body + "}")
    e = exc.value
    assert (e.code, e.message, e.line, e.col) == (code, message, line, col)


def test_non_ascii_digits_read_as_their_values():
    ascii_text = _TWO + "stakeholder p {(0,1) > (1,0)}"
    assert dsl.parse_profile(ascii_text.replace("(1,0)", "(١,٠)")) == (
        dsl.parse_profile(ascii_text)
    )


def test_each_tuple_is_packed_and_built_once(monkeypatch):
    """Text to Profile packs each tuple at most once (a tuple of single
    digits is packed by the scan itself) and builds one Alternative per
    tuple: the Profile holds the parser's statements."""
    sides = [
        ((1, 2, 3), (4, 5, 6)), ((10, 2, 3), (1, 12, 3)),
        ((7, 8, 9), (1, 1, 2)), ((1, 0, 20), (0, 0, 1)),
    ]
    text = "vars x:0..20, y:0..20, z:0..20\ncombiner sum\nmodels lexicographic\n" + (
        "stakeholder a {(1,2,3) > (4,5,6); ( 10, 2,3) >= (1,12,3)}\n"
        "stakeholder b {(7,8,9) > (1,1,2); (1,0,20)>=(0,0,1)}\n"
    )
    packed, built = Counter(), Counter()
    real_pack, real_init = domain.pack_lanes, Alternative.__init__

    def pack(values):
        packed[tuple(values)] += 1
        return real_pack(values)

    def init(self, values, lanes=None):
        built[values] += 1
        real_init(self, values, lanes)

    monkeypatch.setattr(domain, "pack_lanes", pack)
    monkeypatch.setattr(dsl, "pack_lanes", pack, raising=False)
    monkeypatch.setattr(Alternative, "__init__", init)
    profile = dsl.parse_profile(text)
    tuples = [t for pair in sides for t in pair]
    assert [
        (s.left.values, s.right.values) for sh in profile.stakeholders for s in sh.statements
    ] == sides
    assert built == Counter(tuples)
    assert max(packed[t] for t in tuples) == 1  # the two int() bodies' sides
    assert sum(packed[t] for t in tuples) == 4


def test_nodes_keep_their_statement():
    node = dsl.StatementNode((1, 0), (0, 1), True)
    assert node.statement == Statement(Alternative((1, 0)), Alternative((0, 1)), True)
    s = Statement(Alternative((2, 1)), Alternative((1, 2)), False)
    twin = dsl.StatementNode.of(s, (3, 4))
    assert twin.statement is s and twin.span == (3, 4)
    assert twin == dsl.StatementNode((2, 1), (1, 2), False)
    parsed = dsl.parse(_TWO + "stakeholder p {(0,1) > (1,0)}")
    assert dsl.to_profile(parsed).stakeholders[0].statements[0] is (
        parsed.stakeholders[0].statements[0].statement
    )


# ---------------------------------------------------------------------------
# the header as one token


def _spanned(doc: dsl.Document) -> tuple:
    """``doc`` with every node's span, which equality leaves out."""
    return doc, [(d, d.span) for d in doc.variables], [
        (b.span, [n.span for n in b.statements]) for b in doc.stakeholders
    ]


def _parsed(text: str) -> tuple:
    try:
        return _spanned(dsl.parse(text))
    except ParseError as e:
        return e.code, e.line, e.col, e.message


def _head_and_elements(text: str) -> tuple[tuple, tuple]:
    """``parse(text)`` as it is, and with the header read element by
    element, as it is when ``_header`` does not take it."""
    head = _parsed(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsl, "_header", lambda text: None)
        return head, _parsed(text)


_BODY = "\nstakeholder p {\n  (0,1) > (1,0);\n  (1,1) >= (0,0)\n}\n"
_FIFTY = "vars %s\ncombiner max\nmodels lexicographic\nstakeholder p {(%s) > (%s)}\n" % (
    ", ".join("v%d:0..1" % i for i in range(50)), ",".join("1" * 50), ",".join("0" * 50)
)

# (document, whether its header is taken as one token)
_HEADERS = [
    # as render writes it, CRLF line ends too
    (_TWO + _BODY, True),
    ((_TWO + _BODY).replace("\n", "\r\n"), True),
    ("vars x:-3..1, y:0..12\ncombiner product\nmodels lexicographic\n"
     "stakeholder p {(-3,12) > (1,0)}", True),
    ("vars x:00..01, y:-0..1\ncombiner tie\nmodels hierarchical\n" + _BODY, True),
    (_FIFTY, True),
    (_TWO + _TWO + _BODY, True),
    (_TWO + "stakeholder vars {(0,1) > (1,0)}", True),
    (_TWO + "stakeholder vars x:0..1\ncombiner sum\nmodels hierarchical\n", True),
    (_TWO + "$" + _BODY, True),
    (_TWO, True),
    # other spellings: comments, blank lines, tabs, spacing, non-ASCII digits
    ("# a comment\n\n  \t\n" + _TWO + _BODY, False),
    ("vars x:0..1, y:0..1 # x, y\n# between\n\ncombiner sum\t# c\n \nmodels hierarchical #\n"
     + _BODY, False),
    ("vars\tx\t:\t0\t..\t1\t,\ty : 0 .. 1 \ncombiner\ttie\nmodels\thierarchical\n" + _BODY,
     False),
    ("  vars x:0..1,y:0..1\n  combiner sum\n  models hierarchical\n" + _BODY, False),
    ("vars x:0..\u0661, y:0..1\ncombiner sum\nmodels hierarchical\n" + _BODY, False),
    # out of order, misspelt, cut or joined lines
    ("combiner sum\nvars x:0..1, y:0..1\nmodels hierarchical\n" + _BODY, False),
    ("vars x:0..1, y:0..1\nmodels hierarchical\ncombiner sum\n" + _BODY, False),
    ("vars x:0..1, y:0..1\ncombiner sum\n" + _BODY, False),
    ("vars x:0..1, y:0..1\ncombiner nope\nmodels hierarchical\n" + _BODY, False),
    ("vars x:0..1, y:0..1\ncombiner sum\nmodels flat\n" + _BODY, False),
    ("vars x:0..1, y:0..1\ncombiner SUM\nmodels hierarchical\n" + _BODY, False),
    ("var x:0..1, y:0..1\ncombiner sum\nmodels hierarchical\n" + _BODY, False),
    ("varsx:0..1, y:0..1\ncombiner sum\nmodels hierarchical\n" + _BODY, False),
    ("vars x:0..1,\n y:0..1\ncombiner sum\nmodels hierarchical\n" + _BODY, False),
    ("vars x:0..1, y:0..1\ncombinersum\nmodels hierarchical\n" + _BODY, False),
    ("vars x:0..1, y:0..1\ncombiner sum\nmodels hierarchical", False),
    ("vars x:0..1, y:0..1\ncombiner sum\nmodels hierarchical stakeholder p {(0,1)>(1,0)}", False),
    ("vars x:0..1, y:0..1 combiner sum\nmodels hierarchical\n" + _BODY, False),
    ("vars x:0..1, y:0..1\ncombiner 5\nmodels hierarchical\n" + _BODY, False),
    ("vars x:0..1 y:0..1\ncombiner sum\nmodels hierarchical\n" + _BODY, False),
    ("vars x:0..1, y:0..1,\ncombiner sum\nmodels hierarchical\n" + _BODY, False),
    ("vars x:0.1, y:0..1\ncombiner sum\nmodels hierarchical\n" + _BODY, False),
    ("vars x:0...1, y:0..1\ncombiner sum\nmodels hierarchical\n" + _BODY, False),
    ("vars 1x:0..1, y:0..1\ncombiner sum\nmodels hierarchical\n" + _BODY, False),
    ("vars x\u00e9:0..1, y:0..1\ncombiner sum\nmodels hierarchical\n" + _BODY, False),
    ("\ufeffvars x:0..1, y:0..1\ncombiner sum\nmodels hierarchical\n" + _BODY, False),
    # checks: a name twice, ranges of one value or none, a huge integer
    ("vars x:0..1, x:0..1\ncombiner sum\nmodels hierarchical\n" + _BODY, False),
    ("vars x:0..1, y:1..0\ncombiner sum\nmodels hierarchical\n" + _BODY, False),
    ("vars x:0..1, y:1..1\ncombiner sum\nmodels hierarchical\n" + _BODY, False),
    ("vars x:0.." + "9" * 5000 + ", y:0..1\ncombiner sum\nmodels hierarchical\n" + _BODY, False),
    ("vars x:0..1, y:-" + "9" * 5000 + "..1\ncombiner sum\nmodels hierarchical\n" + _BODY, False),
]


@pytest.mark.parametrize("text,taken", _HEADERS)
def test_header_token_reads_as_its_elements(text, taken):
    """Whether or not the header is one token, the Document (spans
    included) or the ParseError is the same."""
    assert (dsl._header(text) is not None) == taken
    head, elements = _head_and_elements(text)
    assert head == elements


def test_header_token_where_a_statement_is_wanted():
    """A header where ``parse_statement`` wants a tuple is refused as its
    'vars' is, token or not."""
    variables = dsl.parse(_TWO + _BODY).variables
    for text in (_TWO, _TWO + "(0,1) > (1,0)"):
        assert dsl._header(text) is not None
        errors = []
        for header in (dsl._header, lambda text: None):
            with pytest.MonkeyPatch.context() as mp, pytest.raises(ParseError) as exc:
                mp.setattr(dsl, "_header", header)
                dsl.parse_statement(text, variables)
            errors.append(str(exc.value))
        assert errors == ["1:1: expected (, got 'vars' [syntax]"] * 2


def test_header_token_on_the_data_documents(data_dir):
    for path in sorted(data_dir.glob("*.pref")):
        text = path.read_text()
        assert dsl._header(text) is not None, path.name
        head, elements = _head_and_elements(text)
        assert head == elements and not isinstance(head[0], str), path.name


def test_header_token_on_header_mutations():
    """Single-character edits inside headers that are taken whole: a
    replacement, an insertion or a deletion. Many break the token; each
    reads as its elements do."""
    rng = random.Random(20261022)
    glyphs = string.printable + "\u0661\x0b\ufeff"
    taken = 0
    bases = [text for text, taken in _HEADERS if taken][:5]
    for base in bases:
        head = dsl._header(base)
        end = head[2] + len(head[1])
        for _ in range(200):
            pos = rng.randrange(end)
            cut = rng.choice((0, 1))  # characters dropped at pos
            put = rng.choice(glyphs) if rng.random() < 0.7 or not cut else ""
            mutated = base[:pos] + put + base[pos + cut:]
            taken += dsl._header(mutated) is not None
            head, elements = _head_and_elements(mutated)
            assert head == elements, repr(mutated)
    assert 0 < taken < 200 * len(bases)


@given(st.data())
@settings(
    max_examples=40, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_header_token_on_planted_documents(data):
    kind = data.draw(st.sampled_from(domain.BUILTIN_KINDS))
    profile = data.draw(data.draw(st.sampled_from((planted_hier, planted_lex)))(kind))
    text = dsl.render_profile(profile)
    assert dsl._header(text) is not None
    head, elements = _head_and_elements(text)
    assert head == elements and dsl.to_profile(head[0]) == profile


# ---------------------------------------------------------------------------
# domains and combiner kept per process


def test_to_profile_keeps_the_last_domains_and_combiner():
    from concord.reasoner import compile_space

    def profile(names, ranges="0..1", word="tie"):
        return dsl.parse_profile(
            "vars %s\ncombiner %s\nmodels hierarchical\nstakeholder p {(0,1) > (1,0)}"
            % (", ".join("%s:%s" % (n, ranges) for n in names), word)
        )

    first = profile("xy")
    renamed = profile("ab")
    # Variable names are not part of the key: one domains tuple, one Combiner.
    assert renamed.space.variables == ("a", "b")
    assert renamed.space.domains is first.space.domains
    assert renamed.combiner is first.combiner
    assert profile("ab").space is renamed.space
    # compile_space matches the kept space by identity.
    cs = compile_space(first.space, first.combiner)
    assert compile_space(renamed.space, renamed.combiner) is cs
    assert cs.space.domains is renamed.space.domains and cs.c is renamed.combiner
    # Another combiner word, or other ranges, replaces what is kept.
    other = profile("ab", word="sum")
    assert other.combiner == Combiner("sum")
    assert other.space.domains == first.space.domains
    again = profile("ab")
    assert again.combiner == first.combiner and again.combiner is not first.combiner
    wider = profile("ab", ranges="0..2")
    assert wider.space.domains == ((0, 1, 2),) * 2
    assert wider.combiner is not again.combiner
    assert wider.combiner == Combiner.tie_over((0, 1, 2))
    assert profile("ab", ranges="0..2").combiner is wider.combiner
