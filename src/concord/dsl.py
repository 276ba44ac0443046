"""Text format for preference profiles.

A profile document looks like this::

    vars adult:0..5, child:0..5, dog:0..5
    combiner sum
    models hierarchical

    stakeholder p1 {
      (1,4,0) > (2,3,3)
    }

    stakeholder p2 {
      (2,3,3) > (1,4,0)
    }

The three header lines are newline-terminated and must appear in that
order.  Everywhere else whitespace is insignificant.  ``#`` starts a
comment that runs to the end of the line.

Combiner words: ``sum``, ``product``, ``min``, ``max``, ``and``, ``or``,
plus ``tie`` for the table combiner in which every pairwise combination
lands on a fresh value above the declared domains (so multi-variable
levels always tie).

The scanner is one pass of one regular expression. Tokens are plain
``(kind, text, offset)`` tuples; whitespace and comments are dropped. A
statement whose two tuples hold only digits, signs, commas and whitespace is
one ``stmt`` token that carries its two sides as ``Alternative``s, built as
it is scanned: a body of single ASCII digits between commas, the common case,
is decoded in one step (the digits sliced out and ``bytes.translate``d to
their values, which are also its packed lanes), and any other body through
``int()``. One that does not decode is scanned again in place past its
``(``, by the same expression, into element tokens that the parser reads one
by one, as it reads any other tuple, so errors name the element at fault.
The parser range-checks each side on its lanes and makes the node's
``Statement`` from the two, once: ``to_profile`` hands those statements to
the ``Profile``, whose own range check reads the same lanes. Line and column
are worked out from a token's offset only when a node's span or an error
needs them, counting newlines forward from the last position asked for.
"""

from __future__ import annotations

import re
import sys

from .domain import (
    Alternative,
    Combiner,
    Frozen,
    Profile,
    Stakeholder,
    Statement,
    VariableSpace,
    _set,
    lane_bounds,
    lanes_within,
)
from .errors import CapacityError, ParseError

__all__ = [
    "Document",
    "StakeholderBlock",
    "StatementNode",
    "VarDecl",
    "from_profile",
    "parse",
    "parse_profile",
    "parse_statement",
    "render",
    "render_profile",
]

COMBINER_WORDS = ("sum", "product", "min", "max", "and", "or", "tie")
MODEL_WORDS = ("hierarchical", "lexicographic")

# Caps on the domains a document may declare, checked before any is
# expanded: values over all variables (each becomes a tuple entry of the
# space), and distinct values under ``combiner tie``, whose table holds the
# square of that many entries (256 values: about 12 MB and 0.06 s).
MAX_DOMAIN_VALUES = 100_000
MAX_TIE_VALUES = 256

_MODEL_TO_KIND = {"hierarchical": "hier", "lexicographic": "lex"}
_KIND_TO_MODEL = {v: k for k, v in _MODEL_TO_KIND.items()}


# ---------------------------------------------------------------------------
# document model
#
# A node's ``span`` is the (line, column) it starts at; it is left out of
# equality, hashing and ``repr``.


class VarDecl(Frozen):
    __slots__ = ("name", "lo", "hi", "span")
    _fields = ("name", "lo", "hi")

    def __init__(self, name: str, lo: int, hi: int, span: tuple[int, int] = (0, 0)) -> None:
        _set(self, "name", name)
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "span", span)


class StatementNode(Frozen):
    """A statement as written. ``statement`` is the engine's ``Statement`` for
    it, built once with the node from its two ``Alternative``s (the parser's,
    packed and range-checked as they were scanned); ``to_profile`` reuses it.
    Like ``span`` it is derived, so it is left out of equality, hashing and
    ``repr``."""

    __slots__ = ("left", "right", "strict", "span", "statement")
    _fields = ("left", "right", "strict")

    def __init__(
        self, left: tuple[int, ...], right: tuple[int, ...], strict: bool,
        span: tuple[int, int] = (0, 0),
    ) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "strict", strict)
        _set(self, "span", span)
        _set(self, "statement", Statement(Alternative(left), Alternative(right), strict))

    @classmethod
    def of(cls, statement: Statement, span: tuple[int, int] = (0, 0)) -> "StatementNode":
        """The node of an already built statement, which it keeps."""
        node = cls.__new__(cls)
        _set(node, "left", statement.left.values)
        _set(node, "right", statement.right.values)
        _set(node, "strict", statement.strict)
        _set(node, "span", span)
        _set(node, "statement", statement)
        return node


class StakeholderBlock(Frozen):
    __slots__ = ("name", "statements", "span")
    _fields = ("name", "statements")

    def __init__(
        self, name: str, statements: tuple[StatementNode, ...], span: tuple[int, int] = (0, 0)
    ) -> None:
        _set(self, "name", name)
        _set(self, "statements", statements)
        _set(self, "span", span)


class Document(Frozen):
    __slots__ = _fields = ("variables", "combiner", "model_class", "stakeholders")

    def __init__(
        self, variables: tuple[VarDecl, ...], combiner: str, model_class: str,
        stakeholders: tuple[StakeholderBlock, ...],
    ) -> None:
        _set(self, "variables", variables)
        _set(self, "combiner", combiner)
        _set(self, "model_class", model_class)
        _set(self, "stakeholders", stakeholders)


# ---------------------------------------------------------------------------
# tokenizer

# Alternatives are tried in order. Whitespace and comments match without a
# group and are dropped; a "(" that does not open a whole "stmt" is a "sym";
# "bad" takes any character nothing else does.
_TOKEN_RE = re.compile(
    r"""
      [ \t\r]+
    | \#[^\n]*
    | (?P<stmt>\((?P<left>[-\d,\ \t\r\n]*)\)[ \t\r\n]*
               (?P<op>>=?)[ \t\r\n]*\((?P<right>[-\d,\ \t\r\n]*)\))
    | (?P<nl>\n)
    | (?P<dots>\.\.)
    | (?P<ge>>=)
    | (?P<int>-?\d+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<sym>[(),:;{}>])
    | (?P<bad>.)
    """,
    re.VERBOSE,
)

# Digit bytes to their values, for ``bytes.translate``.
_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))

# A token is (kind, text, offset): kind is "stmt", "nl", "dots", "ge", "int",
# "name", "sym", "bad" or "eof"; offset indexes the document text. A "stmt"
# token goes on with its left and right ``Alternative`` and its strictness.
_Token = tuple


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "stmt":
            left, op, right = m.group("left", "op", "right")
            sides = _decode(left, right)
            if sides is None:
                tokens += _rescan(text, m.start(), m.end())
            else:
                tokens.append(("stmt", m.group(), m.start(), *sides, op == ">"))
        elif kind is not None:
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def _decode(left: str, right: str) -> tuple[Alternative, Alternative] | None:
    """A statement's two bodies as alternatives, or ``None`` when one is not
    a list of integers that ``int()`` reads.

    Two bodies of single ASCII digits decode in one step: joined by a comma,
    their bytes alternate digit and comma (a non-ASCII digit's bytes, like
    whitespace, break that), and each digit, translated, is its value and its
    8-bit lane, so both sides are packed here, once."""
    raw = (left + "," + right).encode()
    digits = raw[::2]
    if digits.isdigit() and raw[1::2] == b"," * (len(digits) - 1):
        values = digits.translate(_DIGITS)
        cut = len(left) + 1 >> 1
        a, b = values[:cut], values[cut:]
        return (
            Alternative(tuple(a), int.from_bytes(a, "little")),
            Alternative(tuple(b), int.from_bytes(b, "little")),
        )
    try:
        return (
            Alternative(tuple(map(int, left.split(",")))),
            Alternative(tuple(map(int, right.split(",")))),
        )
    except ValueError:
        return None


def _rescan(text: str, start: int, end: int) -> list[_Token]:
    """The "stmt" at ``start:end`` as element tokens: "(", then the rest."""
    return [("sym", "(", start)] + [
        (kind, m.group(), m.start())
        for m in _TOKEN_RE.finditer(text, start + 1, end)
        if (kind := m.lastgroup) is not None
    ]


def _shown(tok: _Token) -> str:
    """How an unexpected token reads in a message; a statement shows its '('."""
    if tok[0] == "eof":
        return "end of input"
    return repr("(" if tok[0] == "stmt" else tok[1])


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        # The last offset given a span, its line, and where that line starts.
        self.mark = 0
        self.line = 1
        self.line_start = 0
        self.declare(())
        for tok in self.tokens:
            if tok[0] == "bad":
                raise self.error("syntax", tok, "unexpected character %r" % tok[1])

    def declare(self, decls: tuple[VarDecl, ...]) -> None:
        """Set the variables that tuples are checked against."""
        self.decls = decls
        self.bounds = lane_bounds(tuple(d.lo for d in decls), tuple(d.hi for d in decls))

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def span(self, tok: _Token) -> tuple[int, int]:
        """Line and column of a token.

        Tokens must be asked for in document order, as the parser meets them:
        each call counts newlines only since the previous one, so the text is
        read once however many spans are asked for.
        """
        offset = tok[2]
        newlines = self.text.count("\n", self.mark, offset)
        if newlines:
            self.line += newlines
            self.line_start = self.text.rfind("\n", self.mark, offset) + 1
        self.mark = offset
        return self.line, offset - self.line_start + 1

    def error(self, code: str, tok: _Token, message: str) -> ParseError:
        line, col = self.span(tok)
        return ParseError(code, line, col, message)

    def at_sym(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok[0] == "sym" and tok[1] == text

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok[0] != kind or (text is not None and tok[1] != text):
            wanted = what or (text if text is not None else kind)
            raise self.error("syntax", tok, "expected %s, got %s" % (wanted, _shown(tok)))
        return self.advance()

    def expect_keyword(self, word: str) -> _Token:
        return self.expect("name", word, "keyword %r" % word)

    def skip_newlines(self) -> None:
        while self.tokens[self.pos][0] == "nl":
            self.pos += 1

    def expect_line_end(self) -> None:
        tok = self.peek()
        if tok[0] == "eof":
            return
        if tok[0] != "nl":
            raise self.error("syntax", tok, "expected end of line, got %s" % _shown(tok))
        self.advance()

    def parse_int(self) -> int:
        tok = self.expect("int", what="an integer")
        try:
            return int(tok[1])
        except ValueError:  # more digits than int() converts
            raise self.error(
                "bad-int", tok,
                "integer has %d digits, more than the %d allowed"
                % (len(tok[1].lstrip("-")), sys.get_int_max_str_digits()),
            ) from None

    # header ---------------------------------------------------------------

    def parse_vardecl(self) -> VarDecl:
        name_tok = self.expect("name", what="a variable name")
        self.expect("sym", ":")
        lo = self.parse_int()
        self.expect("dots", what="'..'")
        hi = self.parse_int()
        name = name_tok[1]
        if lo > hi:
            raise self.error(
                "bad-range", name_tok,
                "empty range %d..%d for variable %r" % (lo, hi, name),
            )
        return VarDecl(name, lo, hi, span=self.span(name_tok))

    def parse_header(self) -> tuple[tuple[VarDecl, ...], str, str]:
        self.skip_newlines()
        self.expect_keyword("vars")
        decls = [self.parse_vardecl()]
        while self.at_sym(","):
            self.advance()
            decls.append(self.parse_vardecl())
        seen: set[str] = set()
        for decl in decls:
            if decl.name in seen:
                raise ParseError(
                    "dup-variable", decl.span[0], decl.span[1],
                    "variable %r declared twice" % decl.name,
                )
            seen.add(decl.name)
        self.expect_line_end()
        combiner = self.parse_word_line("combiner", "combiner", COMBINER_WORDS, "bad-combiner")
        model_class = self.parse_word_line("models", "model class", MODEL_WORDS, "bad-models")
        return tuple(decls), combiner, model_class

    def parse_word_line(self, keyword: str, what: str, words: tuple[str, ...], code: str) -> str:
        """A header line of ``keyword`` and one of ``words``."""
        self.skip_newlines()
        self.expect_keyword(keyword)
        tok = self.expect("name", what="a %s word" % what)
        if tok[1] not in words:
            raise self.error(
                code, tok, "unknown %s %r (expected one of %s)" % (what, tok[1], ", ".join(words))
            )
        self.expect_line_end()
        return tok[1]

    # body -----------------------------------------------------------------

    def parse_tuple(self) -> tuple[Alternative, _Token]:
        """A tuple outside a "stmt" token, read element by element."""
        tok = self.peek()
        if tok[0] == "stmt":  # only its left tuple belongs here: split it
            self.tokens[self.pos:self.pos + 1] = _rescan(self.text, tok[2], tok[2] + len(tok[1]))
        open_tok = self.expect("sym", "(")
        self.skip_newlines()
        elements = [self.parse_int()]
        self.skip_newlines()
        while self.at_sym(","):
            self.advance()
            self.skip_newlines()
            elements.append(self.parse_int())
            self.skip_newlines()
        self.expect("sym", ")")
        alt = Alternative(tuple(elements))
        self.check_tuple(alt, open_tok)
        return alt, open_tok

    def check_tuple(self, alt: Alternative, tok: _Token, right: bool = False) -> None:
        """Arity and ranges of a tuple whose "(" is at ``tok``'s offset, or,
        with ``right``, at the last "(" of ``tok``, a "stmt" token. The ranges
        are read off the lanes the alternative was packed into."""
        values = alt.values
        if len(values) == len(self.decls) and lanes_within(alt.lanes, self.bounds):
            return
        if right:
            tok = ("sym", "(", tok[2] + tok[1].rindex("("))
        if len(values) != len(self.decls):
            message = "tuple has %d values but %d variables are declared"
            raise self.error("bad-tuple-arity", tok, message % (len(values), len(self.decls)))
        for decl, value in zip(self.decls, values):
            if not decl.lo <= value <= decl.hi:
                raise self.error(
                    "value-out-of-range", tok,
                    "value %d is outside %d..%d for variable %r"
                    % (value, decl.lo, decl.hi, decl.name),
                )

    def parse_statement(self) -> StatementNode:
        tok = self.peek()
        if tok[0] == "stmt":
            self.pos += 1
            _, _, _, left, right, strict = tok
            self.check_tuple(left, tok)
            self.check_tuple(right, tok, right=True)
            return StatementNode.of(Statement(left, right, strict), self.span(tok))
        left, open_tok = self.parse_tuple()
        self.skip_newlines()
        tok = self.peek()
        if tok[1] not in (">", ">="):  # only a "sym" or a "ge" is spelled so
            raise self.error("syntax", tok, "expected '>' or '>=', got %s" % _shown(tok))
        self.advance()
        strict = tok[1] == ">"
        self.skip_newlines()
        right, _ = self.parse_tuple()
        return StatementNode.of(Statement(left, right, strict), self.span(open_tok))

    def parse_stakeholder(self) -> StakeholderBlock:
        kw = self.expect_keyword("stakeholder")
        span = self.span(kw)
        name_tok = self.expect("name", what="a stakeholder name")
        self.skip_newlines()
        self.expect("sym", "{")
        self.skip_newlines()
        statements = [self.parse_statement()]
        self.skip_newlines()
        while self.at_sym(";"):
            self.advance()
            self.skip_newlines()
            statements.append(self.parse_statement())
            self.skip_newlines()
        self.expect("sym", "}")
        return StakeholderBlock(name_tok[1], tuple(statements), span=span)

    def parse_document(self) -> Document:
        decls, combiner, model_class = self.parse_header()
        self.declare(decls)
        self.skip_newlines()
        blocks: list[StakeholderBlock] = []
        names: set[str] = set()
        while self.peek()[0] != "eof":
            block = self.parse_stakeholder()
            if block.name in names:
                raise ParseError(
                    "dup-stakeholder", block.span[0], block.span[1],
                    "stakeholder %r declared twice" % block.name,
                )
            names.add(block.name)
            blocks.append(block)
            self.skip_newlines()
        if not blocks:
            raise self.error("syntax", self.peek(), "expected at least one stakeholder block")
        return Document(decls, combiner, model_class, tuple(blocks))


def parse(text: str) -> Document:
    """Parse a profile document, raising ParseError on any malformed input."""
    return _Parser(text).parse_document()


def parse_statement(text: str, variables: tuple[VarDecl, ...]) -> StatementNode:
    """Parse a standalone comparison such as ``(1,4,0) > (2,3,3)``.

    Arity and ranges are checked against *variables*, which normally come
    from an already parsed Document.
    """
    parser = _Parser(text)
    parser.declare(variables)
    parser.skip_newlines()
    node = parser.parse_statement()
    parser.skip_newlines()
    tok = parser.peek()
    if tok[0] != "eof":
        raise parser.error("syntax", tok, "unexpected trailing %s" % _shown(tok))
    return node


# ---------------------------------------------------------------------------
# document -> engine objects


def _build_combiner(word: str, variables: tuple[VarDecl, ...]) -> Combiner:
    if word == "tie":
        values: set[int] = set()
        for decl in variables:
            values.update(range(decl.lo, decl.hi + 1))
        return Combiner.tie_over(tuple(sorted(values)))
    return Combiner(word)


def _check_domain_sizes(doc: Document) -> None:
    """Refuse domains over ``MAX_DOMAIN_VALUES`` and tie universes over
    ``MAX_TIE_VALUES``, from the declared bounds alone."""
    total = sum(d.hi - d.lo + 1 for d in doc.variables)
    if total > MAX_DOMAIN_VALUES:
        raise CapacityError(
            f"domains declare {total} values, cap is {MAX_DOMAIN_VALUES}"
        )
    if doc.combiner == "tie":
        # Distinct values: the ranges' union, merged in order of lower bound.
        distinct, reach = 0, None
        for d in sorted(doc.variables, key=lambda d: d.lo):
            lo = d.lo if reach is None else max(d.lo, reach + 1)
            if d.hi >= lo:
                distinct += d.hi - lo + 1
                reach = d.hi
        if distinct > MAX_TIE_VALUES:
            raise CapacityError(
                f"tie combiner over {distinct} values, cap is {MAX_TIE_VALUES}"
            )


def to_profile(doc: Document) -> Profile:
    _check_domain_sizes(doc)
    space = VariableSpace(
        tuple(d.name for d in doc.variables),
        tuple(tuple(range(d.lo, d.hi + 1)) for d in doc.variables),
    )
    combiner = _build_combiner(doc.combiner, doc.variables)
    stakeholders = tuple(
        Stakeholder(
            block.name,
            tuple(node.statement for node in block.statements),
        )
        for block in doc.stakeholders
    )
    return Profile(space, combiner, _MODEL_TO_KIND[doc.model_class], stakeholders)


def parse_profile(text: str) -> Profile:
    return to_profile(parse(text))


def from_profile(profile: Profile) -> Document:
    """Turn a Profile back into a renderable Document.

    Domains are rendered as contiguous ranges, so a domain with gaps is
    widened to min..max.  Table combiners are only renderable when they
    match the ``tie`` shape.
    """
    decls = tuple(
        VarDecl(name, min(domain), max(domain))
        for name, domain in zip(profile.space.variables, profile.space.domains)
    )
    c = profile.combiner
    if c.kind == "table":
        base = c.universe[:-1]
        if c != Combiner.tie_over(base):
            raise ValueError("table combiner has no text form")
        word = "tie"
    else:
        word = c.kind
    blocks = tuple(
        StakeholderBlock(
            st.name,
            tuple(StatementNode.of(s) for s in st.statements),
        )
        for st in profile.stakeholders
    )
    return Document(decls, word, _KIND_TO_MODEL[profile.model_class], blocks)


# ---------------------------------------------------------------------------
# rendering


def _render_tuple(values: tuple[int, ...]) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def render_statement_node(node: StatementNode) -> str:
    op = ">" if node.strict else ">="
    return "%s %s %s" % (_render_tuple(node.left), op, _render_tuple(node.right))


def render(doc: Document) -> str:
    lines = [
        "vars " + ", ".join("%s:%d..%d" % (d.name, d.lo, d.hi) for d in doc.variables),
        "combiner " + doc.combiner,
        "models " + doc.model_class,
    ]
    for block in doc.stakeholders:
        lines.append("")
        lines.append("stakeholder %s {" % block.name)
        for i, stmt in enumerate(block.statements):
            sep = ";" if i + 1 < len(block.statements) else ""
            lines.append("  " + render_statement_node(stmt) + sep)
        lines.append("}")
    return "\n".join(lines) + "\n"


def render_profile(profile: Profile) -> str:
    return render(from_profile(profile))
