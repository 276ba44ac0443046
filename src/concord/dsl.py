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
tuple of integers with only whitespace or newlines between its parts is a
single token, and its values are read in one step; any other tuple (a
comment inside it, or a malformed one) is read element by element, so errors
name the element at fault. Line and column are worked out from a token's
offset only when a node's span or an error needs them, counting newlines
forward from the last position asked for.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from operator import le

from .domain import (
    Alternative,
    Combiner,
    Profile,
    Stakeholder,
    Statement,
    VariableSpace,
)
from .errors import ParseError

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

_MODEL_TO_KIND = {"hierarchical": "hier", "lexicographic": "lex"}
_KIND_TO_MODEL = {v: k for k, v in _MODEL_TO_KIND.items()}


# ---------------------------------------------------------------------------
# document model


@dataclass(frozen=True)
class VarDecl:
    name: str
    lo: int
    hi: int
    span: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class StatementNode:
    left: tuple[int, ...]
    right: tuple[int, ...]
    strict: bool
    span: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class StakeholderBlock:
    name: str
    statements: tuple[StatementNode, ...]
    span: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Document:
    variables: tuple[VarDecl, ...]
    combiner: str
    model_class: str
    stakeholders: tuple[StakeholderBlock, ...]


# ---------------------------------------------------------------------------
# tokenizer

# Alternatives are tried in order. Whitespace and comments match without a
# group and are dropped; a "(" that does not open a whole "tuple" is a "sym";
# "bad" takes any character nothing else does.
_TOKEN_RE = re.compile(
    r"""
      [ \t\r]+
    | \#[^\n]*
    | (?P<tuple>\([ \t\r\n]*-?\d+(?:[ \t\r\n]*,[ \t\r\n]*-?\d+)*[ \t\r\n]*\))
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

_INT_RE = re.compile(r"-?\d+")

# A token is (kind, text, offset): kind is "tuple", "nl", "dots", "ge", "int",
# "name", "sym", "bad" or "eof"; offset indexes the document text.
_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    tokens = [
        (kind, m.group(), m.start())
        for m in _TOKEN_RE.finditer(text)
        if (kind := m.lastgroup) is not None
    ]
    tokens.append(("eof", "", len(text)))
    return tokens


def _shown(tok: _Token) -> str:
    """How an unexpected token reads in a message; a tuple shows its '('."""
    if tok[0] == "eof":
        return "end of input"
    return repr("(" if tok[0] == "tuple" else tok[1])


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
        self.lows = tuple(d.lo for d in decls)
        self.highs = tuple(d.hi for d in decls)

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
        return self.int_value(self.expect("int", what="an integer"))

    def int_value(self, tok: _Token) -> int:
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

        self.skip_newlines()
        self.expect_keyword("combiner")
        comb_tok = self.expect("name", what="a combiner word")
        if comb_tok[1] not in COMBINER_WORDS:
            raise self.error(
                "bad-combiner", comb_tok,
                "unknown combiner %r (expected one of %s)"
                % (comb_tok[1], ", ".join(COMBINER_WORDS)),
            )
        self.expect_line_end()

        self.skip_newlines()
        self.expect_keyword("models")
        model_tok = self.expect("name", what="a model class word")
        if model_tok[1] not in MODEL_WORDS:
            raise self.error(
                "bad-models", model_tok,
                "unknown model class %r (expected one of %s)"
                % (model_tok[1], ", ".join(MODEL_WORDS)),
            )
        self.expect_line_end()

        return tuple(decls), comb_tok[1], model_tok[1]

    # body -----------------------------------------------------------------

    def parse_tuple(self) -> tuple[tuple[int, ...], _Token]:
        open_tok = self.peek()
        if open_tok[0] == "tuple":
            self.pos += 1
            # The token is "(" ints ")" with only whitespace around the
            # commas, and int() skips that whitespace.
            try:
                values = tuple(map(int, open_tok[1][1:-1].split(",")))
            except ValueError:
                # An element too long for int(): report it where it stands.
                for m in _INT_RE.finditer(open_tok[1]):
                    self.int_value(("int", m.group(), open_tok[2] + m.start()))
                raise
        else:
            # A tuple the scanner did not take whole: read it element by
            # element, so a malformed one is reported at its first bad part.
            self.expect("sym", "(")
            self.skip_newlines()
            elements = [self.parse_int()]
            self.skip_newlines()
            while self.at_sym(","):
                self.advance()
                self.skip_newlines()
                elements.append(self.parse_int())
                self.skip_newlines()
            self.expect("sym", ")")
            values = tuple(elements)
        if len(values) != len(self.decls):
            raise self.error(
                "bad-tuple-arity", open_tok,
                "tuple has %d values but %d variables are declared"
                % (len(values), len(self.decls)),
            )
        if not (all(map(le, self.lows, values)) and all(map(le, values, self.highs))):
            for decl, value in zip(self.decls, values):
                if not decl.lo <= value <= decl.hi:
                    raise self.error(
                        "value-out-of-range", open_tok,
                        "value %d is outside %d..%d for variable %r"
                        % (value, decl.lo, decl.hi, decl.name),
                    )
        return values, open_tok

    def parse_statement(self) -> StatementNode:
        left, open_tok = self.parse_tuple()
        self.skip_newlines()
        tok = self.peek()
        if tok[0] == "ge":
            strict = False
        elif tok[0] == "sym" and tok[1] == ">":
            strict = True
        else:
            raise self.error("syntax", tok, "expected '>' or '>=', got %s" % _shown(tok))
        self.advance()
        self.skip_newlines()
        right, _ = self.parse_tuple()
        return StatementNode(left, right, strict, span=self.span(open_tok))

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


def to_profile(doc: Document) -> Profile:
    space = VariableSpace(
        tuple(d.name for d in doc.variables),
        tuple(tuple(range(d.lo, d.hi + 1)) for d in doc.variables),
    )
    combiner = _build_combiner(doc.combiner, doc.variables)
    stakeholders = tuple(
        Stakeholder(
            block.name,
            tuple(
                Statement(Alternative(s.left), Alternative(s.right), s.strict)
                for s in block.statements
            ),
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
            tuple(
                StatementNode(s.left.values, s.right.values, s.strict)
                for s in st.statements
            ),
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
