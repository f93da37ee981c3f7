"""Text format for ontologies, concepts, and goals, with a round-tripping
pretty-printer.

Concept grammar (ASCII): `not` binds tighter than `and`, which binds tighter
than `or`; quantifier bodies (`some`, `only`, `atmost n`, `atleast n`)
extend maximally to the right; parentheses override.  Ontology files are
line-oriented: `#` comments, optional `roles:`/`concepts:` declarations,
`ria: R1 o ... o Rk <= R`, and `gci: C <= D` (normalized on load).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .core import (
    MAX_CARDINALITY,
    And,
    AtLeast,
    AtMost,
    BOT,
    Concept,
    ConceptName,
    Exists,
    Forall,
    GCI,
    NegatedName,
    Not,
    Ontology,
    Or,
    RIA,
    RiqError,
    Role,
    TOP,
    make_ontology,
    nnf_negate,
    render_ria,
    to_nnf,
)

KEYWORDS = frozenset(
    {"and", "or", "not", "some", "only", "atmost", "atleast", "TOP", "BOT"}
)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<nat>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*'*-?)"
    r"|(?P<sym><=|!=|\|-|[().,:=]))"
)


class ParseError(RiqError):
    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        self.line = line
        self.col = col
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if col is not None:
            parts.append(f"column {col}")
        where = f" at {', '.join(parts)}" if parts else ""
        super().__init__(message + where)


@dataclass(frozen=True)
class _Token:
    kind: str  # "nat" | "name" | "sym" | "eof"
    text: str
    col: int


def _tokenize(text: str, line: Optional[int] = None) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", line, pos + 1)
        pos = m.end()
        for kind in ("nat", "name", "sym"):
            val = m.group(kind)
            if val is not None:
                tokens.append(_Token(kind, val, m.start(kind) + 1))
                break
    tokens.append(_Token("eof", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], *, internal: bool = False,
                 line: Optional[int] = None):
        self.tokens = tokens
        self.pos = 0
        self.internal = internal
        self.line = line

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[_Token] = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, self.line, tok.col)

    def expect_sym(self, sym: str) -> None:
        tok = self.next()
        if tok.kind != "sym" or tok.text != sym:
            raise self.error(f"expected {sym!r}, found {tok.text!r}", tok)

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.text == word

    def check_name(self, name: str, tok: _Token, what: str) -> str:
        if name in KEYWORDS:
            raise self.error(f"keyword {name!r} cannot be used as a {what}", tok)
        if not self.internal and (name.startswith("_") or name.endswith("'")):
            raise self.error(f"{what} {name!r} is reserved", tok)
        return name

    def parse_role(self) -> Role:
        tok = self.next()
        if tok.kind != "name":
            raise self.error(f"expected a role, found {tok.text!r}", tok)
        inverted = tok.text.endswith("-")
        name = tok.text[:-1] if inverted else tok.text
        return Role(self.check_name(name, tok, "role name"), inverted)

    # concept grammar -------------------------------------------------------

    def parse_expr(self) -> Concept:
        parts = [self.parse_and()]
        while self.at_keyword("or"):
            self.next()
            parts.append(self.parse_and())
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = Or(part, out)
        return out

    def parse_and(self) -> Concept:
        parts = [self.parse_unary()]
        while self.at_keyword("and"):
            self.next()
            parts.append(self.parse_unary())
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = And(part, out)
        return out

    def parse_unary(self) -> Concept:
        tok = self.peek()
        if tok.kind == "name" and tok.text == "not":
            self.next()
            return Not(self.parse_unary())
        if tok.kind == "name" and tok.text in ("some", "only"):
            self.next()
            role = self.parse_role()
            self.expect_sym(".")
            body = self.parse_expr()
            return Exists(role, body) if tok.text == "some" else Forall(role, body)
        if tok.kind == "name" and tok.text in ("atmost", "atleast"):
            self.next()
            nat = self.next()
            if nat.kind != "nat":
                raise self.error(f"expected a number after {tok.text!r}", nat)
            n = int(nat.text)
            if n > MAX_CARDINALITY:
                raise self.error(f"cardinality {n} out of range", nat)
            role = self.parse_role()
            self.expect_sym(".")
            body = self.parse_expr()
            return AtMost(n, role, body) if tok.text == "atmost" else AtLeast(n, role, body)
        return self.parse_primary()

    def parse_primary(self) -> Concept:
        tok = self.next()
        if tok.kind == "sym" and tok.text == "(":
            inner = self.parse_expr()
            self.expect_sym(")")
            return inner
        if tok.kind == "name":
            if tok.text == "TOP":
                return TOP
            if tok.text == "BOT":
                return BOT
            if tok.text.endswith("-"):
                raise self.error(f"{tok.text!r} is not a concept name", tok)
            return ConceptName(self.check_name(tok.text, tok, "concept name"))
        raise self.error(f"expected a concept, found {tok.text!r}", tok)


def parse_concept(text: str, *, internal: bool = False,
                  line: Optional[int] = None) -> Concept:
    """Parse a concept and normalize it to NNF.  `not` over arbitrary
    subformulae is accepted and eliminated."""
    parser = _Parser(_tokenize(text, line), internal=internal, line=line)
    try:
        raw = parser.parse_expr()
        tok = parser.peek()
        if tok.kind != "eof":
            raise parser.error(f"trailing input {tok.text!r}", tok)
        return to_nnf(raw)
    except RecursionError:
        raise ParseError("concept nested too deeply", line) from None


# ---------------------------------------------------------------------------
# Ontology files
# ---------------------------------------------------------------------------


def parse_ontology(text: str, *, strict: bool = False) -> Ontology:
    """Parse the `.riq` line format and normalize.

    In strict mode every role used must appear in a `roles:` declaration
    (concept names always auto-declare; `concepts:` lines merely record them).
    """
    declared_roles: set[str] = set()
    declared_concepts: set[str] = set()
    rias: list[RIA] = []
    gcis: list[GCI] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        head = head.strip()
        if not sep or head not in ("roles", "concepts", "ria", "gci"):
            raise ParseError(f"expected 'roles:', 'concepts:', 'ria:' or 'gci:', got {line!r}",
                             lineno, 1)
        if head in ("roles", "concepts"):
            parser = _Parser(_tokenize(rest, lineno), line=lineno)
            target = declared_roles if head == "roles" else declared_concepts
            while parser.peek().kind != "eof":
                tok = parser.next()
                if tok.kind != "name":
                    raise parser.error(f"expected a name, found {tok.text!r}", tok)
                target.add(parser.check_name(tok.text, tok, head[:-1] + " name"))
                if parser.peek().kind == "sym" and parser.peek().text == ",":
                    parser.next()
        elif head == "ria":
            parser = _Parser(_tokenize(rest, lineno), line=lineno)
            lhs = [parser.parse_role()]
            while parser.at_keyword("o"):
                parser.next()
                lhs.append(parser.parse_role())
            parser.expect_sym("<=")
            rhs = parser.parse_role()
            tok = parser.peek()
            if tok.kind != "eof":
                raise parser.error(f"trailing input {tok.text!r}", tok)
            rias.append(RIA(tuple(lhs), rhs))
        else:
            lhs_text, sep2, rhs_text = rest.partition("<=")
            if not sep2:
                raise ParseError("gci line needs '<='", lineno, 1)
            lhs = parse_concept(lhs_text, line=lineno)
            rhs = parse_concept(rhs_text, line=lineno)
            gcis.append(GCI(lhs, rhs))

    normalized = []
    for g in gcis:
        if g.lhs == TOP:
            normalized.append(GCI(TOP, g.rhs))
        else:
            normalized.append(GCI(TOP, Or(nnf_negate(g.lhs), g.rhs)))
    ont = make_ontology(rias, normalized)
    ont = Ontology(ont.rbox, ont.tbox, ont.regularity,
                   frozenset(declared_roles), frozenset(declared_concepts))
    if strict:
        from .core import signature_of

        used = signature_of(ont).roles
        missing = sorted(used - declared_roles)
        if missing:
            raise ParseError("undeclared roles in strict mode: " + ", ".join(missing))
    return ont


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_LEVEL_QUANT = 0
_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_ATOM = 4


def _render(c: Concept) -> tuple[str, int, bool]:
    """Return (text, precedence level, open-ended).

    A rendering is open-ended when its right spine terminates in a bare
    quantifier body, which would swallow any following operand; callers
    parenthesize open-ended left operands.
    """
    if c == TOP:
        return "TOP", _LEVEL_ATOM, False
    if c == BOT:
        return "BOT", _LEVEL_ATOM, False
    if isinstance(c, ConceptName):
        return c.name, _LEVEL_ATOM, False
    if isinstance(c, NegatedName):
        return f"not {c.name}", _LEVEL_ATOM, False
    if isinstance(c, Not):
        text, level, open_ended = _render(c.body)
        if level < _LEVEL_ATOM:
            return f"not ({text})", _LEVEL_ATOM, False
        return f"not {text}", _LEVEL_ATOM, open_ended
    if isinstance(c, (Exists, Forall, AtMost, AtLeast)):
        body_text, _, _ = _render(c.body)
        if isinstance(c, Exists):
            head = f"some {c.role}"
        elif isinstance(c, Forall):
            head = f"only {c.role}"
        elif isinstance(c, AtMost):
            head = f"atmost {c.n} {c.role}"
        else:
            head = f"atleast {c.n} {c.role}"
        return f"{head} . {body_text}", _LEVEL_QUANT, True
    if isinstance(c, (And, Or)):
        op = "and" if isinstance(c, And) else "or"
        level = _LEVEL_AND if isinstance(c, And) else _LEVEL_OR
        ltext, llevel, lopen = _render(c.left)
        if llevel <= level or lopen:
            ltext = f"({ltext})"
        rtext, rlevel, ropen = _render(c.right)
        if 0 < rlevel < level:
            rtext = f"({rtext})"
            ropen = False
        return f"{ltext} {op} {rtext}", level, ropen
    raise ValueError(f"cannot render {c!r}")


def render_concept(c: Concept) -> str:
    return _render(c)[0]


def render_gci(g: GCI) -> str:
    return f"gci: {render_concept(g.lhs)} <= {render_concept(g.rhs)}"


def render_ontology(o: Ontology) -> str:
    lines = []
    if o.declared_roles:
        lines.append("roles: " + ", ".join(sorted(o.declared_roles)))
    if o.declared_concepts:
        lines.append("concepts: " + ", ".join(sorted(o.declared_concepts)))
    for ria in o.rbox:
        lines.append("ria: " + render_ria(ria))
    for g in o.tbox:
        lines.append(render_gci(g))
    return "\n".join(lines) + ("\n" if lines else "")


def render(x) -> str:
    """Render any toolkit value as text; concepts and ontologies round-trip
    through their parsers, proofs and interpolants use the structured JSON
    format."""
    from . import interpolation, sequent  # local import to avoid a cycle

    if isinstance(x, Concept):
        return render_concept(x)
    if isinstance(x, Role):
        return str(x)
    if isinstance(x, RIA):
        return render_ria(x)
    if isinstance(x, GCI):
        return render_gci(x)
    if isinstance(x, Ontology):
        return render_ontology(x)
    if isinstance(x, sequent.Sequent):
        return sequent.render_sequent(x)
    if isinstance(x, sequent.Proof):
        return sequent.proof_to_json(x)
    if isinstance(x, interpolation.Interpolant):
        return interpolation.interpolant_to_json(x)
    raise TypeError(f"cannot render values of type {type(x).__name__}")
