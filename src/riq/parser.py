"""Text format for ontologies, concepts, and goals, with a round-tripping
pretty-printer.

Concept grammar (ASCII): `not` binds tighter than `and`, which binds tighter
than `or`; quantifier bodies (`some`, `only`, `atmost n`, `atleast n`)
extend maximally to the right; parentheses override.  Ontology files are
line-oriented: `#` comments, optional `roles:`/`concepts:` declarations,
`ria: R1 o ... o Rk <= R`, and `gci: C <= D` (normalized on load).

The concept grammar is read by one operator-precedence loop and printed by
one `core.fold_concept` walk, so nesting depth is bounded by memory, not by
the recursion limit.
"""

from __future__ import annotations

import re
from typing import Callable, Optional, Sequence

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
    and_all,
    fold_concept,
    normalize_ontology,
    or_all,
    render_ria,
    signature_of,
    to_nnf,
)

KEYWORDS = frozenset(
    {"and", "or", "not", "some", "only", "atmost", "atleast", "TOP", "BOT"}
)

#: A concept name, a role name, or a role name with `-` (its inverse).
NAME = r"[A-Za-z_][A-Za-z0-9_]*'*-?"

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<nat>\d+)"
    rf"|(?P<name>{NAME})"
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


#: A token is a tuple (kind, text, column), kind one of "nat", "name",
#: "sym" and "eof".
_Token = tuple[str, str, int]

_QUANTIFIERS = {"some": Exists, "only": Forall, "atmost": AtMost, "atleast": AtLeast}


def _tokenize(text: str, line: Optional[int] = None) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", line, pos + 1)
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
    tokens.append(("eof", "", len(text) + 1))
    return tokens


class _Frame:
    """A concept still open in `_Parser.parse_expr`: its opener (None at the
    top, "(" or a quantifier's constructor and leading arguments), the
    `not`s before its next operand, and its `or` operands so far, each the
    list of its `and` operands."""

    __slots__ = ("opener", "nots", "ors")

    def __init__(self, opener) -> None:
        self.opener = opener
        self.nots = 0
        self.ors: list[list[Concept]] = [[]]


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
        """The next token; at the end, the eof token again and again."""
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[_Token] = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, self.line, tok[2])

    def expect_sym(self, sym: str) -> None:
        tok = self.next()
        if tok[0] != "sym" or tok[1] != sym:
            raise self.error(f"expected {sym!r}, found {tok[1]!r}", tok)

    def at_keyword(self, word: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "name" and text == word

    def check_name(self, name: str, tok: _Token, what: str) -> str:
        if name in KEYWORDS:
            raise self.error(f"keyword {name!r} cannot be used as a {what}", tok)
        if not self.internal and (name.startswith("_") or name.endswith("'")):
            raise self.error(f"{what} {name!r} is reserved", tok)
        return name

    def parse_role(self) -> Role:
        tok = self.next()
        kind, text, _ = tok
        if kind != "name":
            raise self.error(f"expected a role, found {text!r}", tok)
        inverted = text.endswith("-")
        name = text[:-1] if inverted else text
        return Role(self.check_name(name, tok, "role name"), inverted)

    # concept grammar -------------------------------------------------------

    def parse_expr(self) -> Concept:
        """One concept, read by one operator-precedence loop.

        Each open parenthesis and quantifier body is a `_Frame` on an
        explicit stack.  An operand ends at `and`, which continues the
        frame's `and` chain, at `or`, which starts its next `or` operand, or
        at anything else, which closes the frame and makes it an operand of
        the frame below.  Chains nest to the right.
        """
        frames = [_Frame(None)]
        frame = frames[-1]
        while True:
            tok = self.next()
            kind, text, _ = tok
            if kind == "name" and text == "not":
                frame.nots += 1
                continue
            if kind == "name" and text in _QUANTIFIERS:
                frame = _Frame(self.quantifier_opener(tok))
                frames.append(frame)
                continue
            if kind == "sym" and text == "(":
                frame = _Frame("(")
                frames.append(frame)
                continue
            value = self.atom(tok)
            while True:
                for _ in range(frame.nots):
                    value = Not(value)
                frame.nots = 0
                frame.ors[-1].append(value)
                if self.at_keyword("and"):
                    self.next()
                    break
                if self.at_keyword("or"):
                    self.next()
                    frame.ors.append([])
                    break
                value = or_all([and_all(ands) for ands in frame.ors])
                frames.pop()
                if frame.opener is None:
                    return value
                if frame.opener == "(":
                    self.expect_sym(")")
                else:
                    op, args = frame.opener
                    value = op(*args, value)
                frame = frames[-1]

    def quantifier_opener(self, tok: _Token) -> tuple[type, tuple]:
        """Read a quantifier's head up to its `.`: its constructor and the
        arguments before the body."""
        op = _QUANTIFIERS[tok[1]]
        if op is Exists or op is Forall:
            args: tuple = (self.parse_role(),)
        else:
            nat = self.next()
            if nat[0] != "nat":
                raise self.error(f"expected a number after {tok[1]!r}", nat)
            n = int(nat[1])
            if n > MAX_CARDINALITY:
                raise self.error(f"cardinality {n} out of range", nat)
            args = (n, self.parse_role())
        self.expect_sym(".")
        return op, args

    def atom(self, tok: _Token) -> Concept:
        kind, text, _ = tok
        if kind == "name":
            if text == "TOP":
                return TOP
            if text == "BOT":
                return BOT
            if text.endswith("-"):
                raise self.error(f"{text!r} is not a concept name", tok)
            return ConceptName(self.check_name(text, tok, "concept name"))
        raise self.error(f"expected a concept, found {text!r}", tok)


def parse_concept(text: str, *, internal: bool = False,
                  line: Optional[int] = None) -> Concept:
    """Parse a concept and normalize it to NNF.  `not` over arbitrary
    subformulae is accepted and eliminated."""
    parser = _Parser(_tokenize(text, line), internal=internal, line=line)
    raw = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "eof":
        raise parser.error(f"trailing input {tok[1]!r}", tok)
    return to_nnf(raw)


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
            while parser.peek()[0] != "eof":
                tok = parser.next()
                if tok[0] != "name":
                    raise parser.error(f"expected a name, found {tok[1]!r}", tok)
                target.add(parser.check_name(tok[1], tok, head[:-1] + " name"))
                if parser.peek()[:2] == ("sym", ","):
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
            if tok[0] != "eof":
                raise parser.error(f"trailing input {tok[1]!r}", tok)
            rias.append(RIA(tuple(lhs), rhs))
        else:
            lhs_text, sep2, rhs_text = rest.partition("<=")
            if not sep2:
                raise ParseError("gci line needs '<='", lineno, 1)
            lhs = parse_concept(lhs_text, line=lineno)
            rhs = parse_concept(rhs_text, line=lineno)
            gcis.append(GCI(lhs, rhs))

    ont = normalize_ontology(gcis, rias)
    ont = Ontology(ont.rbox, ont.tbox, ont.regularity,
                   frozenset(declared_roles), frozenset(declared_concepts))
    if strict:
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


def _render_node(c: Concept, parts: Sequence[tuple]) -> tuple[object, int, bool]:
    """(pieces, precedence level, open-ended) of c from those of its parts.

    The pieces are a string or a tuple of pieces, so no node copies the
    text of its parts.  A rendering is open-ended when its right spine
    terminates in a bare quantifier body, which would swallow any following
    operand; open-ended left operands are parenthesized.
    """
    if isinstance(c, ConceptName):
        return c.name, _LEVEL_ATOM, False
    if isinstance(c, NegatedName):
        return "not " + c.name, _LEVEL_ATOM, False
    if isinstance(c, Not):
        text, level, open_ended = parts[0]
        if level < _LEVEL_ATOM:
            return ("not (", text, ")"), _LEVEL_ATOM, False
        return ("not ", text), _LEVEL_ATOM, open_ended
    if isinstance(c, (Exists, Forall, AtMost, AtLeast)):
        if isinstance(c, Exists):
            head = f"some {c.role} . "
        elif isinstance(c, Forall):
            head = f"only {c.role} . "
        elif isinstance(c, AtMost):
            head = f"atmost {c.n} {c.role} . "
        else:
            head = f"atleast {c.n} {c.role} . "
        return (head, parts[0][0]), _LEVEL_QUANT, True
    if isinstance(c, And):
        if c == BOT:
            return "BOT", _LEVEL_ATOM, False
        op, level = " and ", _LEVEL_AND
    elif isinstance(c, Or):
        if c == TOP:
            return "TOP", _LEVEL_ATOM, False
        op, level = " or ", _LEVEL_OR
    else:
        raise ValueError(f"cannot render {c!r}")
    (ltext, llevel, lopen), (rtext, rlevel, ropen) = parts
    if llevel <= level or lopen:
        ltext = ("(", ltext, ")")
    if 0 < rlevel < level:
        rtext = ("(", rtext, ")")
        ropen = False
    return (ltext, op, rtext), level, ropen


def _join(pieces: object) -> str:
    todo = [pieces]
    out = []
    while todo:
        piece = todo.pop()
        if isinstance(piece, str):
            out.append(piece)
        else:
            todo.extend(reversed(piece))
    return "".join(out)


def render_concept(c: Concept) -> str:
    return _join(fold_concept(c, _render_node)[0])


def concept_renderer() -> Callable[[Concept], str]:
    """A ``render_concept`` for concepts built on concepts it rendered
    before: their text is reused, not walked again.  A concept's text is
    kept, by identity, until a rendering uses it inside a larger concept, so
    the renderer holds little more than the text of the concepts it rendered
    last."""
    done: dict[int, tuple[Concept, tuple[str, int, bool]]] = {}

    def node(c: Concept, parts: Sequence[tuple]) -> tuple[object, int, bool]:
        if not parts and id(c) in done:
            return done.pop(id(c))[1]
        return _render_node(c, parts)

    def render(c: Concept) -> str:
        if id(c) not in done:
            pieces, level, open_ended = fold_concept(c, node, lambda n: id(n) in done)
            done[id(c)] = c, (_join(pieces), level, open_ended)
        return done[id(c)][1][0]

    return render


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
