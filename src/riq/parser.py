"""Text format for ontologies, concepts, and goals, with a round-tripping
pretty-printer.

Concept grammar (ASCII): `not` binds tighter than `and`, which binds tighter
than `or`; quantifier bodies (`some`, `only`, `atmost n`, `atleast n`)
extend maximally to the right; parentheses override.  Ontology files are
line-oriented: `#` comments, optional `roles:`/`concepts:` declarations,
`ria: R1 o ... o Rk <= R`, and `gci: C <= D` (normalized on load).

Every text is split into plain token strings by one `findall` of one
pattern, and every line format (concepts, `roles:`, `concepts:` and `ria:`
lines, sequents) reads those strings.  A concept is read by one
operator-precedence loop that carries the polarity of its pending `not`s,
so each node is built once, already in negation normal form, and it is
printed by one `core.fold_concept` walk.  Neither recurses, so nesting depth
is bounded by memory, not by the recursion limit.  An error's column counts
from the start of its line; it is found only when the error is raised, by
scanning the text again.
"""

from __future__ import annotations

import re
import string
from typing import Callable, Optional, Sequence

from .core import (
    _FLIPPED_CONSTANT,
    _UNDER_NOT,
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
    OntologyError,
    Or,
    RIA,
    RiqError,
    Role,
    TOP,
    _negate_node,
    fold_concept,
    normalize_ontology,
    render_ria,
    signature_of,
)

KEYWORDS = frozenset(
    {"and", "or", "not", "some", "only", "atmost", "atleast", "TOP", "BOT"}
)

#: A concept name, a role name, or a role name with `-` (its inverse).
NAME = r"[A-Za-z_][A-Za-z0-9_]*'*-?"

#: One token: a number, a name or a symbol.
_VALID_TOKEN = re.compile(rf"\d+|{NAME}|<=|!=|\|-|[().,:=]")

#: A token, or a character that starts none, which is then a token of its
#: own that no rule accepts.
_TOKEN_RE = re.compile(_VALID_TOKEN.pattern + r"|\S")

#: first characters of a name token; a token's kind is read from its first
#: character
_NAME_START = frozenset(string.ascii_letters + "_")


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


_QUANTIFIERS = {"some": Exists, "only": Forall, "atmost": AtMost, "atleast": AtLeast}


def _tokenize(text: str) -> list[str]:
    """The tokens of `text` as plain strings, from one `findall` pass, then
    "" for its end.  No position is kept: an error's column is found by
    `_parse_error`, which scans the text again.

    A character that starts no token comes out as a token of its own, which
    no rule accepts; `_parse_error` reports it before any other error."""
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


def _parse_error(message: str, text: str, index: Optional[int],
                 line: Optional[int] = None, offset: int = 0) -> ParseError:
    """The error `message` at token `index` of `text` (its end if `text` has
    fewer tokens; no column if None), unless `text` holds a character that
    starts no token: then the first such character is the error, as it
    would be for a tokenizer that reads the whole text first.  `text` starts
    after `offset` characters of its line, so columns count from the start
    of the line."""
    start = len(text)
    for i, m in enumerate(_TOKEN_RE.finditer(text)):
        if not _VALID_TOKEN.fullmatch(m.group()):
            return ParseError(f"unexpected character {m.group()!r}", line,
                              offset + m.start() + 1)
        if i == index:
            start = m.start()
    return ParseError(message, line, None if index is None else offset + start + 1)


class _Frame:
    """A concept still open in `_Parser.parse_expr`: its opener (None at the
    top, "(", or a quantifier's constructor, leading arguments and
    polarity), the polarity `q` of its operands, its `or` operands so far,
    and the `and` operands of the next one."""

    __slots__ = ("opener", "q", "ors", "ands")

    def __init__(self, opener, q: int) -> None:
        self.opener = opener
        self.q = q
        self.ors: list[Concept] = []
        self.ands: list[Concept] = []


def _chain(operands: list[Concept], op: type, q: int) -> Concept:
    """The right-nested chain of `op` over operands read in polarity q, with
    the dual connective if q is 1.  As in `core.to_nnf`, a negated pair that
    was the operands of TOP or BOT is the other constant."""
    if q == 1:
        op = Or if op is And else And
    value = operands[-1]
    for i in range(len(operands) - 2, -1, -1):
        left = operands[i]
        if q and (left, value) == _FLIPPED_CONSTANT:
            value = TOP if op is Or else BOT
        else:
            value = op(left, value)
    return value


class _Parser:
    """The tokens of one text, read left to right.  The text starts after
    `offset` characters of line `line`, for error columns."""

    def __init__(self, text: str, *, internal: bool = False,
                 line: Optional[int] = None, offset: int = 0):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.last = 0
        self.internal = internal
        self.line = line
        self.offset = offset
        #: the error of the first `not atmost` at the largest cardinality,
        #: whose negation is out of range; raised once the text has parsed,
        #: so that a syntax error anywhere in the text comes first
        self.overflow: Optional[OntologyError] = None

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        """The next token; at the end, "" again and again."""
        self.last = self.pos
        tok = self.tokens[self.pos]
        if tok:
            self.pos += 1
        return tok

    def error(self, message: str, index: Optional[int] = None) -> ParseError:
        """The error `message` at token `index`, by default the last read."""
        return _parse_error(message, self.text, self.last if index is None else index,
                            self.line, self.offset)

    def expect_sym(self, sym: str) -> None:
        tok = self.next()
        if tok != sym:
            raise self.error(f"expected {sym!r}, found {tok!r}")

    def expect_end(self) -> None:
        if self.peek():
            raise self.error(f"trailing input {self.peek()!r}", self.pos)

    def check_name(self, name: str, what: str) -> str:
        """`name`, the last token read, unless it is a keyword or reserved."""
        if name in KEYWORDS:
            raise self.error(f"keyword {name!r} cannot be used as a {what}")
        if not self.internal and (name.startswith("_") or name.endswith("'")):
            raise self.error(f"{what} {name!r} is reserved")
        return name

    def parse_role(self) -> Role:
        tok = self.next()
        if tok[:1] not in _NAME_START:
            raise self.error(f"expected a role, found {tok!r}")
        inverted = tok.endswith("-")
        name = tok[:-1] if inverted else tok
        return Role(self.check_name(name, "role name"), inverted)

    # concept grammar -------------------------------------------------------

    def parse_expr(self) -> Concept:
        """One concept in NNF, read by one operator-precedence loop.

        Each open parenthesis and quantifier body is a `_Frame` on an
        explicit stack.  An operand ends at `and`, which continues the
        frame's `and` chain, at `or`, which starts its next `or` operand, or
        at anything else, which closes the frame and makes it an operand of
        the frame below.  Chains nest to the right.

        `q` is the polarity of the next operand, as in `core.to_nnf`: its
        frame's, then once more for each `not` before it.  An operand is
        built already negated q times: a name as a negated name, TOP and
        BOT swapped, a connective or an (exists)/(forall) dualized over
        operands of the same polarity; a number restriction's body is read
        in polarity 0 and the restriction negated by `core.nnf_negate`'s
        rule when it closes.
        """
        tokens = self.tokens
        pos = self.pos
        frames: list[_Frame] = []
        frame = _Frame(None, 0)
        q = 0
        while True:
            tok = tokens[pos]
            pos += 1
            if tok == "not":
                q = _UNDER_NOT[q]
                continue
            if tok == "(":
                frames.append(frame)
                frame = _Frame("(", q)
                continue
            if tok in _QUANTIFIERS:
                self.pos = pos
                frames.append(frame)
                frame = self.quantifier_frame(tok, q)
                pos = self.pos
                q = frame.q
                continue
            self.last = pos - 1
            value = self.atom(tok, q)
            while True:
                frame.ands.append(value)
                tok = tokens[pos]
                if tok == "and" or tok == "or":
                    pos += 1
                    if tok == "or":
                        frame.ors.append(_chain(frame.ands, And, frame.q))
                        frame.ands = []
                    q = frame.q
                    break
                frame.ors.append(_chain(frame.ands, And, frame.q))
                value = _chain(frame.ors, Or, frame.q)
                opener = frame.opener
                if opener is None:
                    self.pos = pos
                    return value
                if opener == "(":
                    if tok != ")":
                        raise self.error(f"expected ')', found {tok!r}", pos)
                    pos += 1
                else:
                    value = self.close_quantifier(opener, value)
                frame = frames.pop()

    def quantifier_frame(self, word: str, q: int) -> _Frame:
        """The frame of quantifier `word` read in polarity q, its head read
        up to its `.`.  `some` and `only` are dualized if q is 1, and their
        body keeps polarity q; a number restriction keeps q for its close,
        and its body is read in polarity 0."""
        op = _QUANTIFIERS[word]
        if op is Exists or op is Forall:
            if q == 1:
                op = Forall if op is Exists else Exists
            frame = _Frame((op, (self.parse_role(),), 0), q)
        else:
            nat = self.next()
            if not nat[:1].isdecimal():
                raise self.error(f"expected a number after {word!r}")
            n = int(nat)
            if n > MAX_CARDINALITY:
                raise self.error(f"cardinality {n} out of range")
            frame = _Frame((op, (n, self.parse_role()), q), 0)
        self.expect_sym(".")
        return frame

    def close_quantifier(self, opener: tuple, body: Concept) -> Concept:
        """The quantifier of `opener` over `body`, negated as its polarity
        says (only a number restriction's can be nonzero)."""
        op, args, q = opener
        value = op(*args, body)
        if q == 1:
            try:
                value = _negate_node(value, ())
            except OntologyError as exc:
                self.overflow = self.overflow or exc
        elif q == 2 and op is AtLeast and args[0] == 0:
            value = TOP
        return value

    def atom(self, tok: str, q: int) -> Concept:
        """The operand `tok`, the last token read, in polarity q."""
        if tok == "TOP":
            return BOT if q == 1 else TOP
        if tok == "BOT":
            return TOP if q == 1 else BOT
        if tok[:1] not in _NAME_START:
            raise self.error(f"expected a concept, found {tok!r}")
        if tok.endswith("-"):
            raise self.error(f"{tok!r} is not a concept name")
        name = self.check_name(tok, "concept name")
        return NegatedName(name) if q == 1 else ConceptName(name)


def parse_concept(text: str, *, internal: bool = False,
                  line: Optional[int] = None, offset: int = 0) -> Concept:
    """Parse a concept in NNF: `not` over arbitrary subformulae is accepted
    and eliminated while reading, by polarity, so the result is
    `core.to_nnf` of the concept as written.  `line` and `offset` (the
    characters of its line before `text`) place it for error columns."""
    parser = _Parser(text, internal=internal, line=line, offset=offset)
    concept = parser.parse_expr()
    parser.expect_end()
    if parser.overflow:
        raise parser.overflow
    return concept


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
        code = raw_line.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        start = len(code) - len(code.lstrip())
        head, sep, rest = line.partition(":")
        at = start + len(head) + 1  # the characters of the line before `rest`
        head = head.strip()
        if not sep or head not in ("roles", "concepts", "ria", "gci"):
            raise ParseError(f"expected 'roles:', 'concepts:', 'ria:' or 'gci:', got {line!r}",
                             lineno, start + 1)
        if head in ("roles", "concepts"):
            parser = _Parser(rest, line=lineno, offset=at)
            target = declared_roles if head == "roles" else declared_concepts
            while parser.peek():
                tok = parser.next()
                if tok[:1] not in _NAME_START:
                    raise parser.error(f"expected a name, found {tok!r}")
                target.add(parser.check_name(tok, head[:-1] + " name"))
                if parser.peek() == ",":
                    parser.next()
        elif head == "ria":
            parser = _Parser(rest, line=lineno, offset=at)
            lhs = [parser.parse_role()]
            while parser.peek() == "o":
                parser.next()
                lhs.append(parser.parse_role())
            parser.expect_sym("<=")
            rhs = parser.parse_role()
            parser.expect_end()
            rias.append(RIA(tuple(lhs), rhs))
        else:
            lhs_text, sep2, rhs_text = rest.partition("<=")
            if not sep2:
                raise ParseError("gci line needs '<='", lineno, start + 1)
            lhs = parse_concept(lhs_text, line=lineno, offset=at)
            rhs = parse_concept(rhs_text, line=lineno, offset=at + len(lhs_text) + 2)
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
