import random

import pytest

from riq.core import (
    And,
    AtLeast,
    BOT,
    ConceptName,
    Exists,
    Forall,
    GCI,
    NegatedName,
    OntologyError,
    Or,
    RIA,
    Role,
    TOP,
)
from riq.parser import (
    ParseError,
    parse_concept,
    parse_ontology,
    render,
    render_concept,
    render_ontology,
)
from riq.sequent import parse_sequent
from conftest import C, random_concept, random_ontology

A, B = ConceptName("A"), ConceptName("B")
r = Role("r")


class TestParseConcept:
    def test_and_with_quantifier(self):
        assert C("A and some r . B") == And(A, Exists(r, B))

    def test_atleast_with_parens(self):
        assert C("atleast 2 r . (A or B)") == AtLeast(2, r, Or(A, B))

    def test_negated_counting(self):
        assert C("not atmost 1 r . A") == AtLeast(2, r, A)

    def test_inverse_role(self):
        assert C("some r- . A") == Exists(Role("r", True), A)

    def test_top_bot_keywords(self):
        assert C("TOP") == TOP
        assert C("BOT") == BOT

    def test_not_eliminated(self):
        assert C("not (A and B)") == Or(NegatedName("A"), NegatedName("B"))
        assert C("not some r . A") == Forall(r, NegatedName("A"))


class TestPrecedence:
    def test_not_binds_tighter_than_and(self):
        assert C("not A and B") == And(NegatedName("A"), B)

    def test_and_binds_tighter_than_or(self):
        assert C("A or B and E") == Or(A, And(B, ConceptName("E")))
        assert C("A and B or E") == Or(And(A, B), ConceptName("E"))

    def test_quantifier_body_extends_right(self):
        assert C("some r . A and B") == Exists(r, And(A, B))
        assert C("A and some r . B or E") == And(A, Exists(r, Or(B, ConceptName("E"))))

    def test_parens_override(self):
        assert C("(some r . A) and B") == And(Exists(r, A), B)
        assert C("some r . (A) and B") == Exists(r, And(A, B))

    def test_keyword_not_a_name(self):
        with pytest.raises(ParseError):
            C("and")

    def test_reserved_names_rejected(self):
        with pytest.raises(ParseError):
            C("_T")
        with pytest.raises(ParseError):
            C("A'")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            C("A and (B or")
        assert "column" in str(err.value) or "line" in str(err.value)

    def test_cardinality_bound(self):
        with pytest.raises(ParseError):
            C(f"atmost {2**31} r . A")


class TestParseOntology:
    def test_ria_and_gci(self):
        ont = parse_ontology("ria: r o s <= t\ngci: A <= B\n")
        assert ont.rbox == (RIA((Role("r"), Role("s")), Role("t")),)
        assert ont.tbox == (GCI(TOP, Or(NegatedName("A"), B)),)

    def test_top_lhs_gci(self):
        ont = parse_ontology("gci: TOP <= only r . A")
        assert ont.tbox == (GCI(TOP, Forall(r, A)),)

    def test_inverse_ria(self):
        ont = parse_ontology("ria: r- <= s")
        assert ont.rbox == (RIA((Role("r", True),), Role("s")),)

    def test_comments_and_blank_lines(self):
        ont = parse_ontology("# header\n\ngci: A <= B  # trailing\n")
        assert len(ont.tbox) == 1

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_ontology("gci: A <= B\nria: r o <= t\n")
        assert err.value.line == 2

    def test_strict_mode_requires_declared_roles(self):
        text = "gci: A <= some r . B\n"
        parse_ontology(text)  # non-strict: auto-declared
        with pytest.raises(ParseError):
            parse_ontology(text, strict=True)
        parse_ontology("roles: r\n" + text, strict=True)


#: Malformed inputs and what they raise: (parser, text, error class, message,
#: line, column).  The messages are pinned as the parser of tuple tokens,
#: `Not` trees and `to_nnf` gave them, and so are the columns, except those
#: in CORRECTED_COLUMNS.
PINNED_ERRORS = [
    (parse_concept, "A and  $", ParseError, "unexpected character '$'", None, 6),
    (parse_concept, "A B $", ParseError, "unexpected character '$'", None, 4),
    (parse_concept, "A and B )", ParseError, "trailing input ')'", None, 9),
    (parse_concept, "(A and some r . B", ParseError, "expected ')', found ''", None, 18),
    (parse_concept, "some r A", ParseError, "expected '.', found 'A'", None, 8),
    (parse_concept, "atleast r . A", ParseError, "expected a number after 'atleast'", None, 9),
    (parse_concept, "atmost 99999999999 r . A", ParseError,
     "cardinality 99999999999 out of range", None, 8),
    (parse_concept, "_T or A", ParseError, "concept name '_T' is reserved", None, 1),
    (parse_concept, "A'", ParseError, "concept name \"A'\" is reserved", None, 1),
    (parse_concept, "some and . A", ParseError,
     "keyword 'and' cannot be used as a role name", None, 6),
    (parse_concept, "A and r-", ParseError, "'r-' is not a concept name", None, 7),
    (parse_concept, "some r .", ParseError, "expected a concept, found ''", None, 9),
    (parse_concept, "not", ParseError, "expected a concept, found ''", None, 4),
    (parse_concept, "not atmost 2147483647 r . A", OntologyError,
     "cardinality 2147483648 out of range [0, 2147483647]", None, None),
    (parse_concept, "(not atmost 2147483647 r . A) and", ParseError,
     "expected a concept, found ''", None, 34),
    (parse_concept, "(not atmost 2147483647 r . A) $", ParseError,
     "unexpected character '$'", None, 30),
    (parse_sequent, "x |- x : A", ParseError, "malformed atom after 'x'", None, 3),
    (parse_sequent, "r(x, y |- x : A", ParseError, "expected ')', found '|-'", None, 8),
    (parse_sequent, "r(x |- x : A", ParseError, "expected ',', found '|-'", None, 5),
    (parse_sequent, "|- x A", ParseError, "expected 'label : concept', found 'x A'", None, None),
    (parse_sequent, "|- x $ : A", ParseError, "unexpected character '$'", None, 3),
    (parse_sequent, "|- x : A and", ParseError, "expected a concept, found ''", None, 7),
    (parse_ontology, "gci: A <= B <= C", ParseError, "trailing input '<='", 1, 4),
    (parse_ontology, "ria: <= t", ParseError, "expected a role, found '<='", 1, 2),
    (parse_ontology, "ria: r o s <= t u", ParseError, "trailing input 'u'", 1, 13),
    (parse_ontology, "  gci: A <= $", ParseError, "unexpected character '$'", 1, 1),
    (parse_ontology, "gci: A\n", ParseError, "gci line needs '<='", 1, 1),
    (parse_ontology, "foo: A", ParseError,
     "expected 'roles:', 'concepts:', 'ria:' or 'gci:', got 'foo: A'", 1, 1),
    (parse_ontology, "roles: r, and", ParseError,
     "keyword 'and' cannot be used as a role name", 1, 5),
    (parse_ontology, "concepts: A, 3", ParseError, "expected a name, found '3'", 1, 5),
    (parse_ontology, "gci: not (A and  B <= C", ParseError, "expected ')', found ''", 1, 16),
    (parse_ontology, "gci: A <= B\ngci: (C <= D", ParseError, "expected ')', found ''", 2, 5),
    (parse_ontology, "gci: A <= B\n  ria: r <= s $", ParseError, "unexpected character '$'", 2, 8),
]

#: The columns that parser got wrong: it put an unexpected character at the
#: whitespace before it, and counted from the start of a fragment (a
#: sequent's concept, the part of an ontology line after its keyword or
#: `<=`).  A column is the offending character's, 1-based, from the start
#: of its line, or the one just past the fragment at its end.
CORRECTED_COLUMNS = {
    "A and  $": 8,
    "A B $": 5,
    "(not atmost 2147483647 r . A) $": 31,
    "|- x $ : A": 6,
    "|- x : A and": 13,
    "gci: A <= B <= C": 13,
    "ria: <= t": 6,
    "ria: r o s <= t u": 17,
    "  gci: A <= $": 13,
    "roles: r, and": 11,
    "concepts: A, 3": 14,
    "gci: not (A and  B <= C": 20,
    "gci: A <= B\ngci: (C <= D": 9,
    "gci: A <= B\n  ria: r <= s $": 15,
}


@pytest.mark.parametrize("parse, text, error, message, line, col", PINNED_ERRORS,
                         ids=[f"{case[0].__name__}:{case[1]!r}" for case in PINNED_ERRORS])
def test_error_messages_are_pinned(parse, text, error, message, line, col):
    col = CORRECTED_COLUMNS.get(text, col)
    with pytest.raises(error) as err:
        parse(text)
    assert type(err.value) is error
    if error is ParseError:
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value) == str(ParseError(message, line, col))
    else:
        assert str(err.value) == message


class TestRender:
    def test_simple_and(self):
        assert render_concept(C("A and some r . B")) == "A and some r . B"

    def test_top(self):
        assert render_concept(TOP) == "TOP"

    def test_quantifier_left_of_binary_parenthesized(self):
        c = Or(And(A, Exists(r, B)), ConceptName("E"))
        text = render_concept(c)
        assert parse_concept(text) == c
        assert text == "(A and some r . B) or E"

    def test_render_dispatch(self):
        ont = parse_ontology("gci: A <= B\n")
        assert "gci:" in render(ont)
        assert render(Role("r", True)) == "r-"

    def test_roundtrip_concepts_1000(self):
        rng = random.Random(7)
        for _ in range(1000):
            c = random_concept(rng, names=("A", "B", "E"), roles=("r", "s"), depth=6)
            assert parse_concept(render_concept(c)) == c

    def test_roundtrip_ontologies(self):
        rng = random.Random(8)
        for _ in range(300):
            ont = random_ontology(rng, roles=("r", "s"))
            assert parse_ontology(render_ontology(ont)) == ont
