"""Property tests for the text formats: malformed input raises only the
package's own errors, rendering round-trips through the parser at any
nesting depth, general negation normalizes as its definition says, and the
parser reads a concept as `to_nnf` of the concept written."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from riq.core import (
    BOT,
    RESERVED_NAME,
    TOP,
    And,
    AtLeast,
    AtMost,
    ConceptName,
    Exists,
    Forall,
    GCI,
    NegatedName,
    Not,
    Or,
    RiqError,
    Role,
    fold_concept,
    nnf_negate,
    normalize_ontology,
    to_nnf,
)
from riq.parser import concept_renderer, parse_concept, parse_ontology, render_concept
from riq.semantics import model_from_dict, model_to_dict
from riq.sequent import parse_sequent, proof_from_json

TOKENS = ("A", "B", "r", "s-", "x", "y", "_T", "A'", "0", "2", "99999999999",
          "and", "or", "not", "some", "only", "atmost", "atleast", "TOP", "BOT",
          "o", "(", ")", ".", ",", ":", "=", "!=", "<=", "|-", "{", "}", "[", "]",
          '"', "gci:", "ria:", "roles:", "concepts:", "\n", "#", "@")

#: well-formed inputs, whose prefixes are truncated inputs
SENTENCES = (
    "r ( x , y ) , x = y , y != x |- x : some r . A and B , y : not A",
    "ria: r o s- <= r",
    "gci: atmost 2 r . ( A or not B ) <= only s- . TOP",
)

token_text = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=16).map(" ".join),
    st.builds(lambda s, n: " ".join(s.split()[:n]), st.sampled_from(SENTENCES),
              st.integers(0, 30)))


def proof_file(text: str) -> str:
    """A one-node proof whose sequent and witness concept are `text`."""
    return json.dumps({"format": "riq-proof", "version": 3, "nodes": [
        {"rule": "id", "sequent": text, "witness": {"label": "x0", "concept": text},
         "premises": []}]})


@settings(max_examples=300, deadline=None)
@given(token_text)
def test_malformed_text_raises_only_riq_errors(text):
    for parse, arg in ((parse_concept, text), (parse_ontology, text),
                       (parse_ontology, "gci: " + text), (parse_sequent, text),
                       (proof_from_json, text), (proof_from_json, proof_file(text))):
        try:
            parse(arg)
        except RiqError:
            pass


ROLES = st.builds(Role, st.sampled_from(("r", "s")), st.booleans())
LEAVES = st.one_of(st.builds(ConceptName, st.sampled_from(("A", "B"))),
                   st.builds(NegatedName, st.sampled_from(("A", "B"))),
                   st.sampled_from((TOP, BOT)))


def extend(inner):
    return st.one_of(
        st.builds(And, inner, inner), st.builds(Or, inner, inner),
        st.builds(Exists, ROLES, inner), st.builds(Forall, ROLES, inner),
        st.builds(AtMost, st.integers(0, 3), ROLES, inner),
        st.builds(AtLeast, st.integers(0, 3), ROLES, inner))


concepts = st.recursive(LEAVES, extend, max_leaves=12)

#: ways to put a concept one level deeper
WRAPPERS = (
    lambda c, d: And(c, d), lambda c, d: And(d, c),
    lambda c, d: Or(c, d), lambda c, d: Or(d, c),
    lambda c, d: Exists(Role("r"), c), lambda c, d: Forall(Role("s", True), c),
    lambda c, d: AtMost(1, Role("r"), c), lambda c, d: AtLeast(2, Role("s"), c),
)


@st.composite
def deep_concepts(draw):
    """A random concept, wrapped in a repeated pattern of wrappers: up to
    about 3000 levels, far beyond the default recursion limit."""
    c = draw(concepts)
    pattern = draw(st.lists(st.sampled_from(WRAPPERS), min_size=1, max_size=4))
    other = draw(concepts)
    for _ in range(draw(st.sampled_from((0, 1, 5, 800)))):
        for wrap in pattern:
            c = wrap(c, other)
    return c


@settings(max_examples=60, deadline=None)
@given(deep_concepts())
def test_rendering_round_trips(c):
    assert parse_concept(render_concept(c)) == c


@settings(max_examples=200, deadline=None)
@given(st.lists(concepts, min_size=1, max_size=4), st.lists(st.sampled_from(WRAPPERS)))
def test_renderer_reuses_text_as_render_concept_would(parts, wrappers):
    render = concept_renderer()
    c = parts[0]
    for part, wrap in zip(parts[1:], wrappers):
        assert render(c) == render_concept(c)
        assert render(part) == render_concept(part)
        c = wrap(c, part)
    assert render(c) == render_concept(c)
    assert [render(part) for part in parts] == [render_concept(part) for part in parts]


#: concepts with general negation anywhere, also over TOP, BOT and atleast 0
raw_concepts = st.recursive(LEAVES, lambda inner: st.one_of(
    extend(inner), st.builds(Not, inner)), max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(raw_concepts)
def test_negation_normalizes_as_defined(body):
    assert to_nnf(Not(body)) == nnf_negate(to_nnf(body))


def nnf_by_definition(raw):
    """`to_nnf` as defined: one `nnf_negate` walk per `Not`, so quadratic in
    the nesting of `Not`s, which is fine on small concepts."""
    def node(c, parts):
        if isinstance(c, Not):
            return nnf_negate(parts[0])
        if isinstance(c, (And, Or)):
            return type(c)(*parts)
        if isinstance(c, (Exists, Forall)):
            return type(c)(c.role, parts[0])
        if isinstance(c, (AtMost, AtLeast)):
            return type(c)(c.n, c.role, parts[0])
        return c
    return fold_concept(raw, node)


#: raw concepts whose operands may also be the reserved literals, so that
#: an operand pair can negate to the operands of TOP or BOT
raw_internal_concepts = st.recursive(
    st.one_of(LEAVES, st.builds(ConceptName, st.just(RESERVED_NAME)),
              st.builds(NegatedName, st.just(RESERVED_NAME))),
    lambda inner: st.one_of(extend(inner), st.builds(Not, inner)), max_leaves=12)


@settings(max_examples=500, deadline=None)
@given(raw_internal_concepts)
@example(Not(Not(AtLeast(0, Role("r"), ConceptName("A")))))
@example(Not(Not(And(AtLeast(0, Role("r"), TOP), Not(BOT)))))
@example(Not(Not(Or(NegatedName(RESERVED_NAME), ConceptName(RESERVED_NAME)))))
@example(Not(And(Not(Not(NegatedName(RESERVED_NAME))), ConceptName(RESERVED_NAME))))
def test_nested_negation_normalizes_as_defined(raw):
    """Every subtree, not only the root, normalizes as the definition says,
    also where `nnf_negate` is not an involution (atleast 0, and operands
    that negate to those of TOP or BOT)."""
    assert to_nnf(raw) == nnf_by_definition(raw)


@settings(max_examples=500, deadline=None)
@given(raw_internal_concepts)
@example(Not(Not(AtLeast(0, Role("r"), ConceptName("A")))))
@example(Not(Not(And(AtLeast(0, Role("r"), TOP), Not(BOT)))))
@example(Not(Not(Or(NegatedName(RESERVED_NAME), ConceptName(RESERVED_NAME)))))
@example(Not(And(Not(Not(NegatedName(RESERVED_NAME))), ConceptName(RESERVED_NAME))))
def test_parse_is_the_nnf_of_the_text(raw):
    """The parser builds each node once, already negated by the `not`s
    above it, and gets exactly what `to_nnf` makes of the tree written."""
    assert parse_concept(render_concept(raw), internal=True) == to_nnf(raw)


@settings(max_examples=300, deadline=None)
@given(raw_concepts, raw_concepts)
@example(AtLeast(0, Role("r"), ConceptName("A")), ConceptName("B"))
@example(Not(BOT), ConceptName("B"))
@example(Not(Not(TOP)), ConceptName("B"))
def test_gci_line_normalizes_its_nnf(lhs, rhs):
    """A GCI line is its two sides in NNF, normalized as `normalize_ontology`
    does: only a left side equal to TOP is dropped, so `atleast 0 r . A`,
    which negates to BOT as TOP does, gives `BOT or D`."""
    text = f"gci: {render_concept(lhs)} <= {render_concept(rhs)}"
    assert parse_ontology(text).tbox == \
        normalize_ontology([GCI(to_nnf(lhs), to_nnf(rhs))], ()).tbox


#: JSON values a model file might hold, with the keys a model uses
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-1, 3), st.sampled_from(("a", "b", "A"))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(("domain", "concepts", "roles", "assignment",
                                         "A", "r", "x0")), inner, max_size=4)),
    max_leaves=10)

VALID_MODEL = {"domain": ["a", "b"], "concepts": {"A": ["a"]},
               "roles": {"r": [["a", "b"]]}, "assignment": {"x0": "b"}}


@settings(max_examples=300, deadline=None)
@given(st.one_of(json_values,
                 st.builds(lambda key, value: {**VALID_MODEL, key: value},
                           st.sampled_from(sorted(VALID_MODEL)), json_values)))
def test_malformed_model_raises_only_riq_errors(data):
    try:
        interpretation, assignment = model_from_dict(data)
    except RiqError:
        return
    domain = set(interpretation.domain)
    assert all(ext <= domain for ext in interpretation.concepts.values())
    assert all(len(pair) == 2 and set(pair) <= domain
               for pairs in interpretation.roles.values() for pair in pairs)
    assert set((assignment or {}).values()) <= domain
    assert model_from_dict(model_to_dict(interpretation, assignment)) == \
        (interpretation, assignment)
