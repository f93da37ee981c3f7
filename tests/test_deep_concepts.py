"""Concepts far deeper than the default recursion limit go through every
concept walk: parsing, NNF, rendering, negation, weight, subconcepts,
renaming, simplification and both evaluators.  RIA chains far longer than
the limit go through the RBox analysis: simplicity and regularity."""

import sys

import pytest

from riq.cli import main
from riq.core import (And, ConceptName, NegatedName, OntologyError, Or, Role, is_simple,
                      nnf_negate, or_all, subconcepts, weight)
from riq.definability import rename_concept
from riq.interpolation import simplify_concept
from riq.parser import parse_concept, parse_ontology, render_concept
from riq.semantics import Interpretation, _eval_bits, interpret_concept

DEPTH = 10_000
#: r0 <= r1, ..., r4999 <= r5000
CHAIN = "".join(f"ria: r{i} <= r{i + 1}\n" for i in range(5000))

INTERPRETATION = Interpretation(
    domain=("e0", "e1"),
    concepts={"A": frozenset({"e0"}), "B": frozenset({"e1"})},
    roles={"r": frozenset({("e0", "e1"), ("e1", "e1")})},
)


@pytest.mark.parametrize("text, simple", [
    (" or ".join(["A", "B"] * (DEPTH // 2)), "A or B"),
    ("(" * DEPTH + "A" + " and B)" * DEPTH, "A and B"),
    ("some r . " * DEPTH + "B", None),
    ("not " * DEPTH + "not B", None),
], ids=["or-chain", "parentheses", "existentials", "negations"])
def test_every_walk_handles_deep_concepts(text, simple):
    assert sys.getrecursionlimit() == 1000
    c = parse_concept(text)
    nodes = list(subconcepts(c))
    assert nodes[0] is c
    assert weight(c) == len(nodes)

    assert parse_concept(render_concept(c)) == c
    assert nnf_negate(nnf_negate(c)) == c
    renamed = rename_concept(c, {"A": "A'", "B": "B'"})
    assert renamed != c
    assert rename_concept(renamed, {"A'": "A", "B'": "B"}) == c
    assert simplify_concept(c) == (c if simple is None else parse_concept(simple))

    extension = interpret_concept(INTERPRETATION, c)
    bits = _eval_bits(c, {"A": 0b01, "B": 0b10}, {"r": 0b1010}, 2)
    assert extension == {f"e{i}" for i in range(2) if bits >> i & 1}


def test_distinct_disjuncts_flatten_once():
    """A right-nested chain of 10 000 distinct disjuncts is flattened once, at
    its top, not again at each of its levels."""
    names = [f"A{i}" for i in range(DEPTH)]
    c = parse_concept(" or ".join(reversed(names)))
    assert simplify_concept(c) == or_all(ConceptName(name) for name in sorted(names))


def test_nested_negation_is_linear():
    """Each `not` takes its body's negation from the walk instead of negating
    the body again."""
    n = DEPTH // 2
    c = parse_concept("not (A and " * n + "B" + ")" * n)
    # to_nnf(not (A and X)) = not A or nnf_negate(to_nnf(X)), and its negation
    # is A and to_nnf(X)
    pos, neg = ConceptName("B"), NegatedName("B")
    for _ in range(n):
        pos, neg = Or(NegatedName("A"), neg), And(ConceptName("A"), pos)
    assert c == pos


def test_alternating_runs_simplify():
    """Runs nested 10 000 deep: each operand's rendering, the sort key, is
    made once and reused by the runs above it."""
    n = DEPTH // 2
    c = parse_concept("A and (B or (" * n + "E" + "))" * n)
    simple = simplify_concept(c)
    assert weight(simple) == weight(c)
    assert simplify_concept(simple) == simple
    exts = {"A": 0b01, "B": 0b10, "E": 0b11}
    assert _eval_bits(simple, exts, {}, 2) == _eval_bits(c, exts, {}, 2)


def test_long_ria_chain(tmp_path, capsys):
    assert sys.getrecursionlimit() == 1000
    ontology = parse_ontology(CHAIN + "gci: A <= atmost 1 r5000 . B\n")
    assert ontology.regularity.ok
    assert is_simple(Role("r5000"), ontology.rbox)
    (tmp_path / "chain.riq").write_text(CHAIN)
    assert main(["info", "-o", str(tmp_path / "chain.riq")]) == 0
    out = capsys.readouterr().out
    assert "regular rbox: yes\n" in out and "  r5000 -> r4999\n" in out


def test_long_ria_chain_from_a_complex_ria():
    """r0 o r0 <= r0 makes r0, and so every role up the chain, non-simple."""
    rbox = parse_ontology(CHAIN + "ria: r0 o r0 <= r0\n").rbox
    assert not is_simple(Role("r5000", True), rbox)
    with pytest.raises(OntologyError, match="r5000 under a number restriction"):
        parse_ontology(CHAIN + "ria: r0 o r0 <= r0\ngci: A <= atmost 1 r5000 . B\n")
