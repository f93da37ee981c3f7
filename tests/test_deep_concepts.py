"""Concepts far deeper than the default recursion limit go through every
concept walk: parsing, NNF, rendering, negation, weight, subconcepts,
renaming, TOP/BOT collapsing and both evaluators."""

import sys

import pytest

from riq.core import nnf_negate, subconcepts, weight
from riq.definability import rename_concept
from riq.interpolation import collapse_topbot
from riq.parser import parse_concept, render_concept
from riq.semantics import Interpretation, _eval_bits, interpret_concept

DEPTH = 10_000

INTERPRETATION = Interpretation(
    domain=("e0", "e1"),
    concepts={"A": frozenset({"e0"}), "B": frozenset({"e1"})},
    roles={"r": frozenset({("e0", "e1"), ("e1", "e1")})},
)


@pytest.mark.parametrize("text", [
    " or ".join(["A", "B"] * (DEPTH // 2)),
    "(" * DEPTH + "A" + " and B)" * DEPTH,
    "some r . " * DEPTH + "B",
    "not " * DEPTH + "not B",
], ids=["or-chain", "parentheses", "existentials", "negations"])
def test_every_walk_handles_deep_concepts(text):
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
    assert collapse_topbot(c) == c

    extension = interpret_concept(INTERPRETATION, c)
    bits = _eval_bits(c, {"A": 0b01, "B": 0b10}, {"r": 0b1010}, 2)
    assert extension == {f"e{i}" for i in range(2) if bits >> i & 1}
