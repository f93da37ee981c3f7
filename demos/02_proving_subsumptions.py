"""Proving ontology-mediated subsumptions
=========================================

The prover searches for a sequent-calculus proof of
`|- x : gciList(O), x : not C or D`, which holds exactly when O entails
C <= D.  Proofs are explicit trees with side-condition witnesses and can be
re-checked independently of the search.
"""

import json

from riq import (
    Proved,
    SearchLimits,
    check_proof,
    parse_concept,
    parse_ontology,
    proof_size,
    proof_to_json,
    prove,
    subsumes,
)
from riq.prover import goal_sequent
from riq.sequent import render_sequent

ontology = parse_ontology("""
ria: r o s <= t
gci: A <= some r . (some s . B)
""")

sub = parse_concept("A")
sup = parse_concept("some t . B")

# A <= some r . some s . B <= some t . B via the role composition r o s <= t.
result = subsumes(ontology, sub, sup)
assert isinstance(result, Proved)
print("verdict: Proved")
print("goal:    ", render_sequent(goal_sequent(ontology, sub, sup)))
print("size:    ", proof_size(result.proof), "(summed sequent weights)")

# Every proof survives the independent checker, which re-derives each rule
# instance and re-verifies the stored witnesses: equality paths, propagation
# node paths with the (position, production) steps that derive their role
# strings, freshness of introduced labels.
verdict = check_proof(ontology, result.proof)
print("checker: ", "valid" if verdict.ok else verdict.message)

# The propagation side condition used above comes from the rewrite system of
# the ontology (built once, on first use): t derives the string "r s".
print("productions:", sorted(str(p) for p in ontology.rsystem.productions))

# Proofs serialize to a stable, flat JSON shape: a list of nodes (rule,
# rendered sequent, witness, premises as indices of earlier nodes) with the
# root last; `riq verify` consumes the same format.
payload = json.loads(proof_to_json(result.proof))
root = payload["nodes"][-1]
print("nodes:", len(payload["nodes"]))
print("root rule:", root["rule"])
print("root sequent:", root["sequent"])

# Resource limits make every call terminate with an honest third verdict.
tight = SearchLimits(max_steps=5, max_labels=5, max_seconds_hint=5)
print("with 5 steps:", type(prove(ontology, goal_sequent(ontology, sub, sup),
                                  tight)).__name__)
