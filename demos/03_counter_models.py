"""Counter-models: refutations and the brute-force oracle
=========================================================

A failed proof search saturates some branch; the branch then induces a
finite interpretation (label classes as domain, negated literals as concept
memberships, role atoms closed under the RIAs) that falsifies the goal.  A
branch whose labels would go on forever stops at a label whose concepts an
earlier label carries too, and the counter-model folds that label onto the
earlier one.  Every model, folded or not, is checked before it is returned.  An
independent bounded model search provides a second route to the same
answers, used heavily for differential testing.
"""

from riq import (
    Refuted,
    find_countermodel_bounded,
    is_model,
    parse_concept,
    parse_ontology,
    ria_closure,
    subsumes,
)
from riq.prover import goal_sequent
from riq.semantics import falsifies, model_to_dict

ontology = parse_ontology("ria: r o s <= t\n")
sub = parse_concept("some r . (some s . A)")
sup = parse_concept("some t . B")

# The subsumption fails: nothing forces B at the composed successor.
result = subsumes(ontology, sub, sup)
assert isinstance(result, Refuted)
print("verdict: Refuted")
model = model_to_dict(result.interpretation, result.assignment)
print("domain:  ", model["domain"])
print("concepts:", model["concepts"])
print("roles:   ", model["roles"])

# The model really is a model of the ontology (note the composed t-edge
# required by r o s <= t) and really falsifies the goal.
assert is_model(result.interpretation, ontology)
goal = goal_sequent(ontology, sub, sup)
lam = {lab: result.assignment[lab] for lab in goal.labels()}
assert falsifies(result.interpretation, lam, ontology, goal)
print("verified: model of the ontology, falsifies the goal")

# Every element needs an r-successor in A, so the branch would make x1, x2,
# x3, ... for ever.  x1's concepts are all carried by x0 as well: x1 is
# blocked, and the counter-model sends x0's r-edge back to x0 instead.  One
# element suffices.
looping = parse_ontology("gci: TOP <= some r . A\n")
folded = subsumes(looping, parse_concept("A"), parse_concept("B"))
assert isinstance(folded, Refuted)
model = model_to_dict(folded.interpretation, folded.assignment)
print("folded domain:", model["domain"], "roles:", model["roles"])
assert is_model(folded.interpretation, looping)
loop_goal = goal_sequent(looping, parse_concept("A"), parse_concept("B"))
assert falsifies(folded.interpretation, {"x0": folded.assignment["x0"]},
                 looping, loop_goal)
print("verified: the folded model is a model of the ontology, falsifies the goal")

# RIA closure on its own: extensions grow until every inclusion holds.
closed = ria_closure({"r": {("a", "b")}, "s": {("b", "c")}}, ontology.rbox)
print("closure adds:", sorted(closed["t"]))

# The oracle enumerates interpretations up to isomorphism.  This goal's
# signature has three roles, which is past the exhaustion guard, so we fall
# back to random sampling; small signatures are searched exhaustively.
hit = find_countermodel_bounded(ontology, goal, max_domain=3, samples=5000)
print("oracle found a counter-model too:", hit is not None)

plain = parse_ontology("ria: r <= s\n")
valid_goal = goal_sequent(plain, parse_concept("some r . A"),
                          parse_concept("some s . A"))
print("valid goal, counter-models up to 3:",
      find_countermodel_bounded(plain, valid_goal, 3))
