"""Byte-for-byte pins of the artifacts of a few fixed goals.

A proof is pinned by the sha256 of its JSON, a counter-model by that of its
model JSON.  The goals cover propagation through RIA chains (chains of
depth 8 to 12 over a transitive role, a role hierarchy, left-recursive
composition and an inverse role, provable and refutable), a propagation
path through an equality class made by a counting bound, and a counter-model
folded by blocking.  The pipeline goals pin, for two interpolations and two
Beth definitions, the rendered concept, the split goal's proof and both
verification proofs; their ontologies share GCIs, so the union ontology's
goal repeats them.  A change that means to alter an artifact updates its
pin and says why; any other change must leave every pin as it is.
"""

import hashlib
import json

import pytest

from riq import (Proved, Refuted, SearchLimits, parse_concept, parse_ontology, proof_to_json,
                 subsumes)
from riq.definability import explicit_definition
from riq.interpolation import compute_concept_interpolant
from riq.parser import render_concept
from riq.semantics import model_to_dict

#: the RBoxes of the chain goals
TRANSITIVE = "ria: r o r <= r\nria: r <= t\nria: s <= r\n"
HIERARCHY = "ria: r <= s\nria: s <= p\nria: p <= t\nria: t o t <= t\n"
COMPOSITION = "ria: r <= t\nria: t o r <= t\nria: t o s <= t\n"
INVERSE = "ria: s- <= r\nria: r o r <= r\nria: r <= t\n"


def chain(roles: str, end: str = "A") -> str:
    """``some c1 . (some c2 . ( ... (end)))`` for the space-separated roles."""
    concept = end
    for role in reversed(roles.split()):
        concept = f"some {role} . ({concept})"
    return concept


#: (name, ontology, subsumee, subsumer, verdict, sha256 of the artifact)
GOALS = [
    ("transitive-proved", TRANSITIVE, chain("r s r r s r s r"), "some t . A", Proved,
     "377aa890750f09b2fd36088acb09c73c8f382843303b5c26619905d550244776"),
    ("transitive-refuted", TRANSITIVE, chain("r s r u s r s r s"), "some t . A", Refuted,
     "309611ec2244503fe6cf7bfc291aadf4ee29166e3bf4fb1b74b9f1b9211ce05d"),
    ("hierarchy-proved", HIERARCHY + "gci: B <= A\n", chain("p r s s p r r s p r", "B"),
     "some t . A", Proved, "d4c7b1054d81d4c266294a8b083d1e6a47fb4991d21e6f99a62e076811b57577"),
    ("hierarchy-refuted", HIERARCHY, chain("s p r s r p s r p s", "E"), "some t . A", Refuted,
     "80995c8419175b3873d8c727362dc61fa61c06ac85cb7150653a9b21e7461c0a"),
    ("composition-proved", COMPOSITION, chain("r s r s s r s r r s s r"), "some t . A", Proved,
     "50eef29a0bdd299708bbc76e296f0d044642ebeb3217d6606d6c2bf6c45a2de6"),
    ("inverse-proved", INVERSE, chain("s- r s- s- r r s- r s-"), "some t . A", Proved,
     "824971484eef977050071d5cd5bee1b9c9388107a84bb9bc8a0ea482064c71f3"),
    ("inverse-refuted", INVERSE, chain("r s- r s- u r s- r r s- r"), "some t . A", Refuted,
     "39f13e6e7b19ea2d52382a7ad79384717faddd45469dc67a47409ce5779adc70"),
    ("equality-merge", "ria: r o s <= t\n",
     "(some r . B) and (some r . some s . A) and atmost 1 r . TOP", "some t . A", Proved,
     "cac104b9ab8e0a35d0220e49ab7fe4bc1baf4daa33bee2cd5b825598f1228445"),
    ("blocked-loop", "gci: TOP <= some r . A\n", "A", "B", Refuted,
     "170ea3fef21dbedae3cf5c7677eccc58bf90677dd49e634e006f649b95b1c2b4"),
]

LIMITS = SearchLimits(4000, 200, 10**9)


def artifact(ontology: str, sub: str, sup: str):
    """The verdict of a goal and the JSON a user receives for it."""
    onto = parse_ontology(ontology)
    result = subsumes(onto, parse_concept(sub), parse_concept(sup), LIMITS)
    if isinstance(result, Proved):
        return Proved, proof_to_json(result.proof)
    if isinstance(result, Refuted):
        return Refuted, json.dumps(model_to_dict(result.interpretation, result.assignment))
    return type(result), ""


@pytest.mark.parametrize("name, ontology, sub, sup, verdict, digest", GOALS,
                         ids=[goal[0] for goal in GOALS])
def test_artifact_is_pinned(name, ontology, sub, sup, verdict, digest):
    got, text = artifact(ontology, sub, sup)
    assert got is verdict
    assert hashlib.sha256(text.encode()).hexdigest() == digest


#: interpolation: A <= some r . B on the left, some r . B <= E on the right,
#: and both sides share B <= only r . B
LEFT = "gci: A <= some r . B\ngci: B <= only r . B\n"
RIGHT = "gci: some r . B <= E\ngci: E <= B\ngci: B <= only r . B\n"
#: definability: A is equivalent to a concept over theta = {B, E}, and the
#: axioms over theta alone recur in the renamed copy
DEFINED = ("gci: A <= B and some r . E\ngci: B and some r . E <= A\n"
           "gci: E <= only r . E\ngci: E <= not B\n")
THETA = ("B", "E")
PIPELINE_LIMITS = SearchLimits(1500, 40, 10**9)

#: (name, subsumee or defined concept, subsumer or None for a definition,
#: sha256 of the rendered concept, the split proof and the forward and
#: backward verification proofs)
PIPELINE_GOALS = [
    ("interpolate-exists", "A and (some r . A)", "E or (only r . E)",
     ("c0e4da2799e14c68526c25ba1e67ab81671e68641f84a4ae1a2abb88278fb658",
      "3dd67b60a28c445f1f5062d5c1067c46cdd5057ab88ede2b3ff96ed5c7cd0ccc",
      "c93440516acb698fadb150bbfb46d394c39016ad8d833b1cbb736731e09be2c2",
      "316fc92ab74ab9b7ed5e889e74aee46b084fb6a02be146ad30b0302c5e56404b")),
    ("interpolate-literals", "A and (not B)", "E or (B)",
     ("c0e4da2799e14c68526c25ba1e67ab81671e68641f84a4ae1a2abb88278fb658",
      "5cd4b2f9b9cf2baf1db27a7c02f52718022eb83395d96766a20e2660c05beb68",
      "a7118f4b1bd6b3338ccb6edc812edc784c22766f08cb7ae0af287a05f70fc912",
      "ff63b281b301cc0a4cb706ecae8b60c2aa5e6a3f07a3a40582cc14a98734b462")),
    ("define-and", "A and (some r . E)", None,
     ("af74a5b59639fc00b56153d67e5c82e0bd521f320c195f3767e2aa336e3e5adf",
      "23982a7597f51c8d7b1f6638046521251da4d67c4133a7a044aac32efc0d1e7c",
      "01609f65fc121049339d0ba7547860cc39465f406267f81891acacfad68bc9cb",
      "aef428f4cff0ff927559ec30192fbf8d4ecdc23e07b69cf9b63029218e733c7b")),
    ("define-or", "A or (not E)", None,
     ("2df828f34cbe322b2541f01d7073f2848cc60a08a2f9d461b9e6841f2d7b3cda",
      "eceea25a6f37daa97bfd2093bc6f074b949eb13b3b729808e8f4c187b02d5c41",
      "989288831663efe24b727df42ffde6dd95938b348559e89eac3d16b645ae1d04",
      "3b2520a2dfa6f0500b331a730a8dc97abb6f2e4a9d383dd03c3d9e1edfef465c")),
]


def pipeline_artifacts(sub: str, sup):
    """The texts a user receives for an interpolation (``sup`` given) or a
    definition of ``sub`` from THETA: the concept, the split proof and the
    two verification proofs."""
    if sup is not None:
        result = compute_concept_interpolant(parse_ontology(LEFT), parse_ontology(RIGHT),
                                             parse_concept(sub), parse_concept(sup),
                                             PIPELINE_LIMITS)
        assert result.status == "ok"
        concept, split, report = result.concept, result.prove_result, result.verification
    else:
        result = explicit_definition(parse_ontology(DEFINED), parse_concept(sub), THETA,
                                     PIPELINE_LIMITS)
        assert result.status == "ok"
        concept, split, report = (result.definition, result.interpolation.prove_result,
                                  result.report)
    return (render_concept(concept), proof_to_json(split.proof),
            proof_to_json(report.forward.proof), proof_to_json(report.backward.proof))


@pytest.mark.parametrize("name, sub, sup, digests", PIPELINE_GOALS,
                         ids=[goal[0] for goal in PIPELINE_GOALS])
def test_pipeline_artifacts_are_pinned(name, sub, sup, digests):
    texts = pipeline_artifacts(sub, sup)
    assert tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts) == digests
