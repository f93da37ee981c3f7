"""Byte-for-byte pins of the artifacts of a few fixed goals.

A proof is pinned by the sha256 of its JSON, a counter-model by that of its
model JSON.  The goals cover propagation through RIA chains (chains of
depth 8 to 12 over a transitive role, a role hierarchy, left-recursive
composition and an inverse role, provable and refutable), a propagation
path through an equality class made by a counting bound, and a counter-model
folded by blocking.  A change that means to alter an artifact updates its
pin and says why; any other change must leave every pin as it is.
"""

import hashlib
import json

import pytest

from riq import (Proved, Refuted, SearchLimits, parse_concept, parse_ontology, proof_to_json,
                 subsumes)
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
