"""Concept-based Beth definability: the implicit-definability check via the
renamed-copy subsumption, and explicit-definition extraction through the
interpolation pipeline, with verification.

A concept C is implicitly definable from a set theta of concept names under
an ontology O exactly when O together with a copy of itself (every concept
name outside theta uniformly replaced by a fresh primed name) entails
C <= C'.  A proof of that subsumption yields, by interpolation, a concept
over theta equivalent to C under O.

One proof search, of the split goal, decides implicit definability and
yields the interpolant's simplified concept I, which is verified under O
alone (proofs of C <= I and I <= C, each derived from its goal by
``prove``).  As cpt(I) lies in theta and O_theta is a renamed copy of O,
both directions hold under O u O_theta iff they hold under O (ten Cate,
Franconi and Seylan, JAIR 2013), so no verification over the union is made.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Sequence

from .core import (
    And,
    AtLeast,
    AtMost,
    Concept,
    ConceptName,
    Exists,
    Forall,
    GCI,
    NegatedName,
    Ontology,
    Or,
    RiqError,
    cpt,
    fold_concept,
    make_ontology,
    nnf_negate,
    union_ontology,
)
from .interpolation import (
    InterpolationResult,
    VerificationReport,
    extract_concept_interpolant,
    split_goal,
)
from .parser import render_concept
from .prover import (
    Proved,
    ProveResult,
    SearchLimits,
    goal_sequent,
    prove,
)
from .sequent import Proof, Witness, apply_rule


class DefinabilityError(RiqError):
    pass


#: Suffix for renamed concept names; the user-facing parser rejects primed
#: names, so renamed copies can never collide with user input.
PRIME = "'"


@dataclass(frozen=True)
class ThetaRenaming:
    theta: frozenset[str]
    mapping: Mapping[str, str]

    def inverse(self) -> Mapping[str, str]:
        return {fresh: orig for orig, fresh in self.mapping.items()}


def rename_concept(c: Concept, mapping: Mapping[str, str]) -> Concept:
    def rename(node: Concept, parts: Sequence[Concept]) -> Concept:
        if isinstance(node, (ConceptName, NegatedName)):
            return type(node)(mapping.get(node.name, node.name))
        if isinstance(node, (And, Or)):
            return type(node)(*parts)
        if isinstance(node, (Exists, Forall, AtMost, AtLeast)):
            return replace(node, body=parts[0])
        raise DefinabilityError(f"cannot rename {node!r}")

    return fold_concept(c, rename)


def rename_outside_theta(o: Ontology, c: Concept, theta: Iterable[str]
                         ) -> tuple[Ontology, Concept, ThetaRenaming]:
    """Uniformly replace every concept name outside theta by a fresh primed
    name; roles are untouched."""
    theta = frozenset(theta)
    names = cpt(o, c)
    outside = theta - names
    if outside:
        raise DefinabilityError(
            "theta names not in the concept/ontology signature: "
            + ", ".join(sorted(outside)))
    mapping = {name: name + PRIME for name in sorted(names - theta)}
    renaming = ThetaRenaming(theta, mapping)
    renamed_tbox = tuple(GCI(g.lhs, rename_concept(g.rhs, mapping)) for g in o.tbox)
    o_theta = make_ontology(o.rbox, renamed_tbox)
    return o_theta, rename_concept(c, mapping), renaming


def _implicit_from_split(union: Ontology, c: Concept, c_theta: Concept,
                         split: ProveResult) -> ProveResult:
    """The joined goal's result from the split goal's: a proof gains one (or)
    step at the root, whose premise is the split goal as a multiset."""
    if not isinstance(split, Proved):
        return split
    goal = goal_sequent(union, c, c_theta)
    step = apply_rule(union, "or", goal,
                      Witness(label="x0", concept=Or(nnf_negate(c), c_theta)))
    return Proved(Proof(step, (split.proof,)))


def is_implicitly_definable(o: Ontology, c: Concept, theta: Iterable[str],
                            limits: SearchLimits = SearchLimits()) -> ProveResult:
    """Prove O u O_theta |= C <= C_theta, by the split-goal search that
    ``explicit_definition`` also runs."""
    o_theta, c_theta, _ = rename_outside_theta(o, c, theta)
    union = union_ontology(o, o_theta)
    split = prove(union, split_goal(o, o_theta, c, c_theta), limits)
    return _implicit_from_split(union, c, c_theta, split)


class DefinitionReport(VerificationReport):
    """The checks of VerificationReport, applied to a definition under O."""
    DIRECTIONS = ("concept <= definition", "definition <= concept")


def verify_definition(o: Ontology, c: Concept, definition: Concept,
                      theta: Iterable[str],
                      limits: SearchLimits = SearchLimits()) -> DefinitionReport:
    """Signature check against theta, and both subsumption directions
    proved under O alone."""
    return DefinitionReport.verify(o, frozenset(theta), c, definition, c, limits)


@dataclass(frozen=True)
class DefinitionResult:
    """``definition`` is set only when ``status`` is "ok"; an "unknown" from
    an inconclusive verification carries its ``report``.  ``interpolation``
    is the unverified extraction: its ``verification`` is None."""
    status: str  # "ok" | "not-definable" | "unknown"
    definition: Optional[Concept] = None
    implicit: Optional[ProveResult] = None
    interpolation: Optional[InterpolationResult] = None
    report: Optional[DefinitionReport] = None


def explicit_definition(o: Ontology, c: Concept, theta: Iterable[str],
                        limits: SearchLimits = SearchLimits()) -> DefinitionResult:
    """Full CBP pipeline: extract a concept interpolant for
    O u O_theta |= C <= C_theta, whose proof also shows implicit
    definability, and verify it as a definition under O.

    A verification direction that hits its resource bound makes the result
    "unknown"; a verification that fails raises DefinabilityError."""
    theta = frozenset(theta)
    o_theta, c_theta, _ = rename_outside_theta(o, c, theta)
    interp = extract_concept_interpolant(o, o_theta, c, c_theta, limits)
    implicit = _implicit_from_split(union_ontology(o, o_theta), c, c_theta,
                                    interp.prove_result)
    if interp.status != "ok":
        return DefinitionResult("unknown" if interp.status == "unknown"
                                else "not-definable",
                                implicit=implicit, interpolation=interp)
    definition = interp.concept
    report = verify_definition(o, c, definition, theta, limits)
    if report.inconclusive:
        return DefinitionResult("unknown", implicit=implicit, interpolation=interp,
                                report=report)
    if not report.ok:
        raise DefinabilityError(
            "definition verification failed:\n  " + "\n  ".join(report.lines())
            + f"\n  definition: {render_concept(definition)}")
    return DefinitionResult("ok", definition, implicit, interp, report)
