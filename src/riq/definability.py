"""Concept-based Beth definability: the implicit-definability check via the
renamed-copy subsumption, and explicit-definition extraction through the
interpolation pipeline, with verification.

A concept C is implicitly definable from a set theta of concept names under
an ontology O exactly when O together with a copy of itself (every concept
name outside theta uniformly replaced by a fresh primed name) entails
C <= C'.  A proof of that subsumption yields, by interpolation, a concept
over theta equivalent to C under O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

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
    make_ontology,
    union_ontology,
)
from .interpolation import (
    InterpolationResult,
    VerificationReport,
    compute_concept_interpolant,
    oracle_spot_check,
)
from .parser import render_concept
from .prover import (
    ProveResult,
    Refuted,
    SearchLimits,
    Unknown,
    subsumes,
)


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
    if isinstance(c, ConceptName):
        return ConceptName(mapping.get(c.name, c.name))
    if isinstance(c, NegatedName):
        return NegatedName(mapping.get(c.name, c.name))
    if isinstance(c, And):
        return And(rename_concept(c.left, mapping), rename_concept(c.right, mapping))
    if isinstance(c, Or):
        return Or(rename_concept(c.left, mapping), rename_concept(c.right, mapping))
    if isinstance(c, Exists):
        return Exists(c.role, rename_concept(c.body, mapping))
    if isinstance(c, Forall):
        return Forall(c.role, rename_concept(c.body, mapping))
    if isinstance(c, AtMost):
        return AtMost(c.n, c.role, rename_concept(c.body, mapping))
    if isinstance(c, AtLeast):
        return AtLeast(c.n, c.role, rename_concept(c.body, mapping))
    raise DefinabilityError(f"cannot rename {c!r}")


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


def is_implicitly_definable(o: Ontology, c: Concept, theta: Iterable[str],
                            limits: SearchLimits = SearchLimits()) -> ProveResult:
    """Prove O u O_theta |= C <= C_theta."""
    o_theta, c_theta, _ = rename_outside_theta(o, c, theta)
    return subsumes(union_ontology(o, o_theta), c, c_theta, limits)


class DefinitionReport(VerificationReport):
    """The checks of VerificationReport, applied to a definition under O."""
    DIRECTIONS = ("concept <= definition", "definition <= concept")


def verify_definition(o: Ontology, c: Concept, definition: Concept,
                      theta: Iterable[str],
                      limits: SearchLimits = SearchLimits()) -> DefinitionReport:
    """Signature check against theta, both subsumption directions under O
    alone, and a bounded model-search spot check."""
    theta = frozenset(theta)
    extra = cpt(definition) - theta
    forward = subsumes(o, c, definition, limits)
    backward = subsumes(o, definition, c, limits)
    oracle_checked, counterexample = oracle_spot_check(
        o, ((c, definition), (definition, c)))
    return DefinitionReport(not extra, frozenset(extra), forward, backward,
                            oracle_checked, counterexample)


@dataclass(frozen=True)
class DefinitionResult:
    """``definition`` is set only when ``status`` is "ok"; an "unknown" from
    an inconclusive verification carries its ``report``."""
    status: str  # "ok" | "not-definable" | "unknown"
    definition: Optional[Concept] = None
    implicit: Optional[ProveResult] = None
    interpolation: Optional[InterpolationResult] = None
    report: Optional[DefinitionReport] = None


def explicit_definition(o: Ontology, c: Concept, theta: Iterable[str],
                        limits: SearchLimits = SearchLimits()) -> DefinitionResult:
    """Full CBP pipeline: check implicit definability, extract a concept
    interpolant for C <= C_theta, and verify it as a definition under O.

    A verification direction that hits its resource bound makes the result
    "unknown"; a verification that fails raises DefinabilityError."""
    theta = frozenset(theta)
    o_theta, c_theta, _ = rename_outside_theta(o, c, theta)
    implicit = subsumes(union_ontology(o, o_theta), c, c_theta, limits)
    if isinstance(implicit, Refuted):
        return DefinitionResult("not-definable", implicit=implicit)
    if isinstance(implicit, Unknown):
        return DefinitionResult("unknown", implicit=implicit)
    interp = compute_concept_interpolant(o, o_theta, c, c_theta, limits)
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
