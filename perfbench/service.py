"""One request against the library, and the correctness gate on its answer.

``serve`` is what the benchmark times: it parses the goal's text, calls the
library entry point, and produces the artifact a user would receive (proof
JSON checked by the library's own checker, counter-model JSON, or the
rendered interpolant/definition).  ``check`` re-verifies that artifact from
the outside after the timed call, so the gate never counts as latency.

An exception is a wrong answer, with one exception: the known defect of
``compute_concept_interpolant``, which raises ``InterpolationError`` when a
verification direction comes back ``Unknown`` although its report is only
inconclusive (``VerificationReport.inconclusive``).  That error counts as a
failed request but not as a wrong answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from riq import definability, interpolation, parser, prover, semantics, sequent
from riq.core import cpt

from workloads import NO_TIME_LIMIT, Goal

DECIDED = ("Proved", "Refuted", "ok", "refuted", "not-definable")

#: Domain bound of the counter-model spot check on proved subsume goals;
#: size 3 with two roles enumerates 2^18 role tables per query.
SPOT_CHECK_DOMAIN = 2


@dataclass
class Answer:
    verdict: str  # Proved/Refuted/Unknown, ok/refuted/unknown/not-definable, or error
    detail: str = ""  # Unknown reason, or the exception's first line
    artifact: str = ""
    result: object = None  # the library's result, or the exception


def serve(goal: Goal) -> Answer:
    limits = prover.SearchLimits(goal.max_steps, goal.max_labels, NO_TIME_LIMIT)
    if goal.kind == "subsume":
        onto = parser.parse_ontology(goal.ontology)
        result = prover.subsumes(onto, parser.parse_concept(goal.sub),
                                 parser.parse_concept(goal.sup), limits)
        if isinstance(result, prover.Proved):
            checked = sequent.check_proof(onto, result.proof)
            detail = "" if checked.ok else "check_proof: " + checked.message
            return Answer("Proved", detail, sequent.proof_to_json(result.proof), result)
        if isinstance(result, prover.Refuted):
            model = semantics.model_to_dict(result.interpretation, result.assignment)
            return Answer("Refuted", artifact=json.dumps(model), result=result)
        return Answer("Unknown", result.reason, result=result)
    if goal.kind == "interpolate":
        result = interpolation.compute_concept_interpolant(
            parser.parse_ontology(goal.ontology), parser.parse_ontology(goal.ontology2),
            parser.parse_concept(goal.sub), parser.parse_concept(goal.sup), limits)
        artifact = parser.render_concept(result.concept) if result.concept else ""
        return Answer(result.status, _unknown_reason(result.prove_result), artifact, result)
    if goal.kind == "define":
        result = definability.explicit_definition(
            parser.parse_ontology(goal.ontology), parser.parse_concept(goal.sub),
            goal.theta, limits)
        interp = result.interpolation
        detail = _unknown_reason(result.implicit, interp.prove_result if interp else None)
        artifact = parser.render_concept(result.definition) if result.definition else ""
        return Answer(result.status, detail, artifact, result)
    raise ValueError(f"unknown goal kind {goal.kind!r}")


def _unknown_reason(*results) -> str:
    return next((r.reason for r in results if isinstance(r, prover.Unknown)), "")


def serve_safely(goal: Goal) -> Answer:
    """serve, with any exception turned into an ``error`` answer, so the
    loop keeps going; ``check`` decides whether the error is a wrong answer."""
    try:
        return serve(goal)
    except Exception as exc:
        first = (str(exc).splitlines() or [""])[0]
        return Answer("error", f"{type(exc).__name__}: {first}", result=exc)


def inconclusive_verification(exc: BaseException) -> bool:
    """Whether ``exc`` is the known defect: the ``InterpolationError`` that
    ``compute_concept_interpolant`` raises for a verification report that is
    only inconclusive.  Its message lists the report's lines, and the report
    is inconclusive when the signature is fine, no direction is Refuted, at
    least one is Unknown, and the oracle found no counter-model."""
    if not isinstance(exc, interpolation.InterpolationError):
        return False
    lines = [line.strip() for line in str(exc).splitlines()]
    if lines[0] != "interpolant verification failed:":
        return False
    directions = [line.rsplit(": ", 1)[1] for line in lines
                  if line.startswith(("subsumee <= interpolant:",
                                      "interpolant <= subsumer:"))]
    return ("signature: ok" in lines and len(directions) == 2
            and set(directions) <= {"Proved", "Unknown"} and "Unknown" in directions
            and not any(line.startswith("oracle spot-check: counter-model")
                        for line in lines))


def check(goal: Goal, answer: Answer) -> Optional[str]:
    """Why the answer is wrong, or None.  Unknown is not a wrong answer, and
    neither is the known defect (it counts as a failed request)."""
    if answer.verdict == "error":
        if inconclusive_verification(answer.result):
            return None
        return "raised " + answer.detail
    if goal.expect is not None and answer.verdict not in (goal.expect, "Unknown", "unknown"):
        return f"expected {goal.expect}, got {answer.verdict}"
    if goal.kind == "subsume":
        onto = parser.parse_ontology(goal.ontology)
        seq = prover.goal_sequent(onto, parser.parse_concept(goal.sub),
                                  parser.parse_concept(goal.sup))
        if answer.verdict == "Proved":
            if answer.detail:
                return "the library's checker rejected its own proof: " + answer.detail
            proof = sequent.proof_from_json(answer.artifact)
            if proof.conclusion.key() != seq.key():
                return "proof concludes a different sequent"
            checked = sequent.check_proof(onto, proof)
            if not checked.ok:
                return "round-tripped proof rejected: " + checked.message
        elif answer.verdict == "Refuted":
            model, assignment = semantics.model_from_dict(json.loads(answer.artifact))
            if not semantics.is_model(model, onto):
                return "counter-model is not a model of the ontology"
            lam = {lab: assignment[lab] for lab in seq.labels()}
            if not semantics.falsifies(model, lam, onto, seq):
                return "counter-model does not falsify the goal"
        return None
    if answer.verdict != "ok":
        return None
    concept = parser.parse_concept(answer.artifact, internal=True)
    if goal.kind == "interpolate":
        o1, o2 = parser.parse_ontology(goal.ontology), parser.parse_ontology(goal.ontology2)
        shared = cpt(o1, parser.parse_concept(goal.sub)) & \
            cpt(o2, parser.parse_concept(goal.sup))
        if not cpt(concept) <= shared:
            return "interpolant leaves the shared signature"
        if not answer.result.verification.ok:
            return "interpolant returned with a failed verification"
        return None
    if not cpt(concept) <= set(goal.theta):
        return "definition leaves theta"
    if not answer.result.report.ok:
        return "definition returned with a failed verification"
    return None


def oracle_disagrees(goal: Goal) -> Optional[str]:
    """For a proved subsume goal: a bounded counter-model search, exhaustive
    within the oracle's guard, must come back empty."""
    onto = parser.parse_ontology(goal.ontology)
    seq = prover.goal_sequent(onto, parser.parse_concept(goal.sub),
                              parser.parse_concept(goal.sup))
    try:
        hit = semantics.find_countermodel_bounded(onto, seq, max_domain=SPOT_CHECK_DOMAIN)
    except semantics.OracleGuardError:
        return None
    return None if hit is None else "proved, but the oracle found a counter-model"
