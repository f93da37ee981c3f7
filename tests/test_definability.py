import pytest

from riq.core import (
    ConceptName,
    GCI,
    RIA,
    Role,
    TOP,
    cpt,
    normalize_ontology,
    union_ontology,
)
from riq.definability import (
    DefinabilityError,
    explicit_definition,
    is_implicitly_definable,
    rename_concept,
    rename_outside_theta,
    verify_definition,
)
from riq import definability
from riq.prover import Proved, Refuted, SearchLimits, Unknown, goal_sequent
from riq.semantics import OracleGuardError, find_countermodel_bounded
from riq.sequent import check_proof
from conftest import C, EMPTY_ONT

A, B = ConceptName("A"), ConceptName("B")
LIMITS = SearchLimits(max_steps=20000, max_labels=200, max_seconds_hint=60)


def equivalence_ontology():
    return normalize_ontology([GCI(A, B), GCI(B, A)], [])


def assert_no_small_countermodel(ont, concept, definition):
    """Differential check: the bounded oracle finds no counter-model to
    either direction of a returned definition (skipped beyond its guard)."""
    try:
        for sub, sup in ((concept, definition), (definition, concept)):
            assert find_countermodel_bounded(ont, goal_sequent(ont, sub, sup), 3) is None
    except OracleGuardError:
        pass


class TestRenaming:
    def test_names_outside_theta_primed(self):
        ont = normalize_ontology([GCI(A, B)], [])
        o_theta, c_theta, renaming = rename_outside_theta(ont, A, ["B"])
        assert c_theta == ConceptName("A'")
        assert cpt(o_theta) == {"A'", "B"}
        assert renaming.mapping == {"A": "A'"}

    def test_full_theta_is_identity(self):
        ont = normalize_ontology([GCI(A, B)], [])
        o_theta, c_theta, renaming = rename_outside_theta(ont, A, ["A", "B"])
        assert o_theta.tbox == ont.tbox
        assert c_theta == A
        assert renaming.mapping == {}

    def test_empty_theta_primes_everything(self):
        ont = normalize_ontology([GCI(A, B)], [])
        o_theta, c_theta, _ = rename_outside_theta(ont, A, [])
        assert cpt(o_theta, c_theta) == {"A'", "B'"}

    def test_theta_outside_signature_rejected(self):
        with pytest.raises(DefinabilityError):
            rename_outside_theta(EMPTY_ONT, A, ["Z"])

    def test_roles_untouched(self):
        ont = normalize_ontology([GCI(A, C("some r . B"))],
                                 [RIA((Role("r"),), Role("s"))])
        o_theta, _, _ = rename_outside_theta(ont, A, [])
        assert o_theta.rbox == ont.rbox

    def test_roundtrip_through_inverse(self):
        ont = normalize_ontology([GCI(A, C("some r . B"))], [])
        o_theta, c_theta, renaming = rename_outside_theta(ont, A, ["B"])
        inverse = renaming.inverse()
        assert rename_concept(c_theta, inverse) == A
        back = tuple(GCI(g.lhs, rename_concept(g.rhs, inverse)) for g in o_theta.tbox)
        assert back == ont.tbox


class TestImplicitDefinability:
    def test_equivalence_makes_a_definable_from_b(self):
        ont = equivalence_ontology()
        result = is_implicitly_definable(ont, A, ["B"], LIMITS)
        assert isinstance(result, Proved)
        o_theta, _, _ = rename_outside_theta(ont, A, ["B"])
        assert check_proof(union_ontology(ont, o_theta), result.proof).ok

    def test_unconstrained_name_not_definable(self):
        result = is_implicitly_definable(EMPTY_ONT, A, [], LIMITS)
        assert isinstance(result, Refuted)

    def test_self_definable(self):
        result = is_implicitly_definable(EMPTY_ONT, B, ["B"], LIMITS)
        assert isinstance(result, Proved)


def assert_proofs_check(ont, concept, theta, result):
    """The split proof checks over O u O_theta, and both verification
    proofs over O: the reference re-derivation the pipeline does not make."""
    o_theta, _, _ = rename_outside_theta(ont, concept, theta)
    split = result.interpolation.prove_result
    assert check_proof(union_ontology(ont, o_theta), split.proof).ok
    for proved in (result.report.forward, result.report.backward):
        assert check_proof(ont, proved.proof).ok


class TestExplicitDefinition:
    def test_equivalence_yields_definition_over_b(self):
        result = explicit_definition(equivalence_ontology(), A, ["B"], LIMITS)
        assert result.status == "ok"
        assert cpt(result.definition) <= {"B"}
        assert result.report.ok
        assert_proofs_check(equivalence_ontology(), A, ["B"], result)
        assert_no_small_countermodel(equivalence_ontology(), A, result.definition)

    def test_self_definition(self):
        result = explicit_definition(EMPTY_ONT, B, ["B"], LIMITS)
        assert result.status == "ok"
        assert cpt(result.definition) <= {"B"}
        assert_proofs_check(EMPTY_ONT, B, ["B"], result)
        assert_no_small_countermodel(EMPTY_ONT, B, result.definition)

    def test_not_definable_reported(self):
        result = explicit_definition(EMPTY_ONT, A, [], LIMITS)
        assert result.status == "not-definable"
        assert isinstance(result.implicit, Refuted)

    def test_defined_by_quantified_pattern(self):
        # A is forced equivalent to (B and some r . B) by the two inclusions
        body = C("B and some r . B")
        ont = normalize_ontology([GCI(A, body), GCI(body, A)], [])
        result = explicit_definition(ont, A, ["B"], LIMITS)
        assert result.status == "ok"
        assert cpt(result.definition) <= {"B"}
        assert_proofs_check(ont, A, ["B"], result)
        assert_no_small_countermodel(ont, A, result.definition)


class TestOneSearchPerFact:
    def test_pipeline_makes_three_searches(self, searches):
        result = explicit_definition(equivalence_ontology(), A, ["B"], LIMITS)
        assert result.status == "ok"
        assert len(searches) == 3  # the split goal and two directions


class TestVerifyDefinition:
    def test_pipeline_definitions_pass(self):
        result = explicit_definition(equivalence_ontology(), A, ["B"], LIMITS)
        report = verify_definition(equivalence_ontology(), A, result.definition,
                                   ["B"], LIMITS)
        assert report.ok

    def test_signature_violation(self):
        report = verify_definition(equivalence_ontology(), A, A, ["B"], LIMITS)
        assert not report.signature_ok

    def test_wrong_definition_fails_direction(self):
        report = verify_definition(equivalence_ontology(), A, TOP, ["B"], LIMITS)
        assert not report.ok
        assert not isinstance(report.backward, Proved)


class TestInconclusiveVerification:
    def test_bounded_definition_check_gives_unknown(self, monkeypatch):
        # the definition's own check runs out of steps after the pipeline
        verify = definability.verify_definition
        monkeypatch.setattr(
            definability, "verify_definition",
            lambda o, c, d, theta, limits: verify(o, c, d, theta,
                                                  SearchLimits(max_steps=1)))
        result = explicit_definition(equivalence_ontology(), A, ["B"], LIMITS)
        assert result.status == "unknown"
        assert result.report.inconclusive
        assert isinstance(result.report.forward, Unknown)
        assert result.definition is None

    def test_failed_definition_check_still_raises(self, monkeypatch):
        verify = definability.verify_definition
        monkeypatch.setattr(
            definability, "verify_definition",
            lambda o, c, d, theta, limits: verify(o, c, TOP, theta, limits))
        with pytest.raises(DefinabilityError, match="verification failed"):
            explicit_definition(equivalence_ontology(), A, ["B"], LIMITS)
