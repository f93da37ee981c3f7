"""Reasoning toolkit for the description logic RIQ: sequent-calculus proof
search for ontology-mediated subsumption, checkable proofs and finite
counter-models, concept interpolation, and explicit definitions of
implicitly definable concepts."""

from .core import (
    And,
    AtLeast,
    AtMost,
    BOT,
    Concept,
    ConceptName,
    Exists,
    Forall,
    GCI,
    NegatedName,
    Not,
    Ontology,
    Or,
    RIA,
    RiqError,
    Role,
    Signature,
    TOP,
    cpt,
    find_regular_order,
    is_simple,
    make_ontology,
    nnf_negate,
    normalize_ontology,
    signature_of,
    to_nnf,
    union_ontology,
    weight,
)
from .parser import ParseError, parse_concept, parse_ontology, render
from .prover import (
    Proved,
    ProveResult,
    Refuted,
    SearchLimits,
    Unknown,
    extract_countermodel,
    prove,
    subsumes,
)
from .rsystem import Production, RSystem, build_rsystem
from .semantics import (
    Interpretation,
    find_countermodel_bounded,
    interpret_concept,
    is_model,
    ria_closure,
    seq_satisfied,
)
from .sequent import (
    Eq,
    LabeledConcept,
    Neq,
    Proof,
    RoleAtom,
    Sequent,
    apply_rule,
    build_prop_graph,
    check_proof,
    eq_classes,
    make_sequent,
    parse_sequent,
    proof_from_json,
    proof_size,
    proof_to_json,
    render_sequent,
    sequent_weight,
)

__version__ = "0.1.0"
