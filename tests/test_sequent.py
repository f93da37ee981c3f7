import dataclasses
import itertools
import json
import sys

import pytest

from riq.core import (
    AtLeast,
    ConceptName,
    GCI,
    NegatedName,
    RIA,
    Role,
    make_ontology,
    normalize_ontology,
)
from riq import sequent
from riq.parser import ParseError
from riq.rsystem import CflClosure, Production, build_rsystem
from riq.semantics import holds_antecedent, holds_consequent, is_model
from riq.sequent import (
    Eq,
    LabeledConcept,
    Neq,
    Proof,
    RoleAtom,
    RuleError,
    Sequent,
    SequentError,
    Witness,
    apply_rule,
    build_prop_graph,
    check_proof,
    eq_classes,
    make_sequent,
    proof_from_json,
    proof_size,
    proof_to_json,
    render_sequent,
    sequent_weight,
)
from conftest import (
    C,
    EMPTY_ONT,
    S,
    closure_reachable,
    expand_steps,
    prop_reachable,
    random_interpretation,
    substitute_label,
    weaken,
)

r = Role("r")
A, B = ConceptName("A"), ConceptName("B")

EXAMPLE_GAMMA = "r(x,y), r(x,z), r(x,w), z = w"


def classes(eq, seq):
    return {eq.class_of(lab) for lab in seq.labels()}


class TestEqClasses:
    def test_no_equalities(self):
        seq = S("r(x,y) |- x : A")
        assert classes(eq_classes(seq.antecedent), seq) == {frozenset("x"), frozenset("y")}
        assert seq.equalities() is None

    def test_example_partition(self):
        seq = S(f"{EXAMPLE_GAMMA} |- x : atleast 2 r . C")
        eq = eq_classes(seq.antecedent, seq.labels())
        assert classes(eq, seq) == {frozenset("x"), frozenset("y"), frozenset("zw")}
        assert eq.members("w") == ("z", "w") and eq.rep("w") == "z"
        assert classes(seq.equalities(), seq) == classes(eq, seq)

    def test_transitivity(self):
        seq = S("x = y, y = z |- x : A")
        assert classes(eq_classes(seq.antecedent), seq) == {frozenset("xyz")}

    def test_path_witness(self):
        eq = eq_classes(S("x = y, z = y |- x : A").antecedent)
        assert eq.path("x", "z") == ("x", "y", "z")
        assert eq.connected("x", "z")


rinv = Role("r", True)


class TestPropagationGraph:
    def test_example_nodes_and_edges(self):
        # one edge per role atom, between class representatives: z = w
        # makes r(x,z) and r(x,w) one edge, which the closure stores once
        seq = S(f"{EXAMPLE_GAMMA} |- x : atleast 2 r . C")
        edges = build_prop_graph(seq, seq.equalities())
        assert edges == (("x", r, "y"), ("x", r, "z"), ("x", r, "z"))
        reach = CflClosure(build_rsystem(EMPTY_ONT), edges).reach
        assert reach == {r: {("x", "y"), ("x", "z")}, rinv: {("y", "x"), ("z", "x")}}

    def test_empty_antecedent_single_node(self):
        seq = S("|- x : A")
        assert build_prop_graph(seq, seq.equalities()) == ()
        closure = CflClosure(build_rsystem(EMPTY_ONT), ())
        assert closure.reach == {} and closure.successors(r, "x") == ()

    def test_equality_merges_edge_endpoints(self):
        seq = S("x = y, r(y,z) |- x : A")
        assert build_prop_graph(seq, seq.equalities()) == (("x", r, "z"),)
        assert build_prop_graph(seq) == (("y", r, "z"),)

    def test_edge_symmetry_random(self, rng):
        # the closure holds each edge's inverse, so Reach(r-) is the
        # transpose of Reach(r), and every node is a class representative
        from conftest import random_concept

        g = build_rsystem(make_ontology([RIA((r, Role("s")), Role("t"))], ()))
        for _ in range(50):
            labels = ["x", "y", "z", "w"]
            atoms = [RoleAtom(r, "x", "y"), RoleAtom(Role("s"), "y", "z"),
                     RoleAtom(r, "y", "w")]
            if rng.random() < 0.5:
                atoms.append(Eq("z", "w"))
            seq = make_sequent(
                atoms, [LabeledConcept(rng.choice(labels), random_concept(rng, depth=2))])
            eq = seq.equalities()
            edges = build_prop_graph(seq, eq)
            assert len(edges) == 3
            reach = CflClosure(g, edges).reach
            for role, pairs in reach.items():
                assert reach[role.inverse()] == {(b, a) for a, b in pairs}
                for pair in pairs:
                    assert all(eq is None or eq.rep(lab) == lab for lab in pair)


class TestPropReachable:
    """The reference, `prop_reachable`, and the search's reading off the
    closure over `build_prop_graph`, `closure_reachable`, agree."""

    def test_example_reaches_two_classes(self):
        seq = S(f"{EXAMPLE_GAMMA} |- x : atleast 2 r . C")
        for reachable in (prop_reachable, closure_reachable):
            hits = reachable(seq, build_rsystem(EMPTY_ONT), r, "x")
            assert [target for target, _ in hits] == ["y", "z"]
            for _, wit in hits:
                assert wit.derivation == ()

    def test_empty_graph_nothing_reachable(self):
        for reachable in (prop_reachable, closure_reachable):
            assert reachable(S("|- x : some r . A"), build_rsystem(EMPTY_ONT), r, "x") == ()

    def test_chain_through_ria(self):
        ont = make_ontology([RIA((r, Role("s")), Role("t"))], ())
        seq = S("r(u,v), s(v,w) |- u : some t . A")
        g = build_rsystem(ont)
        for reachable in (prop_reachable, closure_reachable):
            hits = reachable(seq, g, Role("t"), "u")
            assert [target for target, _ in hits] == ["w"]
            assert hits[0][1].derivation == ((0, Production(Role("t"), (r, Role("s")))),)
            assert expand_steps(g, Role("t"), hits[0][1].derivation)[-1] == (r, Role("s"))
            assert hits[0][1].path == ("u", "v", "w")


class TestSequentInvariants:
    def test_tree_violation_rejected(self):
        with pytest.raises(SequentError):
            make_sequent([RoleAtom(r, "x", "y"), RoleAtom(r, "z", "y")],
                         [LabeledConcept("x", A)])

    def test_two_roots_rejected(self):
        with pytest.raises(SequentError):
            make_sequent([RoleAtom(r, "x", "y"), RoleAtom(r, "z", "w")],
                         [LabeledConcept("x", A)])

    def test_detached_cycle_rejected(self):
        with pytest.raises(SequentError, match="disconnected"):
            make_sequent([RoleAtom(r, "x", "y"), RoleAtom(r, "u", "v"),
                          RoleAtom(r, "v", "u")],
                         [LabeledConcept("x", A)])

    def test_consequent_labels_inside_antecedent(self):
        with pytest.raises(SequentError):
            make_sequent([RoleAtom(r, "x", "y")], [LabeledConcept("z", A)])

    def test_empty_antecedent_single_label(self):
        with pytest.raises(SequentError):
            make_sequent([], [LabeledConcept("x", A), LabeledConcept("y", B)])

    def test_every_constructor_validates(self):
        """No sequent skips the checks: not one built bare, nor a copy."""
        with pytest.raises(SequentError, match="duplicate parent"):
            Sequent((RoleAtom(r, "x", "y"), RoleAtom(r, "z", "y")),
                    (LabeledConcept("x", A),))
        with pytest.raises(SequentError, match="exactly one label"):
            dataclasses.replace(S("|- x : A"), consequent=(LabeledConcept("x", A),
                                                            LabeledConcept("y", A)))


class TestIncrementalValidation:
    """A premise made from its conclusion is checked only where it extends
    it; the full check is the fallback."""

    @pytest.fixture
    def full_checks(self, monkeypatch):
        checked = []
        validate = sequent._validate

        def counting(seq):
            checked.append(seq)
            return validate(seq)

        monkeypatch.setattr(sequent, "_validate", counting)
        return checked

    def test_a_leaf_extension_skips_the_full_check(self, full_checks):
        seq = S("r(x,y), r(y,z), z = y |- x : only r . A, y : B")
        full_checks.clear()
        inst = apply_rule(EMPTY_ONT, "forall", seq,
                          Witness(label="x", concept=C("only r . A"), fresh=("w",)))
        assert render_sequent(inst.premises[0]) == \
            "r(x,y), r(y,z), z = y, r(x,w) |- w : A, y : B"
        # and so does a premise that keeps its conclusion's antecedent
        premise = make_sequent(seq.antecedent, seq.consequent[1:], seq)
        assert premise.antecedent is seq.antecedent
        assert full_checks == []

    def test_a_role_atom_into_a_known_label_falls_back(self, full_checks):
        parent = S("r(x,y), r(x,z) |- x : A")
        with pytest.raises(SequentError, match="duplicate parent"):
            make_sequent(parent.antecedent + (RoleAtom(r, "y", "z"),),
                         parent.consequent, parent)
        assert len(full_checks) == 2

    def test_an_equality_naming_an_unknown_label_falls_back(self, full_checks):
        parent = S("r(x,y) |- x : A")
        full_checks.clear()
        # well-formed, as the full check finds
        made = make_sequent(parent.antecedent + (Eq("y", "q"),), parent.consequent, parent)
        assert full_checks == [made]
        with pytest.raises(SequentError, match="must occur in the antecedent"):
            make_sequent((Eq("q", "w"),), parent.consequent, S("|- x : A"))

    def test_an_empty_antecedent_keeps_one_label(self, full_checks):
        parent = S("|- x : A")
        with pytest.raises(SequentError, match="exactly one label"):
            make_sequent((), parent.consequent + (LabeledConcept("y", B),), parent)
        assert len(full_checks) == 2

    def test_the_parent_is_not_part_of_the_sequent(self):
        parent = S("r(x,y) |- x : A")
        atoms = parent.antecedent + (RoleAtom(r, "y", "z"),)
        cons = (LabeledConcept("z", B),)
        made, bare = make_sequent(atoms, cons, parent), make_sequent(atoms, cons)
        assert made == bare and hash(made) == hash(bare)
        assert repr(made) == repr(bare)
        assert [f.name for f in dataclasses.fields(Sequent)] == ["antecedent", "consequent"]


class TestApplyRule:
    def test_example_atleast_three_premises(self):
        # the worked propagation example: two value premises and one merge
        seq = S(f"{EXAMPLE_GAMMA} |- x : atleast 2 r . C")
        hits = closure_reachable(seq, build_rsystem(EMPTY_ONT), r, "x")
        assert hits == prop_reachable(seq, build_rsystem(EMPTY_ONT), r, "x")
        witness = Witness(
            label="x", concept=C("atleast 2 r . C"),
            targets=tuple(t for t, _ in hits),
            paths=tuple(w.path for _, w in hits),
            derivations=tuple(w.derivation for _, w in hits),
        )
        inst = apply_rule(EMPTY_ONT, "atleast", seq, witness)
        rendered = [render_sequent(p) for p in inst.premises]
        assert rendered == [
            f"{EXAMPLE_GAMMA} |- y : C, x : atleast 2 r . C",
            f"{EXAMPLE_GAMMA} |- z : C, x : atleast 2 r . C",
            f"{EXAMPLE_GAMMA}, y = z |- x : atleast 2 r . C",
        ]

    def test_or_shape(self):
        seq = S("|- x : A or B")
        inst = apply_rule(EMPTY_ONT, "or", seq, Witness(label="x", concept=C("A or B")))
        assert [render_sequent(p) for p in inst.premises] == ["|- x : A, x : B"]

    def test_id_eq_zero_premises(self):
        seq = S("x = y, x != y |- x : A")
        inst = apply_rule(EMPTY_ONT, "id_eq", seq,
                          Witness(pair=("x", "y"), eq_path=("x", "y")))
        assert inst.premises == ()

    def test_forall_introduces_fresh_label_and_gcis(self):
        ont = normalize_ontology([GCI(A, B)], [])
        seq = S("|- x : only r . A")
        inst = apply_rule(ont, "forall", seq,
                          Witness(label="x", concept=C("only r . A"), fresh=("y",)))
        premise = inst.premises[0]
        assert RoleAtom(r, "x", "y") in premise.antecedent
        assert ("y", A) in premise.concept_set()
        assert ("y", C("A and not B")) in premise.concept_set()

    def test_forall_rejects_stale_label(self):
        seq = S("|- x : only r . A")
        with pytest.raises(RuleError):
            apply_rule(EMPTY_ONT, "forall", seq,
                       Witness(label="x", concept=C("only r . A"), fresh=("x",)))

    def test_atmost_adds_inequalities(self):
        seq = S("|- x : atmost 1 r . A")
        inst = apply_rule(EMPTY_ONT, "atmost", seq,
                          Witness(label="x", concept=C("atmost 1 r . A"),
                                  fresh=("y0", "y1")))
        premise = inst.premises[0]
        assert Neq("y0", "y1") in premise.antecedent
        assert ("y0", NegatedName("A")) in premise.concept_set()
        assert ("y1", NegatedName("A")) in premise.concept_set()

    def test_exists_requires_propagation_witness(self):
        seq = S("r(x,y) |- x : some s . A")
        with pytest.raises(RuleError):
            apply_rule(EMPTY_ONT, "exists", seq,
                       Witness(label="x", concept=C("some s . A"), target="y",
                               paths=(("x", "y"),), derivations=((),)))

    def test_exists_rejects_a_negative_position(self):
        # read as a slice, position -1 would insert r before the s and give
        # the string r s, which labels the path x, y, z
        ont = make_ontology([RIA((r,), Role("s"))], ())
        seq = S("r(x,y), s(y,z) |- x : some s . A")
        step = (-1, Production(Role("s"), (r,)))
        with pytest.raises(RuleError, match="position -1 is outside the string"):
            apply_rule(ont, "exists", seq,
                       Witness(label="x", concept=C("some s . A"), target="z",
                               paths=(("x", "y", "z"),), derivations=((step,),)))

    def test_atleast_zero_closes(self):
        seq = S("|- x : atleast 0 r . A")
        inst = apply_rule(EMPTY_ONT, "atleast", seq,
                          Witness(label="x", concept=AtLeast(0, r, A)))
        assert inst.premises == ()


class TestProofChecking:
    def hand_proof(self):
        # |- x : A or not A closed by (or) then (id); size 3 + 2 = 5
        conclusion = S("|- x : A or not A")
        or_inst = apply_rule(EMPTY_ONT, "or", conclusion,
                             Witness(label="x", concept=C("A or not A")))
        id_inst = apply_rule(EMPTY_ONT, "id", or_inst.premises[0],
                             Witness(label="x", concept=A))
        return Proof(or_inst, (Proof(id_inst, ()),))

    def test_hand_proof_checks(self):
        proof = self.hand_proof()
        assert check_proof(EMPTY_ONT, proof).ok
        assert proof_size(proof) == 5

    def test_corrupted_propagation_witness_fails_at_node(self):
        ont = make_ontology([RIA((r,), Role("s"))], ())
        from riq.prover import Proved, subsumes

        result = subsumes(ont, C("some r . A"), C("some s . A"))
        assert isinstance(result, Proved)
        assert check_proof(ont, result.proof).ok

        def corrupt(node):
            inst = node.instance
            if inst.rule == "exists":
                # s -> zz is not in the R-system
                step = (0, Production(Role("s"), (Role("zz"),)))
                bogus = dataclasses.replace(inst.witness, derivations=((step,),))
                return Proof(dataclasses.replace(inst, witness=bogus), node.children)
            return Proof(inst, tuple(corrupt(ch) for ch in node.children))

        bad = corrupt(result.proof)
        verdict = check_proof(ont, bad)
        assert not verdict.ok
        assert "exists" in verdict.message and "not in the R-system" in verdict.message

    def test_wrong_premise_fails(self):
        proof = self.hand_proof()
        id_inst = proof.children[0].instance
        tampered = dataclasses.replace(
            id_inst, conclusion=S("|- x : A, x : not A, x : B"))
        bad = Proof(proof.instance, (Proof(tampered, ()),))
        assert not check_proof(EMPTY_ONT, bad).ok

    def test_json_roundtrip_still_checks(self):
        proof = self.hand_proof()
        again = proof_from_json(proof_to_json(proof))
        assert check_proof(EMPTY_ONT, again).ok
        assert render_sequent(again.conclusion) == render_sequent(proof.conclusion)

    def test_failure_blames_the_corrupted_node(self):
        # (and) over two excluded middles; corrupt the (id) under the second
        conclusion = S("|- x : (A or not A) and (B or not B)")
        and_inst = apply_rule(EMPTY_ONT, "and", conclusion,
                              Witness(label="x", concept=C("(A or not A) and (B or not B)")))
        branches = []
        for premise, name in zip(and_inst.premises, "AB"):
            disjunction = C(f"{name} or not {name}")
            or_inst = apply_rule(EMPTY_ONT, "or", premise,
                                 Witness(label="x", concept=disjunction))
            id_inst = apply_rule(EMPTY_ONT, "id", or_inst.premises[0],
                                 Witness(label="x", concept=ConceptName(name)))
            branches.append(Proof(or_inst, (Proof(id_inst, ()),)))
        proof = Proof(and_inst, tuple(branches))
        assert check_proof(EMPTY_ONT, proof).ok
        leaf = branches[1].children[0]
        bogus = Proof(dataclasses.replace(
            leaf.instance, witness=Witness(label="x", concept=A)), ())
        bad = Proof(and_inst, (branches[0], Proof(branches[1].instance, (bogus,))))
        verdict = check_proof(EMPTY_ONT, bad)
        assert not verdict.ok
        assert verdict.path == (1, 0)
        assert verdict.message.startswith("id: ")
        assert check_proof(EMPTY_ONT, proof_from_json(proof_to_json(bad))).path == (1, 0)

    def test_nodes_in_pre_order(self):
        proof = self.hand_proof()
        assert [node.instance.rule for node in proof.nodes()] == ["or", "id"]

    def test_v3_layout(self):
        data = json.loads(proof_to_json(self.hand_proof()))
        assert (data["format"], data["version"]) == ("riq-proof", 3)
        assert [n["rule"] for n in data["nodes"]] == ["id", "or"]
        assert [n["premises"] for n in data["nodes"]] == [[], [0]]
        assert data["nodes"][-1]["sequent"] == "|- x : A or not A"


class TestDeepProofs:
    def test_depth_beyond_the_recursion_limit(self):
        # C <= C for a 510-way disjunction: one (or) step per disjunct on
        # each side, so the proof is deeper than the default recursion limit
        from riq.prover import Proved, subsumes

        big = C(" or ".join(f"A{i}" for i in range(510)))
        result = subsumes(EMPTY_ONT, big, big)
        assert isinstance(result, Proved)
        depth = {id(result.proof): 1}
        for node in result.proof.nodes():
            for child in node.children:
                depth[id(child)] = depth[id(node)] + 1
        assert max(depth.values()) > sys.getrecursionlimit() == 1000
        assert check_proof(EMPTY_ONT, result.proof).ok
        text = proof_to_json(result.proof)
        again = proof_from_json(text)
        assert proof_to_json(again) == text
        # read back, the proof shares no concept objects with its goal
        assert check_proof(EMPTY_ONT, again).ok
        assert result.proof == result.proof and result.proof != again
        assert len({result.proof, again}) == 2
        assert repr(result.proof).startswith("<riq.sequent.Proof object")


#: witnesses of a one-node (exists) proof that break the version 3 format
_GOOD = {"label": "x", "concept": "some r . A", "target": "y", "paths": [["x", "y"]]}
MALFORMED_WITNESSES = {
    "witness-strings": dict(_GOOD, strings=[["r"]], derivations=[[]]),
    "witness-not-an-object": [_GOOD],
    "label-not-a-string": dict(_GOOD, label=["x"], derivations=[[]]),
    "paths-a-string": dict(_GOOD, paths="xy", derivations=[[]]),
    "derivations-not-a-list": dict(_GOOD, derivations={"0": []}),
    "step-not-a-list": dict(_GOOD, derivations=[[0, "r", "r"]]),
    "step-negative-position": dict(_GOOD, derivations=[[[-1, "r", "r"]]]),
    "step-position-not-an-int": dict(_GOOD, derivations=[[["0", "r", "r"]]]),
    "step-position-a-bool": dict(_GOOD, derivations=[[[False, "r", "r"]]]),
    "step-without-rhs": dict(_GOOD, derivations=[[[0, "r"]]]),
    "step-role-not-a-string": dict(_GOOD, derivations=[[[0, "r", 5]]]),
    "step-role-not-a-name": dict(_GOOD, derivations=[[[0, "r", "r s"]]]),
}


class TestMalformedProofFiles:
    @pytest.mark.parametrize("payload", [
        "[1, 2]",
        "not json",
        json.dumps({"format": "riq-proof", "version": 1}),
        json.dumps({"format": "riq-proof", "version": 3}),
        json.dumps({"format": "riq-proof", "version": 3, "nodes": []}),
        json.dumps({"format": "riq-proof", "version": 3, "nodes": [1]}),
        json.dumps({"format": "riq-proof", "version": 3,
                    "nodes": [{"sequent": "|- x : A"}]}),
        json.dumps({"format": "riq-proof", "version": 3,
                    "nodes": [{"rule": "id"}]}),
        json.dumps({"format": "riq-proof", "version": 3,
                    "nodes": [{"rule": "id", "sequent": "|- x : A", "premises": [0]}]}),
        json.dumps({"format": "riq-proof", "version": 3,
                    "nodes": [{"rule": "id", "sequent": "|- x : A", "premises": [1]}]}),
        json.dumps({"format": "riq-proof", "version": 3,
                    "nodes": [{"rule": "id", "sequent": "|- x : A", "premises": [-1]}]}),
        json.dumps({"format": "riq-proof", "version": 3, "nodes": [
            {"rule": "id", "sequent": "|- x : A"},
            {"rule": "and", "sequent": "|- x : A", "premises": [0, 0]}]}),
        json.dumps({"format": "riq-proof", "version": 3, "nodes": [
            {"rule": "id", "sequent": "|- x : A"},
            {"rule": "id", "sequent": "|- x : A"}]}),
        json.dumps({"format": "riq-proof", "version": 3, "nodes": [
            {"rule": "id", "sequent": "|- x : A"},
            {"rule": "or", "sequent": "|- x : A", "premises": 0}]}),
    ] + [json.dumps({"format": "riq-proof", "version": 3, "nodes": [
        {"rule": "exists", "sequent": "r(x,y) |- x : some r . A", "witness": witness}]})
        for witness in MALFORMED_WITNESSES.values()],
        ids=["array", "not-json", "v1", "no-nodes", "empty-nodes", "node-not-object",
             "no-rule", "no-sequent", "self-premise", "later-premise", "negative-premise",
             "shared-premise", "orphan-node", "premises-not-a-list"]
        + list(MALFORMED_WITNESSES))
    def test_parse_error(self, payload):
        with pytest.raises(ParseError):
            proof_from_json(payload)

    def test_the_malformed_witnesses_break_a_readable_one(self):
        proof = proof_from_json(json.dumps({"format": "riq-proof", "version": 3, "nodes": [
            {"rule": "exists", "sequent": "r(x,y) |- x : some r . A",
             "witness": dict(_GOOD, derivations=[[[0, "r", "r"]]])}]}))
        assert proof.instance.witness.derivations == (((0, Production(r, (r,))),),)


class TestSubstitutionAndWeakening:
    def test_substitute_example(self):
        seq = S("r(x,y), x != y |- y : A")
        assert render_sequent(substitute_label(seq, "z", "y")) == \
            "r(x,z), x != z |- z : A"

    def test_substitute_identity(self):
        seq = S("r(x,y) |- x : A")
        assert substitute_label(seq, "x", "x") == seq

    def test_substitute_empty_antecedent(self):
        assert render_sequent(substitute_label(S("|- y : A"), "x", "y")) == "|- x : A"

    def test_substitute_breaking_tree_rejected(self):
        seq = S("r(x,y), s(z,y2), r(y,z) |- x : A")
        with pytest.raises(SequentError):
            substitute_label(seq, "x", "z")

    def test_weaken_inequality(self):
        seq = S("r(x,y) |- x : A")
        assert render_sequent(weaken(seq, Neq("x", "y"))) == "r(x,y), x != y |- x : A"

    def test_weaken_concept_occurrence(self):
        seq = S("r(x,y) |- x : A")
        grown = weaken(seq, LabeledConcept("y", B))
        assert ("y", B) in grown.concept_set()

    def test_weaken_fresh_label_rejected(self):
        with pytest.raises(SequentError):
            weaken(S("r(x,y) |- x : A"), LabeledConcept("z", B))


class TestWeights:
    def test_single_concept(self):
        assert sequent_weight(S("|- x : A")) == 1

    def test_atoms_count(self):
        assert sequent_weight(S("r(x,y) |- x : A, y : B")) == 3

    def test_example_weight(self):
        assert sequent_weight(S("|- x : A, x : not A")) == 2
        assert sequent_weight(S("|- x : A or not A")) == 3


class TestRuleSoundness:
    """Per-interpretation truth preservation for every emitted rule instance
    (the desk-scale soundness check): if all premises are true in a model of
    the ontology under every assignment, so is the conclusion."""

    def _truth(self, i, ont, seq):
        labels = seq.labels()
        for values in itertools.product(i.domain, repeat=len(labels)):
            lam = dict(zip(labels, values))
            if holds_antecedent(i, lam, seq) and not holds_consequent(i, lam, seq):
                return False
        return True

    def test_rule_instances_preserve_truth(self, rng):
        from riq.prover import Proved, subsumes

        ont_plain = EMPTY_ONT
        ont_ria = make_ontology([RIA((r,), Role("s"))], ())
        cases = [
            (ont_plain, C("A and B"), C("A or B")),
            (ont_plain, C("atleast 2 r . A"), C("atleast 1 r . A")),
            (ont_ria, C("some r . A"), C("some s . A")),
            (ont_plain, C("A"), C("only r . some r- . A")),
            (ont_plain, C("atmost 0 r . A"), C("only r . not A")),
        ]
        instances = []
        for ont, sub, sup in cases:
            result = subsumes(ont, sub, sup)
            assert isinstance(result, Proved)
            for node in result.proof.nodes():
                instances.append((ont, node.instance))
        assert len(instances) >= 10
        for ont, inst in instances:
            if len(inst.conclusion.labels()) > 4:
                continue
            for _ in range(6):
                i = random_interpretation(rng, names=("A", "B"),
                                          roles=("r", "s"), max_domain=2)
                if not is_model(i, ont):
                    continue
                if all(self._truth(i, ont, p) for p in inst.premises):
                    assert self._truth(i, ont, inst.conclusion), \
                        f"{inst.rule} broke truth preservation"

    def test_fresh_labels_never_in_conclusion(self):
        from riq.prover import Proved, subsumes

        result = subsumes(EMPTY_ONT, C("A"), C("only r . some r- . A"))
        assert isinstance(result, Proved)
        for node in result.proof.nodes():
            fresh = node.instance.witness.fresh
            assert all(lab not in node.conclusion.labels() for lab in fresh)
