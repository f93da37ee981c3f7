import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riq
from riq import prover, sequent
from riq.core import GCI, RIA, And, Or, Role, TOP, make_ontology, normalize_ontology
from riq.prover import (
    CountermodelError,
    Proved,
    Refuted,
    SearchLimits,
    Unknown,
    goal_sequent,
    prove,
    subsumes,
)
from riq.rsystem import CflClosure
from riq.semantics import falsifies, find_countermodel_bounded, is_model
from riq.sequent import (
    RoleAtom,
    RuleError,
    SequentError,
    check_proof,
    proof_from_json,
    proof_to_json,
    walk,
)
from conftest import C, EMPTY_ONT, S, random_goal, random_ontology

r, s, t = Role("r"), Role("s"), Role("t")
LIMITS = SearchLimits(max_steps=5000, max_labels=100, max_seconds_hint=30)

#: every r-successor has two r-successors outside A (catalogue goal 110 of
#: the benchmark's subsume-random workload)
SPLITTING_ONT = normalize_ontology(
    [GCI(TOP, C("only r . (atleast 2 r . not A)")),
     GCI(TOP, C("only r . (A or not A)"))], [])


class TestProve:
    def test_or_identity(self):
        result = prove(EMPTY_ONT, S("|- x : not A or (A or B)"), LIMITS)
        assert isinstance(result, Proved)
        assert check_proof(EMPTY_ONT, result.proof).ok

    def test_saturation_gives_countermodel(self):
        result = prove(EMPTY_ONT, goal_sequent(EMPTY_ONT, C("A"), C("B")), LIMITS)
        assert isinstance(result, Refuted)
        i = result.interpretation
        d = result.assignment["x0"]
        assert d in i.concepts["A"] and d not in i.concepts["B"]
        assert len(i.domain) == 1

    def test_ria_propagation_closes(self):
        ont = make_ontology([RIA((r,), s)], ())
        result = subsumes(ont, C("some r . A"), C("some s . A"), LIMITS)
        assert isinstance(result, Proved)
        assert check_proof(ont, result.proof).ok

    def test_goal_labels_get_their_gcis(self):
        # the goal lacks the GCI occurrences `only r . not A` on x and y;
        # the search adds them, so x and y get their successors in A
        ont = normalize_ontology([GCI(TOP, C("some r . A"))], [])
        goal = S("r(x,y) |- x : B, y : B")
        result = prove(ont, goal, LIMITS)
        assert isinstance(result, Refuted)
        i = result.interpretation
        assert is_model(i, ont)
        assert falsifies(i, result.assignment, ont, goal)

    def test_unknown_on_tight_budget(self):
        # every r-successor needs two r-successors of its own, and folding
        # that tree onto an earlier label gives no model, so the labels run out
        result = subsumes(SPLITTING_ONT, C("atleast 1 r . E"),
                          C("(A and not E) or B"),
                          SearchLimits(max_steps=2000, max_labels=6,
                                       max_seconds_hint=30))
        assert isinstance(result, Unknown)
        assert "limit" in result.reason


@pytest.fixture
def failed_folds(monkeypatch):
    """The blocks of every fold that fails the counter-model check."""
    failures = []
    extract = prover.extract_countermodel

    def counting(*args):
        try:
            return extract(*args)
        except CountermodelError:
            failures.append(args[-1])
            raise

    monkeypatch.setattr(prover, "extract_countermodel", counting)
    return failures


class TestBlocking:
    def test_endless_chain_folds_into_a_loop(self):
        # every element needs an r-successor in A: the first successor x1
        # carries a subset of the goal label's concepts, so it is blocked
        # by x0 at once and the model is x0 with an r-loop
        ont = normalize_ontology([GCI(TOP, C("some r . A"))], [])
        result = subsumes(ont, C("A"), C("B"),
                          SearchLimits(max_steps=2000, max_labels=6,
                                       max_seconds_hint=30))
        assert isinstance(result, Refuted)
        i = result.interpretation
        assert i.domain == ("x0",)
        assert i.roles["r"] == {("x0", "x0")}
        assert is_model(i, ont)
        goal = goal_sequent(ont, C("A"), C("B"))
        assert falsifies(i, {"x0": result.assignment["x0"]}, ont, goal)

    def test_a_failed_fold_is_dropped(self, failed_folds):
        # the blocked labels' folds are no models of the ontology: the
        # branch retires those blocks and expands, and the labels run out
        result = subsumes(SPLITTING_ONT, C("atleast 1 r . E"),
                          C("(A and not E) or B"), SearchLimits(100, 8))
        assert result == Unknown("label limit reached")
        assert failed_folds and all(failed_folds)

    def test_a_failed_weak_block_keeps_the_sound_ones(self, failed_folds):
        # catalogue goal 180 of the subsume-random workload: a fold whose
        # block between siblings fails retires that block alone, and the
        # blocks onto an ancestor with the same concepts stay, so a later
        # fold is a model within the benchmark's budget
        ont = normalize_ontology(
            [GCI(TOP, C("some s- . (atleast 2 r- . A)"))],
            [RIA((Role("r", True),), s)])
        sub = C("(atmost 2 r . A) and (atmost 2 r- . not B)")
        result = subsumes(ont, sub, C("B"), SearchLimits(100, 8))
        assert isinstance(result, Refuted)
        assert failed_folds
        i = result.interpretation
        assert is_model(i, ont)
        goal = goal_sequent(ont, sub, C("B"))
        assert falsifies(i, {"x0": result.assignment["x0"]}, ont, goal)

    def test_goal_labels_are_never_blocked(self):
        # y repeats x's concepts, but the counter-model must interpret it;
        # the successors x0 and x1 make fresh labels, so blocking runs, and
        # x1 is blocked by x0, which carries its concepts
        ont = normalize_ontology([GCI(TOP, C("some r . A"))], [])
        goal = S("r(x,y) |- x : only r . not A, y : only r . not A, "
                 "x : B, y : B")
        result = prove(ont, goal, LIMITS)
        assert isinstance(result, Refuted)
        assert set(result.assignment) == {"x", "y", "x0"}
        i = result.interpretation
        assert i.roles["r"] == {("x", "y"), ("x", "x0"), ("y", "x0"),
                                ("x0", "x0")}
        assert is_model(i, ont)
        assert falsifies(i, result.assignment, ont, goal)

    def test_the_walk_up_stops_at_goal_labels(self):
        # goal role atoms form a tree, so `r(x,x)` is no goal; the walk up
        # from a fresh label ends at a goal label without relying on that
        with pytest.raises(SequentError):
            S("r(x,x) |- x : atmost 1 r . A")
        search = prover._Search(EMPTY_ONT, LIMITS)
        search.goal_labels = ("x",)
        seq = SimpleNamespace(antecedent=(
            RoleAtom(r, "x", "x"), RoleAtom(r, "x", "x0"), RoleAtom(r, "x", "x1")))
        delta_star = frozenset({("x", C("A")), ("x0", C("B")), ("x1", C("B"))})
        # x1 is blocked by its sibling x0, which is no ancestor: a weak block
        assert search.blocking(seq, delta_star, frozenset()) \
            == ({"x1": "x0"}, {"x1"}, {("x1", "x0")})
        assert search.blocking(seq, delta_star, frozenset({("x1", "x0")})) \
            == ({}, set(), set())

    def test_grouping_is_rebuilt_off_the_branch(self):
        # `blocking` adds to its grouping of the last call's occurrences
        # only when the branch grew from them; another branch regroups
        search = prover._Search(EMPTY_ONT, LIMITS)
        search.goal_labels = ("x",)
        seq = SimpleNamespace(antecedent=(RoleAtom(r, "x", "x0"),
                                          RoleAtom(r, "x", "x1")))
        grown = frozenset({("x", C("A")), ("x0", C("B")), ("x1", C("B"))})
        sibling = frozenset({("x", C("A")), ("x0", C("E")), ("x1", C("B"))})
        assert search.blocking(seq, grown, frozenset())[0] == {"x1": "x0"}
        assert search.blocking(seq, sibling, frozenset())[0] == {}
        assert search.blocking(seq, sibling | {("x0", C("B"))},
                               frozenset())[0] == {"x1": "x0"}


class TestTimeBudget:
    @pytest.mark.parametrize("readings_on_time", [1, 3])
    def test_deadline_stops_the_search(self, monkeypatch, readings_on_time):
        """The goal is proved with six rule applications.  The fake clock
        is past the hint from its reading readings_on_time + 1 on (the first
        reading starts the clock); from then on the search must apply no
        rule, and it answers Unknown."""
        readings = []

        def clock():
            readings.append(None)
            return 0.0 if len(readings) <= readings_on_time else 31.0

        applied = []

        def counting(rule_builder):
            def counted(*args):
                applied.append(len(readings))
                return rule_builder(*args)
            return counted

        monkeypatch.setattr(prover, "time", SimpleNamespace(monotonic=clock))
        # the search builds its steps; only assembly applies rules
        monkeypatch.setattr(prover, "apply_rule", counting(prover.apply_rule))
        monkeypatch.setattr(prover, "build_instance", counting(prover.build_instance))
        ont = make_ontology([RIA((r, s), t)], ())
        result = subsumes(ont, C("some r . some s . (A and B)"),
                          C("some t . A"), LIMITS)
        assert result == Unknown("time limit reached")
        assert all(n <= readings_on_time for n in applied)


class TestNoGlobalState:
    def test_search_leaves_the_recursion_limit_alone(self, monkeypatch):
        def forbidden(limit):
            raise AssertionError(f"setrecursionlimit({limit}) called")

        monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
        ont = make_ontology([RIA((r, s), t)], ())
        result = subsumes(ont, C("some r . some s . A"), C("some t . A"), LIMITS)
        assert isinstance(result, Proved)


#: a 12-deep existential chain that the RIAs `r o r <= r, r <= t` collapse
#: onto one t-step: a proof search of 39 expanded nodes
CHAIN_ONT = make_ontology([RIA((r, r), r), RIA((r,), t)], ())
CHAIN_SUB = "A"
for _ in range(12):
    CHAIN_SUB = f"some r . ({CHAIN_SUB})"


def counting_budget(monkeypatch, expanded):
    """Append to `expanded` once per budget step, that is, per expanded node."""
    budget = prover._Search.budget

    def counting(self, seq):
        expanded.append(seq)
        return budget(self, seq)

    monkeypatch.setattr(prover._Search, "budget", counting)


class TestClosureCarrying:
    def test_each_closure_is_built_on_a_new_edge_list(self, monkeypatch):
        """A premise that keeps its node's role edges reuses the node's CFL
        closure, so a search never builds two closures on one edge list."""
        built, expanded = [], []
        init = prover.CflClosure.__init__

        def recording_init(self, g, edges, *base):
            init(self, g, edges, *base)
            built.append(self.edges)

        monkeypatch.setattr(prover.CflClosure, "__init__", recording_init)
        counting_budget(monkeypatch, expanded)
        result = subsumes(CHAIN_ONT, C(CHAIN_SUB), C("some t . A"), LIMITS)
        assert isinstance(result, Proved)
        assert check_proof(CHAIN_ONT, result.proof).ok
        assert len(set(built)) == len(built)
        assert len(built) < len(expanded)

    def test_a_leaf_premise_extends_the_carried_closure(self, monkeypatch):
        """Each (forall) premise on the chain adds one leaf edge: its
        closure extends the carried one, whose edge list its own starts
        with.  The goal's closure, and that of the first premise, whose
        conclusion has no atoms, are built without a base."""
        built = []
        init = prover.CflClosure.__init__

        def recording_init(self, g, edges, base=None):
            init(self, g, edges, base)
            built.append((self.edges, base))

        monkeypatch.setattr(prover.CflClosure, "__init__", recording_init)
        result = subsumes(CHAIN_ONT, C(CHAIN_SUB), C("some t . A"), LIMITS)
        assert isinstance(result, Proved)
        assert [len(edges) for edges, _ in built] == list(range(13))
        assert [base is None for _, base in built] == [True, True] + [False] * 11
        for (edges, _), (_, base) in zip(built, built[1:]):
            if base is not None:
                assert base.edges == edges


class TestStructureCarrying:
    def test_each_graph_is_built_on_a_new_antecedent(self, monkeypatch):
        """The search builds propagation edges for the goal and for a node
        whose antecedent its rule changed; every other node, a cycle
        restart included, keeps the closure it carries."""
        built, expanded = [], []
        build = prover.build_prop_graph

        def recording_build(seq, *args):
            built.append(seq.antecedent)
            return build(seq, *args)

        monkeypatch.setattr(prover, "build_prop_graph", recording_build)
        counting_budget(monkeypatch, expanded)
        result = subsumes(CHAIN_ONT, C(CHAIN_SUB), C("some t . A"), LIMITS)
        assert isinstance(result, Proved)
        assert len(set(built)) == len(built)
        assert len(built) < len(expanded)

    def test_checking_a_proof_builds_no_graph(self, monkeypatch):
        """`check_proof` checks each propagation witness against the
        conclusion's atoms, without a CFL closure."""
        result = subsumes(CHAIN_ONT, C(CHAIN_SUB), C("some t . A"), LIMITS)
        assert isinstance(result, Proved)
        assert any(node.instance.rule == "exists" and node.instance.witness.derivations[0]
                   for node in result.proof.nodes())
        built = []
        init = prover.CflClosure.__init__

        def recording_init(self, g, edges, *base):
            built.append(edges)
            init(self, g, edges, *base)

        monkeypatch.setattr(prover.CflClosure, "__init__", recording_init)
        assert check_proof(CHAIN_ONT, result.proof).ok
        assert built == []

    @pytest.mark.parametrize("steps, proved", [(39, True), (38, False)])
    def test_a_cycle_restart_costs_one_step(self, steps, proved):
        result = subsumes(CHAIN_ONT, C(CHAIN_SUB), C("some t . A"),
                          SearchLimits(steps, 100, 30))
        if proved:
            assert isinstance(result, Proved)
        else:
            assert result == Unknown("step limit reached")


class TestSubsumes:
    def test_conjunct_projection(self):
        assert isinstance(subsumes(EMPTY_ONT, C("A and B"), C("A"), LIMITS), Proved)

    def test_gci_chaining(self):
        ont = normalize_ontology([GCI(C("A"), C("B"))], [])
        result = subsumes(ont, C("A"), C("B"), LIMITS)
        assert isinstance(result, Proved)
        assert check_proof(ont, result.proof).ok

    def test_existential_not_entailed(self):
        result = subsumes(EMPTY_ONT, C("A"), C("some r . A"), LIMITS)
        assert isinstance(result, Refuted)
        assert not result.interpretation.roles.get("r", frozenset())

    @pytest.mark.parametrize("sub, sup", [
        ("A and B", "A or B"),
        ("atleast 2 r . A", "atleast 1 r . A"),
        ("A", "only r . some r- . A"),
        ("atmost 0 r . A", "only r . not A"),
        ("some r . (A and B)", "(some r . A) and some r . B"),
        # two successors forced equal by the counting bound carry both fillers
        ("(some r . A) and (some r . B) and atmost 1 r . TOP", "some r . (A and B)"),
        ("BOT", "A"),
        ("A", "TOP"),
    ])
    def test_valid_subsumptions_close(self, sub, sup):
        result = subsumes(EMPTY_ONT, C(sub), C(sup), LIMITS)
        assert isinstance(result, Proved)
        assert check_proof(EMPTY_ONT, result.proof).ok

    @pytest.mark.parametrize("sub, sup", [
        ("A or B", "A"),
        ("atleast 1 r . A", "atleast 2 r . A"),
        ("some r . A", "only r . A"),
        ("TOP", "atleast 1 r . A"),
    ])
    def test_invalid_subsumptions_refute(self, sub, sup):
        result = subsumes(EMPTY_ONT, C(sub), C(sup), LIMITS)
        assert isinstance(result, Refuted)


class TestExtractCountermodel:
    def test_refutations_are_verified_models(self):
        result = subsumes(EMPTY_ONT, C("A"), C("B"), LIMITS)
        assert isinstance(result, Refuted)
        goal = goal_sequent(EMPTY_ONT, C("A"), C("B"))
        lam = {lab: result.assignment[lab] for lab in goal.labels()}
        assert falsifies(result.interpretation, lam, EMPTY_ONT, goal)

    def test_top_needs_no_successor(self):
        result = subsumes(EMPTY_ONT, C("TOP"), C("atleast 1 r . A"), LIMITS)
        assert isinstance(result, Refuted)
        assert not result.interpretation.roles.get("r", frozenset())

    def test_ria_closure_applied(self):
        # an r-step then an s-step forces a composed t-edge in the model
        ont = make_ontology([RIA((r, s), t)], ())
        result = subsumes(ont, C("some r . some s . A"), C("some t . B"), LIMITS)
        assert isinstance(result, Refuted)
        i = result.interpretation
        assert is_model(i, ont)
        assert i.roles["t"], "composed edge missing from the closure"

    def test_domain_lists_the_goal_label_first(self):
        # (atmost) puts x1 != x2 etc. before r(x0, x1): the domain still
        # follows the order the branch made its labels in
        result = subsumes(EMPTY_ONT, C("atleast 3 r . E"), C("A"), LIMITS)
        assert isinstance(result, Refuted)
        assert list(result.interpretation.domain) == ["x0", "x1", "x2", "x3"]

    @pytest.mark.parametrize("ont, sub, sup", [
        (EMPTY_ONT, "A", "B"),
        (make_ontology([RIA((r, s), t)], ()), "some r . some s . A", "some t . B"),
        (normalize_ontology([GCI(TOP, C("some r . A"))], []), "A", "B"),
    ], ids=["empty", "ria", "folded"])
    def test_a_refutation_checks_its_model_once(self, monkeypatch, ont, sub, sup):
        from riq import semantics

        checked = []

        def counting(interpretation, ontology):
            checked.append(interpretation)
            return is_model(interpretation, ontology)

        monkeypatch.setattr(semantics, "is_model", counting)
        monkeypatch.setattr(prover, "is_model", counting)
        result = subsumes(ont, C(sub), C(sup), LIMITS)
        assert isinstance(result, Refuted)
        assert checked == [result.interpretation]

    def test_saturated_branch_without_gcis_errors(self):
        # a branch that hides the ontology's GCI list cannot yield a model,
        # and the extraction's check says so instead of returning one
        ont = normalize_ontology([GCI(TOP, C("B"))], [])
        goal = S("|- x : A")
        with pytest.raises(CountermodelError):
            prover.extract_countermodel(ont, goal, goal.concept_set(), goal)


class TestDeterminism:
    def test_identical_runs_identical_proofs(self):
        ont = make_ontology([RIA((r,), s)], ())
        first = subsumes(ont, C("some r . (A and B)"), C("some s . A"), LIMITS)
        second = subsumes(ont, C("some r . (A and B)"), C("some s . A"), LIMITS)
        assert isinstance(first, Proved) and isinstance(second, Proved)
        assert proof_to_json(first.proof) == proof_to_json(second.proof)

    def test_identical_runs_identical_models(self):
        first = subsumes(EMPTY_ONT, C("A or B"), C("A and B"), LIMITS)
        second = subsumes(EMPTY_ONT, C("A or B"), C("A and B"), LIMITS)
        assert isinstance(first, Refuted)
        assert first.interpretation == second.interpretation
        assert first.assignment == second.assignment


class TestAgainstOracle:
    @pytest.mark.parametrize("ont_text, sub, sup", [
        ("", "some r . A", "some r . (A or B)"),
        ("ria: r <= s", "some r . A", "some s . A"),
        ("gci: A <= B", "A", "B"),
    ])
    def test_proved_goals_have_no_small_falsifier(self, ont_text, sub, sup):
        from riq.parser import parse_ontology

        ont = parse_ontology(ont_text)
        goal = goal_sequent(ont, C(sub), C(sup))
        assert isinstance(prove(ont, goal, LIMITS), Proved)
        assert find_countermodel_bounded(ont, goal, 3) is None


def unused_conjuncts(proof):
    """Paths of the (and) nodes whose left subproof neither reads its
    conjunct occurrence (as a principal or either side of an (id) axiom)
    nor makes the conjunction principal, following the occurrence's position
    down the proof tree through the instances' premise maps: a reference
    walk, independent of the search's judgement by occurrence identity."""
    derived = {path: node.instance for path, node in walk(proof)}
    unused = []
    for path, inst in derived.items():
        if inst.rule != "and":
            continue
        conjunction = (inst.witness.label, inst.witness.concept)
        todo = [(path + (0,), inst.reads[0])]
        while todo:
            at, p = todo.pop()
            node = derived[at]
            if p in node.reads \
                    or (node.witness.label, node.witness.concept) == conjunction:
                break
            todo += [(at + (i,), pmap.index(("ctx", p)))
                     for i, pmap in enumerate(node.premise_maps)]
        else:
            unused.append(path)
    return unused


class TestBackjumping:
    def test_unused_conjunct_skips_the_right_premise(self):
        """The left premise of the first (and) closes on the existential and
        the universal chains, so its conjunct B is never read.  The right
        premise starts a balanced conjunction of 32 names, which the search
        would split a level per cycle while the chains close: searching both
        premises takes 112 steps, skipping the right one 20."""
        parts = [f"C{i}" for i in range(32)]
        while len(parts) > 1:
            parts = [f"({a} and {b})" for a, b in zip(parts[::2], parts[1::2])]
        conjunction = parts[0]
        chain = "some r . " * 5 + "A"
        goal = goal_sequent(EMPTY_ONT, C(chain), C(f"({chain}) or (B and {conjunction})"))
        result = prove(EMPTY_ONT, goal, SearchLimits(max_steps=40, max_labels=10))
        assert isinstance(result, Proved)
        assert result.proof.conclusion == goal
        assert check_proof(EMPTY_ONT, result.proof).ok
        assert not any(node.instance.rule == "and" for node in result.proof.nodes())

    def test_use_is_judged_by_identity_not_by_value(self):
        """The subsumer's conjunct x0 : not B is unused, but a later (or)
        puts an equal x0 : not B before it, and the (id) axiom reads that
        one (positions 0 and 1).  Judged by value, the conjunct would count
        as read and the (and) node would be kept."""
        goal = goal_sequent(EMPTY_ONT, C("(not B and B) and only r . not B"),
                            C("not B and not B"))
        result = prove(EMPTY_ONT, goal, SearchLimits(100, 8))
        assert isinstance(result, Proved)
        assert [node.instance.rule for node in result.proof.nodes()] == \
            ["or", "or", "or", "id"]
        assert check_proof(EMPTY_ONT, result.proof).ok
        assert unused_conjuncts(result.proof) == []

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_kept_proofs_are_sound_and_minimal(self, seed):
        """Every proof concludes its goal and checks, also after a JSON
        round trip; no (and) node is left that its left subproof makes
        redundant; and no interpretation of size 2 falsifies the goal.  The
        subsumer is a disjunction with a conjunction, half the time beside
        the subsumee itself, so that many proofs meet an (and) step."""
        rng = random.Random(seed)
        ont = random_ontology(rng, max_gcis=1)
        sub, sup = random_goal(rng, ontology=ont)
        conjunction = And(*random_goal(rng, ontology=ont))
        if rng.random() < 0.5:
            sup = sub
        sup = Or(sup, conjunction) if rng.random() < 0.5 else Or(conjunction, sup)
        goal = goal_sequent(ont, sub, sup)
        result = prove(ont, goal, SearchLimits(max_steps=400, max_labels=12))
        if not isinstance(result, Proved):
            return
        proof = result.proof
        assert proof.conclusion == goal
        assert check_proof(ont, proof).ok
        copy = proof_from_json(proof_to_json(proof))
        assert copy.conclusion.key() == goal.key()
        assert check_proof(ont, copy).ok
        assert unused_conjuncts(proof) == []
        assert find_countermodel_bounded(ont, goal, 2) is None


def recording(monkeypatch, owner, name: str) -> list:
    """Record the arguments of every call of `owner.name`, which runs as
    before."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls


#: `r <= s`: its goals below prove `some s . ...` by propagation from an
#: r-successor, after an (atleast) step or beneath an (and) step
DEFERRED_ONT = make_ontology([RIA((r,), s)], ())


class TestDeferredWitnesses:
    """The search builds each (exists) and (atleast) step from its targets
    alone; the witnesses are read off the closure, and checked, only for
    the nodes of a returned proof."""

    def test_a_refuted_goal_derives_no_witness(self, monkeypatch):
        built = recording(monkeypatch, prover, "build_instance")
        derived = recording(monkeypatch, CflClosure, "derivation")
        result = subsumes(CHAIN_ONT, C(CHAIN_SUB), C("some t . B"), LIMITS)
        assert isinstance(result, Refuted)
        assert [args[1] for args in built].count("exists") == 12
        assert derived == []

    @pytest.mark.parametrize("ont, sub, sup, rules", [
        (CHAIN_ONT, CHAIN_SUB, "some t . A", {"exists"}),
        (DEFERRED_ONT, "(atmost 1 r . TOP) and (some r . A) and (some r . B)",
         "some s . (A and B)", {"exists", "atleast"}),
    ], ids=["chain", "atleast"])
    def test_a_proof_derives_each_kept_witness_once(self, monkeypatch, ont, sub, sup,
                                                    rules):
        derived = recording(monkeypatch, CflClosure, "derivation")
        result = subsumes(ont, C(sub), C(sup), LIMITS)
        assert isinstance(result, Proved)
        assert check_proof(ont, result.proof).ok
        targets = [(w.targets or (w.target,)) for w in
                   (node.instance.witness for node in result.proof.nodes()
                    if node.instance.rule in ("exists", "atleast"))]
        assert {node.instance.rule for node in result.proof.nodes()} >= rules
        assert len(derived) == sum(map(len, targets))
        assert sorted(args[3] for args in derived) == sorted(y for ys in targets for y in ys)

    @pytest.mark.parametrize("ont, sub, sup, rewritten", [
        (CHAIN_ONT, CHAIN_SUB, "some t . A", False),
        (DEFERRED_ONT, "some r . A", "(D and E) or some s . A", True),
    ], ids=["kept", "rewritten"])
    def test_a_tampered_witness_is_refused_at_assembly(self, monkeypatch, ont, sub, sup,
                                                       rewritten):
        """Each witness read off the closure ends at the principal label
        instead of its target.  A kept node is checked by `check_paths`; a
        node beneath an (and) step whose right premise backjumping skipped
        is rewritten and re-derived by `apply_rule`, which the search itself
        never calls."""
        derivation = CflClosure.derivation

        def tampered(self, role, u, v):
            steps, path = derivation(self, role, u, v)
            return steps, path[:-1] + (path[0],)

        monkeypatch.setattr(CflClosure, "derivation", tampered)
        applied = recording(monkeypatch, prover, "apply_rule")
        with pytest.raises(RuleError, match="does not end at the target label"):
            subsumes(ont, C(sub), C(sup), LIMITS)
        assert ("exists" in [args[1] for args in applied]) == rewritten

    def test_a_production_pickles_across_hash_seeds(self):
        """The cached hash is rebuilt on unpickling, so a production pickled
        under one hash seed is found among the productions of an R-system
        built under another."""
        src = str(Path(riq.__file__).resolve().parents[1])

        def under_seed(seed: str, code: str, stdin: bytes = b"") -> bytes:
            path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            done = subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                                  capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr.decode()
            return done.stdout

        make = ("from riq.core import RIA, Role, make_ontology\n"
                "from riq.rsystem import build_rsystem\n"
                "r, s, t = Role('r'), Role('s'), Role('t')\n"
                "g = build_rsystem(make_ontology([RIA((r, s), t)], ()))\n")
        dumped = under_seed("1", make + "import pickle, sys\n"
                            "sys.stdout.buffer.write(pickle.dumps(sorted(g.productions, key=str)))")
        assert under_seed("2", make + "import pickle, sys\n"
                          "prods = pickle.loads(sys.stdin.buffer.read())\n"
                          "assert len(prods) == 2\n"
                          "assert all(p in g.productions and hash(p) == hash((p.lhs, p.rhs))\n"
                          "           for p in prods)\n"
                          "print('found')", dumped) == b"found\n"
