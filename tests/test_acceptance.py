"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured statistics.  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines on success.
"""

import random
import time

import pytest

from riq.core import (
    AtLeast,
    BOT,
    ConceptName,
    RIA,
    Role,
    cpt,
    find_regular_order,
    nnf_negate,
    union_ontology,
)
from riq.interpolation import (
    Interpolant,
    compute_concept_interpolant,
    orthogonal,
)
from riq.definability import explicit_definition, is_implicitly_definable
from riq import prover
from riq.parser import parse_concept, parse_ontology
from riq.prover import (
    Proved,
    Refuted,
    SearchLimits,
    goal_sequent,
    subsumes,
)
from riq.rsystem import CflClosure, build_rsystem
from riq.semantics import (
    OracleGuardError,
    falsifies,
    find_countermodel_bounded,
    is_model,
)
from riq.sequent import (
    Eq,
    Neq,
    Witness,
    apply_rule,
    build_prop_graph,
    check_proof,
    parse_sequent,
    render_sequent,
)
from conftest import (
    C,
    EMPTY_ONT,
    brute_reach,
    expand_steps,
    is_one_step,
    prop_reachable,
    random_concept,
    random_goal,
    random_ontology,
)

r = Role("r")
FUZZ_LIMITS = SearchLimits(max_steps=600, max_labels=30, max_seconds_hint=10)


def report(criterion: int, text: str) -> None:
    print(f"criterion {criterion}: PASS — {text}")


#: GCIs under which some elements need an endless r-chain unless it loops
#: back, so that many refutations over them come from folded branches
CYCLIC_GCIS = (
    "gci: TOP <= some r . A",
    "gci: A <= some r . B",
    "gci: B <= only r- . A",
    "gci: TOP <= some r- . (A or B)",
    "gci: A <= some r . (A and not B)",
    "gci: B <= some r . B",
)


@pytest.fixture(scope="module")
def fuzz_corpus():
    """Shared corpus for criteria 4-6: at least 500 random goals over two
    concept names and one role, with random small ontologies, then 100 more
    whose ontologies add one or two `CYCLIC_GCIS`.  Each case records
    whether its counter-model came from a folded branch."""
    folds = []

    def recording(ontology, seq, delta_star, goal, blocks=None):
        found = extract(ontology, seq, delta_star, goal, blocks)
        folds.append(bool(blocks))
        return found

    def case(ont, sub, sup):
        folds.clear()
        result = subsumes(ont, sub, sup, FUZZ_LIMITS)
        return ont, sub, sup, result, isinstance(result, Refuted) and folds[-1]

    extract = prover.extract_countermodel
    rng = random.Random(42)
    cases = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prover, "extract_countermodel", recording)
        while len(cases) < 550:
            ont = random_ontology(rng, names=("A", "B"), roles=("r",), max_gcis=2)
            cases.append(case(ont, *random_goal(rng, ontology=ont)))
        rng = random.Random(43)
        while len(cases) < 650:
            extra = rng.sample(CYCLIC_GCIS, rng.randint(1, 2))
            ont = union_ontology(
                random_ontology(rng, names=("A", "B"), roles=("r",), max_gcis=1),
                parse_ontology("\n".join(extra) + "\n"))
            cases.append(case(ont, *random_goal(rng, ontology=ont)))
    return cases


class TestCriterion1:
    def test_worked_propagation_example(self):
        started = time.perf_counter()
        seq = parse_sequent(
            "r(x,y), r(x,z), r(x,w), z = w |- x : atleast 2 r . C")
        eq = seq.equalities()
        assert {eq.class_of(lab) for lab in seq.labels()} == \
            {frozenset("x"), frozenset("y"), frozenset(("z", "w"))}
        # one edge per role atom between class representatives; the
        # closure adds their inverses
        closure = CflClosure(build_rsystem(EMPTY_ONT), build_prop_graph(seq, eq))
        rinv = Role("r", True)
        assert closure.reach == {r: {("x", "y"), ("x", "z")},
                                 rinv: {("y", "x"), ("z", "x")}}

        hits = prop_reachable(seq, build_rsystem(EMPTY_ONT), r, "x")
        witness = Witness(
            label="x", concept=C("atleast 2 r . C"),
            targets=tuple(t for t, _ in hits),
            paths=tuple(w.path for _, w in hits),
            derivations=tuple(w.derivation for _, w in hits))
        inst = apply_rule(EMPTY_ONT, "atleast", seq, witness)
        assert [render_sequent(p) for p in inst.premises] == [
            "r(x,y), r(x,z), r(x,w), z = w |- y : C, x : atleast 2 r . C",
            "r(x,y), r(x,z), r(x,w), z = w |- z : C, x : atleast 2 r . C",
            "r(x,y), r(x,z), r(x,w), z = w, y = z |- x : atleast 2 r . C",
        ]
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        report(1, f"propagation example reproduced in {elapsed * 1000:.0f} ms")


class TestCriterion2:
    def test_worked_orthogonal_example(self):
        started = time.perf_counter()
        from riq.interpolation import interpolant, member

        g = interpolant(
            member([Eq("x", "y")], [("x", ConceptName("A"))]),
            member([Neq("z", "u")], [("z", nnf_negate(ConceptName("B")))]))
        expected = interpolant(
            member([Neq("x", "y"), Eq("z", "u")]),
            member([Neq("x", "y")], [("z", ConceptName("B"))]),
            member([Eq("z", "u")], [("x", nnf_negate(ConceptName("A")))]),
            member([], [("x", nnf_negate(ConceptName("A"))), ("z", ConceptName("B"))]))
        assert orthogonal(g) == expected
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        report(2, f"four orthogonal members reproduced in {elapsed * 1000:.0f} ms")


class TestCriterion3:
    def test_nnf_clause_conformance(self):
        rng = random.Random(3)
        for _ in range(1000):
            body = random_concept(rng, depth=3, atleast_min=1)
            n = rng.randint(0, 3)
            from riq.core import AtMost

            assert nnf_negate(AtMost(n, r, body)) == AtLeast(n + 1, r, body)
            assert nnf_negate(AtLeast(0, r, body)) == BOT
        failures = 0
        for _ in range(1000):
            concept = random_concept(rng, depth=6, atleast_min=1)
            if nnf_negate(nnf_negate(concept)) != concept:
                failures += 1
        assert failures == 0
        report(3, "negation clauses and involution hold on 1000 random concepts")


class TestCriterion4:
    def test_soundness_fuzz(self, fuzz_corpus):
        started = time.perf_counter()
        proved = 0
        for ont, sub, sup, result, _ in fuzz_corpus:
            if not isinstance(result, Proved):
                continue
            proved += 1
            assert check_proof(ont, result.proof).ok, (sub, sup)
            goal = goal_sequent(ont, sub, sup)
            assert find_countermodel_bounded(ont, goal, 3) is None, (sub, sup)
        elapsed = time.perf_counter() - started
        assert len(fuzz_corpus) >= 500
        assert elapsed < 300
        report(4, f"{proved} proved goals out of {len(fuzz_corpus)} all pass "
                  f"check_proof and the exhaustive oracle in {elapsed:.1f} s")

    def test_proofs_are_derived_from_their_goals(self, fuzz_corpus):
        """What lets the pipelines skip a second derivation: every node of a
        returned proof carries the premise maps of its `apply_rule`
        instance, one per premise and one entry per premise occurrence, and
        each child's conclusion is that instance's premise, the same
        object."""
        nodes = 0
        for ont, sub, sup, result, _ in fuzz_corpus:
            if not isinstance(result, Proved):
                continue
            assert result.proof.conclusion == goal_sequent(ont, sub, sup)
            for node in result.proof.nodes():
                inst = node.instance
                assert len(inst.premise_maps) == len(inst.premises) == len(node.children)
                for premise, pmap, child in zip(inst.premises, inst.premise_maps,
                                                node.children):
                    assert len(pmap) == len(premise.consequent)
                    assert child.conclusion is premise
                nodes += 1
        assert nodes >= 1000

    def test_every_premise_occurrence_names_its_source(self, fuzz_corpus):
        """Each premise-map entry says where its occurrence comes from: a
        ("ctx", j) occurrence is the conclusion's occurrence j itself, a
        ("gci", k) one is the k-th TBox axiom at its label, and an
        ("active",) one is new.  Every rule of the calculus occurs."""
        rules = set()
        for ont, _, _, result, _ in fuzz_corpus:
            if not isinstance(result, Proved):
                continue
            for node in result.proof.nodes():
                inst = node.instance
                rules.add(inst.rule)
                old = inst.conclusion.consequent
                for premise, pmap in zip(inst.premises, inst.premise_maps):
                    for occ, origin in zip(premise.consequent, pmap, strict=True):
                        if origin[0] == "ctx":
                            assert occ is old[origin[1]], (inst.rule, origin)
                        elif origin[0] == "gci":
                            assert (occ.label, occ.concept) \
                                == ont.gci_list(occ.label)[origin[1]], inst.rule
                        else:
                            assert origin == ("active",), inst.rule
                            assert all(occ is not o for o in old), inst.rule
        assert rules == {"id", "id_eq", "subst_eq", "or", "and", "exists", "forall",
                         "atmost", "atleast"}

    def test_every_search_node_carries_a_fresh_closure(self, fuzz_corpus,
                                                       carried_structure_checked):
        """Searched again, every node of each corpus goal carries the
        equality classes and the Reach that a build from scratch gives its
        sequent, and each search reaches the same verdict."""
        for ont, sub, sup, result, _ in fuzz_corpus:
            assert type(subsumes(ont, sub, sup, FUZZ_LIMITS)) is type(result)
        assert sum(1 for edges in carried_structure_checked if edges) >= 1000


class TestCriterion5:
    def test_refutation_validity(self, fuzz_corpus):
        refuted = folded = 0
        for ont, sub, sup, result, was_folded in fuzz_corpus:
            if not isinstance(result, Refuted):
                continue
            refuted += 1
            folded += was_folded
            assert is_model(result.interpretation, ont)
            goal = goal_sequent(ont, sub, sup)
            lam = {lab: result.assignment[lab] for lab in goal.labels()}
            assert falsifies(result.interpretation, lam, ont, goal)
        assert refuted >= 200
        assert folded >= 20
        report(5, f"all {refuted} refutations carry verified counter-models, "
                  f"{folded} of them folded")


class TestCriterion6:
    def test_prover_oracle_consistency(self, fuzz_corpus):
        contradictions = 0
        decided_both = 0
        small_folds = 0
        for ont, sub, sup, result, folded in fuzz_corpus:
            goal = goal_sequent(ont, sub, sup)
            hit = find_countermodel_bounded(ont, goal, 3)
            if hit is not None:
                decided_both += 1
                if isinstance(result, Proved):
                    contradictions += 1
            elif isinstance(result, Refuted) and len(result.interpretation.domain) <= 3:
                contradictions += 1  # the oracle is exhaustive up to size 3
            small_folds += folded and len(result.interpretation.domain) <= 3
        assert contradictions == 0
        assert small_folds >= 10
        report(6, f"zero contradictions; oracle found falsifiers on "
                  f"{decided_both} goals, never against a proof, and on each of "
                  f"{small_folds} folded counter-models of size 3 or less")


class TestCriterion7:
    def test_double_orthogonal_domination(self):
        rng = random.Random(7)
        checked = 0
        while checked < 300:
            g = _random_small_interpolant(rng)
            first = orthogonal(g)
            picks = 1
            for m in first.members:
                picks *= max(1, len(m.atoms) + len(m.concepts))
            if picks > 4000:
                continue  # keep the double product enumerable
            for mm in orthogonal(first).members:
                assert any(m.atoms <= mm.atoms and m.concepts <= mm.concepts
                           for m in g.members), "domination violated"
            checked += 1
        report(7, f"domination held on {checked} random interpolants")


def _random_small_interpolant(rng):
    from riq.interpolation import Member

    labels = ["x", "y", "z", "u"]
    members = []
    for _ in range(rng.randint(0, 3)):
        atoms = []
        concepts = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.4:
                a, b = rng.sample(labels, 2)
                atoms.append(Eq(a, b) if rng.random() < 0.5 else Neq(a, b))
            else:
                concepts.append((rng.choice(labels),
                                 random_concept(rng, depth=1, atleast_min=1)))
        members.append(Member(frozenset(atoms), frozenset(concepts)))
    return Interpolant(frozenset(members))


#: curated pipeline suite: (o1, o2, subsumee, subsumer); every case is a
#: provable subsumption and together they exercise the universal, atmost,
#: atleast, and orthogonal-wrapped rules plus nonempty RBoxes
PIPELINE_CASES = [
    ("", "", "A and B", "A or E"),
    ("", "", "A", "A"),
    ("gci: A <= B", "gci: B <= E", "A", "E"),
    ("", "", "some r . A", "some r . (A or B)"),
    ("", "", "only r . A", "only r . (A or B)"),
    ("", "", "atmost 0 r . A", "only r . not A"),
    ("", "", "only r . not A", "atmost 0 r . A"),
    ("", "", "atleast 2 r . A", "atleast 1 r . A"),
    ("ria: r <= s", "ria: r <= s", "some r . A", "some s . A"),
    ("ria: r o s <= t", "ria: r o s <= t", "some r . (some s . A)", "some t . A"),
    ("", "", "A", "B or A"),
    ("", "", "A and (B or E)", "(A and B) or (A and E)"),
    ("", "", "some r . (A and B)", "some r . A"),
    ("", "", "atleast 2 r . A", "atleast 2 r . (A or B)"),
    ("gci: A <= B", "", "some r . A", "some r . B"),
    ("", "", "BOT", "A"),
    ("", "", "A", "TOP"),
    ("", "", "some r- . A", "some r- . (A or B)"),
    ("", "", "A", "only r . (some r- . A)"),
    ("", "", "(A or B) and (A or E)", "A or (B and E)"),
    ("ria: r o s <= t", "gci: A <= B", "some r . (some s . (A and E))", "some t . B"),
    ("", "", "atmost 1 r . (A or B)", "atmost 1 r . A"),
    ("", "", "atleast 1 r . (A and B)", "some r . A"),
    ("", "", "(some r . A) and (some r . B) and atmost 1 r . TOP",
     "some r . (A and B)"),
]


class TestCriterion8:
    def test_interpolation_pipeline(self):
        direction_limits = SearchLimits(max_steps=50000, max_labels=500,
                                        max_seconds_hint=5)
        assert len(PIPELINE_CASES) >= 20
        slowest = 0.0
        oracle_checked = 0
        for o1_text, o2_text, sub_text, sup_text in PIPELINE_CASES:
            o1 = parse_ontology(o1_text)
            o2 = parse_ontology(o2_text)
            sub, sup = parse_concept(sub_text), parse_concept(sup_text)
            started = time.perf_counter()
            # the verification (signature check, two checked proofs) is the
            # certificate; Lemma 5 at every node is tested in test_interpolation
            out = compute_concept_interpolant(o1, o2, sub, sup, direction_limits)
            elapsed = time.perf_counter() - started
            slowest = max(slowest, elapsed)
            assert out.status == "ok", (sub_text, sup_text)
            shared = cpt(o1, sub) & cpt(o2, sup)
            assert cpt(out.concept) <= shared, (sub_text, sup_text)
            assert isinstance(out.verification.forward, Proved)
            assert isinstance(out.verification.backward, Proved)
            assert elapsed < 10.0, (sub_text, sup_text)
            # differential check: no small counter-model to either direction
            ont = union_ontology(o1, o2)
            try:
                for lo, hi in ((sub, out.concept), (out.concept, sup)):
                    hit = find_countermodel_bounded(ont, goal_sequent(ont, lo, hi), 3)
                    assert hit is None, (sub_text, sup_text)
                oracle_checked += 1
            except OracleGuardError:
                pass
        report(8, f"{len(PIPELINE_CASES)} pipeline cases verified, "
                  f"{oracle_checked} also by the bounded oracle; slowest "
                  f"case {slowest:.2f} s")


class TestCriterion9:
    def test_cbp_end_to_end(self):
        started = time.perf_counter()
        ont = parse_ontology("gci: A <= B\ngci: B <= A\n")
        concept = parse_concept("A")
        implicit = is_implicitly_definable(ont, concept, ["B"])
        assert isinstance(implicit, Proved)
        result = explicit_definition(ont, concept, ["B"])
        assert result.status == "ok"
        assert cpt(result.definition) <= {"B"}
        assert isinstance(result.report.forward, Proved)
        assert isinstance(result.report.backward, Proved)
        for sub, sup in ((concept, result.definition), (result.definition, concept)):
            assert find_countermodel_bounded(ont, goal_sequent(ont, sub, sup), 3) is None
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        report(9, f"definition over {{B}} extracted and verified in {elapsed:.2f} s")


class TestCriterion10:
    def test_cfl_oracle_equivalence(self):
        rng = random.Random(10)
        started = time.perf_counter()
        equal_checked = 0
        trials = 0
        while equal_checked < 200 and trials < 1200:
            trials += 1
            rsys, edges = _random_cfl_instance(rng)
            closure = CflClosure(rsys, edges)
            roles = {p.lhs for p in rsys.productions} | {ch for _, ch, _ in edges}
            saturated = True
            for role in sorted(roles, key=str):
                got = set(closure.reach.get(role, ()))
                small = brute_reach(rsys, edges, role, 6, 4)
                assert small <= got, "closure missed a bounded derivation"
                if small == brute_reach(rsys, edges, role, 7, 5):
                    assert got == small, "closure disagrees with saturated oracle"
                else:
                    saturated = False
            # witness soundness holds at any size
            for role in sorted(roles, key=str):
                for a, b in closure.reach.get(role, ()):
                    strings = expand_steps(rsys, role, closure.derivation(role, a, b)[0])
                    assert strings is not None
                    for s1, s2 in zip(strings, strings[1:]):
                        assert is_one_step(rsys, s1, s2)
            if saturated:
                equal_checked += 1
        elapsed = time.perf_counter() - started
        assert equal_checked >= 200
        assert elapsed < 60
        report(10, f"{equal_checked} instances matched the brute-force oracle "
                   f"in {elapsed:.1f} s")


def _random_cfl_instance(rng):
    from riq.core import make_ontology

    s, t, u, v = Role("s"), Role("t"), Role("u"), Role("v")
    pool = [RIA((r, s), t), RIA((r,), s), RIA((t, t), t),
            RIA((Role("r", True),), u), RIA((s, r), v)]
    rias = rng.sample(pool, rng.randint(0, 4))
    rsys = build_rsystem(make_ontology(rias, ()))
    nodes = [f"n{i}" for i in range(rng.randint(2, 6))]
    edges = []
    for _ in range(rng.randint(1, 10)):
        a, b = rng.choice(nodes), rng.choice(nodes)
        role = rng.choice((r, s, t, u, v))
        if rng.random() < 0.4:
            role = role.inverse()
        edges.append((a, role, b))
        edges.append((b, role.inverse(), a))
    return rsys, edges


class TestCriterion11:
    def test_regularity_checker(self):
        shapes = [
            RIA((r, r), r),
            RIA((Role("r", True),), r),
            RIA((Role("s"), Role("t")), r),
            RIA((r, Role("s")), r),
            RIA((Role("s"), r), r),
        ]
        for ria in shapes:
            assert find_regular_order([ria]).ok, ria
        cyclic = find_regular_order([
            RIA((Role("s"),), Role("r")), RIA((Role("r"),), Role("s"))])
        assert not cyclic.ok
        assert "cycle" in cyclic.message
        assert len(cyclic.offenders) == 2
        report(11, "five clause shapes accepted, symmetric pair rejected "
                   "with a cycle report")
