import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riq.core import (
    BOT,
    And,
    AtLeast,
    AtMost,
    ConceptName,
    Exists,
    Forall,
    GCI,
    NegatedName,
    Or,
    RIA,
    Role,
    TOP,
    and_all,
    cpt,
    make_ontology,
    nnf_negate,
    normalize_ontology,
    or_all,
    union_ontology,
    weight,
)
from riq.interpolation import (
    EMPTY,
    EndSplit,
    Interpolant,
    InterpolationError,
    Side,
    annotate_partition,
    box_interpolant,
    compute_concept_interpolant,
    extract_interpolant,
    interpolant,
    interpolant_concept,
    interpolant_from_json,
    interpolant_to_json,
    leq_interpolant,
    member,
    orthogonal,
    simplify_concept,
    split_goal,
    verify_interpolant,
)
from riq import interpolation
from riq.definability import explicit_definition
from riq.parser import render_concept
from riq.prover import Proved, SearchLimits, Unknown, prove
from riq.semantics import _eval_bits
from riq.sequent import (
    Eq,
    LabeledConcept,
    Neq,
    check_proof,
    make_sequent,
    proof_from_json,
    proof_to_json,
    walk,
)
from conftest import C, EMPTY_ONT, O, random_concept

r = Role("r")
A, B, E = ConceptName("A"), ConceptName("B"), ConceptName("E")
LIMITS = SearchLimits(max_steps=20000, max_labels=200, max_seconds_hint=60)


def mk(atoms=(), concepts=()):
    return member(atoms, concepts)


class TestOrthogonal:
    def test_worked_example(self):
        g = interpolant(
            mk([Eq("x", "y")], [("x", A)]),
            mk([Neq("z", "u")], [("z", NegatedName("B"))]),
        )
        assert orthogonal(g) == interpolant(
            mk([Neq("x", "y"), Eq("z", "u")]),
            mk([Neq("x", "y")], [("z", B)]),
            mk([Eq("z", "u")], [("x", NegatedName("A"))]),
            mk([], [("x", NegatedName("A")), ("z", B)]),
        )

    def test_singleton(self):
        g = interpolant(mk([], [("x", A)]))
        assert orthogonal(g) == interpolant(mk([], [("x", NegatedName("A"))]))

    def test_empty_interpolant_gives_empty_member(self):
        assert orthogonal(EMPTY) == interpolant(mk())

    def test_empty_member_kills_product(self):
        assert orthogonal(interpolant(mk())) == EMPTY

    def test_size_bound(self, rng):
        for _ in range(100):
            g = _random_interpolant(rng)
            bound = 1
            for m in g.members:
                bound *= len(m.atoms) + len(m.concepts)
            assert len(orthogonal(g).members) <= bound

    def test_double_orthogonal_domination(self, rng):
        # every member of the double orthogonal extends some original member
        for _ in range(300):
            g = _random_interpolant(rng, max_elements=2)
            for mm in orthogonal(orthogonal(g)).members:
                assert any(m.atoms <= mm.atoms and m.concepts <= mm.concepts
                           for m in g.members)


def _random_interpolant(rng, max_elements=3):
    labels = ["x", "y", "z", "u"]
    members = []
    for _ in range(rng.randint(0, 3)):
        atoms = []
        concepts = []
        for _ in range(rng.randint(0, max_elements)):
            if rng.random() < 0.4:
                a, b = rng.sample(labels, 2)
                atoms.append(Eq(a, b) if rng.random() < 0.5 else Neq(a, b))
            else:
                concepts.append((rng.choice(labels),
                                 random_concept(rng, depth=1, atleast_min=1)))
        members.append(mk(atoms, concepts))
    return Interpolant(frozenset(members))


def _overlapping_interpolant(rng):
    """Up to four members drawn from a pool of six elements, so that members
    share elements and often dominate one another."""
    labels = ["x", "y", "z"]
    pool = []
    for _ in range(6):
        a, b = rng.sample(labels, 2)
        if rng.random() < 0.4:
            pool.append(Eq(a, b) if rng.random() < 0.5 else Neq(a, b))
        else:
            pool.append((a, random_concept(rng, depth=1, atleast_min=1)))
    members = []
    for _ in range(rng.randint(0, 4)):
        picked = rng.sample(pool, rng.randint(0, 3))
        members.append(mk([e for e in picked if isinstance(e, (Eq, Neq))],
                          [e for e in picked if isinstance(e, tuple)]))
    return members


def _minimal(members):
    return frozenset(m for m in members
                     if not any(k != m and k.atoms <= m.atoms and k.concepts <= m.concepts
                                for k in members))


class TestUnsortedAlgebra:
    """prune_dominated and orthogonal against brute force: their results do
    not depend on the order in which they visit members and elements."""

    def test_prune_dominated_keeps_the_minimal_members(self, rng):
        for _ in range(300):
            members = _overlapping_interpolant(rng)
            rng.shuffle(members)
            assert interpolation.prune_dominated(members) == _minimal(members)

    def test_orthogonal_is_the_minimal_product(self, rng):
        for _ in range(300):
            g = Interpolant(frozenset(_overlapping_interpolant(rng)))
            choices = [[("atom", Neq(a.left, a.right) if isinstance(a, Eq)
                         else Eq(a.left, a.right)) for a in m.atoms]
                       + [("concept", (lab, nnf_negate(c))) for lab, c in m.concepts]
                       for m in g.members]
            product = {mk([x for kind, x in pick if kind == "atom"],
                          [x for kind, x in pick if kind == "concept"])
                       for pick in itertools.product(*choices)}
            assert orthogonal(g).members == _minimal(product)


class TestBoxInterpolant:
    def test_bundles_row_into_disjunction(self):
        g = interpolant(mk([], [("y", A), ("y", B)]))
        out = box_interpolant(r, "x", "y", g)
        assert out == interpolant(mk([], [("x", C("only r . (A or B)"))]))

    def test_memberwise(self):
        g = interpolant(mk([], [("y", A)]), mk([], [("y", B)]))
        out = box_interpolant(r, "x", "y", g)
        assert out == interpolant(
            mk([], [("x", C("only r . A"))]),
            mk([], [("x", C("only r . B"))]))

    def test_empty_row_gives_box_bottom(self):
        g = interpolant(mk([], [("x2", ConceptName("D"))]))
        out = box_interpolant(r, "x", "y", g)
        [m] = out.members
        assert ("x2", ConceptName("D")) in m.concepts
        assert ("x", C("only r . BOT")) in m.concepts

    def test_fresh_label_in_atoms_rejected(self):
        g = interpolant(mk([Eq("y", "z")], []))
        with pytest.raises(InterpolationError):
            box_interpolant(r, "x", "y", g)


class TestLeqInterpolant:
    def test_zero_bound_single_row(self):
        g = interpolant(mk([], [("y0", NegatedName("A"))]))
        out = leq_interpolant(0, r, "x", ("y0",), g)
        assert out == interpolant(mk([], [("x", C("atmost 0 r . A"))]))

    def test_fresh_inequalities_dropped_empty_rows_give_top(self):
        g = interpolant(mk([Neq("y0", "y1")], []))
        out = leq_interpolant(1, r, "x", ("y0", "y1"), g)
        assert out == interpolant(mk([], [("x", C("atmost 1 r . TOP"))]))

    def test_foreign_member_still_bundled(self):
        g = interpolant(mk([], [("z", ConceptName("D"))]))
        out = leq_interpolant(2, r, "x", ("y0", "y1", "y2"), g)
        [m] = out.members
        assert ("z", ConceptName("D")) in m.concepts
        assert ("x", C("atmost 2 r . TOP")) in m.concepts

    def test_equality_on_fresh_labels_rejected(self):
        g = interpolant(mk([Eq("y0", "y1")], []))
        with pytest.raises(InterpolationError):
            leq_interpolant(1, r, "x", ("y0", "y1"), g)


class TestInterpolantConcept:
    def test_conjunction_of_disjunctions(self):
        g = interpolant(mk([], [("x", A), ("x", B)]), mk([], [("x", E)]))
        concept = interpolant_concept(g, "x")
        assert concept == C("(A or B) and E") or concept == C("E and (A or B)")

    def test_singleton(self):
        assert interpolant_concept(interpolant(mk([], [("x", A)])), "x") == A

    def test_empty_is_top(self):
        assert interpolant_concept(EMPTY, "x") == TOP

    def test_empty_member_is_bottom_disjunct(self):
        assert interpolant_concept(interpolant(mk()), "x") == BOT

    def test_foreign_label_rejected(self):
        with pytest.raises(InterpolationError):
            interpolant_concept(interpolant(mk([], [("y", A)])), "x")

    def test_atom_bearing_rejected(self):
        with pytest.raises(InterpolationError):
            interpolant_concept(interpolant(mk([Eq("x", "y")], [])), "x")


class TestCollapse:
    """TOP and BOT as constants of simplify_concept."""

    def test_or_bot(self):
        assert simplify_concept(C("BOT or A")) == A

    def test_and_top(self):
        assert simplify_concept(C("A and TOP")) == A

    def test_nested(self):
        assert simplify_concept(C("(BOT or A) and (TOP or B)")) == A

    def test_quantifier_body(self):
        assert simplify_concept(C("only r . (BOT or A)")) == C("only r . A")

    @pytest.mark.parametrize("text, expected", [
        ("some r . BOT", "BOT"), ("only r . TOP", "TOP"),
        ("atmost 1 r . BOT", "TOP"), ("atleast 2 r . BOT", "BOT"),
        ("A and (atleast 0 r . B)", "A"), ("A or atleast 0 r . B", "TOP"),
        # weight(atleast 0 r . A) = 1 < weight(TOP) = 3: kept on its own
        ("atleast 0 r . (A or BOT)", "atleast 0 r . A"),
    ])
    def test_quantifier_constants(self, text, expected):
        assert simplify_concept(C(text)) == C(expected)


def simplified(text: str) -> str:
    return render_concept(simplify_concept(C(text)))


class TestSimplify:
    def test_runs_flatten_without_duplicates_in_rendering_order(self):
        c = simplify_concept(C("(E or B) or (A or (B or (E or A)))"))
        assert c == Or(A, Or(B, E))
        assert simplify_concept(C("B and E and (A and B)")) == And(A, And(B, E))

    def test_output_does_not_depend_on_operand_order(self, rng):
        operands = ["A", "not B", "some r . E", "(only r . A) or B", "atmost 1 r . B"]
        outputs = set()
        for _ in range(10):
            rng.shuffle(operands)
            outputs.add(simplified(" and ".join(f"({x})" for x in operands)))
        assert len(outputs) == 1

    def test_cnf_absorption(self):
        assert simplified("(A or B) and A") == "A"
        assert simplified("(A or B or E) and (B or A)") == "A or B"
        assert simplified("(A or B) and (A or E)") == "(A or B) and (A or E)"

    def test_dnf_absorption(self):
        assert simplified("A or (A and B)") == "A"
        assert simplified("(A and B and E) or (B and A)") == "A and B"

    def test_only_bot_absorbed_by_only(self):
        assert simplified("(only r . BOT) or only r . A") == "only r . A"
        # roles must match exactly, inverse flag included
        assert simplified("(only r- . BOT) or only r . A") == \
            "(only r . A) or only r- . BOT"

    def test_only_or_some_top_is_top(self):
        assert simplify_concept(C("(only r . A) or B or some r . TOP")) == TOP
        assert simplify_concept(C("(only r . A) or some r- . TOP")) != TOP

    def test_some_top_absorbed_by_some_or_atleast(self):
        assert simplified("(some r . TOP) and some r . A") == "some r . A"
        assert simplified("(some r . TOP) and atleast 2 r . A") == "atleast 2 r . A"
        assert simplified("(some r . TOP) and atleast 0 r . A") == "some r . TOP"
        assert simplified("(some r . TOP) and some r- . A") == \
            "(some r . TOP) and some r- . A"

    def test_some_makes_only_bot_false(self):
        assert simplify_concept(C("(only r . BOT) and some r . A")) == BOT
        assert simplify_concept(C("(only r . BOT) and atleast 1 r . A")) == BOT
        assert simplified("((only r . BOT) or B) and some r . A") == \
            "B and some r . A"
        assert simplified("((only r . BOT) or some r . B) and some r . TOP") == \
            "some r . B"

    def test_some_top_absorbs_some_and_atleast_in_disjunction(self):
        assert simplified("(some r . A) or (atleast 2 r . B) or some r . TOP") == \
            "some r . TOP"
        assert simplified("(some r . TOP) or atleast 0 r . A") == "TOP"
        # roles must match exactly, inverse flag included
        assert simplified("(some r . TOP) or (some r- . A) or some s . A") == \
            "(some r . TOP) or (some r- . A) or some s . A"
        # the extracted shape of interp-define's gids 3, 7 and 11
        assert simplified("((only r . BOT) or some r . B) and "
                          "((some r . B) or some r . TOP)") == "some r . B"

    def test_implied_some_top_absorbed_in_runs(self):
        # the extracted shape of interp-define's gid 14
        assert simplified("(not B or some r . B) and (not B or some r . TOP)") == \
            "not B or some r . B"
        assert simplified("(A or atleast 2 r . B) and (A or B or some r . TOP)") == \
            "A or atleast 2 r . B"
        assert simplified("(A and some r . B) or (A and some r . TOP)") == \
            "A and some r . TOP"
        # roles must match exactly, and only the implied side goes
        assert simplified("(A or some r . B) and (A or some r- . TOP)") == \
            "(A or some r . B) and (A or some r- . TOP)"
        assert simplified("(A or some r . TOP) and (A or some r . B)") == \
            "A or some r . B"

    def test_absorb_keeps_the_first_of_two_equivalent_operands(self):
        # not a finished run: some r . B beside some r . TOP makes the two
        # conjuncts imply each other, and exactly one of them may go
        pair = [C("(some r . B) or some r . TOP"), C("some r . TOP")]
        assert interpolation._absorb(pair, Or) == pair[:1]
        assert interpolation._absorb(pair[::-1], Or) == pair[1:]

    def test_complementary_names(self):
        assert simplify_concept(C("A or B or not A")) == TOP
        assert simplify_concept(C("A and (some r . B) and not A")) == BOT
        assert simplified("A or not B") == "A or not B"
        assert simplified("A and not B") == "A and not B"
        # the extracted shape of interp-define's gid 22
        assert simplified("(B or not B) and (not B or some r . E)") == \
            "not B or some r . E"

    def test_only_bot_false_repeats_until_stable(self):
        # the first disjunction shrinks to some s . A, which clears the second
        assert simplified("((only r . BOT) or some s . A) and ((only s . BOT) or E) "
                          "and some r . B") == "E and (some r . B) and some s . A"


ROLES = st.builds(Role, st.sampled_from(("r", "s")), st.booleans())
NAMES = st.one_of(st.builds(ConceptName, st.sampled_from(("A", "B"))),
                  st.builds(NegatedName, st.sampled_from(("A", "B"))))
#: names, constants and the quantified constants the rules match
LEAVES = st.one_of(NAMES, st.sampled_from((TOP, BOT)),
                   st.builds(Exists, ROLES, st.just(TOP)),
                   st.builds(Exists, ROLES, NAMES),
                   st.builds(Forall, ROLES, st.just(BOT)),
                   st.builds(AtLeast, st.integers(0, 1), ROLES, NAMES))


def implied_pair(shared: list, role: Role, n: int, body, conjunction: bool,
                 swap: bool):
    """``(S or Q) and (S or some r . TOP)`` with Q = some r . body (n = 0)
    or atleast n r . body, or its dual ``(S and Q) or (S and some r . TOP)``:
    the shape in which absorption uses that Q implies some r . TOP."""
    outer, join = (and_all, or_all) if conjunction else (or_all, and_all)
    strong = Exists(role, body) if n == 0 else AtLeast(n, role, body)
    pair = [join(shared + [strong]), join(shared + [Exists(role, TOP)])]
    return outer(pair[::-1] if swap else pair)


#: NNF concepts over A, B and two roles; flat runs of 2 to 4 operands put
#: complementary names and same-role quantifiers side by side
NNF_CONCEPTS = st.recursive(LEAVES, lambda inner: st.one_of(
    st.builds(And, inner, inner), st.builds(Or, inner, inner),
    st.lists(inner, min_size=2, max_size=4).map(and_all),
    st.lists(inner, min_size=2, max_size=4).map(or_all),
    st.builds(implied_pair, st.lists(inner, min_size=1, max_size=2), ROLES,
              st.integers(0, 2), inner, st.booleans(), st.booleans()),
    st.builds(Exists, ROLES, inner), st.builds(Forall, ROLES, inner),
    st.builds(AtMost, st.integers(0, 2), ROLES, inner),
    st.builds(AtLeast, st.integers(0, 2), ROLES, inner)), max_leaves=14)


@st.composite
def interpretations(draw):
    """Concept and role extensions as bitmasks over a domain of 1 to 3."""
    n = draw(st.integers(1, 3))
    names = st.integers(0, (1 << n) - 1)
    pairs = st.integers(0, (1 << (n * n)) - 1)
    return {"A": draw(names), "B": draw(names)}, {"r": draw(pairs), "s": draw(pairs)}, n


class TestSimplifyProperties:
    @settings(max_examples=400, deadline=None)
    @given(NNF_CONCEPTS, st.lists(interpretations(), min_size=1, max_size=8))
    def test_equivalent_in_every_interpretation(self, c, models):
        simple = simplify_concept(c)
        for cexts, rexts, n in models:
            assert _eval_bits(simple, cexts, rexts, n) == _eval_bits(c, cexts, rexts, n)

    @settings(max_examples=400, deadline=None)
    @given(NNF_CONCEPTS)
    def test_weight_never_grows(self, c):
        assert weight(simplify_concept(c)) <= weight(c)


#: The interp-define benchmark's ontologies and budget: these four goals
#: were answered "unknown" while the verification searches spent the step
#: bound on the extracted concept's dead structure.
LEFT_ONTOLOGY = "gci: A <= some r . B\ngci: B <= only r . B\n"
RIGHT_ONTOLOGY = "gci: some r . B <= E\ngci: E <= B\n"
DEFINED_ONTOLOGY = ("gci: A <= B and some r . E\ngci: B and some r . E <= A\n"
                    "gci: E <= only r . E\ngci: E <= not B\n")
WORKLOAD_LIMITS = SearchLimits(max_steps=1500, max_labels=40, max_seconds_hint=600)


class TestSimplifiedConceptsVerify:
    def test_interpolant_is_simplified_and_verified(self):
        result = compute_concept_interpolant(
            O(LEFT_ONTOLOGY), O(RIGHT_ONTOLOGY), C("A and (some r . A)"),
            C("E or (only r . E)"), WORKLOAD_LIMITS)
        assert result.status == "ok"
        assert result.concept == C("some r . B")

    @pytest.mark.parametrize("concept", [
        "A and (some r . B)", "A or (only r . B)", "A or (only r . E)"])
    def test_definition_is_verified(self, concept):
        result = explicit_definition(O(DEFINED_ONTOLOGY), C(concept), ("B", "E"),
                                     WORKLOAD_LIMITS)
        assert result.status == "ok"
        assert result.report.ok


class TestAnnotateAndExtract:
    def _pipeline_parts(self, o1, o2, sub, sup):
        result, split = split_parts(o1, o2, sub, sup)
        assert isinstance(result, Proved)
        return result.proof, split

    def test_id_leaf_sides(self):
        proof, split = self._pipeline_parts(EMPTY_ONT, EMPTY_ONT, A, A)
        pp = annotate_partition(proof, split)
        g = extract_interpolant(pp)
        assert interpolant_concept(g, "x0") == A

    def test_right_only_closure_gives_trivial_interpolant(self):
        # B or not B on the right closes alone; the left side contributes TOP
        proof, split = self._pipeline_parts(EMPTY_ONT, EMPTY_ONT,
                                            A, C("B or not B"))
        pp = annotate_partition(proof, split)
        g = extract_interpolant(pp)
        assert simplify_concept(interpolant_concept(g, "x0")) == TOP

    def test_forall_premise_tags(self):
        proof, split = self._pipeline_parts(
            EMPTY_ONT, EMPTY_ONT, C("some r . A"), C("some r . (A or B)"))
        pp = annotate_partition(proof, split)

        def find(node, rule):
            if node.instance.rule == rule:
                return node
            for child in node.children:
                hit = find(child, rule)
                if hit:
                    return hit
            return None

        forall_node = find(pp, "forall")
        assert forall_node is not None
        child = forall_node.children[0]
        fresh = forall_node.instance.witness.fresh[0]
        fresh_sides = [side for occ, side in
                       zip(child.conclusion.consequent, child.occ_sides)
                       if occ.label == fresh]
        # the universal principal came from the left (negated subsumee)
        assert fresh_sides and all(s is Side.LEFT for s in fresh_sides)

    def test_a_proof_read_back_from_json_is_refused(self):
        # the JSON form keeps no premise maps or read positions
        proof, split = self._pipeline_parts(EMPTY_ONT, EMPTY_ONT,
                                            C("A and B"), C("A or E"))
        read_back = proof_from_json(proof_to_json(proof))
        assert check_proof(union_ontology(EMPTY_ONT, EMPTY_ONT), read_back).ok
        with pytest.raises(InterpolationError, match="no premise_maps/reads"):
            annotate_partition(read_back, split)


def split_parts(o1, o2, sub, sup, limits=LIMITS):
    """The result of proving the split goal over the union ontology, and
    the goal's split into the left and the right part."""
    goal = split_goal(o1, o2, sub, sup)
    left = len(o1.tbox) + 1
    split = EndSplit((Side.LEFT,) * left + (Side.RIGHT,) * (len(goal.consequent) - left),
                     {}, len(o1.tbox))
    return prove(union_ontology(o1, o2), goal, limits), split


def split_proof(o1, o2, sub, sup, limits=LIMITS):
    """The partitioned proof of the split goal, or None when it is not
    proved within ``limits``."""
    result, split = split_parts(o1, o2, sub, sup, limits)
    if not isinstance(result, Proved):
        return None
    return annotate_partition(result.proof, split)


def assert_lemma5(pp, o1, o2):
    """The interpolant lemma, properties (1)-(4), at every node of pp, each
    node's interpolant extracted from its own subtree: (1) an equality atom
    negates an inequality of the left part, an inequality atom is one of the
    right part; (2) its labels occur in the sequent; (3)-(4) its names occur
    in both parts, each part with its own ontology."""
    names1, names2 = cpt(o1), cpt(o2)
    for _, node in walk(pp):
        g = extract_interpolant(node)
        phi = {frozenset((a.left, a.right)) for a, s in node.neq_sides.items()
               if s is Side.LEFT}
        psi = {frozenset((a.left, a.right)) for a, s in node.neq_sides.items()
               if s is Side.RIGHT}
        sides = list(zip(node.conclusion.consequent, node.occ_sides))
        shared = ((names1 | cpt([o.concept for o, s in sides if s is Side.LEFT]))
                  & (names2 | cpt([o.concept for o, s in sides if s is Side.RIGHT])))
        for m in g.members:
            for atom in m.atoms:
                assert frozenset((atom.left, atom.right)) in (
                    phi if isinstance(atom, Eq) else psi), atom
            assert m.labels() <= set(node.conclusion.labels())
            assert cpt([c for _, c in m.concepts]) <= shared


class TestPipeline:
    def test_conjunction_projection(self):
        out = compute_concept_interpolant(EMPTY_ONT, EMPTY_ONT,
                                          C("A and B"), C("A or E"), LIMITS)
        assert out.status == "ok"
        assert cpt(out.concept) <= {"A"}
        assert out.verification.ok

    def test_identity(self):
        out = compute_concept_interpolant(EMPTY_ONT, EMPTY_ONT, A, A, LIMITS)
        assert out.status == "ok"
        assert out.verification.ok

    def test_chain_through_shared_name(self):
        o1 = normalize_ontology([GCI(A, B)], [])
        o2 = normalize_ontology([GCI(B, E)], [])
        out = compute_concept_interpolant(o1, o2, A, E, LIMITS)
        assert out.status == "ok"
        assert cpt(out.concept) <= {"B"}

    def test_not_subsumed_reports_refuted(self):
        out = compute_concept_interpolant(EMPTY_ONT, EMPTY_ONT, A, B, LIMITS)
        assert out.status == "refuted"

    def test_lemma5_properties_enforced(self):
        # properties (1)-(4) at every node of a propagation-heavy proof
        ont = make_ontology([RIA((r,), Role("s"))], ())
        sub, sup = C("some r . A"), C("some s . (A or B)")
        assert_lemma5(split_proof(ont, EMPTY_ONT, sub, sup), ont, EMPTY_ONT)
        assert compute_concept_interpolant(ont, EMPTY_ONT, sub, sup, LIMITS).status == "ok"
        # and of one whose node interpolants carry (in)equality atoms
        pp = split_proof(EMPTY_ONT, EMPTY_ONT, C("atmost 1 r . A"),
                         C("atmost 2 r . (A and B)"))
        assert_lemma5(pp, EMPTY_ONT, EMPTY_ONT)
        assert any(m.atoms for _, node in walk(pp) for m in extract_interpolant(node).members)


class TestPipelineFuzz:
    def test_random_provable_goals_interpolate(self, rng):
        """Every provable random subsumption must yield a verified
        interpolant (or an honest unknown under the budget)."""
        from conftest import random_concept, random_ontology

        limits = SearchLimits(max_steps=1500, max_labels=40, max_seconds_hint=10)
        done = 0
        trials = 0
        while done < 40 and trials < 400:
            trials += 1
            o1 = random_ontology(rng, names=("A", "B"), roles=("r",), max_gcis=1)
            o2 = random_ontology(rng, names=("B", "E"), roles=("r",), max_gcis=1)
            from riq.core import union_ontology

            try:
                union = union_ontology(o1, o2)
            except Exception:
                continue  # merged rbox can break simplicity of counting roles
            sub = random_concept(rng, names=("A", "B"), roles=("r",), depth=2,
                                 counting=False)
            sup = random_concept(rng, names=("B", "E"), roles=("r",), depth=2,
                                 counting=False)
            from riq.prover import subsumes

            if not isinstance(subsumes(union, sub, sup, limits), Proved):
                continue
            out = compute_concept_interpolant(o1, o2, sub, sup, limits)
            if out.status == "unknown":
                continue
            assert out.status == "ok"
            assert out.verification.ok
            assert cpt(out.concept) <= cpt(o1, sub) & cpt(o2, sup)
            for proved in (out.prove_result, out.verification.forward,
                           out.verification.backward):
                assert check_proof(union, proved.proof).ok
            done += 1
        assert done >= 30


class TestLemma5Fuzz:
    def test_random_split_proofs(self, rng):
        """Properties (1)-(4) at every node of random split proofs, drawn as
        in TestPipelineFuzz, with counting restrictions so that the atmost
        rule adds inequality atoms to some of them; a smaller step budget
        proves the same goals and gives up sooner on the rest."""
        from conftest import random_ontology
        from riq.core import OntologyError

        limits = SearchLimits(max_steps=400, max_labels=40, max_seconds_hint=10)
        done = with_atoms = 0
        for _ in range(400):
            if done >= 40:
                break
            o1 = random_ontology(rng, names=("A", "B"), roles=("r",), max_gcis=1)
            o2 = random_ontology(rng, names=("B", "E"), roles=("r",), max_gcis=1)
            try:
                union_ontology(o1, o2)
            except OntologyError:
                continue  # merged rbox can break simplicity of counting roles
            sub = random_concept(rng, names=("A", "B"), roles=("r",), depth=2)
            sup = random_concept(rng, names=("B", "E"), roles=("r",), depth=2)
            pp = split_proof(o1, o2, sub, sup, limits)
            if pp is None:
                continue
            assert_lemma5(pp, o1, o2)
            done += 1
            with_atoms += any(n.neq_sides for _, n in walk(pp))
        assert done >= 30
        assert with_atoms >= 3


class TestInconclusiveVerification:
    def test_bounded_direction_gives_unknown(self):
        """The split goal is proved, but proving the subsumee below the
        extracted interpolant needs more than 45 steps: the answer is an
        honest unknown, and no unverified concept is returned."""
        o1 = O("gci: TOP <= some r . (not B or A)\n")
        o2 = O("ria: r o r <= r\ngci: TOP <= some r . only r . not B\n")
        limits = SearchLimits(max_steps=45, max_labels=40, max_seconds_hint=60)
        out = compute_concept_interpolant(o1, o2, C("(some r . not A) and only r . A"),
                                          C("some r . (not B or not B)"), limits)
        assert out.status == "unknown"
        assert isinstance(out.prove_result, Proved)
        assert out.verification.inconclusive
        assert isinstance(out.verification.forward, Unknown)
        assert out.concept is None and out.interpolant is None

    def test_failed_verification_still_raises(self, monkeypatch):
        # verifying BOT instead of the extracted concept refutes a direction
        verify = interpolation.verify_interpolant
        monkeypatch.setattr(interpolation, "verify_interpolant",
                            lambda o1, o2, c, d, i, limits: verify(o1, o2, c, d, BOT, limits))
        with pytest.raises(InterpolationError, match="verification failed"):
            compute_concept_interpolant(EMPTY_ONT, EMPTY_ONT, A, A, LIMITS)


class TestOneSearchPerFact:
    def test_pipeline_makes_three_searches(self, searches):
        out = compute_concept_interpolant(EMPTY_ONT, EMPTY_ONT,
                                          C("A and B"), C("A or E"), LIMITS)
        assert out.status == "ok"
        assert len(searches) == 3  # the split goal and two directions


class TestSplitGoalAgreement:
    def test_joined_and_split_goals_agree(self, rng):
        """Proving not-C-or-D and proving the pre-split consequent must give
        the same verdict (the disjunction rule is invertible)."""
        from conftest import random_concept, random_ontology
        from riq.core import nnf_negate
        from riq.prover import goal_sequent, prove

        limits = SearchLimits(max_steps=800, max_labels=30, max_seconds_hint=10)
        decided = 0
        for _ in range(120):
            ont = random_ontology(rng, names=("A", "B"), roles=("r",), max_gcis=1)
            sub = random_concept(rng, names=("A", "B"), roles=("r",), depth=2)
            sup = random_concept(rng, names=("A", "B"), roles=("r",), depth=2)
            joined = prove(ont, goal_sequent(ont, sub, sup), limits)
            gcis = tuple(LabeledConcept(lab, c) for lab, c in ont.gci_list("x0"))
            split = make_sequent((), gcis + (
                LabeledConcept("x0", nnf_negate(sub)), LabeledConcept("x0", sup)))
            split_result = prove(ont, split, limits)
            if type(joined).__name__ == "Unknown" or \
               type(split_result).__name__ == "Unknown":
                continue
            assert type(joined).__name__ == type(split_result).__name__, \
                (sub, sup)
            decided += 1
        assert decided >= 60


class TestVerifyInterpolant:
    def test_good_interpolant_passes(self):
        report = verify_interpolant(EMPTY_ONT, EMPTY_ONT,
                                    C("A and B"), C("A or E"), A, LIMITS)
        assert report.ok

    def test_signature_violation_detected(self):
        report = verify_interpolant(EMPTY_ONT, EMPTY_ONT,
                                    C("A and B"), C("A or E"), E, LIMITS)
        assert not report.signature_ok
        assert "E" in report.extra_names

    def test_unsound_interpolant_detected(self):
        report = verify_interpolant(EMPTY_ONT, EMPTY_ONT, A, A, BOT, LIMITS)
        assert not report.ok
        assert not isinstance(report.forward, Proved)


class TestSerialization:
    def test_roundtrip(self):
        g = interpolant(
            mk([Eq("x", "y")], [("x", A)]),
            mk([Neq("z", "u")], [("z", NegatedName("B"))]),
        )
        assert interpolant_from_json(interpolant_to_json(g)) == g
