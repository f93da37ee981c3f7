"""Property tests for the structural view of a sequent: equality classes,
the propagation witnesses read off the CFL closure over its role atoms, the
checking of their (position, production) derivations and paths, the
well-formedness check of a premise made from its conclusion, and the
classes and closure a premise carries from its conclusion, in a search and
alone."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riq.core import (
    RIA,
    AtLeast,
    AtMost,
    ConceptName,
    Exists,
    Forall,
    NegatedName,
    Ontology,
    Or,
    Role,
    TOP,
)
from riq.prover import SearchLimits, prove
from riq.rsystem import CflClosure, Production
from riq.sequent import (
    Eq,
    LabeledConcept,
    Neq,
    RoleAtom,
    RuleError,
    SequentError,
    Witness,
    _check_propagation,
    apply_rule,
    build_prop_graph,
    eq_classes,
    make_sequent,
)
from conftest import (
    assert_same_classes,
    closure_reachable,
    expand_steps,
    graph_check_propagation,
    one_step_rewrites,
    prop_reachable,
)

ROLES = tuple(Role(name, inverted) for name in ("r", "s", "t") for inverted in (False, True))
A = ConceptName("A")


@st.composite
def trees_with_equalities(draw):
    """Role atoms forming a tree over x0..x{n-1}, plus equality atoms
    between arbitrary tree labels."""
    n = draw(st.integers(min_value=1, max_value=6))
    labels = [f"x{i}" for i in range(n)]
    atoms = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        atoms.append(RoleAtom(draw(st.sampled_from(ROLES)), labels[parent], labels[i]))
    pairs = draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)),
                          max_size=4))
    atoms += [Eq(left, right) for left, right in pairs]
    return labels, atoms


rboxes = st.lists(
    st.builds(RIA, st.lists(st.sampled_from(ROLES), min_size=1, max_size=3).map(tuple),
              st.sampled_from(ROLES)),
    max_size=3)


def components(labels, atoms):
    """Connected components of the equality atoms, by graph search."""
    adj = {lab: set() for lab in labels}
    for atom in atoms:
        if isinstance(atom, Eq):
            adj[atom.left].add(atom.right)
            adj[atom.right].add(atom.left)
    out = {}
    for lab in labels:
        seen, stack = {lab}, [lab]
        while stack:
            for nxt in adj[stack.pop()] - seen:
                seen.add(nxt)
                stack.append(nxt)
        out[lab] = frozenset(seen)
    return out


class TestEqClassesProperties:
    @settings(max_examples=150, deadline=None)
    @given(trees_with_equalities(), st.randoms(use_true_random=False))
    def test_tables_match_the_equality_graph(self, tree, rnd):
        labels, atoms = tree
        order = list(labels)
        rnd.shuffle(order)
        eqc = eq_classes(atoms, order)
        expected = components(labels, atoms)
        for x in labels:
            assert eqc.class_of(x) == expected[x]
            assert eqc.class_of(x) == {y for y in labels if eqc.connected(x, y)}
            assert eqc.rep(x) == min(expected[x], key=order.index)

    @settings(max_examples=150, deadline=None)
    @given(trees_with_equalities(), st.randoms(use_true_random=False))
    def test_classes_partition_the_labels_in_order(self, tree, rnd):
        labels, atoms = tree
        order = list(labels)
        rnd.shuffle(order)
        eqc = eq_classes(atoms, order)
        classes = {eqc.class_of(lab) for lab in labels}
        assert sorted(lab for cls in classes for lab in cls) == sorted(labels)
        for lab in labels:
            members = eqc.members(lab)
            assert members == tuple(sorted(eqc.class_of(lab), key=order.index))
            assert members[0] == eqc.rep(lab)


class TestPropReachableProperties:
    @settings(max_examples=150, deadline=None)
    @given(trees_with_equalities(), rboxes, st.sampled_from(ROLES), st.data())
    def test_every_witness_passes_the_exists_rule(self, tree, rias, role, data):
        labels, atoms = tree
        x = data.draw(st.sampled_from(labels))
        ontology = Ontology(tuple(rias))
        concept = Exists(role, A)
        seq = make_sequent(atoms, [LabeledConcept(x, concept)])
        hits = closure_reachable(seq, ontology.rsystem, role, x)
        # the reference reaches the same classes, named alike
        assert [y for y, _ in hits] == \
            [y for y, _ in prop_reachable(seq, ontology.rsystem, role, x)]
        for target, wit in hits:
            witness = Witness(label=x, concept=concept, target=target,
                              paths=(wit.path,), derivations=(wit.derivation,))
            inst = apply_rule(ontology, "exists", seq, witness)
            assert LabeledConcept(target, A) in inst.premises[0].consequent


#: productions a tampered derivation may use, in or out of the R-system
ANY_PRODUCTIONS = tuple(Production(lhs, rhs) for lhs in ROLES
                        for rhs in ((ROLES[0],), (ROLES[2], ROLES[4])))


class TestCompactDerivationProperties:
    @settings(max_examples=300, deadline=None)
    @given(rboxes, st.sampled_from(ROLES), st.data())
    def test_steps_are_accepted_exactly_when_the_reference_accepts(self, rias, role, data):
        """A derivation drawn from the enumerated one-step rewrites, maybe
        tampered with, is checked against a chain labelled by the string it
        derived before tampering: the exists rule accepts it exactly when
        every step is among the enumerated rewrites and the result is that
        string."""
        ontology = Ontology(tuple(rias))
        g = ontology.rsystem
        string, steps = (role,), []
        for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
            rewrites = list(one_step_rewrites(g, string))
            if not rewrites or len(string) > 6:
                break
            string, pos, prod = data.draw(st.sampled_from(rewrites))
            steps.append((pos, prod))
        kind = data.draw(st.sampled_from(
            ("keep", "position", "production", "drop", "add") if steps else ("keep", "add")))
        if kind == "add":
            at = data.draw(st.integers(min_value=0, max_value=len(steps)))
            steps.insert(at, (data.draw(st.integers(min_value=0, max_value=7)),
                              data.draw(st.sampled_from(ANY_PRODUCTIONS))))
        elif kind != "keep":
            at = data.draw(st.integers(min_value=0, max_value=len(steps) - 1))
            pos, prod = steps[at]
            if kind == "drop":
                del steps[at]
            elif kind == "position":
                steps[at] = (data.draw(st.integers(min_value=-1, max_value=7)), prod)
            else:
                steps[at] = (pos, data.draw(st.sampled_from(ANY_PRODUCTIONS)))
        labels = [f"x{i}" for i in range(len(string) + 1)]
        concept = Exists(role, A)
        seq = make_sequent([RoleAtom(ch, a, b) for ch, a, b in zip(string, labels, labels[1:])],
                           [LabeledConcept("x0", concept)])
        witness = Witness(label="x0", concept=concept, target=labels[-1],
                          paths=(tuple(labels),), derivations=(tuple(steps),))
        try:
            apply_rule(ontology, "exists", seq, witness)
            accepted = True
        except RuleError:
            accepted = False
        strings = expand_steps(g, role, steps)
        assert accepted == (strings is not None and strings[-1] == string)


def accepts(check, *args) -> bool:
    try:
        check(*args)
    except RuleError:
        return False
    return True


def exists_rule(ontology):
    """The (exists) rule's propagation check, as `apply_rule` makes it."""
    def check(seq, g, role, x, y, path, derivation):
        apply_rule(ontology, "exists", seq,
                   Witness(label=x, concept=Exists(role, A), target=y,
                           paths=(path,), derivations=(derivation,)))
    return check


class TestGraphFreePropagationCheck:
    @settings(max_examples=400, deadline=None)
    @given(trees_with_equalities(), rboxes, st.sampled_from(ROLES),
           st.sampled_from(("keep", "foreign", "other", "member", "reverse", "target")),
           st.data())
    def test_accepts_exactly_what_the_graph_check_accepts(self, tree, rias, role,
                                                          tamper, data):
        """A witness read off the closure, or a one-edge path when there is
        none, maybe tampered with: through a label outside the sequent, with
        some label replaced by any label (a missing edge) or by a member of
        its equality class, run backwards (each edge the wrong way round),
        or aimed at another target.  The (exists) rule accepts it exactly
        when the check on a built propagation graph does, with equality
        atoms or without."""
        labels, atoms = tree
        ontology = Ontology(tuple(rias))
        g = ontology.rsystem
        seq = make_sequent(atoms, [LabeledConcept(lab, Exists(role, A)) for lab in labels])
        eqc = eq_classes(seq.antecedent, seq.labels())
        x = data.draw(st.sampled_from(labels))
        hits = prop_reachable(seq, g, role, x)
        if hits:
            y, wit = data.draw(st.sampled_from(hits))
            path, derivation = list(wit.path), wit.derivation
        else:
            y = data.draw(st.sampled_from(labels))
            path, derivation = [x, y], ()
        at = data.draw(st.integers(min_value=0, max_value=len(path) - 1))
        if tamper == "foreign":
            path[at] = "q"
        elif tamper == "other":
            path[at] = data.draw(st.sampled_from(labels))
        elif tamper == "member":
            path[at] = data.draw(st.sampled_from(sorted(eqc.class_of(path[at]))))
        elif tamper == "reverse":
            path.reverse()
            x, y = y, x
        elif tamper == "target":
            y = data.draw(st.sampled_from(labels))
        args = (seq, g, role, x, y, tuple(path), derivation)
        assert accepts(exists_rule(ontology), *args) == \
            accepts(graph_check_propagation, *args)


FRESH = ("y0", "y1")


@st.composite
def extensions(draw):
    """A well-formed parent, maybe with an empty antecedent, and atoms and
    a consequent for a sequent made from it: role atoms, equalities and
    inequalities between its labels and two others."""
    labels, atoms = draw(trees_with_equalities())
    parent = make_sequent(atoms, [LabeledConcept(draw(st.sampled_from(labels)), A)])
    pool = st.sampled_from(labels + list(FRESH))
    added = draw(st.lists(st.one_of(
        st.builds(RoleAtom, st.sampled_from(ROLES), pool, pool),
        st.builds(Eq, pool, pool),
        st.builds(Neq, pool, pool)), max_size=4))
    consequent = draw(st.lists(pool.map(lambda lab: LabeledConcept(lab, A)), max_size=3))
    # the parent's own antecedent, or its atoms in another order
    kept = parent.antecedent if draw(st.booleans()) else parent.antecedent[::-1]
    return parent, kept + tuple(added), consequent


class TestIncrementalValidation:
    @settings(max_examples=400, deadline=None)
    @given(extensions())
    def test_a_parent_changes_no_verdict(self, extension):
        """A sequent made from a parent is well-formed exactly when the same
        sequent made without one is, and then equal to it."""
        parent, atoms, consequent = extension
        try:
            alone = make_sequent(atoms, consequent)
        except SequentError:
            alone = None
        try:
            made = make_sequent(atoms, consequent, parent)
        except SequentError:
            made = None
        assert made == alone
        if made is not None:
            assert made.labels() == alone.labels()
            assert made.atom_set() == alone.atom_set()
            assert made._rooted == alone._rooted


@st.composite
def growths(draw):
    """A sequent over a tree with equality atoms or without, and the atoms
    that rules add to it in turn: a (forall)-style leaf r(x, y), an
    (atmost)-style group of fresh labels, pairwise unequal, each a leaf
    under one known label, or an (atleast)-style equality between known
    labels."""
    labels, atoms = draw(trees_with_equalities())
    labels = list(labels)
    steps = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(("forall", "atmost", "atleast")))
        x = draw(st.sampled_from(labels))
        role = draw(st.sampled_from(ROLES))
        if kind == "atleast":
            y = draw(st.sampled_from(labels))
            steps.append((Eq(x, y),))
            continue
        ys = [f"y{i}_{j}" for j in range(1 if kind == "forall" else
                                          draw(st.integers(min_value=1, max_value=3)))]
        steps.append(tuple(Neq(a, b) for k, a in enumerate(ys) for b in ys[k + 1:])
                     + tuple(RoleAtom(role, x, y) for y in ys))
        labels += ys
    return atoms, steps


class TestExtendedStructure:
    @settings(max_examples=300, deadline=None)
    @given(growths(), rboxes)
    def test_an_extension_equals_a_build_from_scratch(self, growth, rias):
        """A premise that adds atoms over fresh labels and no equality to a
        conclusion with atoms keeps its classes and extends its closure by
        the edges of the added role atoms, which follow the conclusion's
        edges; any other premise builds both anew.  The classes give every
        label of the premise a fresh build's representative and members,
        the closure has a fresh closure's Reach and successors, and each
        witness read off it passes the propagation check against the
        premise's own atoms."""
        atoms, steps = growth
        g = Ontology(tuple(rias)).rsystem
        seq = make_sequent(atoms, [LabeledConcept("x0", A)])
        eq = seq.equalities()
        closure = CflClosure(g, build_prop_graph(seq, eq))
        for added in steps:
            premise = make_sequent(seq.antecedent + added, seq.consequent, seq)
            # an atom the conclusion has is not added again
            start = len(seq.antecedent)
            if start and not any(isinstance(a, Eq) for a in premise.antecedent[start:]):
                edges = build_prop_graph(premise, eq, start)
                assert len(edges) == sum(isinstance(a, RoleAtom) for a in added)
                closure = CflClosure(g, closure.edges + edges, closure)
            else:
                eq = premise.equalities()
                closure = CflClosure(g, build_prop_graph(premise, eq))
            assert_same_classes(eq, premise)
            fresh = CflClosure(g, build_prop_graph(premise, premise.equalities()))
            assert closure.reach == fresh.reach
            for role in ROLES:
                for x in premise.labels():
                    node = x if eq is None else eq.rep(x)
                    assert set(closure.successors(role, node)) == \
                        set(fresh.successors(role, node))
                    for y in closure.successors(role, node):
                        derivation, path = closure.derivation(role, node, y)
                        _check_propagation(premise, g, role, x, y, path, derivation)
            seq = premise


#: concepts whose rules need witnesses, make fresh labels or merge labels;
#: the value premises of (atleast 2 r . TOP) close, so its equality premise
#: is searched too
CONCEPTS = st.sampled_from(ROLES).flatmap(lambda role: st.sampled_from((
    Exists(role, A), Forall(role, A), Forall(role, Exists(role, A)),
    AtLeast(2, role, A), AtLeast(2, role, TOP), AtMost(1, role, ConceptName("B")),
    Or(Exists(role, A), Forall(role, A)), NegatedName("A"))))


class TestCarriedStructure:
    # the fixture's patch serves every example alike
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(trees_with_equalities(), rboxes, st.data())
    def test_every_search_node_carries_a_fresh_closure(self, carried_structure_checked,
                                                       tree, rias, data):
        """A search from a random antecedent, with equality atoms or
        without, carries to every node the classes and Reach that a build
        from scratch gives the node's sequent."""
        labels, atoms = tree
        occurrences = data.draw(st.lists(
            st.builds(LabeledConcept, st.sampled_from(labels), CONCEPTS), min_size=1,
            max_size=4))
        goal = make_sequent(atoms, occurrences)
        before = len(carried_structure_checked)
        prove(Ontology(tuple(rias)), goal, SearchLimits(200, 16, 10))
        assert len(carried_structure_checked) > before
