"""Property tests for the structural view of a sequent: equality classes,
the propagation witnesses read off the CFL closure of its graph, the
checking of their (position, production) derivations and paths, the
well-formedness check of a premise made from its conclusion, and the graph
and closure of a premise extended from its conclusion's."""

from hypothesis import given, settings
from hypothesis import strategies as st

from riq.core import RIA, ConceptName, Exists, Ontology, Role
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
    _equalities,
    apply_rule,
    build_prop_graph,
    eq_classes,
    make_sequent,
)
from conftest import expand_steps, graph_check_propagation, one_step_rewrites, prop_reachable

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
        classes = eqc.classes
        assert sorted(lab for cls in classes for lab in cls) == sorted(labels)
        for cls in classes:
            assert all(eqc.class_of(lab) == cls for lab in cls)
        firsts = [order.index(eqc.rep(next(iter(cls)))) for cls in classes]
        assert firsts == sorted(firsts)


class TestPropReachableProperties:
    @settings(max_examples=150, deadline=None)
    @given(trees_with_equalities(), rboxes, st.sampled_from(ROLES), st.data())
    def test_every_witness_passes_the_exists_rule(self, tree, rias, role, data):
        labels, atoms = tree
        x = data.draw(st.sampled_from(labels))
        ontology = Ontology(tuple(rias))
        concept = Exists(role, A)
        seq = make_sequent(atoms, [LabeledConcept(x, concept)])
        for target, wit in prop_reachable(seq, ontology.rsystem, role, x):
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
        """Each premise's graph, built from its conclusion's, has the
        classes, nodes and edges of a graph built from scratch, and is
        extended exactly when the conclusion has atoms and the premise adds
        no equality.  Its closure, extended from the conclusion's over the
        new edges when the graph was, has the successors and Reach of a
        fresh closure, and each witness read off it passes the propagation
        check against the premise's own atoms."""
        atoms, steps = growth
        g = Ontology(tuple(rias)).rsystem
        seq = make_sequent(atoms, [LabeledConcept("x0", A)])
        graph = build_prop_graph(seq)
        closure = CflClosure(g, graph.edge_list)
        for added in steps:
            premise = make_sequent(seq.antecedent + added, seq.consequent, seq)
            grown = build_prop_graph(premise, graph)
            # an atom the conclusion has is not added again
            new = premise.antecedent[len(seq.antecedent):]
            assert grown.extended == (bool(seq.antecedent)
                                      and not any(isinstance(a, Eq) for a in new))
            fresh = build_prop_graph(premise)
            assert grown.nodes == fresh.nodes
            assert grown.eq.classes == fresh.eq.classes
            for lab in premise.labels():
                assert grown.eq.rep(lab) == fresh.eq.rep(lab)
                assert grown.eq.members(lab) == fresh.eq.members(lab)
            assert grown.edges == fresh.edges
            assert sorted(grown.edge_list, key=str) == sorted(fresh.edge_list, key=str)
            if grown.extended:
                assert grown.edge_list[:len(graph.edge_list)] == graph.edge_list
            closure = CflClosure(g, grown.edge_list, closure if grown.extended else None)
            fresh_closure = CflClosure(g, fresh.edge_list)
            assert closure.reach == fresh_closure.reach
            eq = _equalities(premise)
            for role in ROLES:
                for node in grown.nodes:
                    assert set(closure.successors(role, node)) == \
                        set(fresh_closure.successors(role, node))
                for x in premise.labels():
                    for rep, cls in grown.reachable(closure, role, x):
                        wit = grown.witness(closure, role, x, cls)
                        _check_propagation(premise, eq, g, role, x, rep,
                                           wit.path, wit.derivation)
            seq, graph = premise, grown
