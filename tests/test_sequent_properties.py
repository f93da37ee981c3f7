"""Property tests for the structural view of a sequent: equality classes and
the propagation witnesses read off the CFL closure of its graph."""

from hypothesis import given, settings
from hypothesis import strategies as st

from riq.core import RIA, ConceptName, Exists, Ontology, Role
from riq.sequent import (
    Eq,
    LabeledConcept,
    RoleAtom,
    Witness,
    apply_rule,
    eq_classes,
    make_sequent,
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
                              strings=(wit.string,), paths=(wit.path,),
                              derivations=(wit.derivation,))
            inst = apply_rule(ontology, "exists", seq, witness)
            assert LabeledConcept(target, A) in inst.premises[0].consequent
