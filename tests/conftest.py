"""Shared generators, brute-force oracles and reference helpers for the test
suite."""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Iterator, NamedTuple, Optional, Union

import pytest

from riq.core import (
    And,
    AtLeast,
    AtMost,
    ConceptName,
    Exists,
    Forall,
    GCI,
    NegatedName,
    Ontology,
    Or,
    RIA,
    Role,
    TOP,
    _regular_clause_options,
    is_simple,
    make_ontology,
)
from riq.parser import parse_concept, parse_ontology
from riq.rsystem import CflClosure, Production
from riq.semantics import Interpretation
from riq.sequent import (
    Atom,
    Eq,
    LabeledConcept,
    Neq,
    RoleAtom,
    RuleError,
    Sequent,
    SequentError,
    _atom_labels,
    build_prop_graph,
    eq_classes,
    make_sequent,
    parse_sequent,
)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def searches(monkeypatch):
    """A list that gains one entry for every proof search started."""
    from riq import prover

    started = []

    class CountedSearch(prover._Search):
        def __init__(self, *args):
            started.append(args)
            super().__init__(*args)

    monkeypatch.setattr(prover, "_Search", CountedSearch)
    return started


def assert_same_classes(eq, seq: Sequent) -> None:
    """`eq`, the equality classes a search node carries (None: the node's
    sequent has no equality atom), gives every label of `seq` the
    representative and members of its classes built from scratch."""
    fresh = eq_classes(seq.antecedent, seq.labels())
    for lab in seq.labels():
        assert (lab if eq is None else eq.rep(lab)) == fresh.rep(lab)
        assert ((lab,) if eq is None else eq.members(lab)) == fresh.members(lab)


@pytest.fixture
def carried_structure_checked(monkeypatch):
    """Make every search check, at each node that realizes an agenda item,
    that the classes it carries are the sequent's (`assert_same_classes`)
    and that its carried closure has the Reach of a closure built from
    scratch over the sequent's own classes.  The list gains, per node
    checked, the number of its closure's edges."""
    from riq import prover

    realize = prover._Search.realize
    checked = []
    last = [None, None]

    def checking(self, item, seq, eq, closure, *rest):
        # the items of one node are realized in a row, against one closure
        if last[0] is not seq or last[1] is not closure:
            assert_same_classes(eq, seq)
            fresh = CflClosure(self.ontology.rsystem, build_prop_graph(seq, seq.equalities()))
            assert closure.reach == fresh.reach
            last[:] = seq, closure
            checked.append(len(closure.edges))
        return realize(self, item, seq, eq, closure, *rest)

    monkeypatch.setattr(prover._Search, "realize", checking)
    return checked


def C(text: str):
    return parse_concept(text)


def S(text: str):
    return parse_sequent(text)


def O(text: str):
    return parse_ontology(text)


EMPTY_ONT = make_ontology((), ())


# ---------------------------------------------------------------------------
# Random structure generators
# ---------------------------------------------------------------------------


def random_concept(rng: random.Random, names=("A", "B"), roles=("r",),
                   depth=3, counting=True, max_n=2, atleast_min=0,
                   counting_roles=None):
    """Random NNF concept.  atleast_min=1 avoids the n=0 case whose negation
    collapses to BOT (involution cannot hold there)."""
    if counting_roles is None:
        counting_roles = roles if counting else ()
    choices = ["name", "negname", "and", "or", "exists", "forall"]
    if counting_roles:
        choices += ["atmost", "atleast"]
    kind = rng.choice(choices if depth > 0 else ["name", "negname"])
    if kind == "name":
        return ConceptName(rng.choice(names))
    if kind == "negname":
        return NegatedName(rng.choice(names))
    if kind in ("and", "or"):
        left = random_concept(rng, names, roles, depth - 1, counting, max_n,
                              atleast_min, counting_roles)
        right = random_concept(rng, names, roles, depth - 1, counting, max_n,
                               atleast_min, counting_roles)
        return And(left, right) if kind == "and" else Or(left, right)
    role = Role(rng.choice(roles), rng.random() < 0.3)
    body = random_concept(rng, names, roles, depth - 1, counting, max_n,
                          atleast_min, counting_roles)
    if kind == "exists":
        return Exists(role, body)
    if kind == "forall":
        return Forall(role, body)
    crole = Role(rng.choice(counting_roles), rng.random() < 0.3)
    if kind == "atmost":
        return AtMost(rng.randint(0, max_n), crole, body)
    return AtLeast(rng.randint(atleast_min, max_n), crole, body)


_RIA_SHAPES = {
    "r": [
        [RIA((Role("r"), Role("r")), Role("r"))],
        [RIA((Role("r", True),), Role("r"))],
    ],
    "rs": [
        [RIA((Role("r"),), Role("s"))],
        [RIA((Role("r"), Role("s")), Role("s"))],
        [RIA((Role("r"), Role("r")), Role("r")), RIA((Role("r"),), Role("s"))],
    ],
}


def random_ontology(rng: random.Random, names=("A", "B"), roles=("r",),
                    max_gcis=2, allow_rias=True, depth=2) -> Ontology:
    rias: list[RIA] = []
    if allow_rias and rng.random() < 0.35:
        shapes = _RIA_SHAPES["r"] if roles == ("r",) else _RIA_SHAPES["rs"]
        rias = list(rng.choice(shapes))
    simple = tuple(name for name in roles if is_simple(Role(name), rias))
    gcis = []
    for _ in range(rng.randint(0, max_gcis)):
        body = random_concept(rng, names, roles, depth, counting=bool(simple),
                              counting_roles=simple)
        gcis.append(GCI(TOP, body))
    return make_ontology(rias, gcis)


def random_goal(rng: random.Random, names=("A", "B"), roles=("r",),
                ontology: Ontology | None = None, depth=2):
    rias = ontology.rbox if ontology is not None else ()
    simple = tuple(name for name in roles if is_simple(Role(name), rias))
    sub = random_concept(rng, names, roles, depth, counting=bool(simple),
                         counting_roles=simple)
    sup = random_concept(rng, names, roles, depth, counting=bool(simple),
                         counting_roles=simple)
    return sub, sup


def random_interpretation(rng: random.Random, names=("A", "B"), roles=("r",),
                          max_domain=4) -> Interpretation:
    n = rng.randint(1, max_domain)
    domain = tuple(f"e{i}" for i in range(n))
    concepts = {name: frozenset(e for e in domain if rng.random() < 0.5)
                for name in names}
    rels = {name: frozenset((a, b) for a in domain for b in domain
                            if rng.random() < 0.4)
            for name in roles}
    return Interpretation(domain, concepts, rels)


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def one_step_rewrites(g, s: tuple) -> Iterator[tuple[tuple, int, Production]]:
    """All strings reachable from s in one step, with the rewritten position
    and production used, found by enumeration."""
    for i, ch in enumerate(s):
        for prod in sorted((p for p in g.productions if p.lhs == ch), key=str):
            yield s[:i] + prod.rhs + s[i + 1:], i, prod


def is_one_step(g, s: tuple, t: tuple) -> bool:
    """Whether t is derivable from s in exactly one step."""
    return any(out == t for out, _, _ in one_step_rewrites(g, s))


def expand_steps(g, role: Role, steps) -> Optional[tuple[tuple, ...]]:
    """The strings a (position, production) derivation passes through from
    (role,), each step looked up among the enumerated one-step rewrites of
    the string before it; None if some step is not among them."""
    strings = [(role,)]
    for pos, prod in steps:
        found = [t for t, i, q in one_step_rewrites(g, strings[-1])
                 if (i, q) == (pos, prod)]
        if not found:
            return None
        strings.append(found[0])
    return tuple(strings)


def derives_bounded(g, source: tuple, target: tuple,
                    max_steps: int) -> Optional[tuple[tuple, ...]]:
    """Shortest derivation source ->* target of length <= max_steps, as the
    sequence of intermediate strings (source first), or None.

    Rewrites never shrink a string, so anything longer than the target is a
    dead end; breadth-first search returns a minimal-length derivation.
    """
    if source == target:
        return (source,)
    seen = {source}
    queue = deque([(source, (source,))])
    while queue:
        current, path = queue.popleft()
        if len(path) - 1 >= max_steps:
            continue
        for nxt, _, _ in one_step_rewrites(g, current):
            if len(nxt) > len(target) or nxt in seen:
                continue
            if nxt == target:
                return path + (nxt,)
            seen.add(nxt)
            queue.append((nxt, path + (nxt,)))
    return None


def cfl_closure(g, edges) -> dict:
    """Per-role reachable node pairs of a `CflClosure`, as frozensets."""
    closure = CflClosure(g, edges)
    return {role: frozenset(pairs) for role, pairs in closure.reach.items()}


def ria_matches_clause(ria: RIA, order: frozenset[tuple[str, str]]) -> bool:
    """Re-check that ria matches some clause under the given order (the
    transitive closure of the harvested constraints)."""
    closed = set(order)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(tuple(closed), tuple(closed)):
            if b == c and (a, d) not in closed:
                closed.add((a, d))
                changed = True
    for option in _regular_clause_options(ria):
        if all(pair in closed for pair in option):
            return True
    return False


def brute_language(rsystem, role: Role, max_len: int, max_steps: int) -> set:
    """All strings derivable from (role,) with at most max_steps one-step
    rewrites and length at most max_len (BFS over derivations)."""
    start = (role,)
    out = {start}
    frontier = {start}
    for _ in range(max_steps):
        new = set()
        for s in frontier:
            for t, _, _ in one_step_rewrites(rsystem, s):
                if len(t) <= max_len and t not in out:
                    new.add(t)
        out |= new
        frontier = new
        if not frontier:
            break
    return out


def brute_reach(rsystem, edges, role: Role, max_len: int, max_steps: int) -> set:
    """Pairs (u, v) connected by a path labeled with some bounded-derivable
    string of the role's language (relation-composition per character)."""
    nodes = set()
    rel_by_char: dict[Role, set] = {}
    for u, ch, v in edges:
        nodes.update((u, v))
        rel_by_char.setdefault(ch, set()).add((u, v))
    pairs = set()
    for string in brute_language(rsystem, role, max_len, max_steps):
        current = {(u, u) for u in nodes}
        for ch in string:
            rel = rel_by_char.get(ch, set())
            current = {(u, w) for (u, v) in current for (v2, w) in rel if v == v2}
            if not current:
                break
        pairs |= current
    return pairs


def exhaustive_interpretations(names, roles, max_domain):
    """Every interpretation (no isomorphism reduction) up to the bound;
    only usable for tiny signatures."""
    for n in range(1, max_domain + 1):
        domain = tuple(f"e{i}" for i in range(n))
        subsets = list(itertools.chain.from_iterable(
            itertools.combinations(domain, k) for k in range(n + 1)))
        pair_space = [(a, b) for a in domain for b in domain]
        pair_subsets = list(itertools.chain.from_iterable(
            itertools.combinations(pair_space, k) for k in range(len(pair_space) + 1)))
        for cext in itertools.product(subsets, repeat=len(names)):
            for rext in itertools.product(pair_subsets, repeat=len(roles)):
                yield Interpretation(
                    domain,
                    {name: frozenset(cext[i]) for i, name in enumerate(names)},
                    {name: frozenset(rext[i]) for i, name in enumerate(roles)})


# ---------------------------------------------------------------------------
# Sequent helpers
# ---------------------------------------------------------------------------


def class_graph(seq: Sequent):
    """The propagation graph as a graph of equality classes, built without
    `build_prop_graph`: the classes of `seq`'s labels, in label order, and
    the set of edges, one per role atom between the classes of its labels
    and one for its inverse."""
    eq = eq_classes(seq.antecedent, seq.labels())
    nodes = tuple(dict.fromkeys(eq.class_of(lab) for lab in seq.labels()))
    edges = set()
    for atom in seq.antecedent:
        if isinstance(atom, RoleAtom):
            src, dst = eq.class_of(atom.src), eq.class_of(atom.dst)
            edges |= {(src, atom.role, dst), (dst, atom.role.inverse(), src)}
    return eq, nodes, edges


class PropHit(NamedTuple):
    """A propagation witness: a node path of class representatives and the
    (position, production) steps that derive the string labelling it."""
    path: tuple
    derivation: tuple


def prop_reachable(seq: Sequent, g, role: Role, x: str) -> tuple:
    """Representatives of every class reachable from x's class under the
    language of `role`, in label order, each with its propagation witness,
    read off a CFL closure over the class graph (`class_graph`)."""
    eq, nodes, edges = class_graph(seq)
    position = {cls: i for i, cls in enumerate(nodes)}
    closure = CflClosure(g, sorted(edges, key=lambda e: (position[e[0]], str(e[1]),
                                                         position[e[2]])))
    found = set(closure.successors(role, eq.class_of(x)))
    hits = []
    for cls in nodes:
        if cls in found:
            derivation, path = closure.derivation(role, eq.class_of(x), cls)
            hits.append((eq.rep(next(iter(cls))),
                         PropHit(tuple(eq.rep(next(iter(n))) for n in path), derivation)))
    return tuple(hits)


def closure_reachable(seq: Sequent, g, role: Role, x: str) -> tuple:
    """`prop_reachable` as the search reads it: off a CFL closure over
    `build_prop_graph`'s edges between class representatives, the targets
    in label order."""
    eq = seq.equalities()
    start = x if eq is None else eq.rep(x)
    closure = CflClosure(g, build_prop_graph(seq, eq))
    found = set(closure.successors(role, start))
    return tuple((y, PropHit(*reversed(closure.derivation(role, start, y))))
                 for y in seq.labels() if y in found)


def graph_check_propagation(seq: Sequent, g, role: Role, x: str, y: str,
                            path: tuple, derivation: tuple) -> None:
    """The propagation check as it is made on the class graph
    (`class_graph`): raise RuleError unless the derivation's steps, applied
    to (role,), are productions of g rewriting the role at their position,
    and the string they derive labels the path from x's class to y's class
    along the graph's edges, each role atom's and its inverse's between the
    classes of its labels."""
    string = [role]
    for pos, prod in derivation:
        if not 0 <= pos < len(string) or prod.lhs != string[pos] \
                or prod not in g.productions:
            raise RuleError(f"step {pos}, {prod} does not apply")
        string[pos:pos + 1] = prod.rhs
    eq, _, edges = class_graph(seq)
    if len(path) != len(string) + 1 or not eq.connected(path[0], x) \
            or not eq.connected(path[-1], y):
        raise RuleError("the path does not fit")
    for a, ch, b in zip(path, string, path[1:]):
        if (eq.class_of(a), ch, eq.class_of(b)) not in edges:
            raise RuleError(f"missing propagation edge {a} -{ch}-> {b}")


def substitute_label(seq: Sequent, x: str, y: str) -> Sequent:
    """Replace every occurrence of label y by x; the result must still be a
    well-formed sequent."""

    def sub(lab: str) -> str:
        return x if lab == y else lab

    atoms: list[Atom] = []
    for atom in seq.antecedent:
        if isinstance(atom, RoleAtom):
            atoms.append(RoleAtom(atom.role, sub(atom.src), sub(atom.dst)))
        elif isinstance(atom, Eq):
            atoms.append(Eq(sub(atom.left), sub(atom.right)))
        else:
            atoms.append(Neq(sub(atom.left), sub(atom.right)))
    concepts = [LabeledConcept(sub(occ.label), occ.concept) for occ in seq.consequent]
    return make_sequent(atoms, concepts)


def weaken(seq: Sequent, addition: Union[Atom, LabeledConcept]) -> Sequent:
    """Add a structural atom or another consequent occurrence; all labels of
    the addition must already occur in the sequent."""
    known = set(seq.labels())
    if isinstance(addition, LabeledConcept):
        if addition.label not in known:
            raise SequentError(f"weakening with fresh label {addition.label!r}")
        return make_sequent(seq.antecedent, seq.consequent + (addition,))
    if not set(_atom_labels(addition)) <= known:
        raise SequentError("weakening with a fresh label in a structural atom")
    return make_sequent(seq.antecedent + (addition,), seq.consequent)
