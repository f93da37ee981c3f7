"""Sequents, label equivalence classes, the propagation edges of a
sequent's role atoms, the calculus rules with side-condition checking,
proof objects, and an independent proof checker.

A sequent is `antecedent |- consequent`: the antecedent is a set of
structural atoms (role atoms forming a directed tree, plus equalities and
inequalities) kept in insertion order, and the consequent is a multiset of
labeled concepts.  Labels are plain strings ordered by first occurrence in
the sequent; rule applications pick class representatives in that order,
which makes proof search deterministic.

Each rule's principal types are stated once (`PRINCIPAL_TYPES`).  Every
premise is made by one builder (`_premise`), which records its layout; the
premise maps are expanded from the layouts on demand.  `apply_rule` is
`build_instance`, which checks every side condition but the propagation
witnesses and makes the premises, followed by `check_paths`, which checks
those witnesses; the prover builds every step with `build_instance` and
checks the witnesses of the steps its proof keeps.

Proof nodes store enough witness data (equality paths, propagation node
paths with the (position, production) steps that derive their role
strings, fresh labels) for `check_proof` to re-derive every node and
re-verify every side condition locally, without re-running any search.  It
is the one re-derivation routine, for proofs read from outside; a proof
from the prover is derived from its goal already.  Every proof walk is a
loop (`walk`), so proof depth is bounded by memory, not by the
interpreter's recursion limit.
"""

from __future__ import annotations

import json
import re
from collections import Counter, deque
from dataclasses import InitVar, dataclass, field, fields
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Optional, Union

from .core import (
    And,
    AtLeast,
    AtMost,
    Concept,
    ConceptName,
    Exists,
    Forall,
    NegatedName,
    Ontology,
    Or,
    RiqError,
    Role,
    nnf_negate,
    weight,
)
from .parser import NAME, ParseError, _Parser, _tokenize, parse_concept, render_concept
from .rsystem import Edge, Production, RSystem, Step

Label = str


class SequentError(RiqError):
    """Violation of the sequent well-formedness conditions."""


class RuleError(RiqError):
    """Rule not applicable: missing principal, failed side condition, or a
    broken invariant in the constructed premise."""


# ---------------------------------------------------------------------------
# Structural atoms and sequents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoleAtom:
    role: Role
    src: Label
    dst: Label

    def __str__(self) -> str:
        return f"{self.role}({self.src},{self.dst})"


@dataclass(frozen=True)
class Eq:
    left: Label
    right: Label

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class Neq:
    left: Label
    right: Label

    def __str__(self) -> str:
        return f"{self.left} != {self.right}"


Atom = Union[RoleAtom, Eq, Neq]


@dataclass(frozen=True)
class LabeledConcept:
    label: Label
    concept: Concept


def _atom_labels(atom: Atom) -> tuple[Label, ...]:
    if isinstance(atom, RoleAtom):
        return (atom.src, atom.dst)
    return (atom.left, atom.right)


@dataclass(frozen=True)
class Sequent:
    """A well-formed sequent: the well-formedness conditions are checked once,
    when it is made, so no sequent exists that breaks them.

    A sequent made from a `parent`, as `apply_rule` makes each premise from
    its conclusion, is checked only where it extends the parent
    (`_extends`); when that check does not settle it, the full check
    (`_validate`) decides, as it does for a sequent made any other way.
    The parent is not kept and takes no part in equality or hashing."""

    antecedent: tuple[Atom, ...]
    consequent: tuple[LabeledConcept, ...]
    parent: InitVar[Optional[Sequent]] = None

    def __post_init__(self, parent: Optional[Sequent]) -> None:
        # whether every label is a node of one role tree, which `_extends`
        # needs of a parent
        rooted = parent is not None and _extends(self, parent)
        cache = self.__dict__
        cache["_rooted"] = rooted or _validate(self)
        if rooted and self.antecedent is parent.antecedent:
            # the labels, atoms, equality classes and path steps of a rooted
            # antecedent are the sequent's
            for name in ("_labels", "_atom_set", "_equalities", "_path_steps"):
                if name in parent.__dict__:
                    cache[name] = parent.__dict__[name]

    def labels(self) -> tuple[Label, ...]:
        """All labels, ordered by first occurrence (antecedent first)."""
        return self._labels

    @cached_property
    def _labels(self) -> tuple[Label, ...]:
        seen: dict[Label, None] = {}
        for atom in self.antecedent:
            for lab in _atom_labels(atom):
                seen.setdefault(lab)
        for occ in self.consequent:
            seen.setdefault(occ.label)
        return tuple(seen)

    def atom_set(self) -> frozenset[Atom]:
        return self._atom_set

    @cached_property
    def _atom_set(self) -> frozenset[Atom]:
        return frozenset(self.antecedent)

    def equalities(self) -> Optional[EqClasses]:
        """The classes of the equality atoms, or None when there is none and
        every class is a single label; computed once per antecedent."""
        return self._equalities

    @cached_property
    def _equalities(self) -> Optional[EqClasses]:
        if any(isinstance(atom, Eq) for atom in self.antecedent):
            return eq_classes(self.antecedent, self.labels())
        return None

    @cached_property
    def _path_steps(self) -> frozenset[tuple[Label, str, bool, Label]]:
        """The steps a -ch-> b of a propagation path that the role atoms
        allow, as (a's representative, ch's name, whether ch is inverted,
        b's representative): each role atom in both orientations."""
        eq = self.equalities()
        steps = set()
        for atom in self.antecedent:
            if isinstance(atom, RoleAtom):
                a, b = (atom.src, atom.dst) if eq is None else (eq.rep(atom.src),
                                                                  eq.rep(atom.dst))
                name, inverted = atom.role.name, atom.role.inverted
                steps.add((a, name, inverted, b))
                steps.add((b, name, not inverted, a))
        return frozenset(steps)

    def concept_set(self) -> frozenset[tuple[Label, Concept]]:
        return frozenset((occ.label, occ.concept) for occ in self.consequent)

    def key(self):
        """Order-insensitive comparison key (multiset consequent)."""
        return self.atom_set(), frozenset(Counter(self.consequent).items())


def make_sequent(atoms: Iterable[Atom], concepts: Iterable[LabeledConcept],
                 parent: Optional[Sequent] = None) -> Sequent:
    """Deduplicate atoms (set semantics, insertion order kept), keep the
    consequent as a multiset; `Sequent` validates the result, against
    `parent` when one is given.  The parent's own antecedent is kept as it
    is."""
    if parent is None or atoms is not parent.antecedent:
        atoms = tuple(dict.fromkeys(atoms))
    return Sequent(atoms, tuple(concepts), parent)


def _extends(seq: Sequent, parent: Sequent) -> bool:
    """Whether `seq` is well-formed because `parent` is, and every label of
    each is a node of its role tree: the antecedent of `seq` extends the
    parent's, each added role atom hangs a fresh label beneath a known one,
    each added equality or inequality names known labels (those of the
    parent and the fresh ones), and so does the consequent.  False when any
    of this fails; the sequent may still be well-formed."""
    old, new = parent.antecedent, seq.antecedent
    if not parent._rooted or (new is not old and new[:len(old)] != old):
        return False
    known = set(parent.labels())
    added = new[len(old):]
    for atom in added:
        if isinstance(atom, RoleAtom):
            if atom.src not in known or atom.dst in known:
                return False
            known.add(atom.dst)
    # (atmost) puts the inequalities between its fresh labels first
    for atom in added:
        if not isinstance(atom, RoleAtom) and not (atom.left in known
                                                   and atom.right in known):
            return False
    return all(occ.label in known for occ in seq.consequent)


def _validate(seq: Sequent) -> bool:
    """Raise SequentError unless `seq` is well-formed; then return whether
    every label is a node of one role tree."""
    parent: dict[Label, Label] = {}
    children: dict[Label, list[Label]] = {}
    for atom in seq.antecedent:
        if isinstance(atom, RoleAtom):
            known = parent.get(atom.dst)
            if known is None:
                parent[atom.dst] = atom.src
                children.setdefault(atom.src, []).append(atom.dst)
            elif known != atom.src:
                raise SequentError("role atoms do not form a tree: duplicate parent")
    if parent:
        roots = children.keys() - parent.keys()
        if len(roots) != 1:
            raise SequentError(f"role atoms do not form a tree: {len(roots)} roots")
        # one parent per label, so the walk meets each label at most once
        reached = 0
        frontier = list(roots)
        while frontier:
            reached += 1
            frontier.extend(children.get(frontier.pop(), ()))
        if reached != len(parent) + 1:
            raise SequentError("role atoms do not form a tree: disconnected")
    antecedent_labels = {lab for atom in seq.antecedent for lab in _atom_labels(atom)}
    consequent_labels = {occ.label for occ in seq.consequent}
    if seq.antecedent:
        if not consequent_labels <= antecedent_labels:
            raise SequentError("consequent labels must occur in the antecedent")
    else:
        if len(consequent_labels) != 1:
            raise SequentError("a sequent with empty antecedent needs exactly one label")
    return bool(parent) and len(antecedent_labels) == len(parent) + 1


def sequent_weight(seq: Sequent) -> int:
    """|antecedent| plus the summed weights of the consequent multiset."""
    return len(seq.atom_set()) + sum(weight(occ.concept) for occ in seq.consequent)


# ---------------------------------------------------------------------------
# Equivalence classes and propagation edges
# ---------------------------------------------------------------------------


class EqClasses:
    """Equivalence classes of the labels under the equality atoms of an
    antecedent.  Every label's class and representative (the class's first
    label in `order`, then in order of appearance in the equalities) are
    tabulated once at construction, so lookups do not scan; `path`
    reconstructs a chain of equality atoms for the equality side condition.
    A label they do not know is its own class, so the classes of an
    antecedent serve unchanged once atoms over fresh labels, none of them
    an equality, are added to it."""

    def __init__(self, atoms: Iterable[Atom], order: Iterable[Label]):
        self._adj: dict[Label, list[Label]] = {lab: [] for lab in order}
        for atom in atoms:
            if isinstance(atom, Eq):
                self._adj.setdefault(atom.left, []).append(atom.right)
                self._adj.setdefault(atom.right, []).append(atom.left)
        self._rep: dict[Label, Label] = {}
        self._class: dict[Label, frozenset[Label]] = {}
        for first in self._adj:
            if first in self._rep:
                continue
            members = {first}
            stack = [first]
            while stack:
                for nxt in self._adj[stack.pop()]:
                    if nxt not in members:
                        members.add(nxt)
                        stack.append(nxt)
            cls = frozenset(members)
            for lab in cls:
                self._rep[lab] = first
                self._class[lab] = cls

    def connected(self, x: Label, y: Label) -> bool:
        return self.rep(x) == self.rep(y)

    def class_of(self, lab: Label) -> frozenset[Label]:
        return self._class.get(lab) or frozenset((lab,))

    def members(self, lab: Label) -> tuple[Label, ...]:
        """The class of lab, in label order."""
        cls = self.class_of(lab)
        if len(cls) == 1:
            return tuple(cls)
        return tuple(m for m in self._adj if m in cls)

    def rep(self, lab: Label) -> Label:
        return self._rep.get(lab, lab)

    def path(self, x: Label, y: Label) -> Optional[tuple[Label, ...]]:
        """A chain x = z1, ..., zn = y with an equality atom (either
        orientation) between neighbours, or None."""
        if x == y:
            return (x,)
        if x not in self._adj or y not in self._adj:
            return None
        prev: dict[Label, Label] = {x: x}
        queue = deque([x])
        while queue:
            cur = queue.popleft()
            for nxt in self._adj[cur]:
                if nxt in prev:
                    continue
                prev[nxt] = cur
                if nxt == y:
                    path = [y]
                    while path[-1] != x:
                        path.append(prev[path[-1]])
                    return tuple(reversed(path))
                queue.append(nxt)
        return None


def eq_classes(atoms: Iterable[Atom], order: Iterable[Label] = ()) -> EqClasses:
    """Equivalence classes of the labels under the equality atoms; `order`
    fixes representative choice (first occurrence wins)."""
    atoms = tuple(atoms)
    if not order:
        seen: dict[Label, None] = {}
        for atom in atoms:
            for lab in _atom_labels(atom):
                seen.setdefault(lab)
        order = tuple(seen)
    return EqClasses(atoms, order)


def build_prop_graph(seq: Sequent, eq: Optional[EqClasses] = None,
                     start: int = 0) -> tuple[Edge, ...]:
    """The propagation edges of the role atoms in `seq.antecedent[start:]`:
    one edge per atom, between the representatives of its labels' classes
    under `eq` (`seq.equalities()`; None reads each label as its own
    class).  A `CflClosure` over them, which adds each edge's inverse, has
    the class representatives as nodes, and its Reach decides the
    propagation side conditions.

    The order of the edges fixes which derivation the closure records for
    each pair, and so the witnesses a proof holds.  From the first atom
    (`start` 0), the edges are sorted by the smaller of the keys (source
    position, role name, target position) of their two orientations, with
    positions in label order.  A later `start` keeps the atoms' order:
    those edges extend the closure of the antecedent before them, to which
    a rule added atoms but no equality."""
    rep = (lambda lab: lab) if eq is None else eq.rep
    edges = [(rep(atom.src), atom.role, rep(atom.dst))
             for atom in seq.antecedent[start:] if isinstance(atom, RoleAtom)]
    if start == 0:
        position = {lab: i for i, lab in enumerate(seq.labels())}
        edges.sort(key=lambda e: min((position[e[0]], str(e[1]), position[e[2]]),
                                     (position[e[2]], str(e[1].inverse()), position[e[0]])))
    return tuple(edges)


# ---------------------------------------------------------------------------
# Rule instances and proofs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """Side-condition evidence recorded in a proof node; fields not used by
    the rule stay at their defaults."""

    label: Optional[Label] = None
    concept: Optional[Concept] = None
    pair: Optional[tuple[Label, Label]] = None
    eq_path: tuple[Label, ...] = ()
    target: Optional[Label] = None
    targets: tuple[Label, ...] = ()
    fresh: tuple[Label, ...] = ()
    paths: tuple[tuple[Label, ...], ...] = ()
    derivations: tuple[tuple[Step, ...], ...] = ()


#: Provenance of a premise occurrence: ("ctx", j) copies conclusion
#: occurrence j, ("active",) descends from the principal, ("gci", k) is the
#: k-th TBox axiom introduced at a fresh label.
Provenance = tuple
PremiseMap = tuple[Provenance, ...]
#: How a premise's consequent is laid out, `(at, drop, provenances)`: the
#: conclusion's occurrences but the one at `drop` (None keeps all), copied in
#: order, with the premise's own occurrences, whose provenances these are,
#: inserted before conclusion position `at` (at most `drop`).
Layout = tuple[int, Optional[int], tuple[Provenance, ...]]

_ACTIVE: tuple[Provenance, ...] = (("active",),)

#: The concept types a rule's principal may have; (id_eq) has no principal.
PRINCIPAL_TYPES: dict[str, tuple[type, ...]] = {
    "id": (ConceptName,),
    "subst_eq": (ConceptName, NegatedName),
    "or": (Or,),
    "and": (And,),
    "exists": (Exists,),
    "forall": (Forall,),
    "atmost": (AtMost,),
    "atleast": (AtLeast,),
}


@dataclass(frozen=True)
class RuleInstance:
    rule: str
    conclusion: Sequent
    premises: tuple[Sequent, ...]
    witness: Witness
    # both set by `apply_rule`, never serialized: one layout per premise, and
    # the conclusion's consequent positions the rule reads (the principal,
    # both sides of an (id) axiom, none for (id_eq))
    layouts: tuple[Layout, ...] = field(default=(), compare=False, repr=False)
    reads: tuple[int, ...] = field(default=(), compare=False, repr=False)

    @property
    def premise_maps(self) -> tuple[PremiseMap, ...]:
        """Each premise's provenance per occurrence, expanded from its
        layout."""
        n = len(self.conclusion.consequent)
        maps = []
        for at, drop, provenances in self.layouts:
            ctx = tuple(("ctx", j) for j in range(n) if j != drop)
            maps.append(ctx[:at] + provenances + ctx[at:])
        return tuple(maps)


@dataclass(frozen=True, eq=False, repr=False)
class Proof:
    """A proof tree, equal only to itself; nothing on it recurses."""

    instance: RuleInstance
    children: tuple["Proof", ...] = ()

    @property
    def conclusion(self) -> Sequent:
        return self.instance.conclusion

    def nodes(self) -> Iterator["Proof"]:
        """Every node in pre-order; reversed, children come before parents."""
        return (node for _, node in walk(self))


def walk(root) -> Iterator[tuple[tuple[int, ...], object]]:
    """Every node of a tree whose nodes have `children`, in pre-order, with
    its path of child indices from the root; a loop, not a recursion."""
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        stack.extend((path + (i,), node.children[i])
                     for i in reversed(range(len(node.children))))


def proof_size(proof: Proof) -> int:
    """Sum of the weights of all sequents in the proof tree."""
    return sum(sequent_weight(node.conclusion) for node in proof.nodes())


def _principal_index(seq: Sequent, label: Label, concept: Concept) -> int:
    """The first occurrence of `label : concept`, matched by value; a parsed
    proof holds equal concepts that are different objects, so identity and
    the cached hash only decide the comparison early."""
    h = concept._hash
    for i, occ in enumerate(seq.consequent):
        c = occ.concept
        if occ.label == label and (c is concept or c._hash == h and c == concept):
            return i
    raise RuleError(f"principal {label} : {render_concept(concept)} not in consequent")


def _check_eq_path(seq: Sequent, x: Label, y: Label, path: tuple[Label, ...]) -> None:
    if not path or path[0] != x or path[-1] != y:
        raise RuleError(f"equality path must run from {x} to {y}")
    atoms = seq.atom_set()
    for a, b in zip(path, path[1:]):
        if Eq(a, b) not in atoms and Eq(b, a) not in atoms:
            raise RuleError(f"no equality atom between {a} and {b}")


def _check_propagation(seq: Sequent, g: RSystem, role: Role, x: Label, y: Label,
                       path: tuple[Label, ...], derivation: tuple[Step, ...]) -> None:
    """Re-verify a propagation witness against the sequent's own atoms.
    The derivation's steps are applied to (role,) in order: each rewrites
    the role at its position, which must be in the string and be the
    production's left-hand side, by a production of the R-system.  The
    derived string must then label the path, which runs from x's class to
    y's class: each step a -ch-> b is a role atom ch(a', b') or ch-(b', a')
    of the sequent, with a' in a's class and b' in b's.  Each step is one
    probe of the steps the sequent's role atoms allow, between class
    representatives, which are cached per antecedent."""
    string = [role]
    for i, (pos, prod) in enumerate(derivation):
        if not 0 <= pos < len(string):
            raise RuleError(f"derivation step {i}: position {pos} is outside the string")
        if prod.lhs != string[pos]:
            raise RuleError(f"derivation step {i}: {prod} does not rewrite {string[pos]}")
        if prod not in g.productions:
            raise RuleError(f"derivation step {i}: {prod} is not in the R-system")
        string[pos:pos + 1] = prod.rhs
    if len(path) != len(string) + 1:
        raise RuleError("propagation path length does not match the derived string")
    eq = seq.equalities()
    nodes = path if eq is None else tuple(map(eq.rep, path))
    if nodes[0] != (x if eq is None else eq.rep(x)):
        raise RuleError("propagation path does not start at the principal label")
    if nodes[-1] != (y if eq is None else eq.rep(y)):
        raise RuleError("propagation path does not end at the target label")
    allowed = seq._path_steps
    for i, ch in enumerate(string):
        if (nodes[i], ch.name, ch.inverted, nodes[i + 1]) not in allowed:
            raise RuleError(f"missing propagation edge {path[i]} -{ch}-> {path[i + 1]}")


def _check_fresh(seq: Sequent, fresh: tuple[Label, ...]) -> None:
    known = set(seq.labels())
    if len(set(fresh)) != len(fresh):
        raise RuleError("fresh labels must be pairwise distinct")
    for lab in fresh:
        if lab in known:
            raise RuleError(f"label {lab!r} is not fresh")


def _premise(conclusion: Sequent, occurrences: tuple[LabeledConcept, ...],
             provenances: tuple[Provenance, ...], at: int, drop: Optional[int] = None,
             atoms: Optional[tuple[Atom, ...]] = None) -> tuple[Sequent, Layout]:
    """The premise whose consequent is the conclusion's without the
    occurrence at `drop`, with `occurrences` inserted before conclusion
    position `at` (at most `drop`), and whose antecedent is `atoms` (the
    conclusion's when None); with its layout."""
    cons = conclusion.consequent
    if drop is None:
        consequent = cons[:at] + occurrences + cons[at:]
    else:
        consequent = cons[:at] + occurrences + cons[at:drop] + cons[drop + 1:]
    premise = make_sequent(conclusion.antecedent if atoms is None else atoms,
                           consequent, conclusion)
    return premise, (at, drop, provenances)


def apply_rule(ontology: Ontology, rule: str, conclusion: Sequent,
               witness: Witness) -> RuleInstance:
    """Construct the premises of a rule application bottom-up, verifying the
    side condition carried by the witness against the ontology's R-system:
    `build_instance`, then `check_paths`.  Raises RuleError if the rule does
    not apply."""
    instance = build_instance(ontology, rule, conclusion, witness)
    check_paths(ontology, instance)
    return instance


def check_paths(ontology: Ontology, instance: RuleInstance) -> None:
    """Verify the propagation witnesses of an (exists) or (atleast)
    instance, one path and derivation per target (`_check_propagation`);
    other rules have none.  Raises RuleError when one fails."""
    w = instance.witness
    if instance.rule == "exists":
        if len(w.paths) != 1 or len(w.derivations) != 1:
            raise RuleError("(exists) needs exactly one propagation witness")
        targets = (w.target,)
    elif instance.rule == "atleast":
        if not len(w.paths) == len(w.derivations) == len(w.targets):
            raise RuleError("(atleast) needs one propagation witness per target")
        targets = w.targets
    else:
        return
    for y, path, derivation in zip(targets, w.paths, w.derivations):
        _check_propagation(instance.conclusion, ontology.rsystem, w.concept.role,
                           w.label, y, path, derivation)


def build_instance(ontology: Ontology, rule: str, conclusion: Sequent,
                   witness: Witness) -> RuleInstance:
    """`apply_rule` without `check_paths`: every side condition but the
    propagation witnesses' is verified, and the premises are built from the
    witness's target(s) alone; for the rules without such witnesses it is
    `apply_rule`.  The search builds every instance so, and checks the
    witnesses of those its proof keeps when it assembles the proof."""
    if rule == "id_eq":
        if witness.pair is None or len(witness.pair) != 2:
            raise RuleError("(id_eq) needs its inequality atom")
        x, y = witness.pair
        if Neq(x, y) not in conclusion.atom_set():
            raise RuleError(f"inequality {x} != {y} not in the antecedent")
        _check_eq_path(conclusion, x, y, witness.eq_path)
        return RuleInstance(rule, conclusion, (), witness)

    types = PRINCIPAL_TYPES.get(rule)
    if types is None:
        raise RuleError(f"unknown rule {rule!r}")
    x, c = witness.label, witness.concept
    if not isinstance(c, types):
        raise RuleError(f"({rule}) needs a principal of type "
                        + " or ".join(t.__name__ for t in types))
    idx = _principal_index(conclusion, x, c)

    if rule == "id":
        reads = (idx, _principal_index(conclusion, x, NegatedName(c.name)))
        return RuleInstance(rule, conclusion, (), witness, (), reads)

    if rule == "subst_eq":
        y = witness.target
        _check_eq_path(conclusion, x, y, witness.eq_path)
        made = [_premise(conclusion, (LabeledConcept(y, c),), _ACTIVE, idx + 1)]
    elif rule == "or":
        made = [_premise(conclusion, (LabeledConcept(x, c.left), LabeledConcept(x, c.right)),
                         _ACTIVE * 2, idx, idx)]
    elif rule == "and":
        made = [_premise(conclusion, (LabeledConcept(x, part),), _ACTIVE, idx, idx)
                for part in (c.left, c.right)]
    elif rule == "exists":
        made = [_premise(conclusion, (LabeledConcept(witness.target, c.body),),
                         _ACTIVE, idx + 1)]
    elif rule in ("forall", "atmost"):
        # (forall) is the shape of (atmost 0) with the body not negated: each
        # fresh label starts with the body and its TBox axioms, and the
        # inequalities between the labels come before their role atoms
        ys = witness.fresh
        n = 1 if rule == "forall" else c.n + 1
        if len(ys) != n:
            raise RuleError(f"({rule}) needs {n} fresh label(s)")
        _check_fresh(conclusion, ys)
        body = c.body if rule == "forall" else nnf_negate(c.body)
        occurrences, provenances = [], []
        for y in ys:
            occurrences.append(LabeledConcept(y, body))
            provenances.append(("active",))
            for k, (lab, g) in enumerate(ontology.gci_list(y)):
                occurrences.append(LabeledConcept(lab, g))
                provenances.append(("gci", k))
        atoms = (conclusion.antecedent + tuple(Neq(a, b) for a, b in combinations(ys, 2))
                 + tuple(RoleAtom(c.role, x, y) for y in ys))
        made = [_premise(conclusion, tuple(occurrences), tuple(provenances), 0, idx, atoms)]
    else:  # atleast
        ys = witness.targets
        if len(ys) != c.n:
            raise RuleError(f"(atleast {c.n}) needs {c.n} target labels")
        made = [_premise(conclusion, (LabeledConcept(y, c.body),), _ACTIVE, 0) for y in ys]
        made += [_premise(conclusion, (), (), 0, atoms=conclusion.antecedent + (Eq(a, b),))
                 for a, b in combinations(ys, 2)]
    return RuleInstance(rule, conclusion, tuple(premise for premise, _ in made), witness,
                        tuple(layout for _, layout in made), (idx,))


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    message: str = ""
    #: child indices from the root to the first failing node
    path: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_proof(ontology: Ontology, proof: Proof) -> CheckResult:
    """Independently validate a proof by re-deriving every node, in
    pre-order: the rule must apply to the node's conclusion under its
    witness (side conditions re-verified), and the premises must equal the
    children's conclusions as multisets.  The result names the first node
    that fails."""
    for path, node in walk(proof):
        inst = node.instance
        try:
            rederived = apply_rule(ontology, inst.rule, inst.conclusion, inst.witness)
        except RiqError as exc:
            return CheckResult(False, f"{inst.rule}: {exc}", path)
        if len(rederived.premises) != len(node.children):
            return CheckResult(False, f"{inst.rule}: expected {len(rederived.premises)} "
                               f"premises, proof has {len(node.children)}", path)
        for i, (premise, child) in enumerate(zip(rederived.premises, node.children)):
            # in the same order (as in every prover proof) nothing is hashed
            if premise != child.conclusion and premise.key() != child.conclusion.key():
                return CheckResult(False, f"{inst.rule}: premise {i} mismatch", path)
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Text round-trip for sequents
# ---------------------------------------------------------------------------


def _role(text: str) -> Role:
    return Role(text[:-1], True) if text.endswith("-") else Role(text)


def render_sequent(seq: Sequent) -> str:
    return _render_sequent(seq, {})


def _text(concept: Concept, memo: dict[Concept, str]) -> str:
    """`render_concept`, keeping each concept's text in `memo`: the sequents
    and witnesses of a proof repeat their concepts."""
    text = memo.get(concept)
    if text is None:
        text = memo[concept] = render_concept(concept)
    return text


def _render_sequent(seq: Sequent, memo: dict[Concept, str]) -> str:
    """`render_sequent` through `memo` (`_text`)."""
    texts = [f"{occ.label} : {_text(occ.concept, memo)}" for occ in seq.consequent]
    left = ", ".join(str(atom) for atom in seq.antecedent)
    right = ", ".join(texts)
    if left and right:
        return f"{left} |- {right}"
    if left:
        return f"{left} |-"
    return f"|- {right}"


def parse_sequent(text: str) -> Sequent:
    """Inverse of render_sequent; used when re-validating serialized proofs,
    so internal names are allowed."""
    return _parse_sequent(text, {})


def _parse_sequent(text: str, memo: dict[str, LabeledConcept]) -> Sequent:
    """`parse_sequent`, keeping each occurrence's parse in `memo`: the
    sequents of a proof repeat their occurrences.  Concepts hold no commas,
    so the consequent splits into occurrences before parsing."""
    antecedent, sep, consequent = text.partition("|-")
    parser = _Parser(_tokenize(antecedent + sep), internal=True)
    atoms: list[Atom] = []
    concepts: list[LabeledConcept] = []
    while parser.peek()[:2] != ("sym", "|-"):
        if atoms:
            parser.expect_sym(",")
        first = parser.next()
        if first[0] != "name":
            raise parser.error(f"expected an atom, found {first[1]!r}", first)
        nxt = parser.next()
        if nxt[:2] == ("sym", "("):
            src = parser.next()
            parser.expect_sym(",")
            dst = parser.next()
            parser.expect_sym(")")
            if src[0] != "name" or dst[0] != "name":
                raise parser.error("expected labels in role atom", src)
            atoms.append(RoleAtom(_role(first[1]), src[1], dst[1]))
        elif nxt[:2] in (("sym", "="), ("sym", "!=")):
            other = parser.next()
            if other[0] != "name":
                raise parser.error("expected a label", other)
            atoms.append((Eq if nxt[1] == "=" else Neq)(first[1], other[1]))
        else:
            raise parser.error(f"malformed atom after {first[1]!r}", nxt)
    parser.expect_sym("|-")
    for occurrence in consequent.split(",") if consequent.strip() else ():
        if occurrence not in memo:
            lab, colon, body = occurrence.partition(":")
            tokens = _tokenize(lab)
            if not colon or len(tokens) != 2 or tokens[0][0] != "name":
                raise ParseError(f"expected 'label : concept', found {occurrence.strip()!r}")
            memo[occurrence] = LabeledConcept(tokens[0][1],
                                              parse_concept(body, internal=True))
        concepts.append(memo[occurrence])
    return make_sequent(atoms, concepts)


# ---------------------------------------------------------------------------
# Proof serialization (structured JSON)
# ---------------------------------------------------------------------------


def _witness_to_dict(w: Witness, memo: dict[Concept, str]) -> dict:
    """The set fields, the concept rendered through `memo` (`_text`);
    `proof_to_json` writes tuples as lists, roles by `str`, and a derivation
    step as [position, lhs, rhs1, ...]."""
    out = {name: value for name, value in vars(w).items()
           if value is not None and value != ()}
    if w.concept is not None:
        out["concept"] = _text(w.concept, memo)
    if w.derivations:
        out["derivations"] = [[[pos, prod.lhs, *prod.rhs] for pos, prod in steps]
                              for steps in w.derivations]
    return out


_WITNESS_FIELDS = frozenset(f.name for f in fields(Witness))


def _json_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"witness {name} must be a list")
    return value


def _labels(value, name: str) -> tuple[Label, ...]:
    if not all(isinstance(lab, str) for lab in _json_list(value, name)):
        raise ParseError(f"witness {name} must be a list of strings")
    return tuple(value)


_ROLE_TEXT = re.compile(NAME)


def _step(value) -> Step:
    if not (isinstance(value, list) and len(value) >= 3
            and type(value[0]) is int and value[0] >= 0
            and all(isinstance(r, str) and _ROLE_TEXT.fullmatch(r) for r in value[1:])):
        raise ParseError(f"a derivation step must be [position, lhs, rhs1, ...], "
                         f"found {value!r}")
    return value[0], Production(_role(value[1]), tuple(map(_role, value[2:])))


def _witness_from_dict(d: dict) -> Witness:
    """Inverse of `_witness_to_dict`.  Raises ParseError unless every field
    is a known one holding the JSON type the format gives it."""
    if not d.keys() <= _WITNESS_FIELDS:
        raise ParseError(f"unknown witness fields {sorted(d.keys() - _WITNESS_FIELDS)}")
    values = {}
    for name, value in d.items():
        if name in ("label", "target", "concept"):
            if not isinstance(value, str):
                raise ParseError(f"witness {name} must be a string")
            values[name] = parse_concept(value, internal=True) if name == "concept" else value
        elif name == "paths":
            values[name] = tuple(_labels(path, name) for path in _json_list(value, name))
        elif name == "derivations":
            values[name] = tuple(tuple(map(_step, _json_list(steps, name)))
                                 for steps in _json_list(value, name))
        else:
            values[name] = _labels(value, name)
    return Witness(**values)


def proof_to_json(proof: Proof) -> str:
    """`riq-proof` version 3: the nodes in post order (children before their
    parent, the root last), each naming its premises by index."""
    nodes: list[dict] = []
    done: list[int] = []
    texts: dict[Concept, str] = {}
    for node in reversed(list(proof.nodes())):
        nodes.append({
            "rule": node.instance.rule,
            "sequent": _render_sequent(node.conclusion, texts),
            "witness": _witness_to_dict(node.instance.witness, texts),
            "premises": [done.pop() for _ in node.children],
        })
        done.append(len(nodes) - 1)
    return json.dumps({"format": "riq-proof", "version": 3, "nodes": nodes},
                      default=str)


def proof_from_json(text: str) -> Proof:
    """Inverse of `proof_to_json`.  Raises ParseError unless the nodes form a
    tree: each node but the root is the premise of exactly one later node."""
    try:
        data = json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise ParseError(f"proof file is not JSON: {exc}") from exc
    if not isinstance(data, dict) \
            or (data.get("format"), data.get("version")) != ("riq-proof", 3) \
            or not isinstance(data.get("nodes"), list) or not data["nodes"]:
        raise ParseError("not a riq-proof version 3 file with a non-empty node list")
    entries = data["nodes"]
    occurrences: dict[str, LabeledConcept] = {}
    built: list[Proof] = []
    used: set[int] = set()
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("rule"), str)
                and isinstance(entry.get("sequent"), str)
                and isinstance(entry.get("premises", []), list)):
            raise ParseError(f"node {i} needs a rule, a sequent and a premise list")
        premises = entry.get("premises", [])
        for j in premises:
            if not (type(j) is int and 0 <= j < i) or j in used:
                raise ParseError(f"node {i}: premise {j!r} is not an earlier, "
                                 "unused node")
            used.add(j)
        try:
            witness = _witness_from_dict(entry.get("witness", {}))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"node {i}: malformed witness: {exc}") from exc
        children = tuple(built[j] for j in premises)
        built.append(Proof(RuleInstance(
            rule=entry["rule"],
            conclusion=_parse_sequent(entry["sequent"], occurrences),
            premises=tuple(child.conclusion for child in children),
            witness=witness,
        ), children))
    if len(used) != len(entries) - 1:
        raise ParseError("every node but the last must be a premise")
    return built[-1]
