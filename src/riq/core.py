"""Domain types for RIQ: roles, concepts in negation normal form, axioms,
ontologies, plus NNF negation, weight, simple-role and RBox regularity checks,
and signature extraction.

All values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union

if TYPE_CHECKING:
    from .rsystem import RSystem

#: Largest n accepted in a number restriction; the (atmost n) rule creates
#: n+1 fresh labels, so anything bigger is not desk-scale.
MAX_CARDINALITY = 2**31 - 1

#: Reserved concept name used to build TOP and BOT.  It is rejected by the
#: user-facing parser and excluded from cpt/sig.
RESERVED_NAME = "_T"


class RiqError(Exception):
    """Base class for all errors raised by this package."""


class OntologyError(RiqError):
    """Invalid ontology: bad axiom shape or non-simple role under a counting
    restriction."""


# ---------------------------------------------------------------------------
# Roles
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Role:
    name: str
    inverted: bool = False

    def inverse(self) -> "Role":
        return Role(self.name, not self.inverted)

    def __str__(self) -> str:
        return self.name + ("-" if self.inverted else "")


# ---------------------------------------------------------------------------
# Concepts (negation normal form)
# ---------------------------------------------------------------------------


class Concept:
    """Base class of NNF concept nodes.  Negation occurs only on names.

    The hash is computed at construction from the children's cached hashes
    (pickling rebuilds it), and equality walks both trees on a stack."""

    __slots__ = ()

    def __post_init__(self) -> None:
        fields = self.__dict__
        fields["_hash"] = hash((type(self), *fields.values()))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                if type(a) is not type(b) or a._hash != b._hash:
                    return False
                for x, y in zip(a.__dict__.values(), b.__dict__.values()):
                    if isinstance(x, Concept):
                        stack.append((x, y))
                    elif x != y:
                        return False
        return True

    def __reduce__(self):
        return type(self), tuple(v for k, v in self.__dict__.items() if k != "_hash")


@dataclass(frozen=True, eq=False)
class ConceptName(Concept):
    name: str


@dataclass(frozen=True, eq=False)
class NegatedName(Concept):
    name: str


@dataclass(frozen=True, eq=False)
class And(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True, eq=False)
class Or(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True, eq=False)
class Exists(Concept):
    role: Role
    body: Concept


@dataclass(frozen=True, eq=False)
class Forall(Concept):
    role: Role
    body: Concept


def _check_cardinality(n: int) -> None:
    if n < 0 or n > MAX_CARDINALITY:
        raise OntologyError(f"cardinality {n} out of range [0, {MAX_CARDINALITY}]")


@dataclass(frozen=True, eq=False)
class AtMost(Concept):
    n: int
    role: Role
    body: Concept

    def __post_init__(self) -> None:
        _check_cardinality(self.n)
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class AtLeast(Concept):
    n: int
    role: Role
    body: Concept

    def __post_init__(self) -> None:
        _check_cardinality(self.n)
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class Not(Concept):
    """General negation, only valid in raw (pre-NNF) concept trees."""

    body: Concept


TOP: Concept = Or(ConceptName(RESERVED_NAME), NegatedName(RESERVED_NAME))
BOT: Concept = And(ConceptName(RESERVED_NAME), NegatedName(RESERVED_NAME))


_UNARY = (Exists, Forall, AtMost, AtLeast, Not)

T = TypeVar("T")


def fold_concept(c: Concept, combine: Callable[[Concept, Sequence], T],
                 leaf: Optional[Callable[[Concept], bool]] = None) -> T:
    """The one concept traversal: a post-order walk on an explicit stack, so
    its depth is bounded by memory, not by the recursion limit.

    ``combine(node, parts)`` gets the results of node's children, left
    before right, and returns node's.  A node for which ``leaf(node)`` holds
    gets no parts, and its children are not visited.
    """
    results: list = []
    todo: list = [c]
    while todo:
        node = todo.pop()
        if type(node) is tuple:
            # (node, k): its k children are done, their results on top
            node, k = node
            if k == 1:
                results[-1] = combine(node, results[-1:])
            else:
                right = results.pop()
                results[-1] = combine(node, (results[-1], right))
        elif leaf is not None and leaf(node):
            results.append(combine(node, ()))
        elif isinstance(node, (And, Or)):
            todo += (node, 2), node.right, node.left
        elif isinstance(node, _UNARY):
            todo += (node, 1), node.body
        else:
            results.append(combine(node, ()))
    return results[0]


def _negate_node(c: Concept, parts: Sequence[Concept]) -> Concept:
    if isinstance(c, ConceptName):
        return NegatedName(c.name)
    if isinstance(c, NegatedName):
        return ConceptName(c.name)
    if isinstance(c, And):
        return TOP if c == BOT else Or(*parts)
    if isinstance(c, Or):
        return BOT if c == TOP else And(*parts)
    if isinstance(c, Exists):
        return Forall(c.role, parts[0])
    if isinstance(c, Forall):
        return Exists(c.role, parts[0])
    if isinstance(c, AtMost):
        return AtLeast(c.n + 1, c.role, c.body)
    if isinstance(c, AtLeast):
        if c.n == 0:
            return BOT
        return AtMost(c.n - 1, c.role, c.body)
    raise ValueError(f"not an NNF concept: {c!r}")


def _negation_leaf(c: Concept) -> bool:
    return isinstance(c, (AtMost, AtLeast, Not))


def nnf_negate(c: Concept) -> Concept:
    """NNF-preserving negation.

    Number restrictions flip without negating the filler; TOP and BOT map to
    each other so both keep their canonical shape.
    """
    return fold_concept(c, _negate_node, _negation_leaf)


#: TOP's and BOT's operands, negated: an (and) or (or) node whose operands
#: come out of a negation as this pair was TOP or BOT before it, and
#: `nnf_negate` turns it into the other constant, not into the dual node
_FLIPPED_CONSTANT = (NegatedName(RESERVED_NAME), ConceptName(RESERVED_NAME))

#: polarity of a `Not`'s body, from the polarity of the `Not`
_UNDER_NOT = (1, 2, 1)


def _polar_node(c: Concept, q: int, parts: Sequence[Concept]) -> Concept:
    """The NNF of a raw node negated q times by `nnf_negate` (q in 0, 1, 2),
    from its children's: the operands and the (exists)/(forall) filler in
    the same polarity, a number restriction's filler in polarity 0."""
    if isinstance(c, (ConceptName, NegatedName)):
        return _negate_node(c, ()) if q == 1 else c
    if isinstance(c, (And, Or)):
        left, right = parts
        if q == 0:
            return c if left is c.left and right is c.right else type(c)(left, right)
        op = type(c) if q == 2 else (Or if isinstance(c, And) else And)
        if (left, right) == _FLIPPED_CONSTANT:
            return TOP if op is Or else BOT
        return op(left, right)
    body = parts[0]
    if isinstance(c, (Exists, Forall)):
        if q == 0 and body is c.body:
            return c
        op = type(c) if q != 1 else (Forall if isinstance(c, Exists) else Exists)
        return op(c.role, body)
    if q == 1:
        return _negate_node(type(c)(c.n, c.role, body), ())
    if q == 2 and isinstance(c, AtLeast) and c.n == 0:
        return TOP
    return c if body is c.body else type(c)(c.n, c.role, body)


def to_nnf(raw: Concept) -> Concept:
    """Push general negation inward, producing an equivalent NNF concept;
    subtrees without `Not` are kept as they are.

    The walk carries each node's polarity down: the number q of `Not`s
    above it since the nearest number restriction, where a third negation
    is the first again, because `nnf_negate` is an involution on its own
    results.  Each node is then built once, already negated q times, so
    ``Not(body)`` is exactly ``nnf_negate(to_nnf(body))``, in time linear
    in the tree, and no negation is built that the result does not hold.
    A loop on an explicit stack, like `fold_concept`."""
    results: list[Concept] = []
    todo: list[tuple] = [(raw, 0)]
    while todo:
        entry = todo.pop()
        if len(entry) == 3:
            # (node, q, k): its k children are done, their results on top
            node, q, k = entry
            parts = results[-k:]
            del results[-k:]
            results.append(_polar_node(node, q, parts))
            continue
        node, q = entry
        if isinstance(node, Not):
            todo.append((node.body, _UNDER_NOT[q]))
        elif isinstance(node, (And, Or)):
            todo += (node, q, 2), (node.right, q), (node.left, q)
        elif isinstance(node, (Exists, Forall)):
            todo += (node, q, 1), (node.body, q)
        elif isinstance(node, (AtMost, AtLeast)):
            todo += (node, q, 1), (node.body, 0)
        else:
            results.append(_polar_node(node, q, ()))
    return results[0]


def _weight_node(c: Concept, parts: Sequence[int]) -> int:
    if isinstance(c, (ConceptName, NegatedName)):
        return 1
    if isinstance(c, (And, Or)):
        return parts[0] + parts[1] + 1
    if isinstance(c, (Exists, Forall)):
        return parts[0] + 1
    if isinstance(c, AtMost):
        return parts[0] + c.n + 1
    if isinstance(c, AtLeast):
        return parts[0] + c.n
    raise ValueError(f"not an NNF concept: {c!r}")


def weight(c: Concept) -> int:
    """Concept weight: literals 1, binary +1, quantifiers +1, atmost +n+1,
    atleast +n."""
    return fold_concept(c, _weight_node)


def subconcepts(c: Concept) -> Iterator[Concept]:
    """Yield c and all its subconcepts, preorder."""
    todo = [c]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, (And, Or)):
            todo.append(node.right)
            todo.append(node.left)
        elif isinstance(node, _UNARY):
            todo.append(node.body)


# ---------------------------------------------------------------------------
# Axioms and ontologies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RIA:
    """Complex role inclusion axiom lhs_1 o ... o lhs_n <= rhs."""

    lhs: tuple[Role, ...]
    rhs: Role

    def __post_init__(self) -> None:
        if len(self.lhs) < 1:
            raise OntologyError("RIA needs a nonempty left-hand side")


@dataclass(frozen=True)
class GCI:
    """General concept inclusion lhs <= rhs; normalized form has lhs = TOP."""

    lhs: Concept
    rhs: Concept


@dataclass(frozen=True)
class RegularityReport:
    ok: bool
    #: harvested strict-order constraints (s precedes r) witnessing regularity
    order: frozenset[tuple[str, str]] = frozenset()
    #: RIAs that match no clause shape, or that participate in an order cycle
    offenders: tuple[RIA, ...] = ()
    message: str = ""


def _non_simple_roles(rbox: Iterable[RIA]) -> frozenset[str]:
    """The names of the non-simple roles of rbox.

    A name is simple when every RIA into it (or into its inverse, which
    constrains it alike) has a single role on the left whose name is simple.
    The simple names are the least fixpoint of that rule, found with a
    worklist; a name on a cycle of single-role RIAs never becomes simple.
    """
    rias = tuple(rbox)
    # per name, its RIAs not yet known to come from a simple role; a complex
    # RIA never is
    pending = Counter(ria.rhs.name for ria in rias)
    dependents: dict[str, list[str]] = {}
    for ria in rias:
        if len(ria.lhs) == 1:
            dependents.setdefault(ria.lhs[0].name, []).append(ria.rhs.name)
    todo = [name for name in dependents if not pending[name]]
    simple = set(todo)
    while todo:
        for target in dependents.get(todo.pop(), ()):
            pending[target] -= 1
            if not pending[target]:
                simple.add(target)
                todo.append(target)
    return frozenset(pending.keys() - simple)


def is_simple(r: Role, rbox: Iterable[RIA]) -> bool:
    """Whether r is a simple role w.r.t. rbox; an inverse role is simple iff
    its name is (see `_non_simple_roles`)."""
    return r.name not in _non_simple_roles(rbox)


def _regular_clause_options(ria: RIA) -> list[frozenset[tuple[str, str]]]:
    """Constraint sets under which ria matches some clause of the
    regularity definition; empty list means no clause fits."""
    if ria.rhs.inverted:
        return []
    r = ria.rhs.name
    w = ria.lhs
    options: list[frozenset[tuple[str, str]]] = []
    if len(w) == 2 and w[0] == Role(r) and w[1] == Role(r):
        options.append(frozenset())  # w = rr
    if len(w) == 1 and w[0] == Role(r, True):
        options.append(frozenset())  # w = r-
    # w = s1...sn, every si strictly below r
    if all(s.name != r for s in w):
        options.append(frozenset((s.name, r) for s in w))
    # w = r s1...sn / w = s1...sn r, tail/head strictly below r
    if w[0] == Role(r) and all(s.name != r for s in w[1:]):
        options.append(frozenset((s.name, r) for s in w[1:]))
    if w[-1] == Role(r) and all(s.name != r for s in w[:-1]):
        options.append(frozenset((s.name, r) for s in w[:-1]))
    return options


def find_regular_order(rbox: Iterable[RIA]) -> RegularityReport:
    """Search for a strict partial order making every RIA regular.

    Greedy per-RIA: prefer a clause with no constraints, otherwise harvest
    the (unique, in practice) constraint set; then check the constraint
    digraph for cycles.
    """
    rias = tuple(rbox)
    harvested: dict[RIA, frozenset[tuple[str, str]]] = {}
    no_clause = []
    for ria in rias:
        options = _regular_clause_options(ria)
        if options:
            harvested[ria] = min(options, key=len)
        else:
            no_clause.append(ria)
    if no_clause:
        names = ", ".join(render_ria(x) for x in no_clause)
        return RegularityReport(False, offenders=tuple(no_clause),
                                message=f"no regularity clause matches: {names}")
    constraints = frozenset().union(*harvested.values())
    # cycle check on the constraint digraph (s, r) meaning s < r: a
    # depth-first search over sorted roots and successors, so the cycle it
    # reports does not depend on hashing
    succs: dict[str, list[str]] = {}
    for s, r in sorted(constraints):
        succs.setdefault(s, []).append(r)
    done: set[str] = set()
    for root in sorted(succs):
        # the path from root, each node with the successors it has left
        path = {} if root in done else {root: iter(succs[root])}
        while path:
            node, successors = next(reversed(path.items()))
            nxt = next(successors, None)
            if nxt is None:
                path.popitem()
                done.add(node)
            elif nxt in path:
                names = list(path)
                cycle = set(names[names.index(nxt):])
                offenders = tuple(ria for ria in rias
                                  if any(s in cycle and r in cycle for s, r in harvested[ria]))
                return RegularityReport(False, offenders=offenders,
                                        message="constraint cycle through "
                                                + ", ".join(sorted(cycle)))
            elif nxt not in done:
                path[nxt] = iter(succs.get(nxt, ()))
    return RegularityReport(True, order=constraints)


@dataclass(frozen=True)
class Ontology:
    """Union of an RBox (RIAs) and a TBox of normalized GCIs (lhs = TOP).

    The tbox is an ordered tuple and may contain duplicates: unions built by
    the definability pipeline keep duplicate GCIs so that the per-label GCI
    list splits cleanly by source ontology.
    """

    rbox: tuple[RIA, ...] = ()
    tbox: tuple[GCI, ...] = ()
    regularity: RegularityReport = field(default=RegularityReport(True), compare=False)
    declared_roles: frozenset[str] = frozenset()
    declared_concepts: frozenset[str] = frozenset()

    @cached_property
    def rsystem(self) -> RSystem:
        """The R-system of the RBox (`rsystem.build_rsystem`), built once, on
        first use."""
        from .rsystem import build_rsystem  # local import to avoid a cycle

        return build_rsystem(self)

    @cached_property
    def _negated_tbox(self) -> tuple[Concept, ...]:
        # negated once, on first use, not for every fresh label
        return tuple(nnf_negate(g.rhs) for g in self.tbox)

    def gci_list(self, label: str) -> tuple[tuple[str, Concept], ...]:
        """The multiset label : nnf_negate(C_i) in fixed tbox order."""
        return tuple((label, c) for c in self._negated_tbox)


def _counting_roles(c: Concept) -> Iterator[Role]:
    for sub in subconcepts(c):
        if isinstance(sub, (AtMost, AtLeast)):
            yield sub.role


def make_ontology(rias: Iterable[RIA], gcis: Iterable[GCI]) -> Ontology:
    """Validate axioms and attach a regularity report.

    GCIs must already be normalized (lhs = TOP).  A counting restriction over
    a non-simple role is a hard error; a non-regular RBox only yields a
    warning in the report (the calculus still works for general RBoxes).
    """
    rbox = tuple(rias)
    tbox = tuple(gcis)
    non_simple = _non_simple_roles(rbox)
    for g in tbox:
        if g.lhs != TOP:
            raise OntologyError(f"GCI not normalized: {g!r}")
        for role in _counting_roles(g.rhs):
            if role.name in non_simple:
                raise OntologyError(
                    f"role {role} under a number restriction is not simple")
    return Ontology(rbox, tbox, find_regular_order(rbox))


def normalize_ontology(gcis: Iterable[GCI], rias: Iterable[RIA]) -> Ontology:
    """Rewrite every C <= D into TOP <= nnf_negate(C) or D and validate."""
    normalized = []
    for g in gcis:
        if g.lhs == TOP:
            normalized.append(GCI(TOP, g.rhs))
        else:
            normalized.append(GCI(TOP, Or(nnf_negate(g.lhs), g.rhs)))
    return make_ontology(rias, normalized)


def union_ontology(o1: Ontology, o2: Ontology) -> Ontology:
    """Union used by interpolation/definability: tboxes concatenate (keeping
    duplicates, o1 first), rboxes concatenate with exact-duplicate removal."""
    rbox = list(o1.rbox)
    for ria in o2.rbox:
        if ria not in rbox:
            rbox.append(ria)
    ont = make_ontology(rbox, o1.tbox + o2.tbox)
    return Ontology(ont.rbox, ont.tbox, ont.regularity,
                    o1.declared_roles | o2.declared_roles,
                    o1.declared_concepts | o2.declared_concepts)


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    concept_names: frozenset[str]
    roles: frozenset[str]


SignatureSource = Union[Concept, GCI, RIA, Ontology]


def _collect(x: Union[SignatureSource, Iterable], names: set[str], roles: set[str]) -> None:
    if isinstance(x, Concept):
        for sub in subconcepts(x):
            if isinstance(sub, (ConceptName, NegatedName)):
                if sub.name != RESERVED_NAME:
                    names.add(sub.name)
            elif isinstance(sub, (Exists, Forall, AtMost, AtLeast)):
                roles.add(sub.role.name)
    elif isinstance(x, GCI):
        _collect(x.lhs, names, roles)
        _collect(x.rhs, names, roles)
    elif isinstance(x, RIA):
        roles.update(r.name for r in x.lhs)
        roles.add(x.rhs.name)
    elif isinstance(x, Ontology):
        for g in x.tbox:
            _collect(g, names, roles)
        for ria in x.rbox:
            _collect(ria, names, roles)
    else:
        for item in x:
            _collect(item, names, roles)


def signature_of(*xs: Union[SignatureSource, Iterable]) -> Signature:
    """Concept names and role names occurring in the arguments; the reserved
    TOP/BOT name is excluded."""
    names: set[str] = set()
    roles: set[str] = set()
    for x in xs:
        _collect(x, names, roles)
    return Signature(frozenset(names), frozenset(roles))


def cpt(*xs: Union[SignatureSource, Iterable]) -> frozenset[str]:
    """Concept names only."""
    return signature_of(*xs).concept_names


def render_ria(ria: RIA) -> str:
    return " o ".join(str(r) for r in ria.lhs) + " <= " + str(ria.rhs)


# Convenience folds used by interpolant assembly: empty disjunction is BOT,
# empty conjunction is TOP.


def or_all(concepts: Iterable[Concept]) -> Concept:
    cs = list(concepts)
    if not cs:
        return BOT
    out = cs[-1]
    for c in reversed(cs[:-1]):
        out = Or(c, out)
    return out


def and_all(concepts: Iterable[Concept]) -> Concept:
    cs = list(concepts)
    if not cs:
        return TOP
    out = cs[-1]
    for c in reversed(cs[:-1]):
        out = And(c, out)
    return out
