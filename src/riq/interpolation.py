"""Interpolants as sets of mini-sequents, their orthogonals, the quantifier
constructs, the proof-to-interpolant transformation, concept assembly, and
the end-to-end concept-interpolation pipeline with verification.

The transformation partitions a subsumption proof into a left part (first
ontology plus the subsumee) and a right part (subsumer plus the second
ontology): every active occurrence inherits the side of its principal, GCI
copies introduced at fresh labels go to the side of their source ontology,
and inequality atoms created by the atmost rule go to the side of the
principal.  Interpolants are then assigned to the initial sequents and
propagated down to the conclusion: rules whose principal sits on the right
combine premise interpolants directly (union, or the universal/atmost
constructs); rules whose principal sits on the left are handled by the
orthogonal wrap (orthogonal, mirrored right-side combination, orthogonal).

One proof search, of the split goal, yields the interpolant
(``extract_concept_interpolant``), whose concept is simplified by
``simplify_concept``: structural rules that hold in every interpretation,
so the verification searches do not spend their budget on dead structure.
``compute_concept_interpolant`` then verifies the simplified concept: an
exact signature check and proofs of both subsumption directions.  That is
the definition of a concept interpolant, so it is the answer's one
certificate, independent of how the concept was read off the proof:
extraction checks no property at the proof nodes (the paper's Lemma 5 is a
test-side property), only that the root interpolant is atom-free and over
the root label.  Every proof here comes from ``prove``, which derives each
node from the goal by ``apply_rule``: the partition reads each node's premise
maps off its own instance, and no proof is derived a second time.
``check_proof`` re-derives such a proof from outside, as ``riq verify`` does.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Mapping, Optional, Sequence, Union

from .core import (
    AtLeast,
    AtMost,
    BOT,
    Concept,
    ConceptName,
    Exists,
    Forall,
    And,
    NegatedName,
    Ontology,
    Or,
    RiqError,
    Role,
    TOP,
    and_all,
    cpt,
    fold_concept,
    nnf_negate,
    or_all,
    union_ontology,
)
from .parser import concept_renderer, parse_concept, render_concept
from .prover import (
    Proved,
    ProveResult,
    Refuted,
    SearchLimits,
    Unknown,
    goal_sequent,
    prove,
)
from .sequent import (
    Eq,
    LabeledConcept,
    Neq,
    Proof,
    RuleInstance,
    Sequent,
    make_sequent,
    walk,
)

Label = str


class InterpolationError(RiqError):
    """Partitioning or extraction failure; when raised mid-pipeline it
    signals a bug, not a property of the input."""


# ---------------------------------------------------------------------------
# Interpolants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Member:
    """One mini-sequent of an interpolant: equality/inequality atoms over
    distinct labels, and a set of labeled concepts."""

    atoms: frozenset[Union[Eq, Neq]]
    concepts: frozenset[tuple[Label, Concept]]

    def __post_init__(self) -> None:
        for atom in self.atoms:
            if atom.left == atom.right:
                raise InterpolationError(
                    f"interpolant atom over a single label: {atom}")

    def key(self) -> tuple:
        return (tuple(sorted(str(a) for a in self.atoms)),
                tuple(sorted((lab, render_concept(c)) for lab, c in self.concepts)))

    def labels(self) -> frozenset[Label]:
        labs = {lab for lab, _ in self.concepts}
        for atom in self.atoms:
            labs.update((atom.left, atom.right))
        return frozenset(labs)


@dataclass(frozen=True)
class Interpolant:
    members: frozenset[Member]

    def sorted_members(self) -> tuple[Member, ...]:
        return tuple(sorted(self.members, key=Member.key))


def member(atoms=(), concepts=()) -> Member:
    return Member(frozenset(atoms), frozenset(concepts))


def interpolant(*members_: Member) -> Interpolant:
    return Interpolant(frozenset(members_))


EMPTY = Interpolant(frozenset())


def _dominates(small: Member, big: Member) -> bool:
    return small.atoms <= big.atoms and small.concepts <= big.concepts


def prune_dominated(members) -> frozenset[Member]:
    """The minimal members: drop each member that componentwise extends
    another.

    A member that is a superset of another is a weaker conjunct of the
    assembled concept, and every orthogonal pick over it can reuse the pick
    made for its dominator, so removing it changes nothing the pipeline
    asserts (this is exactly the redundancy behind the double-orthogonal
    domination property).  Keeping interpolants antichains is what makes the
    orthogonal wrap tractable in practice.

    Members are visited by size alone: a strict dominator is strictly
    smaller, and members of equal size dominate each other only when equal,
    so the kept set is the set of minimal members in any visiting order.
    """
    kept: list[Member] = []
    for m in sorted(members, key=lambda m: len(m.atoms) + len(m.concepts)):
        if not any(_dominates(k, m) for k in kept):
            kept.append(m)
    return frozenset(kept)


def _union(parts: Sequence[Interpolant]) -> Interpolant:
    members: set[Member] = set()
    for part in parts:
        members |= part.members
    return Interpolant(prune_dominated(members))


def orthogonal(g: Interpolant) -> Interpolant:
    """All choice functions picking exactly one negated element from each
    member: equality atoms flip polarity, concepts are NNF-negated.
    Duplicates and dominated picks merge; the empty interpolant yields the
    single empty member, and any empty member kills the product.

    Members, atoms and concepts are visited in no particular order.  Each
    step keeps only the minimal partial picks, and every extension of a
    dominated pick is dominated by the same extension of its dominator, so
    the result is the set of minimal elements of the whole product."""
    partial: list[Member] = [Member(frozenset(), frozenset())]
    for m in prune_dominated(g.members):
        flipped = [Neq(a.left, a.right) if isinstance(a, Eq) else Eq(a.left, a.right)
                   for a in m.atoms]
        negated = [(lab, nnf_negate(c)) for lab, c in m.concepts]
        grown = {Member(p.atoms | {atom}, p.concepts) for p in partial for atom in flipped}
        grown |= {Member(p.atoms, p.concepts | {lc}) for p in partial for lc in negated}
        partial = list(prune_dominated(grown))
    return Interpolant(frozenset(partial))


def box_interpolant(role: Role, x: Label, y: Label, g: Interpolant) -> Interpolant:
    """The universal construct: bundle each member's y-row into
    x : only role . (disjunction of the row); empty rows give only role . BOT."""
    members: set[Member] = set()
    for m in g.members:
        if any(y in (a.left, a.right) for a in m.atoms):
            raise InterpolationError(
                f"fresh label {y} occurs in interpolant atoms")
        row = sorted((c for lab, c in m.concepts if lab == y), key=render_concept)
        rest = frozenset((lab, c) for lab, c in m.concepts if lab != y)
        members.add(Member(m.atoms, rest | {(x, Forall(role, or_all(row)))}))
    return Interpolant(frozenset(members))


def leq_interpolant(n: int, role: Role, x: Label, ys: Sequence[Label],
                    g: Interpolant) -> Interpolant:
    """The atmost construct: drop inequalities among the fresh labels,
    concatenate all fresh-label rows, and bundle them into
    x : atmost n role . nnf_negate(disjunction of rows)."""
    fresh = set(ys)
    members: set[Member] = set()
    for m in g.members:
        kept_atoms = []
        for atom in m.atoms:
            touches = atom.left in fresh or atom.right in fresh
            if not touches:
                kept_atoms.append(atom)
                continue
            inside = atom.left in fresh and atom.right in fresh
            if not (isinstance(atom, Neq) and inside):
                raise InterpolationError(
                    f"interpolant atom {atom} escapes the fresh-label block")
        rows = sorted((c for lab, c in m.concepts if lab in fresh), key=render_concept)
        rest = frozenset((lab, c) for lab, c in m.concepts if lab not in fresh)
        bundled = AtMost(n, role, nnf_negate(or_all(rows)))
        members.add(Member(frozenset(kept_atoms), rest | {(x, bundled)}))
    return Interpolant(frozenset(members))


def interpolant_concept(g: Interpolant, x: Label) -> Concept:
    """Conjunction over members of the disjunction of each member's
    concepts; empty member contributes BOT, empty interpolant is TOP.  Only
    defined for single-label, atom-free interpolants."""
    for m in g.members:
        if m.atoms:
            raise InterpolationError("interpolant still carries (in)equality atoms")
        for lab, _ in m.concepts:
            if lab != x:
                raise InterpolationError(f"interpolant mentions foreign label {lab!r}")
    disjunctions = []
    for m in g.sorted_members():
        disjunctions.append(or_all(sorted((c for _, c in m.concepts), key=render_concept)))
    return and_all(disjunctions)


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


class _Run:
    """An And or Or node whose run is not flattened yet: ``parts`` are
    concepts and runs of the same connective."""

    __slots__ = ("op", "parts")

    def __init__(self, op: type, parts: Sequence) -> None:
        self.op = op
        self.parts = parts


def _is_constant(c: Concept) -> bool:
    return c == TOP or c == BOT


def _is_top(c: Concept) -> bool:
    return c == TOP or (isinstance(c, AtLeast) and c.n == 0)


def _operands(c: Union[Concept, _Run], op: type) -> list[Concept]:
    """The operands of the maximal ``op`` run at c, left to right."""
    out: list[Concept] = []
    todo = [c]
    while todo:
        x = todo.pop()
        if type(x) is _Run:
            todo.extend(reversed(x.parts))
        elif type(x) is op and not _is_constant(x):
            todo += x.right, x.left
        else:
            out.append(x)
    return out


def _implies_some(c: Concept) -> bool:
    """Whether c is some r . X or atleast n r . X with n >= 1."""
    return isinstance(c, Exists) or (isinstance(c, AtLeast) and c.n >= 1)


def _is_some_top(c: Concept) -> bool:
    return isinstance(c, Exists) and c.body == TOP


def _complementary(operands: Sequence[Concept]) -> bool:
    """Whether some name occurs among the operands both as B and not B."""
    names = {c.name for c in operands if isinstance(c, ConceptName)}
    return any(isinstance(c, NegatedName) and c.name in names for c in operands)


def _only_bot(c: Concept, roles: set[Role]) -> bool:
    return isinstance(c, Forall) and c.role in roles and c.body == BOT


def _weakest(d: Concept) -> Concept:
    """some r . TOP for some r . X and atleast n r . X (n >= 1), which imply
    it; d itself otherwise."""
    return Exists(d.role, TOP) if _implies_some(d) else d


def _absorb(operands: list[Concept], inner: type) -> list[Concept]:
    """Drop each operand that another operand makes redundant, where an
    ``inner`` operand implies itself and its `_weakest`.  In a conjunction
    (inner Or, CNF) a conjunct goes when every disjunct of another conjunct
    implies one of its disjuncts; in a disjunction (inner And, DNF) a
    disjunct goes when every conjunct of another disjunct is implied by one
    of its conjuncts.  Of two operands that make each other redundant, the
    first stays."""
    sets = [frozenset(_operands(c, inner)) for c in operands]
    # d of operand j relates to operand i (CNF: d implies one of its members;
    # DNF: one of its members implies d) iff one of d's probes is in reach[i]
    if inner is Or:
        reach = sets
        probes = [[{d, _weakest(d)} for d in s] for s in sets]
    else:
        reach = [s | {_weakest(d) for d in s} for s in sets]
        probes = [[{d} for d in s] for s in sets]
    holders: dict[Concept, set[int]] = {}
    for j, ps in enumerate(probes):
        for d in set().union(*ps):
            holders.setdefault(d, set()).add(j)

    def redundant_beside(j: int, i: int) -> bool:
        """Whether operand i is redundant beside operand j."""
        return all(not reach[i].isdisjoint(p) for p in probes[j])

    kept = []
    for i, c in enumerate(operands):
        rivals = set().union(*(holders.get(d, ()) for d in reach[i])) - {i}
        if not any(redundant_beside(j, i) and (j < i or not redundant_beside(i, j))
                   for j in rivals):
            kept.append(c)
    return kept


def _finish_or(run: Union[Concept, _Run], render: Callable[[Concept], str]) -> Concept:
    disjuncts = list(dict.fromkeys(_operands(run, Or)))
    if any(_is_top(d) for d in disjuncts) or _complementary(disjuncts):
        return TOP
    disjuncts = [d for d in disjuncts if d != BOT]
    foralls = Counter(d.role for d in disjuncts if isinstance(d, Forall))
    if any(_is_some_top(d) and d.role in foralls for d in disjuncts):
        return TOP  # only r . X or some r . TOP
    # only r . BOT implies every other only r . X
    disjuncts = [d for d in disjuncts
                 if not (isinstance(d, Forall) and foralls[d.role] > 1 and d.body == BOT)]
    return or_all(sorted(_absorb(disjuncts, And), key=render))


def _finish_and(run: Union[Concept, _Run], render: Callable[[Concept], str]) -> Concept:
    conjuncts = _operands(run, And)
    changed = True
    while changed:
        conjuncts = list(dict.fromkeys(c for c in conjuncts if not _is_top(c)))
        if BOT in conjuncts or _complementary(conjuncts):
            return BOT
        # some r . X makes only r . BOT false, also inside a sibling disjunction
        roles = {c.role for c in conjuncts if _implies_some(c)}
        changed = False
        kept = []
        for c in conjuncts:
            if _only_bot(c, roles):
                return BOT
            if isinstance(c, Or) and c != TOP:
                disjuncts = _operands(c, Or)
                rest = [d for d in disjuncts if not _only_bot(d, roles)]
                if len(rest) < len(disjuncts):
                    changed = True
                    kept += _operands(or_all(rest), And)
                    continue
            kept.append(c)
        conjuncts = kept
    return and_all(sorted(_absorb(conjuncts, Or), key=render))


def _simplify_node(c: Concept, parts: Sequence, finish: Callable) -> Union[Concept, _Run]:
    if not parts:
        return c
    if isinstance(c, (And, Or)):
        # a run of the other connective is an operand: finish it here
        return _Run(type(c), [p if type(p) is not _Run or p.op is type(c) else finish(p)
                              for p in parts])
    body = finish(parts[0])
    if isinstance(c, Exists) and body == BOT:
        return BOT
    if isinstance(c, Forall) and body == TOP:
        return TOP
    if isinstance(c, AtMost) and body == BOT:
        return TOP
    if isinstance(c, AtLeast) and c.n > 0 and body == BOT:
        return BOT
    return c if body is c.body else replace(c, body=body)


def simplify_concept(c: Concept) -> Concept:
    """An equivalent concept, by structural rules that hold in every
    interpretation whatever the RBox (roles compared exactly):

    - TOP and BOT as units and absorbers of and/or; some r . BOT = BOT,
      only r . TOP = TOP, atmost n r . BOT = TOP, atleast n r . BOT = BOT
      for n >= 1; atleast 0 r . X counts as TOP inside and/or;
    - each maximal and/or run flattened, without duplicates, its operands
      sorted by their rendering, and absorbed (`_absorb`): a conjunct goes
      when every disjunct of another conjunct implies one of its disjuncts,
      and dually for disjuncts, where some r . X and atleast n r . X
      (n >= 1) imply some r . TOP;
    - a name B beside not B makes a disjunction TOP and a conjunction BOT;
    - in a disjunction, only r . BOT goes beside another only r . X, and
      only r . X with some r . TOP is TOP;
    - in a conjunction, some r . X and atleast n r . X (n >= 1) make
      only r . BOT false, as a conjunct or as a disjunct of a conjunct.

    No rule makes a concept heavier, so ``weight`` never grows; that is why
    atleast 0 r . X, lighter than TOP, is not replaced by it on its own.
    """
    # each operand is rendered for sorting, once, in the run it joins
    render = concept_renderer()

    def finish(x: Union[Concept, _Run]) -> Concept:
        if type(x) is not _Run:
            return x
        return (_finish_and if x.op is And else _finish_or)(x, render)

    return finish(fold_concept(c, lambda node, parts: _simplify_node(node, parts, finish),
                               _is_constant))


# ---------------------------------------------------------------------------
# Proof partitioning
# ---------------------------------------------------------------------------


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class EndSplit:
    """How the conclusion sequent splits: one side per consequent occurrence,
    sides for its inequality atoms, and the tbox prefix length owned by the
    left ontology."""

    occ_sides: tuple[Side, ...]
    neq_sides: Mapping[Neq, Side]
    left_gcis: int


@dataclass(frozen=True)
class PartitionedProof:
    instance: RuleInstance
    occ_sides: tuple[Side, ...]
    neq_sides: Mapping[Neq, Side]
    children: tuple["PartitionedProof", ...]

    @property
    def conclusion(self) -> Sequent:
        return self.instance.conclusion


def annotate_partition(proof: Proof, end_split: EndSplit) -> PartitionedProof:
    """Top-down pass assigning each occurrence and inequality atom a side.

    The sides follow the premise maps (expanded from the layouts) and read
    positions of each node's own instance, so the proof must be one that
    `prove` returned: its instances are `apply_rule`'s, and its children
    conclude their premises.
    """
    pending = [(end_split.occ_sides, end_split.neq_sides)]
    annotated: list[PartitionedProof] = []
    for node in proof.nodes():
        occ_sides, neq_sides = pending.pop()
        inst = node.instance
        if len(occ_sides) != len(inst.conclusion.consequent):
            raise InterpolationError("side annotation does not match the sequent")
        if inst.rule in ("id", "id_eq"):
            principal_side = None
        elif inst.reads and len(inst.layouts) == len(inst.premises):
            principal_side = occ_sides[inst.reads[0]]
        else:  # e.g. a proof read back by `proof_from_json`
            raise InterpolationError(f"the {inst.rule} instance has no premise_maps/reads: "
                                     "only a proof that prove returned can be partitioned")
        old_atoms = inst.conclusion.atom_set()
        premise_sides = []
        for premise, pmap in zip(inst.premises, inst.premise_maps):
            child_sides = []
            for origin in pmap:
                if origin[0] == "ctx":
                    child_sides.append(occ_sides[origin[1]])
                elif origin[0] == "active":
                    child_sides.append(principal_side)
                else:  # ("gci", k): route the copy to its source ontology
                    child_sides.append(Side.LEFT if origin[1] < end_split.left_gcis
                                       else Side.RIGHT)
            child_neq = dict(neq_sides)
            for atom in premise.antecedent:
                if isinstance(atom, Neq) and atom not in old_atoms:
                    child_neq[atom] = principal_side
            premise_sides.append((tuple(child_sides), child_neq))
        # pre-order: the first premise is annotated next
        pending.extend(reversed(premise_sides))
        annotated.append(PartitionedProof(inst, occ_sides, neq_sides, ()))
    # pre-order reversed: each node's children are the top of `done`
    done: list[PartitionedProof] = []
    for pp in reversed(annotated):
        done.append(replace(pp, children=tuple(done.pop() for _ in pp.instance.premises)))
    return done[0]


# ---------------------------------------------------------------------------
# Interpolant extraction
# ---------------------------------------------------------------------------


def extract_interpolant(pp: PartitionedProof) -> Interpolant:
    """Downward-from-leaves pass assigning an interpolant to every node;
    returns the root's.

    Initial rules produce the leaf interpolants (orthogonal-wrapped when
    the principal is on the left); interpolant-preserving rules take the
    union of their premises' interpolants; the universal and atmost rules
    apply their dedicated constructs.  No node's interpolant is checked
    here: the answer's certificate is the verification of the assembled
    concept (``VerificationReport.verify``), which does not trust this pass.
    """

    def combine(node: PartitionedProof, parts: list[Interpolant]) -> Interpolant:
        rule = node.instance.rule
        w = node.instance.witness
        if rule in ("subst_eq", "or", "and", "exists", "atleast"):
            return _union(parts)
        if rule == "forall":
            return box_interpolant(w.concept.role, w.label, w.fresh[0], parts[0])
        if rule == "atmost":
            return leq_interpolant(w.concept.n, w.concept.role, w.label,
                                   w.fresh, parts[0])
        raise InterpolationError(f"unexpected rule {rule!r}")

    def leaf(node: PartitionedProof) -> Interpolant:
        inst = node.instance
        w = inst.witness
        if inst.rule == "id":
            x, pos = w.label, w.concept
            neg = NegatedName(pos.name)
            pos_side, neg_side = (node.occ_sides[i] for i in inst.reads)
            if pos_side is Side.RIGHT and neg_side is Side.RIGHT:
                return interpolant(member(concepts=[(x, TOP)]))
            if pos_side is Side.LEFT and neg_side is Side.RIGHT:
                return interpolant(member(concepts=[(x, neg)]))
            if pos_side is Side.RIGHT and neg_side is Side.LEFT:
                return interpolant(member(concepts=[(x, pos)]))
            return interpolant(member(concepts=[(x, BOT)]))
        # (id_eq)
        atom = Neq(*w.pair)
        side = node.neq_sides.get(atom)
        if side is None:
            raise InterpolationError(f"inequality {atom} has no side tag")
        if side is Side.RIGHT:
            return interpolant(member(atoms=[atom]))
        return interpolant(member(atoms=[Eq(atom.left, atom.right)]))

    done: list[Interpolant] = []
    for _, node in reversed(list(walk(pp))):
        parts = [done.pop() for _ in node.children]
        inst = node.instance
        if inst.rule in ("id", "id_eq"):
            g = leaf(node)
        else:
            right = node.occ_sides[inst.reads[0]] is Side.RIGHT
            if not parts:
                # (atleast 0): a zero-premise propagation rule
                g = EMPTY if right else interpolant(member())
            elif right:
                g = combine(node, parts)
            else:
                # the orthogonal wrap: swap partitions, combine, swap back
                g = orthogonal(combine(node, [orthogonal(part) for part in parts]))
        done.append(g)
    return done[0]


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verifying a concept against a subsumption in both
    directions: ``ok`` when the signature check passed and both directions
    were proved, ``inconclusive`` when none failed but a direction proof hit
    its resource bound.  A proof from ``prove`` is derived from its goal by
    construction, so it is not checked again here."""
    signature_ok: bool
    extra_names: frozenset[str]
    forward: ProveResult
    backward: ProveResult

    #: how ``lines`` names the forward and the backward direction
    DIRECTIONS = ("subsumee <= interpolant", "interpolant <= subsumer")

    @classmethod
    def verify(cls, ont: Ontology, allowed: frozenset[str], sub: Concept,
               mid: Concept, sup: Concept, limits: SearchLimits):
        """Check that ``mid`` uses only ``allowed`` names, and prove
        ``sub <= mid`` and ``mid <= sup`` over ``ont``."""
        extra = cpt(mid) - allowed
        directions = [prove(ont, goal_sequent(ont, lo, hi), limits)
                      for lo, hi in ((sub, mid), (mid, sup))]
        return cls(not extra, frozenset(extra), *directions)

    @property
    def ok(self) -> bool:
        return (self.signature_ok and isinstance(self.forward, Proved)
                and isinstance(self.backward, Proved))

    @property
    def inconclusive(self) -> bool:
        """Nothing failed, but a direction proof hit its resource bound."""
        return (not self.ok and self.signature_ok
                and not isinstance(self.forward, Refuted)
                and not isinstance(self.backward, Refuted))

    def lines(self) -> list[str]:
        forward, backward = self.DIRECTIONS
        return [
            "signature: " + ("ok" if self.signature_ok
                             else "extra names " + ", ".join(sorted(self.extra_names))),
            f"{forward}: {type(self.forward).__name__}",
            f"{backward}: {type(self.backward).__name__}",
        ]


def verify_interpolant(o1: Ontology, o2: Ontology, c: Concept, d: Concept,
                       i: Concept,
                       limits: SearchLimits = SearchLimits()) -> VerificationReport:
    """Check the three concept-interpolant conditions: shared signature
    (syntactic), and both subsumption directions proved over the union
    ontology."""
    return VerificationReport.verify(union_ontology(o1, o2), cpt(o1, c) & cpt(o2, d),
                                     c, i, d, limits)


@dataclass(frozen=True)
class InterpolationResult:
    """``concept`` and ``interpolant`` are set only when ``status`` is "ok".
    An "unknown" carries either the Unknown of the proof search, or the
    Proved goal together with an inconclusive ``verification``.  An "ok"
    from ``extract_concept_interpolant`` has no ``verification`` yet."""
    status: str  # "ok" | "refuted" | "unknown"
    concept: Optional[Concept] = None
    interpolant: Optional[Interpolant] = None
    prove_result: Optional[ProveResult] = None
    verification: Optional[VerificationReport] = None


def split_goal(o1: Ontology, o2: Ontology, c: Concept, d: Concept) -> Sequent:
    """The subsumption goal with its disjunction already split and the GCIs
    of each ontology on its own side:
    ``|- x0 : gciList(O1), x0 : nnf_negate(C), x0 : D, x0 : gciList(O2)``."""
    x = "x0"
    return make_sequent((), tuple(LabeledConcept(lab, cc) for lab, cc in o1.gci_list(x))
                        + (LabeledConcept(x, nnf_negate(c)), LabeledConcept(x, d))
                        + tuple(LabeledConcept(lab, cc) for lab, cc in o2.gci_list(x)))


def extract_concept_interpolant(o1: Ontology, o2: Ontology, c: Concept, d: Concept,
                                limits: SearchLimits = SearchLimits()
                                ) -> InterpolationResult:
    """Prove the split subsumption goal over O1 u O2, partition the proof,
    extract the interpolant and assemble its simplified concept, which is
    not yet verified.  This is the one proof search of the extraction."""
    goal = split_goal(o1, o2, c, d)
    ont = union_ontology(o1, o2)
    result = prove(ont, goal, limits)
    if isinstance(result, Unknown):
        return InterpolationResult("unknown", prove_result=result)
    if isinstance(result, Refuted):
        return InterpolationResult("refuted", prove_result=result)
    left = len(o1.tbox) + 1
    split = EndSplit(
        occ_sides=(Side.LEFT,) * left + (Side.RIGHT,) * (len(goal.consequent) - left),
        neq_sides={},
        left_gcis=len(o1.tbox),
    )
    pp = annotate_partition(result.proof, split)
    g = extract_interpolant(pp)
    concept = simplify_concept(interpolant_concept(g, "x0"))
    return InterpolationResult("ok", concept, g, result)


def compute_concept_interpolant(o1: Ontology, o2: Ontology, c: Concept, d: Concept,
                                limits: SearchLimits = SearchLimits()
                                ) -> InterpolationResult:
    """Extract an interpolant (``extract_concept_interpolant``) and verify
    it (``verify_interpolant``).  The time hint of all three proof searches
    counts from this call (``SearchLimits.starting``).

    A verification direction that hits its resource bound makes the result
    "unknown"; a verification that fails raises InterpolationError."""
    limits = limits.starting()
    result = extract_concept_interpolant(o1, o2, c, d, limits)
    if result.status != "ok":
        return result
    report = verify_interpolant(o1, o2, c, d, result.concept, limits)
    if report.inconclusive:
        return InterpolationResult("unknown", prove_result=result.prove_result,
                                   verification=report)
    if not report.ok:
        raise InterpolationError(
            "interpolant verification failed:\n  " + "\n  ".join(report.lines())
            + f"\n  interpolant: {render_concept(result.concept)}")
    return replace(result, verification=report)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def interpolant_to_dict(g: Interpolant) -> dict:
    members = []
    for m in g.sorted_members():
        atoms = [{"kind": "eq" if isinstance(a, Eq) else "neq",
                  "left": a.left, "right": a.right}
                 for a in sorted(m.atoms, key=str)]
        concepts = [{"label": lab, "concept": render_concept(c)}
                    for lab, c in sorted(m.concepts,
                                         key=lambda lc: (lc[0], render_concept(lc[1])))]
        members.append({"atoms": atoms, "concepts": concepts})
    return {"format": "riq-interpolant", "version": 1, "members": members}


def interpolant_to_json(g: Interpolant) -> str:
    return json.dumps(interpolant_to_dict(g), indent=2)


def interpolant_from_dict(d: dict) -> Interpolant:
    members = []
    for m in d.get("members", ()):
        atoms = []
        for a in m.get("atoms", ()):
            cls = Eq if a["kind"] == "eq" else Neq
            atoms.append(cls(a["left"], a["right"]))
        concepts = [(c["label"], parse_concept(c["concept"], internal=True))
                    for c in m.get("concepts", ())]
        members.append(member(atoms, concepts))
    return Interpolant(frozenset(members))


def interpolant_from_json(text: str) -> Interpolant:
    return interpolant_from_dict(json.loads(text))
