"""Proof search with saturation-based refutation and counter-model
extraction.

The search expands the goal bottom-up in a fixed stage order (closure rules,
then literal copying, disjunction, conjunction, existential propagation,
universal succession, atmost succession, atleast propagation) and treats an
application as exhausted once its result formulas are already present: both
disjuncts, some conjunct, the copied literal, a filler in the witness class,
or a merged target pair.  When no stage can add anything the branch is
saturated; the accumulated branch then yields a finite counter-model (label
classes as domain, negative literals as concept extensions, role atoms
closed under the RIAs), which is verified against the goal before being
returned.  Search is depth-first, leftmost premise first, and fully
deterministic; step/label/time budgets produce an explicit Unknown verdict
instead of non-termination.

A goal whose counter-models need an endless chain of successors would spend
every label.  Subset blocking anywhere (Horrocks and Sattler, "A
description logic with transitive and inverse roles and role hierarchies",
J. Logic Comput. 9(3), 1999; Motik, Shearer and Horrocks, "Hypertableau
reasoning for description logics", JAIR 36, 2009) stops it: a label whose
accumulated concepts are all carried by an earlier label (a goal label, or
one made before it, that is not itself blocked) fires no (forall) or
(atmost) item, and neither does any label beneath it.  The test reads the
branch's concepts anew in each cycle, so a label is unblocked once its set
outgrows its blocker's.  A branch that saturates up to its blocks is
folded: the role atom into each blocked label is sent to its blocker, and
the labels beneath are dropped.  The blocking argument certifies nothing:
the folded interpretation passes the same `is_model`/`falsifies` check as
any other before it is returned.  When it fails, the branch retires the
failed fold's weak blocks (those whose blocker is not an ancestor with the
same concepts), or all of its blocks when none is weak, and goes on; a
retired label may still be blocked by another label.  Blocking can turn
an Unknown into a Refuted, but never a provable goal into one.

Proofs keep only the (and) branches they use: dependency-directed
backtracking, or backjumping (Horrocks and Patel-Schneider, "Optimizing
description logic subsumption", J. Logic Comput. 9(3), 1999), in sequent
form.  An (and) step pushes a marker between its premises; when it pops,
the left subproof is complete.  If that subproof met no Unknown, never read
its conjunct occurrence (judged by identity: the rules copy every
occurrence they do not read, so the conjunct is one object throughout the
subproof) and never made the conjunction principal, the right premise is
dropped unsearched.  The left subproof then proves the (and)
node's conclusion once the conjunct is replaced by the conjunction at the
same position in each of its sequents; the proof is assembled with that
rewrite, every rewritten node re-derived by `apply_rule`, so nothing is
trusted that the calculus does not check.  A returned proof is thus what
`check_proof` re-derives from the goal (see `prove`).

The search is one loop over an explicit stack of pending nodes, so proof
depth is bounded by the budgets, not by Python's recursion limit, and a
search changes no process-wide setting.  The concept walks it uses are
loops too (`core.fold_concept`), so no concept is too deeply nested to
search.

Each node carries its structure, `(antecedent, eq, closure)`, to its
premises and to its next cycle: the antecedent it was made for, that
antecedent's equality classes (`Sequent.equalities`, None without an
equality atom), and the CFL closure over one edge per role atom between
class representatives (`build_prop_graph`), which is the only reachability
structure of a node.  A premise with the same antecedent keeps all three:
for a non-empty antecedent the labels depend on the antecedent alone, and
a rule that keeps an empty antecedent also keeps its one label.  A premise
of (forall) or (atmost) adds atoms over fresh labels and no equality, so it
keeps the carried classes, in which a fresh label is its own class, and
extends the carried closure by the edges of its added role atoms alone.
An (atleast) equality premise, which may merge classes, rebuilds both, and
so does a premise of a node with an empty antecedent, which has no edges.
Neither is changed after construction, so sibling branches share them but
no mutable state.

A node also carries its consequent's occurrence index, a dict from
`(label, concept)` to multiplicity (the consequent is a multiset: a union
ontology's goal may repeat a GCI).  A rule copies its context, so a
premise is its conclusion without the occurrence its layout drops and with
those it inserts, and a premise's stack entry holds no index of its own:
it carries its conclusion's with `(conclusion, layout)`, and `enter`
derives the premise's, one dict copy, the dropped occurrence taken away
and the inserted ones added, only when the premise is popped, so a
premise that backjumping skips or the budget stops costs nothing.  Its
`delta_star` gains the inserted pairs alone, and its closing scans run
only when an inserted occurrence or a new atom can close it.  So a node
costs what its rule inserted, not its whole consequent.  The index lives
on the stack alone, never on a sequent: a proof keeps its sequents.

The search builds each step with `sequent.build_instance`, which makes
every check of `apply_rule` but that of the propagation witnesses.  An
(exists) or (atleast) step reads its targets off the closure and is built
from them alone.  Its propagation witnesses, a node path and the
derivation of its role string per target, are needed only by a returned
proof: `assemble` reads them off the node's closure for the steps the
proof keeps, and checks them against the conclusion's own atoms, trusting
none of this.  The steps of a Refuted or Unknown search, whose answer no
proof certifies, derive no witness.
The branch is not stored: its last sequent holds all of its atoms, and the
carried `delta_star` all of its consequent occurrences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional, Union

from .core import (
    AtLeast,
    Concept,
    ConceptName,
    NegatedName,
    Ontology,
    Or,
    RiqError,
    nnf_negate,
    subconcepts,
)
from .rsystem import CflClosure
from .semantics import (
    Interpretation,
    holds_antecedent,
    holds_consequent,
    is_model,
    ria_closure,
)
from .sequent import (
    PRINCIPAL_TYPES,
    Eq,
    EqClasses,
    LabeledConcept,
    Neq,
    Proof,
    RoleAtom,
    RuleInstance,
    Sequent,
    Witness,
    apply_rule,
    build_instance,
    build_prop_graph,
    check_paths,
    eq_classes,
    make_sequent,
)


class CountermodelError(RiqError):
    """A saturated branch produced an interpretation that failed
    verification; this is an internal error, never silently returned."""


@dataclass(frozen=True)
class SearchLimits:
    max_steps: int = 50000
    max_labels: int = 2000
    max_seconds_hint: int = 120
    #: the `time.monotonic()` reading that `max_seconds_hint` counts from;
    #: None starts each search's own clock
    started: Optional[float] = None

    def __post_init__(self) -> None:
        if min(self.max_steps, self.max_labels, self.max_seconds_hint) < 1:
            raise ValueError("search limits must be positive")

    def starting(self) -> SearchLimits:
        """These limits with the clock read now, unless it was read already:
        a pipeline calls this once at its entry, so that all of its
        searches share one deadline."""
        return self if self.started is not None else replace(self, started=time.monotonic())


@dataclass(frozen=True)
class Proved:
    proof: Proof


@dataclass(frozen=True)
class Refuted:
    interpretation: Interpretation
    assignment: dict[str, str]


@dataclass(frozen=True)
class Unknown:
    reason: str


ProveResult = Union[Proved, Refuted, Unknown]


def goal_sequent(ontology: Ontology, sub: Concept, sup: Concept,
                 label: str = "x0") -> Sequent:
    """The subsumption goal `|- x : gciList(O), x : nnf_negate(C) or D`."""
    gcis = tuple(LabeledConcept(lab, c) for lab, c in ontology.gci_list(label))
    return make_sequent((), gcis + (LabeledConcept(label, Or(nnf_negate(sub), sup)),))


class _Search:
    def __init__(self, ontology: Ontology, limits: SearchLimits):
        self.ontology = ontology
        self.limits = limits
        self.steps = 0
        self.started = time.monotonic() if limits.started is None else limits.started
        self.goal_labels: tuple[str, ...] = ()
        self.counter = 0
        # `delta_star` at the last `blocking` call, grouped by label
        self.grouped: tuple[frozenset, dict[str, set[Concept]]] = (frozenset(), {})

    def fresh_label(self) -> str:
        """The next `x<n>` that is no goal label: all others are made here."""
        while True:
            candidate = f"x{self.counter}"
            self.counter += 1
            if candidate not in self.goal_labels:
                return candidate

    def budget(self, seq: Sequent) -> Optional[Unknown]:
        """Unknown when a bound is spent.  Called for every node popped from
        the search stack, so once the deadline has passed every pending node
        sees it too and the stack drains without further work."""
        self.steps += 1
        if self.steps > self.limits.max_steps:
            return Unknown("step limit reached")
        if len(seq.labels()) > self.limits.max_labels:
            return Unknown("label limit reached")
        if time.monotonic() - self.started > self.limits.max_seconds_hint:
            return Unknown("time limit reached")
        return None

    # ------------------------------------------------------------------
    # stage scans: each returns the first enabled application, or None
    # ------------------------------------------------------------------

    def _closure_instance(self, seq: Sequent, eq: Optional[EqClasses],
                          literals: bool = True, inequalities: bool = True,
                          empty: bool = True) -> Optional[RuleInstance]:
        """The closing instance of `seq`, or None: the first (id) on a name
        whose negation shares its label, else the first (id_eq) on an
        inequality within one class, else the first (atleast 0).  A scan
        whose flag is False is skipped; `enter` clears the flags of the
        scans that cannot fire."""
        if literals:
            names, negated = set(), set()
            for occ in seq.consequent:
                c = occ.concept
                if isinstance(c, ConceptName):
                    names.add((occ.label, c.name))
                elif isinstance(c, NegatedName):
                    negated.add((occ.label, c.name))
            if not names.isdisjoint(negated):
                clashes = names & negated
                occ = next(occ for occ in seq.consequent
                           if isinstance(occ.concept, ConceptName)
                           and (occ.label, occ.concept.name) in clashes)
                return build_instance(self.ontology, "id", seq,
                                      Witness(label=occ.label, concept=occ.concept))
        for atom in seq.antecedent if inequalities else ():
            if not isinstance(atom, Neq):
                continue
            x, y = atom.left, atom.right
            if x == y or eq is not None and eq.connected(x, y):
                return build_instance(self.ontology, "id_eq", seq,
                                      Witness(pair=(x, y),
                                              eq_path=(x,) if x == y else eq.path(x, y)))
        for occ in seq.consequent if empty else ():
            if isinstance(occ.concept, AtLeast) and occ.concept.n == 0:
                return build_instance(self.ontology, "atleast", seq,
                                      Witness(label=occ.label, concept=occ.concept))
        return None

    def enter(self, seq: Sequent, eq: Optional[EqClasses], new_atoms: bool,
              delta_star: frozenset, index: Optional[dict], change: Optional[tuple]
              ) -> tuple[dict, frozenset, Optional[RuleInstance]]:
        """A popped node's occurrence index, its `delta_star` and its closing
        instance (None when it does not close), from what its stack entry
        carries: the `delta_star` and index of the node's conclusion and
        the `change` that made the node, `(conclusion, layout)`.

        The index maps each `(label, concept)` of the node's consequent to
        its multiplicity.  The goal (`index` None) counts it and runs every
        closing scan.  A premise copies its conclusion's, takes away the
        occurrence the layout drops and adds those it inserts, and its
        `delta_star` gains the inserted pairs: the rest were in the
        conclusion's.  Its conclusion did not close, so a clash must
        involve an inserted literal and an (atleast 0) must be inserted,
        and an inequality can close only when `new_atoms` (the rule changed
        the antecedent); only a scan that can fire is run, in full, so the
        witness is the one the full scan finds.  A cycle restart (`change`
        None) is its own conclusion and closes nothing."""
        if index is None:
            index = {}
            for occ in seq.consequent:
                key = (occ.label, occ.concept)
                index[key] = index.get(key, 0) + 1
            return index, delta_star.union(index), self._closure_instance(seq, eq)
        if change is None:
            return index, delta_star, None
        conclusion, (at, drop, provenances) = change
        index = index.copy()
        if drop is not None:
            occ = conclusion.consequent[drop]
            key = (occ.label, occ.concept)
            n = index.pop(key)
            if n > 1:
                index[key] = n - 1
        new = []
        clash = empty = False
        for occ in seq.consequent[at:at + len(provenances)]:
            c = occ.concept
            key = (occ.label, c)
            index[key] = index.get(key, 0) + 1
            if key not in delta_star:
                new.append(key)
            kind = type(c)
            if kind is ConceptName:
                clash = clash or (occ.label, NegatedName(c.name)) in index
            elif kind is NegatedName:
                clash = clash or (occ.label, ConceptName(c.name)) in index
            elif kind is AtLeast:
                empty = empty or c.n == 0
        if new:
            delta_star = delta_star.union(new)
        if clash or new_atoms or empty:
            return index, delta_star, self._closure_instance(seq, eq, clash, new_atoms, empty)
        return index, delta_star, None

    # ------------------------------------------------------------------
    # cycle agenda: one item per pending occurrence, in stage order
    # ------------------------------------------------------------------

    #: the rules of a saturation cycle, in stage order
    _STAGES = ("subst_eq", "or", "and", "exists", "forall", "atmost", "atleast")
    #: each principal type's stage and rule
    _STAGE_OF = {t: (i, rule) for i, rule in enumerate(_STAGES)
                 for t in PRINCIPAL_TYPES[rule]}

    def build_agenda(self, seq: Sequent) -> tuple[tuple, ...]:
        """Snapshot the obligations of a full saturation cycle: every
        consequent occurrence contributes at most one item, grouped by the
        calculus' stage order.  Items are realized against the sequent that
        is current when they fire.  No (atleast 0) occurrence is met here:
        it closes the node before the agenda is built."""
        stages = {}
        for occ in seq.consequent:
            stage = self._STAGE_OF.get(type(occ.concept))
            if stage is not None:
                stages.setdefault((stage[1], occ.label, occ.concept), stage[0])
        return tuple(sorted(stages, key=stages.__getitem__))

    def realize(self, item: tuple, seq: Sequent, eq: Optional[EqClasses],
                closure: CflClosure, present: dict,
                delta_star: frozenset) -> Optional[Witness]:
        """Turn an agenda item into a rule witness against the current
        sequent, or None when the item is exhausted (its results already
        occurred on this branch, or its side condition has no witness yet).

        Exhaustion is judged against the branch-accumulated consequent, not
        the current one: results introduced earlier stay decisive even after
        a later rule consumed them, which is exactly what the counter-model
        construction reads off a saturated branch.  `present`, the node's
        occurrence index (`enter`), holds the current sequent's own
        occurrences.

        A propagation target is a class, named by its representative: one
        that the closure reaches from the label's representative under the
        role, in label order, whose members all lack the filler.
        """
        kind, label, c = item
        if (label, c) not in present:
            return None  # principal was consumed along this branch
        if kind == "subst_eq":
            # without equalities the label's class is itself, and present
            for other in eq.members(label) if eq is not None else ():
                if (other, c) not in delta_star:
                    return Witness(label=label, concept=c, target=other,
                                   eq_path=eq.path(label, other))
            return None
        if kind == "or":
            if (label, c.left) in delta_star and (label, c.right) in delta_star:
                return None
            return Witness(label=label, concept=c)
        if kind == "and":
            if (label, c.left) in delta_star or (label, c.right) in delta_star:
                return None
            return Witness(label=label, concept=c)
        if kind == "forall":
            return Witness(label=label, concept=c, fresh=(self.fresh_label(),))
        if kind == "atmost":
            fresh = tuple(self.fresh_label() for _ in range(c.n + 1))
            return Witness(label=label, concept=c, fresh=fresh)
        # (exists) needs one open target, (atleast) n of them
        n = 1 if kind == "exists" else c.n
        found = closure.successors(c.role, label if eq is None else eq.rep(label))
        if len(found) < n:
            return None
        found = set(found)
        targets = []
        for y in seq.labels():
            if y in found and not any((m, c.body) in delta_star for m in
                                      (eq.members(y) if eq is not None else (y,))):
                targets.append(y)
                if len(targets) == n:
                    break
        else:
            return None
        if kind == "exists":
            return Witness(label=label, concept=c, target=targets[0])
        return Witness(label=label, concept=c, targets=tuple(targets))

    #: items that may fire several times per cycle (one witness each)
    _REPEATING = ("subst_eq", "exists", "atleast")
    #: items whose propagation witnesses are derived when the proof is
    #: assembled, for the instances it keeps
    _PROPAGATING = ("exists", "atleast")
    #: items that make fresh labels, which a blocked label does not fire
    _GENERATING = ("forall", "atmost")

    def blocking(self, seq: Sequent, delta_star: frozenset,
                 retired: frozenset) -> tuple[dict[str, str], set[str],
                                              set[tuple[str, str]]]:
        """Subset blocking anywhere on the branch that ends in `seq`
        (Horrocks and Sattler, J. Logic Comput. 9(3), 1999; Motik, Shearer
        and Horrocks, JAIR 36, 2009): a label is blocked by the first
        earlier label whose concepts in `delta_star` include its own, unless
        that pair is `retired` (its fold failed on this branch).  Earlier
        means goal labels first, then the order in which role atoms make
        the others, and a label at or beneath a block blocks nothing.  Goal
        labels are never blocked.  Every label other than a goal label has
        one incoming role atom, made with it from a label that exists
        already, so the antecedent lists every parent before its children.

        Returns the blocks, each blocked label mapped to its blocker; the
        labels at or beneath them, none of which fires a generating item;
        and the weak blocks, the `(label, blocker)` pairs whose blocker is
        not an ancestor with the same concepts.

        The grouping of `delta_star` by label is kept from the last call:
        when the branch grew from that call's `delta_star`, as it does
        between most calls of a depth-first search, only the new
        occurrences are added to it."""
        parent = {atom.dst: atom.src for atom in seq.antecedent
                  if isinstance(atom, RoleAtom)
                  and atom.dst not in self.goal_labels}
        last, concepts = self.grouped
        if last <= delta_star:
            new = delta_star - last
        else:
            new, concepts = delta_star, {}
        for label, c in new:
            concepts.setdefault(label, set()).add(c)
        self.grouped = (delta_star, concepts)
        earlier = [(label, concepts.get(label, set())) for label in self.goal_labels]
        blocks: dict[str, str] = {}
        stopped: set[str] = set()
        for label, up in parent.items():
            if up in stopped:
                stopped.add(label)
                continue
            own = concepts[label]
            for other, theirs in earlier:
                if own <= theirs and (label, other) not in retired:
                    blocks[label] = other
                    stopped.add(label)
                    break
            else:
                earlier.append((label, own))
        weak = set()
        for label, other in blocks.items():
            up = parent[label]
            while up is not None and up != other:
                up = parent.get(up)
            if up is None or concepts[label] != concepts[other]:
                weak.add((label, other))
        return blocks, stopped, weak

    def left_unused(self, instances: list[RuleInstance], at: int,
                    jumped: set[int]) -> bool:
        """Whether the left subproof of the (and) instance `instances[at]`,
        the complete pre-order range `instances[at + 1:]`, never reads its
        conjunct occurrence and never makes the conjunction principal (after
        the rewrite, `_principal_index` would find that occurrence first).
        Use is judged by occurrence identity, not by value: every rule
        copies the occurrences it does not read into its premises, so the
        conjunct is one object throughout the subproof.  A jumped (and)
        reads nothing, since its left subproof stands in for it."""
        inst = instances[at]
        principal = (inst.witness.label, inst.witness.concept)
        conjunct = inst.premises[0].consequent[inst.reads[0]]
        for k in range(at + 1, len(instances)):
            if k in jumped:
                continue
            inst = instances[k]
            if (inst.witness.label, inst.witness.concept) == principal \
                    or any(inst.conclusion.consequent[i] is conjunct for i in inst.reads):
                return False
        return True

    def assemble(self, goal: Sequent, instances: list[RuleInstance],
                 jumped: set[int], reaches: dict[int, tuple[CflClosure, str]]
                 ) -> Proof:
        """The proof of `goal` from the recorded pre-order instances.  A
        jumped (and) node is replaced by its left subproof, whose sequents
        then carry the conjunction where they carried the unused conjunct.
        One top-down pass hands each kept node the premise its parent's
        instance made (the goal, at the root), carrying every pending
        rewrite at once: the search's instance is kept when it concludes
        that very object, and a rewritten node is re-derived by `apply_rule`
        exactly once.  The nodes are then linked bottom-up, children before
        their parent.

        An (exists) or (atleast) instance `k` has no propagation witnesses
        yet: they are read off `reaches[k]`, one `CflClosure.derivation` per
        target.  A kept instance gets them by `replace`, keeping its premise
        objects, and `check_paths` verifies them; a rewritten one is
        re-derived with them.  So every node of the proof has passed
        `apply_rule`'s checks once."""
        conclusions = [goal]
        kept: list[RuleInstance] = []
        for k, inst in enumerate(instances):
            conclusion = conclusions.pop()
            if k in jumped:
                conclusions.append(conclusion)
                continue
            witness = inst.witness
            if k in reaches:
                closure, x = reaches[k]
                found = [closure.derivation(witness.concept.role, x, y)
                         for y in (witness.targets or (witness.target,))]
                witness = replace(witness, paths=tuple(path for _, path in found),
                                  derivations=tuple(steps for steps, _ in found))
            if inst.conclusion is not conclusion:
                inst = apply_rule(self.ontology, inst.rule, conclusion, witness)
            elif witness is not inst.witness:
                inst = replace(inst, witness=witness)
                check_paths(self.ontology, inst)
            conclusions.extend(reversed(inst.premises))
            kept.append(inst)
        done: list[Proof] = []
        for inst in reversed(kept):
            done.append(Proof(inst, tuple(done.pop() for _ in inst.premises)))
        return done[0]

    def run(self, goal: Sequent) -> ProveResult:
        """Pop nodes `(sequent, delta_star, agenda, structure, retired,
        index, change)` off a stack, one budget step each: the branch's
        consequent occurrences up to the node's conclusion, the rest of the
        saturation cycle (None starts one), the carried `(antecedent, eq,
        closure)`, the `(label, blocker)` pairs whose fold failed on the
        branch, and the conclusion's occurrence index with the
        `(conclusion, layout)` that made the node, from which `enter`
        derives the node's own.  A rule application pushes its premises
        reversed, so the leftmost runs first, and a cycle restart or a
        failed fold pushes its node again.  The first Refuted answers at
        once; every Unknown is kept while the other nodes may still refute.

        An (and) step pushes a marker `(at, unknowns)` between its premises;
        popping it costs no budget step.  By then the left subtree is
        complete: it is `instances[at + 1:]`, since rule instances are
        recorded in pre-order.  When that subtree met no Unknown and left
        the conjunct unused (`left_unused`), the right premise is popped
        unsearched and `assemble` lets the left subproof stand in for the
        (and) node.  `reaches` keeps, by instance index, the closure and
        principal representative of each (exists) or (atleast) node, for
        `assemble`."""
        self.goal_labels = goal.labels()
        stack: list[tuple] = [(goal, frozenset(), None, None, frozenset(), None, None)]
        instances: list[RuleInstance] = []
        jumped: set[int] = set()
        unknowns: list[Unknown] = []
        reaches: dict[int, tuple[CflClosure, str]] = {}
        while stack:
            entry = stack.pop()
            if len(entry) == 2:  # the marker between an (and) step's premises
                at, unknowns_before = entry
                if len(unknowns) == unknowns_before \
                        and self.left_unused(instances, at, jumped):
                    jumped.add(at)
                    stack.pop()
                continue
            seq, delta_star, agenda, structure, retired, index, change = entry
            over = self.budget(seq)
            if over is not None:
                unknowns.append(over)
                continue
            if structure is not None and structure[0] == seq.antecedent:
                _, eq, closure = structure
            else:  # the goal, or a rule changed the antecedent
                # atoms over fresh labels, none of them an equality, keep the
                # carried classes and extend the carried closure by their
                # edges; after an equality merge both are rebuilt
                start = len(structure[0]) if structure is not None else 0
                if any(isinstance(atom, Eq) for atom in seq.antecedent[start:]):
                    start = 0
                eq = structure[1] if start else seq.equalities()
                closure = None
            # the closure is still to be built exactly when the atoms are new
            index, delta_star, closing = self.enter(seq, eq, closure is None, delta_star,
                                                    index, change)
            if closing is not None:
                instances.append(closing)
                continue

            if closure is None:
                edges = build_prop_graph(seq, eq, start)
                base = structure[2] if start else None
                closure = CflClosure(self.ontology.rsystem,
                                     base.edges + edges if start else edges, base)
                structure = (seq.antecedent, eq, closure)

            fresh_cycle = agenda is None
            if fresh_cycle:
                agenda = self.build_agenda(seq)

            blocks = stopped = weak = None  # computed when a generating item comes up
            for i, item in enumerate(agenda):
                if item[0] in self._GENERATING and item[1] not in self.goal_labels \
                        and (item[1], item[2]) in index:
                    if stopped is None:
                        blocks, stopped, weak = self.blocking(seq, delta_star, retired)
                    if item[1] in stopped:
                        continue
                witness = self.realize(item, seq, eq, closure, index, delta_star)
                if witness is not None:
                    break
            else:
                if fresh_cycle:
                    # a complete cycle added nothing: the branch is saturated
                    # up to its blocks, which the counter-model folds
                    try:
                        interpretation, assignment = extract_countermodel(
                            self.ontology, seq, delta_star, goal, blocks)
                    except CountermodelError:
                        if not blocks:
                            raise
                        # the fold is no model: retire its weak blocks, or
                        # all of them when each is an equal-set ancestor
                        stack.append((seq, delta_star, None, structure,
                                      retired.union(weak or blocks.items()), index, None))
                        continue
                    return Refuted(interpretation, assignment)
                stack.append((seq, delta_star, None, structure, retired, index, None))
                continue

            rest = agenda[i + 1:]
            if item[0] in self._REPEATING:
                rest = (item,) + rest
            instance = build_instance(self.ontology, item[0], seq, witness)
            if item[0] in self._PROPAGATING:
                reaches[len(instances)] = (closure, witness.label if eq is None
                                           else eq.rep(witness.label))
            instances.append(instance)
            nodes = [(premise, delta_star, rest, structure, retired, index, (seq, layout))
                     for premise, layout in zip(reversed(instance.premises),
                                                reversed(instance.layouts))]
            if item[0] == "and":
                nodes.insert(1, (len(instances) - 1, len(unknowns)))
            stack.extend(nodes)
        if unknowns:
            return unknowns[0]
        return Proved(self.assemble(goal, instances, jumped, reaches))


def prove(ontology: Ontology, goal: Sequent,
          limits: SearchLimits = SearchLimits()) -> ProveResult:
    """Run the staged proof search on a goal sequent.

    Returns Proved with a proof, Refuted with a verified
    counter-interpretation, or Unknown when a resource bound was hit.
    `limits.max_seconds_hint` counts from `limits.started`, or from this
    call when that is None (see `SearchLimits.starting`).

    A proof is derived from the goal by construction: each node is the
    `apply_rule` instance of its rule and witness on its own conclusion, the
    root concludes the goal, and each child's conclusion is the very premise
    object its parent's instance made; an (exists) or (atleast) node gets its
    propagation witnesses, and their check, when the proof is assembled,
    and one that fails raises RuleError.  So the proof is what `check_proof`
    would re-derive from the goal, and every node carries the instance's
    premise `layouts`, from which its `premise_maps` are expanded, and its
    `reads`.

    The search first adds each goal label's `ontology.gci_list(label)`
    occurrences that the goal lacks.  They are false in every model of the
    ontology, so the goal stays valid exactly when it was, and every label
    of the search then carries its GCIs, which a counter-model needs.  A
    proof then concludes the goal with them added.  A goal made by
    `goal_sequent` or `interpolation.split_goal` carries them already and
    is searched as it is.
    """
    present = goal.concept_set()
    missing = tuple(LabeledConcept(lab, c) for label in goal.labels()
                    for lab, c in ontology.gci_list(label) if (lab, c) not in present)
    if missing:
        goal = make_sequent(goal.antecedent, goal.consequent + missing)
    return _Search(ontology, limits).run(goal)


def subsumes(ontology: Ontology, sub: Concept, sup: Concept,
             limits: SearchLimits = SearchLimits()) -> ProveResult:
    """Decide O |= sub <= sup by proving the standard goal sequent."""
    return prove(ontology, goal_sequent(ontology, sub, sup), limits)


# ---------------------------------------------------------------------------
# Counter-model extraction
# ---------------------------------------------------------------------------


def _all_names(concepts) -> set[str]:
    names = set()
    for c in concepts:
        for sub in subconcepts(c):
            if isinstance(sub, (ConceptName, NegatedName)):
                names.add(sub.name)
    return names


def extract_countermodel(ontology: Ontology, seq: Sequent,
                         delta_star: frozenset[tuple[str, Concept]], goal: Sequent,
                         blocks: Optional[dict[str, str]] = None
                         ) -> tuple[Interpretation, dict[str, str]]:
    """Build the interpretation induced by a saturated branch from its last
    sequent and `delta_star`, its every consequent occurrence.  No rule
    removes an atom, and each antecedent extends its parent's as a prefix,
    so `seq.antecedent` holds the branch's atoms in order.  Labels go goal
    first: (atmost) puts its fresh labels' `!=` atoms before `r(x0, y)`.

    The branch is first folded at its `blocks`, which map blocked labels to
    their blockers (none: the fold is the identity).  The role atom into a
    blocked label is redirected to its blocker, and the blocked label and
    every label beneath it are dropped, with their atoms and concepts.

    Domain: equivalence classes of the remaining labels.  A class is in a
    concept name's extension iff some member carries the negated literal in
    `delta_star`.  Role extensions start from the folded role atoms and
    are closed under all RIAs.  The result is verified (model of the
    ontology, falsifies the goal) before being returned, and
    `CountermodelError` says that it is not.
    """
    blocks = blocks or {}
    dropped = set(blocks)
    atoms = []
    # the role atom into a label comes before those out of it and before
    # any equality on it; no inequality enters the model
    for atom in seq.antecedent:
        if isinstance(atom, RoleAtom):
            if atom.src in dropped:
                dropped.add(atom.dst)
                continue
            if atom.dst in blocks:
                atom = RoleAtom(atom.role, atom.src, blocks[atom.dst])
        elif atom.left in dropped or atom.right in dropped:
            continue
        atoms.append(atom)
    delta_star = frozenset(occ for occ in delta_star if occ[0] not in dropped)

    label_order = dict.fromkeys(lab for lab in goal.labels() + seq.labels()
                                if lab not in dropped)
    eqc = eq_classes(atoms, tuple(label_order))
    assignment = {lab: eqc.rep(lab) for lab in label_order}
    domain = tuple(dict.fromkeys(assignment[lab] for lab in label_order))

    names = _all_names(c for _, c in delta_star)
    names |= _all_names(g.rhs for g in ontology.tbox)
    concept_ext = {
        name: frozenset(assignment[lab] for lab, c in delta_star
                        if isinstance(c, NegatedName) and c.name == name)
        for name in sorted(names)
    }

    role_pairs: dict[str, set[tuple[str, str]]] = {}
    for atom in atoms:
        if isinstance(atom, RoleAtom):
            src, dst = assignment[atom.src], assignment[atom.dst]
            if atom.role.inverted:
                src, dst = dst, src
            role_pairs.setdefault(atom.role.name, set()).add((src, dst))
    for ria in ontology.rbox:
        for role in ria.lhs + (ria.rhs,):
            role_pairs.setdefault(role.name, set())
    closed = ria_closure(role_pairs, ontology.rbox)

    interpretation = Interpretation(domain, concept_ext, closed)

    if not is_model(interpretation, ontology):
        raise CountermodelError("extracted interpretation is not a model of the ontology")
    # it is a model, so it falsifies the goal (`semantics.falsifies`) when
    # the antecedent holds and the consequent does not
    if not holds_antecedent(interpretation, assignment, goal) \
            or holds_consequent(interpretation, assignment, goal):
        raise CountermodelError("extracted interpretation does not falsify the goal")
    return interpretation, assignment
