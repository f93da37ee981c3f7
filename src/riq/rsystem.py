"""R-systems: semi-Thue production systems derived from an ontology's RIAs,
and the context-free reachability closure that decides the propagation side
conditions.

Every production has a single role on the left, so the derivable strings of a
role form a context-free language.  Reachability of graph nodes under that
language is the least relation Reach that holds the r-labeled edges in
Reach(r) and, for each production r -> s1...sk, the composition
Reach(s1); ...; Reach(sk) in Reach(r).  `CflClosure` computes it by
semi-naive evaluation: a worklist of newly found pairs, each joined once
against the pairs found before it, so no composition is recomputed
(Reps, "Program analysis via graph reachability", 1998; Bancilhon and
Ramakrishnan, SIGMOD 1986).  A closure can extend a base closure over a
subset of its edges, starting from the base's pairs; closures are never
changed after construction, so a base can be shared.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Optional

from .core import Ontology, Role

RoleString = tuple[Role, ...]
Node = Hashable
Pair = tuple[Node, Node]


@dataclass(frozen=True)
class Production:
    lhs: Role
    rhs: RoleString

    def __post_init__(self) -> None:
        if len(self.rhs) < 1:
            raise ValueError("production right-hand side must be nonempty")

    def __str__(self) -> str:
        return f"{self.lhs} -> " + " ".join(str(r) for r in self.rhs)


@dataclass(frozen=True)
class RSystem:
    productions: frozenset[Production]

    @cached_property
    def _by_lhs(self) -> dict[Role, tuple[Production, ...]]:
        table: dict[Role, tuple[Production, ...]] = {}
        for prod in sorted(self.productions, key=str):
            table[prod.lhs] = table.get(prod.lhs, ()) + (prod,)
        return table

    @cached_property
    def uses(self) -> dict[Role, tuple[tuple[Production, int], ...]]:
        """For each role, every (production, position) with that role at that
        position of the right-hand side, productions in `str` order."""
        table: dict[Role, tuple[tuple[Production, int], ...]] = {}
        for prod in sorted(self.productions, key=str):
            for i, ch in enumerate(prod.rhs):
                table[ch] = table.get(ch, ()) + ((prod, i),)
        return table

    def with_lhs(self, role: Role) -> tuple[Production, ...]:
        """The productions rewriting `role`, in `str` order."""
        return self._by_lhs.get(role, ())


#: One derivation step: rewrite the role at this position of the string by
#: this production.
Step = tuple[int, Production]


def build_rsystem(ontology: Ontology) -> RSystem:
    """Two productions per RIA: the rule itself and its mirrored inverse."""
    productions = set()
    for ria in ontology.rbox:
        productions.add(Production(ria.rhs, tuple(ria.lhs)))
        productions.add(Production(ria.rhs.inverse(),
                                   tuple(r.inverse() for r in reversed(ria.lhs))))
    return RSystem(frozenset(productions))


# ---------------------------------------------------------------------------
# CFL reachability
# ---------------------------------------------------------------------------

#: Why a pair entered Reach(role): a base edge, or a production application
#: with the intermediate nodes of the composition.
_Reason = tuple
Edge = tuple[Node, Role, Node]


class CflClosure:
    """Least-fixpoint reachability per role over a finite labeled graph.

    `reach` maps each role to the set of node pairs (u, v) such that some
    string in the role's derivable language labels a path u -> v.  The
    closure is computed semi-naively: every pair enters a FIFO worklist when
    it first appears, and when it leaves the worklist it is joined once, at
    each right-hand-side position where its role occurs, against the pairs
    that left before it (held in per-role successor and predecessor
    indexes).  One derivation reason per pair is recorded, when the pair
    first appears, so the reason graph is acyclic and `derivation` can read
    a witness off it: the (position, production) steps that derive a string
    of the role's language, and the node path that string labels.

    With a `base` closure over the same R-system and a subset of `edges`,
    the new closure starts from a copy of the base's pairs, reasons and
    indexes and joins only the consequences of the new edges.  A closure is
    never changed after construction, so one base can serve many extensions.
    """

    def __init__(self, g: RSystem, edges: Iterable[Edge],
                 base: Optional["CflClosure"] = None):
        self.g = g
        self.edges = tuple(edges)
        self.edge_set = frozenset(self.edges)
        new: Iterable[Edge] = self.edges
        if base is None:
            self.reach: dict[Role, set[Pair]] = {}
            self.reasons: dict[tuple[Role, Node, Node], _Reason] = {}
            self._succ: dict[tuple[Role, Node], tuple[Node, ...]] = {}
            self._pred: dict[tuple[Role, Node], tuple[Node, ...]] = {}
        else:
            if base.g != g or not base.edge_set <= self.edge_set:
                raise ValueError("a base closure must be over the same R-system "
                                 "and a subset of the edges")
            self.reach = {role: set(pairs) for role, pairs in base.reach.items()}
            self.reasons = dict(base.reasons)
            self._succ = dict(base._succ)
            self._pred = dict(base._pred)
            new = [e for e in self.edges if e not in base.edge_set]
        self._solve(new)

    def _solve(self, edges: Iterable[Edge]) -> None:
        reasons, reach, succ, pred = self.reasons, self.reach, self._succ, self._pred
        queue: deque[tuple[Role, Node, Node]] = deque()

        def add(role: Role, u: Node, v: Node, reason: _Reason) -> None:
            key = (role, u, v)
            if key not in reasons:
                reasons[key] = reason
                reach.setdefault(role, set()).add((u, v))
                queue.append(key)

        for u, role, v in edges:
            add(role, u, v, ("edge",))
        uses = self.g.uses
        while queue:
            role, u, v = queue.popleft()
            succ[(role, u)] = succ.get((role, u), ()) + (v,)
            pred[(role, v)] = pred.get((role, v), ()) + (u,)
            for prod, i in uses.get(role, ()):
                # node sequences through the earlier positions ending at u,
                # and through the later positions starting at v
                lefts: list[tuple[Node, ...]] = [(u,)]
                for ch in reversed(prod.rhs[:i]):
                    lefts = [(a,) + mids for mids in lefts
                             for a in pred.get((ch, mids[0]), ())]
                rights: list[tuple[Node, ...]] = [(v,)]
                for ch in prod.rhs[i + 1:]:
                    rights = [mids + (b,) for mids in rights
                              for b in succ.get((ch, mids[-1]), ())]
                for left in lefts:
                    for right in rights:
                        mids = left + right
                        add(prod.lhs, mids[0], mids[-1], ("prod", prod, mids))

    def derivation(self, role: Role, u: Node, v: Node
                   ) -> tuple[tuple[Step, ...], tuple[Node, ...]]:
        """A leftmost derivation from (role,) of a string S that labels a
        path u -> v, as (position, production) steps, and that node path.

        Each step rewrites the leftmost role of the current string that is
        not yet a base edge by the production recorded for its pair.  The
        reasons are expanded depth first, left to right, so every role left
        of the one rewritten is already a base edge, and the step's position
        is the number of base edges met so far."""
        if (role, u, v) not in self.reasons:
            raise KeyError(f"({u!r}, {v!r}) not reachable under {role}")
        steps: list[Step] = []
        path: list[Node] = [u]
        stack = [(role, u, v)]
        while stack:
            key = stack.pop()
            reason = self.reasons[key]
            if reason[0] == "edge":
                path.append(key[2])
            else:
                _, prod, mids = reason
                steps.append((len(path) - 1, prod))
                stack.extend(reversed(list(zip(prod.rhs, mids, mids[1:]))))
        return tuple(steps), tuple(path)
