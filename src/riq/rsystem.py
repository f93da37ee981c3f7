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
Ramakrishnan, SIGMOD 1986).

Productions come in mirror pairs, r -> s1...sk with r- -> sk-...s1-, and the
closure is taken over a graph that holds every edge with its inverse, so
Reach(r-) is the transpose of Reach(r).  The closure therefore derives and
stores each pair once, for the role that is not inverted, and reads the
inverse role's pairs and derivations off it by mirroring.  Roles and nodes
are numbered, a role and its inverse at 2k and 2k+1, so the closure's
tables are keyed by tuples of ints.  A closure can extend a base closure
whose edges are a prefix of its own: it starts from the base's pairs and
joins only the consequences of the edges after the prefix.  Closures are
never changed after construction, so a base can be shared.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, NamedTuple, Optional

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
        # the dataclass hash, computed once: a proof check probes the
        # R-system's productions at every derivation step
        self.__dict__["_hash"] = hash((self.lhs, self.rhs))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # the hash depends on the process's hash seed, so it is not pickled
        return type(self), (self.lhs, self.rhs)

    def mirror(self) -> "Production":
        """r -> s1...sk as r- -> sk-...s1-: it derives the inverse of each
        string of r, reversed."""
        return Production(self.lhs.inverse(),
                          tuple(r.inverse() for r in reversed(self.rhs)))

    def __str__(self) -> str:
        return f"{self.lhs} -> " + " ".join(str(r) for r in self.rhs)


#: A production whose left-hand side is not inverted, with its right-hand
#: side as role ids.
_Rule = tuple[Production, tuple[int, ...]]


def _numbered(role: Role, n: int) -> dict[Role, int]:
    """The role's name, not inverted at id n and inverted at n + 1."""
    plain = role.inverse() if role.inverted else role
    return {plain: n, plain.inverse(): n + 1}


class _Tables(NamedTuple):
    """What the closure looks up in an R-system."""
    #: every role of the productions at 2k and its inverse at 2k+1
    role_ids: dict[Role, int]
    roles: tuple[Role, ...]
    #: for each role id, every (lhs id, the rhs ids before the position,
    #: reversed, the rhs ids after it, rule) of a rule with that role at that
    #: position
    uses: dict[int, tuple[tuple[int, tuple[int, ...], tuple[int, ...], _Rule], ...]]


@dataclass(frozen=True)
class RSystem:
    """The productions of an RBox.  They come in mirror pairs, as
    `build_rsystem` makes them: `CflClosure` joins only the half whose
    left-hand side is not inverted."""

    productions: frozenset[Production]

    @cached_property
    def _tables(self) -> _Tables:
        # one pass, in `str` order, so ids and orders do not depend on hashing
        role_ids: dict[Role, int] = {}
        roles: list[Role] = []
        uses: dict[int, tuple] = {}
        for prod in sorted(self.productions, key=str):
            if prod.lhs.inverted:
                continue
            ids = []
            for role in (prod.lhs, *prod.rhs):
                rid = role_ids.get(role)
                if rid is None:
                    pair = _numbered(role, len(roles))
                    role_ids.update(pair)
                    roles += pair
                    rid = pair[role]
                ids.append(rid)
            lhs, rhs = ids[0], tuple(ids[1:])
            rule = (prod, rhs)
            for i, rid in enumerate(rhs):
                uses[rid] = uses.get(rid, ()) + ((lhs, rhs[:i][::-1], rhs[i + 1:], rule),)
        return _Tables(role_ids, tuple(roles), uses)


#: One derivation step: rewrite the role at this position of the string by
#: this production.
Step = tuple[int, Production]


def build_rsystem(ontology: Ontology) -> RSystem:
    """Two productions per RIA: the rule itself and its mirror."""
    productions = set()
    for ria in ontology.rbox:
        prod = Production(ria.rhs, tuple(ria.lhs))
        productions.add(prod)
        productions.add(prod.mirror())
    return RSystem(frozenset(productions))


# ---------------------------------------------------------------------------
# CFL reachability
# ---------------------------------------------------------------------------

#: A pair as (role id, node id, node id), the role id even: the pair is in
#: Reach of that role, and its transpose in Reach of the inverse.
_Key = tuple[int, int, int]
#: Why a stored pair holds: None for an edge, or a rule with the node ids
#: of the composition, from the pair's first node to its last.
_Reason = Optional[tuple[_Rule, tuple[int, ...]]]
Edge = tuple[Node, Role, Node]


class CflClosure:
    """Least-fixpoint reachability per role over a finite labeled graph: the
    given `edges` together with their inverses.

    Reach of a role is the set of node pairs (u, v) such that some string
    in the role's derivable language labels a path u -> v; `successors`
    reads it off per node, and `reach` derives the whole table.  Reach(r-)
    is the transpose of Reach(r), so each pair is stored once, in the
    orientation of the role that is not inverted, keyed by role and node
    ids (`_Key`).  The closure is computed semi-naively: every pair enters
    a FIFO worklist when it first appears.  When it leaves, it is indexed
    in both orientations in per-role successor and predecessor tables, and each orientation is joined once, at each
    right-hand-side position where its role occurs, against the pairs that
    left before it, using the productions whose left-hand side is not
    inverted.  The mirror of each such production derives the transposed
    pairs, so joining the other half would find nothing new.

    One derivation reason per pair is recorded, when the pair first
    appears, so the reason graph is acyclic and `derivation` can read a
    witness off it: the (position, production) steps that derive a string
    of the role's language, and the node path that string labels.  A pair
    of an inverted role is read off its stored transpose by mirroring.

    With a `base` closure over the same R-system whose `edges` are a
    prefix of `edges` (ValueError otherwise), the new edges are the rest of
    `edges`: the new closure starts from a copy of the base's reasons and
    indexes, continues its node numbering and joins only their
    consequences.  No set of the edges is kept or compared, so an extension
    costs what its new edges add plus the copies of the base's tables.  A
    closure is never changed after construction, so one base can serve
    many extensions.
    """

    def __init__(self, g: RSystem, edges: Iterable[Edge],
                 base: Optional["CflClosure"] = None):
        self.g = g
        self.edges = tuple(edges)
        new = self.edges
        if base is None:
            tables = g._tables
            self._role_ids, self._roles = tables.role_ids, tables.roles
            self._node_ids: dict[Node, int] = {}  # in id order
            self._reasons: dict[_Key, _Reason] = {}
            self._succ: dict[tuple[int, int], tuple[int, ...]] = {}
            self._pred: dict[tuple[int, int], tuple[int, ...]] = {}
        else:
            n = len(base.edges)
            if base.g != g or new[:n] != base.edges:
                raise ValueError("a base closure must be over the same R-system "
                                 "and a prefix of the edges")
            self._role_ids, self._roles = base._role_ids, base._roles
            self._node_ids = dict(base._node_ids)
            self._reasons = dict(base._reasons)
            self._succ = dict(base._succ)
            self._pred = dict(base._pred)
            new = new[n:]
        self._solve(new)

    def _add_role(self, role: Role) -> int:
        """Number a role outside the R-system with the next pair of ids, in
        a copy of the table, so the R-system's and the base's tables stay as
        they were."""
        pair = _numbered(role, len(self._roles))
        self._role_ids = {**self._role_ids, **pair}
        self._roles += tuple(pair)
        return pair[role]

    def _solve(self, edges: Iterable[Edge]) -> None:
        reasons, succ, pred = self._reasons, self._succ, self._pred
        queue: deque[_Key] = deque()
        ids = self._node_ids
        for u, role, v in edges:
            rid = self._role_ids.get(role)
            if rid is None:
                rid = self._add_role(role)
            x = ids.setdefault(u, len(ids))
            y = ids.setdefault(v, len(ids))
            key = (rid ^ 1, y, x) if rid & 1 else (rid, x, y)
            if key not in reasons:
                reasons[key] = None
                queue.append(key)
        self._nodes = list(ids)

        uses = self.g._tables.uses
        while queue:
            a, x, y = queue.popleft()
            b = a ^ 1
            succ[(a, x)] = succ.get((a, x), ()) + (y,)
            pred[(a, y)] = pred.get((a, y), ()) + (x,)
            succ[(b, y)] = succ.get((b, y), ()) + (x,)
            pred[(b, x)] = pred.get((b, x), ()) + (y,)
            # both orientations: (x, y) in Reach(a) and (y, x) in Reach(b)
            for rid, p, q in ((a, x, y), (b, y, x)):
                for lhs, before, after, rule in uses.get(rid, ()):
                    # node sequences through the earlier positions ending at
                    # p, and through the later positions starting at q
                    lefts: list[tuple[int, ...]] = [(p,)]
                    for ch in before:
                        lefts = [(w,) + mids for mids in lefts
                                 for w in pred.get((ch, mids[0]), ())]
                    rights: list[tuple[int, ...]] = [(q,)]
                    for ch in after:
                        rights = [mids + (w,) for mids in rights
                                  for w in succ.get((ch, mids[-1]), ())]
                    for left in lefts:
                        for right in rights:
                            key = (lhs, left[0], right[-1])
                            if key not in reasons:
                                reasons[key] = (rule, left + right)
                                queue.append(key)

    def successors(self, role: Role, u: Node) -> tuple[Node, ...]:
        """Every v with (u, v) in Reach(role), in the order the closure
        found them."""
        rid, x = self._role_ids.get(role), self._node_ids.get(u)
        if rid is None or x is None:
            return ()
        nodes = self._nodes
        return tuple(nodes[y] for y in self._succ.get((rid, x), ()))

    @property
    def reach(self) -> dict[Role, set[Pair]]:
        """Reach of each role, and of its inverse, that holds a pair, as a
        new table on each call: the search reads `successors`."""
        reach: dict[Role, set[Pair]] = {}
        roles, nodes = self._roles, self._nodes
        for a, x, y in self._reasons:
            reach.setdefault(roles[a], set()).add((nodes[x], nodes[y]))
            reach.setdefault(roles[a ^ 1], set()).add((nodes[y], nodes[x]))
        return reach

    def derivation(self, role: Role, u: Node, v: Node
                   ) -> tuple[tuple[Step, ...], tuple[Node, ...]]:
        """A leftmost derivation from (role,) of a string S that labels a
        path u -> v, as (position, production) steps, and that node path.

        Each step rewrites the leftmost role of the current string that is
        not yet an edge by the production recorded for its pair, or, for a
        pair of an inverted role, by the mirror of the production recorded
        for its transpose.  The reasons are expanded depth first, left to
        right, so every role left of the one rewritten is already an edge,
        and the step's position is the number of edges met so far."""
        rid, x, y = (self._role_ids.get(role), self._node_ids.get(u),
                     self._node_ids.get(v))
        if rid is None or x is None or y is None or \
                ((rid ^ 1, y, x) if rid & 1 else (rid, x, y)) not in self._reasons:
            raise KeyError(f"({u!r}, {v!r}) not reachable under {role}")
        steps: list[Step] = []
        path = [x]
        stack = [(rid, x, y)]
        while stack:
            rid, x, y = stack.pop()
            mirrored = rid & 1
            reason = self._reasons[(rid ^ 1, y, x) if mirrored else (rid, x, y)]
            if reason is None:
                path.append(y)
                continue
            (prod, rhs), mids = reason
            pos = len(path) - 1
            if mirrored:
                # the transpose's composition read backwards: the children
                # are pushed left to right, so the last one is expanded first
                steps.append((pos, prod.mirror()))
                stack.extend((ch ^ 1, q, p) for ch, p, q in zip(rhs, mids, mids[1:]))
            else:
                steps.append((pos, prod))
                stack.extend(reversed(list(zip(rhs, mids, mids[1:]))))
        return tuple(steps), tuple(self._nodes[n] for n in path)
