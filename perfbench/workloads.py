"""Seeded input generators for the three benchmark workloads.

Every goal is produced as text (`.riq` ontology lines and concept strings),
so the program under test parses its own inputs.  The generators are
self-contained: they use only the standard library, so editing the test
suite or the program can never change what a seed produces.

Each workload is a fixed catalogue of goals, built once from a fixed
catalogue seed.  A run walks its catalogue in passes: request ``i`` is
entry ``order[i % size]`` of pass ``i // size``, where every pass has its
own order drawn from ``(workload, seed, pass)``.  Each pass after the
first also renames every concept name and role (``A`` becomes ``A_1`` on
the second pass, ``A_2`` on the third), so no two requests of a run are the
same text, and neither a cache of whole answers nor the model oracle's
per-ontology cache carries over from one pass to the next; the renaming
keeps the names' relative order, so it changes neither the search nor its
cost.

Why fixed catalogues: a few budget-exhausting goals carry most of the time,
so goals drawn afresh from each seed changed the mix, and with it
goals_per_s, by 30% between seeds even at 1800 goals per run.  With a fixed
catalogue every run measures the same work.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Optional

#: Budgets are in proof-search steps and labels only; the time hint is set
#: so high that it never decides a verdict.
NO_TIME_LIMIT = 10**9


@dataclass(frozen=True)
class Goal:
    """One request.  ``kind`` selects the library entry point:

    - ``subsume``: ``prover.subsumes(parse_ontology(ontology), sub, sup)``
    - ``interpolate``: ``interpolation.compute_concept_interpolant`` over
      ``ontology`` (left) and ``ontology2`` (right) for ``sub <= sup``
    - ``define``: ``definability.explicit_definition`` of ``sub`` from the
      names in ``theta`` under ``ontology``

    ``expect`` is the verdict known by construction (``Proved``,
    ``Refuted`` or ``ok``), or None when the answer is not known in advance.
    """

    gid: int  # catalogue entry
    kind: str
    ontology: str
    sub: str
    sup: str = ""
    ontology2: str = ""
    theta: tuple[str, ...] = ()
    expect: Optional[str] = None
    max_steps: int = 1
    max_labels: int = 1
    request: int = 0  # position in the run


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{i}")


# ---------------------------------------------------------------------------
# Concept text
# ---------------------------------------------------------------------------


def random_concept(rng: random.Random, names, roles, depth: int,
                   counting_roles=(), max_n: int = 2) -> str:
    """A random concept, fully parenthesized so precedence never matters."""
    kinds = ["name", "negname", "and", "or", "some", "only"]
    if counting_roles:
        kinds += ["atmost", "atleast"]
    kind = rng.choice(kinds if depth > 0 else ["name", "negname"])
    if kind == "name":
        return rng.choice(names)
    if kind == "negname":
        return f"not {rng.choice(names)}"
    if kind in ("and", "or"):
        left = random_concept(rng, names, roles, depth - 1, counting_roles, max_n)
        right = random_concept(rng, names, roles, depth - 1, counting_roles, max_n)
        return f"({left} {kind} {right})"
    body = random_concept(rng, names, roles, depth - 1, counting_roles, max_n)
    if kind in ("some", "only"):
        role = rng.choice(roles) + ("-" if rng.random() < 0.3 else "")
        return f"({kind} {role} . {body})"
    role = rng.choice(counting_roles) + ("-" if rng.random() < 0.3 else "")
    low = 1 if kind == "atleast" else 0
    return f"({kind} {rng.randint(low, max_n)} {role} . {body})"


# ---------------------------------------------------------------------------
# subsume-random: mixed everyday traffic
# ---------------------------------------------------------------------------

#: RBoxes over the roles r and s; each entry is a list of `ria:` bodies.
_RANDOM_RBOXES = {
    "r": [[], [], ["r o r <= r"], ["r- <= r"]],
    "rs": [[], ["r <= s"], ["r o s <= s"], ["r o r <= r", "r <= s"],
           ["r- <= s"]],
}

SUBSUME_GOALS = 400
SUBSUME_STEPS = 100
SUBSUME_LABELS = 8


def _subsume_entry(k: int) -> Goal:
    rng = _rng("subsume-random/catalogue", 0, k)
    names = ("A", "B", "E")[: rng.randint(2, 3)]
    roles = ("r",) if rng.random() < 0.5 else ("r", "s")
    rias = list(rng.choice(_RANDOM_RBOXES["".join(roles)]))
    # counting only over roles that no RIA produces, which keeps them simple
    produced = {ria.split("<=")[1].strip() for ria in rias}
    counting = tuple(r for r in roles if r not in produced)
    if rng.random() < 0.5:
        counting = ()
    lines = [f"ria: {ria}" for ria in rias]
    for _ in range(rng.randint(0, 2)):
        lines.append("gci: TOP <= "
                     + random_concept(rng, names, roles, 2, counting))
    sub = random_concept(rng, names, roles, 2, counting)
    sup = random_concept(rng, names, roles, 2, counting)
    return Goal(k, "subsume", "\n".join(lines) + "\n", sub, sup,
                max_steps=SUBSUME_STEPS, max_labels=SUBSUME_LABELS)


SUBSUME_CATALOGUE = tuple(_subsume_entry(k) for k in range(SUBSUME_GOALS))


# ---------------------------------------------------------------------------
# rbox-chain: deep propagation through role inclusion axioms
# ---------------------------------------------------------------------------

#: RBox families.  Each lists its axioms, the roles whose chains derive a
#: string of the target role t, and a role that no derivation of t uses.
_CHAIN_FAMILIES = {
    # r transitive, r below t, s below r
    "transitive": (["r o r <= r", "r <= t", "s <= r"], ["r", "s"], "u"),
    # a hierarchy r <= s <= p <= t with t transitive
    "hierarchy": (["r <= s", "s <= p", "p <= t", "t o t <= t"],
                  ["r", "s", "p"], "u"),
    # left-recursive composition: t o r <= t, t o s <= t, r <= t
    "composition": (["r <= t", "t o r <= t", "t o s <= t"], ["r", "s"], "u"),
    # inverses: s- below r, r transitive and below t
    "inverse": (["s- <= r", "r o r <= r", "r <= t"], ["r", "s-"], "u"),
}

#: Chain depths are a level plus a jitter of 0 to 3: 8 to 28.
CHAIN_LEVELS = (8, 14, 19, 25)
CHAIN_STEPS = 4000
CHAIN_LABELS = 200


def _chain_entry(k: int) -> Goal:
    """``some c1 . some c2 . ... some ck . A <= some t . A``: provable chains
    draw every ci from roles that derive t (the first step is always one
    whose language reaches t on its own); refutable chains put one role
    outside the RBox somewhere in the chain (even depth levels) or end in a
    name the subsumer does not mention (odd levels).  Chains over an
    ontology with the GCI ``B <= A`` end in B instead of A.  The digits of k
    in a mixed radix give the family (4), the depth level (4) and provable
    or not (2); the GCI is there when family and level digits sum to an odd
    number.  The catalogue seed draws the roles, the depth jitter and where
    a chain breaks.
    """
    rng = _rng("rbox-chain/catalogue", 0, k)
    families = sorted(_CHAIN_FAMILIES)
    family = families[k % 4]
    rias, good, bad = _CHAIN_FAMILIES[family]
    level = (k // 4) % 4
    depth = CHAIN_LEVELS[level] + rng.randrange(4)
    provable = (k // 16) % 2 == 0
    chain = [rng.choice(good) for _ in range(depth)]
    if family == "composition":
        chain[0] = "r"
    lines = [f"ria: {ria}" for ria in rias]
    end = "A"
    if (k % 4 + level) % 2 == 1:
        lines.append("gci: B <= A")
        end = "B"
    if not provable:
        if level % 2 == 0:
            chain[rng.randrange(depth)] = bad
        else:
            end = "E"
    sub = end
    for role in reversed(chain):
        sub = f"some {role} . ({sub})"
    return Goal(k, "subsume", "\n".join(lines) + "\n", sub, "some t . A",
                expect="Proved" if provable else "Refuted",
                max_steps=CHAIN_STEPS, max_labels=CHAIN_LABELS)


CHAIN_CATALOGUE = tuple(_chain_entry(k) for k in range(32))


# ---------------------------------------------------------------------------
# interp-define: interpolation and definability against fixed ontologies
# ---------------------------------------------------------------------------

#: A concept over the shared signature {B, r} links the left ontology (over
#: {A, B}) to the right one (over {B, E}): A <= LINK on the left, LINK <= E
#: on the right.  The other axioms constrain the models the oracle
#: enumerates.
LINK = "some r . B"
LEFT_ONTOLOGY = f"gci: A <= {LINK}\ngci: B <= only r . B\n"
RIGHT_ONTOLOGY = f"gci: {LINK} <= E\ngci: E <= B\n"
#: A concept over theta = {B, E} that the ontology makes equivalent to A.
DEFINIENS = "B and some r . E"
DEFINED_ONTOLOGY = (f"gci: A <= {DEFINIENS}\ngci: {DEFINIENS} <= A\n"
                    "gci: E <= only r . E\ngci: E <= not B\n")
THETA = ("B", "E")
#: The budget of the library's own interpolation fuzz test.
INTERP_STEPS = 1500
INTERP_LABELS = 40
#: Extra conjuncts of the subsumee (over {A, B, r}) and extra disjuncts of
#: the subsumer (over {B, E, r}) of interpolation queries.
LEFT_EXTRAS = ("", "B", "not B", "some r . A")
RIGHT_EXTRAS = ("", "B", "not B", "only r . E")
#: Concepts over theta that definability queries join to A with and / or.
THETA_EXTRAS = ("B", "E", "not B", "not E", "some r . B", "some r . E",
                "only r . B", "only r . E")


def _interpolation(sub: str, sup: str) -> Goal:
    return Goal(0, "interpolate", LEFT_ONTOLOGY, sub, sup, ontology2=RIGHT_ONTOLOGY,
                expect="ok", max_steps=INTERP_STEPS, max_labels=INTERP_LABELS)


def _definition(concept: str) -> Goal:
    return Goal(0, "define", DEFINED_ONTOLOGY, concept, theta=THETA, expect="ok",
                max_steps=INTERP_STEPS, max_labels=INTERP_LABELS)


def _interp_catalogue() -> tuple[Goal, ...]:
    """Interpolation queries ``(A and X) <= (E or Y)`` are provable because
    A <= LINK <= E; definability queries ask for ``A``, ``A and Z`` or
    ``A or Z`` with Z over theta, which are definable from theta because A
    is."""
    goals = [_interpolation(f"A and ({left})" if left else "A",
                            f"E or ({right})" if right else "E")
             for left in LEFT_EXTRAS for right in RIGHT_EXTRAS]
    goals.append(_definition("A"))
    goals += [_definition(f"A {op} ({extra})")
              for extra in THETA_EXTRAS for op in ("and", "or")]
    return tuple(replace(goal, gid=k) for k, goal in enumerate(goals))


INTERP_CATALOGUE = _interp_catalogue()


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

CATALOGUES = {
    "subsume-random": SUBSUME_CATALOGUE,
    "rbox-chain": CHAIN_CATALOGUE,
    "interp-define": INTERP_CATALOGUE,
}

#: Every concept name and role the catalogues use.
_NAME = re.compile(r"\b[ABErstup]\b")


@lru_cache(maxsize=None)
def pass_order(workload: str, seed: int, rounds: int) -> tuple[int, ...]:
    order = list(range(len(CATALOGUES[workload])))
    _rng(workload, seed, rounds).shuffle(order)
    return tuple(order)


def _rename(goal: Goal, suffix: str) -> Goal:
    def sub(text: str) -> str:
        return _NAME.sub(lambda m: m.group(0) + suffix, text)

    return replace(goal, ontology=sub(goal.ontology), sub=sub(goal.sub),
                   sup=sub(goal.sup), ontology2=sub(goal.ontology2),
                   theta=tuple(name + suffix for name in goal.theta))


def request(workload: str, seed: int, i: int) -> Goal:
    """Request ``i`` of a run: entry ``order[i % size]`` of pass
    ``i // size``, renamed on passes after the first."""
    catalogue = CATALOGUES[workload]
    rounds, pos = divmod(i, len(catalogue))
    goal = catalogue[pass_order(workload, seed, rounds)[pos]]
    if rounds:
        goal = _rename(goal, f"_{rounds}")
    return replace(goal, request=i)


GENERATORS = {name: partial(request, name) for name in CATALOGUES}
