import sys

import pytest

from riq.core import RIA, Role, make_ontology
from riq.rsystem import CflClosure, Production, build_rsystem
from conftest import brute_reach, cfl_closure, derives_bounded, expand_steps, is_one_step

r, s, t, u, v = (Role(x) for x in "rstuv")


def ont(*rias):
    return make_ontology(rias, ())


class TestBuildRSystem:
    def test_composition_gives_mirrored_pair(self):
        g = build_rsystem(ont(RIA((r, s), t)))
        assert g.productions == frozenset({
            Production(t, (r, s)),
            Production(Role("t", True), (Role("s", True), Role("r", True))),
        })

    def test_empty(self):
        assert build_rsystem(ont()).productions == frozenset()

    def test_single_role_ria(self):
        g = build_rsystem(ont(RIA((r,), s)))
        assert g.productions == frozenset({
            Production(s, (r,)),
            Production(Role("s", True), (Role("r", True),)),
        })

    def test_duplicate_rias_deduplicated(self):
        g = build_rsystem(ont(RIA((r, s), t), RIA((r, s), t)))
        assert len(g.productions) == 2


class TestDerivesBounded:
    def test_one_step(self):
        g = build_rsystem(ont(RIA((r, s), t)))
        derivation = derives_bounded(g, (t,), (r, s), 3)
        assert derivation == ((t,), (r, s))

    def test_reflexive_zero_steps(self):
        g = build_rsystem(ont(RIA((r, s), t)))
        assert derives_bounded(g, (r, s), (r, s), 0) == ((r, s),)

    def test_two_steps_shortest(self):
        g = build_rsystem(ont(RIA((r, s), t), RIA((u, v), s)))
        derivation = derives_bounded(g, (t,), (r, u, v), 4)
        assert derivation is not None
        assert len(derivation) - 1 == 2
        for a, b in zip(derivation, derivation[1:]):
            assert is_one_step(g, a, b)

    def test_absent_is_none(self):
        g = build_rsystem(ont(RIA((r, s), t)))
        assert derives_bounded(g, (t,), (s, r), 5) is None


class TestCflClosure:
    def test_single_edge_with_inverse(self):
        g = build_rsystem(ont())
        edges = [("x", r, "y"), ("y", Role("r", True), "x")]
        reach = cfl_closure(g, edges)
        assert reach[r] == {("x", "y")}
        assert reach[Role("r", True)] == {("y", "x")}

    def test_example_graph_two_targets(self):
        # r(x,y), r(x,z), r(x,w), z = w collapses z and w into one node
        g = build_rsystem(ont())
        x, y, zw = frozenset("x"), frozenset("y"), frozenset(("z", "w"))
        edges = [(x, r, y), (y, Role("r", True), x),
                 (x, r, zw), (zw, Role("r", True), x)]
        reach = cfl_closure(g, edges)
        assert reach[r] == {(x, y), (x, zw)}
        assert reach[Role("r", True)] == {(y, x), (zw, x)}

    def test_chain_through_production(self):
        # brute-force oracle for this case: strings of length <= 3 from t are
        # {t, rs}; only rs labels a path, namely u -> v -> w
        g = build_rsystem(ont(RIA((r, s), t)))
        edges = [("u", r, "v"), ("v", Role("r", True), "u"),
                 ("v", s, "w"), ("w", Role("s", True), "v")]
        reach = cfl_closure(g, edges)
        assert ("u", "w") in reach[t]
        assert brute_reach(g, edges, t, 3, 2) == reach[t]

    def test_reflexivity_every_edge_reaches(self, rng):
        for _ in range(50):
            g = build_rsystem(ont(RIA((r, s), t)))
            edges = _random_edges(rng, 5, (r, s, t))
            reach = cfl_closure(g, edges)
            for a, ch, b in edges:
                assert (a, b) in reach[ch]

    def test_monotone_in_edges(self, rng):
        g = build_rsystem(ont(RIA((r, s), t), RIA((r,), s)))
        for _ in range(40):
            edges = _random_edges(rng, 5, (r, s, t))
            more = edges + _random_edges(rng, 5, (r, s, t))[:2]
            base = cfl_closure(g, edges)
            grown = cfl_closure(g, more)
            for role, pairs in base.items():
                assert pairs <= grown.get(role, frozenset())
            extended = CflClosure(g, more, base=CflClosure(g, edges))
            assert extended.reach == grown

    def test_witnesses_are_valid_derivations_and_paths(self, rng):
        for _ in range(40):
            rsys, edges = _random_instance(rng)
            edge_set = set(edges)
            for closure in (CflClosure(rsys, edges), _extended(rsys, edges)):
                for role, pairs in closure.reach.items():
                    for a, b in pairs:
                        steps, path = closure.derivation(role, a, b)
                        strings = expand_steps(rsys, role, steps)
                        assert strings is not None
                        for x1, x2 in zip(strings, strings[1:]):
                            assert is_one_step(rsys, x1, x2)
                        string = strings[-1]
                        assert path[0] == a and path[-1] == b
                        assert len(path) == len(string) + 1
                        for p, ch, q in zip(path, string, path[1:]):
                            assert (p, ch, q) in edge_set

    def test_oracle_equivalence_random(self, rng):
        # differential check against bounded derivation x path enumeration,
        # counted only when the bounded oracle has saturated
        checked = 0
        trials = 0
        while checked < 60 and trials < 400:
            trials += 1
            rsys, edges = _random_instance(rng)
            closure = CflClosure(rsys, edges)
            assert _extended(rsys, edges).reach == closure.reach
            roles = {role for role, _, _ in
                     ((p.lhs, None, None) for p in rsys.productions)}
            roles |= {ch for _, ch, _ in edges}
            saturated_all = True
            for role in roles:
                small = brute_reach(rsys, edges, role, 6, 4)
                bigger = brute_reach(rsys, edges, role, 7, 5)
                got = set(closure.reach.get(role, ()))
                assert small <= got
                if small == bigger:
                    assert got == small
                else:
                    saturated_all = False
            if saturated_all:
                checked += 1
        assert checked >= 60

    def test_witness_of_a_long_path_needs_no_recursion(self):
        # s -> r s composes one r edge per step: the witness of (0, 1200) is
        # built from 1200 nested reasons, beyond the default recursion limit
        assert sys.getrecursionlimit() == 1000
        g = build_rsystem(ont(RIA((r, s), s)))
        edges = [(i, r, i + 1) for i in range(1199)] + [(1199, s, 1200)]
        closure = CflClosure(g, edges)
        steps, path = closure.derivation(s, 0, 1200)
        assert path == tuple(range(1201))
        # s -> r s rewrites the last role each time, one position further on
        assert steps == tuple((i, Production(s, (r, s))) for i in range(1199))
        strings = expand_steps(g, s, steps)
        assert strings[-1] == (r,) * 1199 + (s,)

    def test_base_must_be_a_subset(self):
        g = build_rsystem(ont(RIA((r, s), t)))
        base = CflClosure(g, [("u", r, "v")])
        with pytest.raises(ValueError):
            CflClosure(g, [("v", s, "w")], base=base)
        with pytest.raises(ValueError):
            CflClosure(build_rsystem(ont()), [("u", r, "v")], base=base)

    def test_base_must_be_a_prefix(self):
        """The new edges are those after the base's: a base whose edges
        are among the new closure's, but not at their start, is refused."""
        g = build_rsystem(ont(RIA((r, s), t)))
        base = CflClosure(g, [("u", r, "v"), ("v", s, "w")])
        with pytest.raises(ValueError):
            CflClosure(g, [("v", s, "w"), ("u", r, "v"), ("w", t, "x")], base=base)
        with pytest.raises(ValueError):
            CflClosure(g, [("w", t, "x"), ("u", r, "v"), ("v", s, "w")], base=base)
        grown = CflClosure(g, [("u", r, "v"), ("v", s, "w"), ("w", t, "x")], base=base)
        assert grown.reach[t] == {("u", "w"), ("w", "x")}


class TestMirrorOnce:
    """Each pair is stored once, for the role that is not inverted: the
    inverse role's pairs and derivations are read off it by mirroring."""

    def test_inverse_pairs_are_the_transpose_and_have_witnesses(self, rng):
        saturated = 0
        for _ in range(120):
            rsys, edges = _random_instance(rng, _INVERSE_POOL)
            edge_set = set(edges)
            fresh = CflClosure(rsys, edges)
            for closure in (fresh, _extended(rsys, edges)):
                assert closure.reach == fresh.reach
                for role, pairs in closure.reach.items():
                    assert closure.reach[role.inverse()] == {(b, a) for a, b in pairs}
                    if not role.inverted:
                        continue
                    for a, b in pairs:
                        steps, path = closure.derivation(role, a, b)
                        strings = expand_steps(rsys, role, steps)
                        assert strings is not None
                        assert path[0] == a and path[-1] == b
                        assert len(path) == len(strings[-1]) + 1
                        for p, ch, q in zip(path, strings[-1], path[1:]):
                            assert (p, ch, q) in edge_set
            roles = {p.lhs for p in rsys.productions} | {ch for _, ch, _ in edges}
            for role in roles:
                small = brute_reach(rsys, edges, role, 6, 4)
                if small == brute_reach(rsys, edges, role, 7, 5):
                    assert fresh.reach.get(role, set()) == small
                    saturated += 1
        assert saturated >= 300

    def test_an_edge_list_is_closed_under_inverse(self, rng):
        for _ in range(80):
            rsys, edges = _random_instance(rng, _INVERSE_POOL)
            # `_random_edges` lists every edge right before its inverse
            one_way = edges[::2]
            want = CflClosure(rsys, edges).reach
            assert CflClosure(rsys, one_way).reach == want
            assert _extended(rsys, one_way).reach == want

    def test_a_role_outside_the_rsystem(self):
        g = build_rsystem(ont(RIA((r, s), t)))
        base = CflClosure(g, [("x", u, "y")])
        closure = CflClosure(g, [("x", u, "y"), ("y", v.inverse(), "z")], base)
        assert closure.reach[v] == {("z", "y")}
        assert closure.reach[u.inverse()] == {("y", "x")}
        assert closure.derivation(v.inverse(), "y", "z") == ((), ("y", "z"))
        # the base keeps its own role table
        assert v not in base.reach
        with pytest.raises(KeyError):
            base.derivation(v, "z", "y")


def _extended(rsys, edges):
    """The closure over `edges`, extended from one over their first half."""
    base = CflClosure(rsys, edges[: len(edges) // 2])
    return CflClosure(rsys, edges, base=base)


def _random_edges(rng, max_nodes, roles):
    nodes = [f"n{i}" for i in range(rng.randint(2, max_nodes))]
    edges = []
    for _ in range(rng.randint(1, 2 * max_nodes)):
        a, b = rng.choice(nodes), rng.choice(nodes)
        role = rng.choice(roles)
        if rng.random() < 0.4:
            role = role.inverse()
        edges.append((a, role, b))
        edges.append((b, role.inverse(), a))
    return edges


_POOL = (
    RIA((r, s), t),
    RIA((r,), s),
    RIA((t, t), t),
    RIA((r.inverse(),), u),
    RIA((s, r), v),
)
#: the pool with inverse roles on both sides of the RIAs
_INVERSE_POOL = _POOL + (
    RIA((s.inverse(), r), t),
    RIA((t,), u.inverse()),
    RIA((u, r.inverse()), s.inverse()),
)


def _random_instance(rng, pool=_POOL):
    rias = rng.sample(pool, rng.randint(0, 4))
    rsys = build_rsystem(make_ontology(rias, ()))
    edges = _random_edges(rng, 6, (r, s, t, u, v))
    return rsys, edges


class TestSuccessors:
    """`successors` reads Reach off the closure's successor table; `reach`
    derives the whole table from the stored pairs."""

    @pytest.mark.parametrize("pool", [_POOL, _INVERSE_POOL], ids=["plain", "inverse"])
    def test_successors_agree_with_reach(self, rng, pool):
        for _ in range(80):
            rsys, edges = _random_instance(rng, pool)
            fresh = CflClosure(rsys, edges)
            nodes = {n for a, _, b in edges for n in (a, b)} | {"absent"}
            roles = {p.lhs for p in rsys.productions} | {ch for _, ch, _ in edges}
            roles |= {role.inverse() for role in roles}
            for closure in (fresh, _extended(rsys, edges)):
                reach = closure.reach
                assert reach == fresh.reach
                for role in roles:
                    for a in nodes:
                        got = closure.successors(role, a)
                        assert len(set(got)) == len(got)
                        assert set(got) == {b for x, b in reach.get(role, ()) if x == a}
                        assert set(closure.successors(role.inverse(), a)) == \
                            {b for b, x in reach.get(role, ()) if x == a}

    def test_an_unknown_role_or_node_has_no_successors(self):
        closure = CflClosure(build_rsystem(ont(RIA((r, s), t))), [("x", r, "y")])
        assert closure.successors(r, "x") == ("y",)
        assert closure.successors(r.inverse(), "y") == ("x",)
        assert closure.successors(u, "x") == ()
        assert closure.successors(r, "z") == ()
