import pytest

from riq.core import GCI, RIA, ConceptName, Role, TOP, make_ontology
from riq.semantics import (
    Interpretation,
    OracleGuardError,
    SemanticsError,
    _eval_bits,
    find_countermodel_bounded,
    interpret_concept,
    is_model,
    model_from_dict,
    model_to_dict,
    ria_closure,
    seq_satisfied,
)
from riq.prover import goal_sequent
from conftest import C, EMPTY_ONT, S, random_concept, random_interpretation

r, s, t = Role("r"), Role("s"), Role("t")


def interp(domain, concepts=None, roles=None):
    return Interpretation(tuple(domain),
                          {k: frozenset(v) for k, v in (concepts or {}).items()},
                          {k: frozenset(v) for k, v in (roles or {}).items()})


class TestInterpretConcept:
    def test_bottom_is_empty(self):
        i = interp("d", {"A": "d"})
        assert interpret_concept(i, C("A and not A")) == frozenset()

    def test_exists(self):
        i = interp(("d", "e"), {"A": ("e",)}, {"r": (("d", "e"),)})
        assert interpret_concept(i, C("some r . A")) == {"d"}

    def test_atmost_counts_successors(self):
        # d has one r-successor in A, e has none
        i = interp(("d", "e"), {"A": ("e",)}, {"r": (("d", "e"),)})
        assert interpret_concept(i, C("atmost 0 r . A")) == {"e"}

    def test_inverse_role(self):
        i = interp(("d", "e"), {"A": ("d",)}, {"r": (("d", "e"),)})
        assert interpret_concept(i, C("some r- . A")) == {"e"}

    def test_unknown_symbol_raises(self):
        i = interp("d")
        with pytest.raises(SemanticsError):
            interpret_concept(i, ConceptName("Missing"))

    def test_top_needs_no_reserved_entry(self):
        assert interpret_concept(interp("de"), TOP) == {"d", "e"}

    def test_monotone_clauses(self, rng):
        for _ in range(100):
            i = random_interpretation(rng)
            c = random_concept(rng, depth=3)
            d = random_concept(rng, depth=3)
            from riq.core import And, Or

            assert interpret_concept(i, c) <= interpret_concept(i, Or(c, d))
            assert interpret_concept(i, And(c, d)) <= interpret_concept(i, c)

    def test_atleast_atmost_disjoint(self, rng):
        from riq.core import AtLeast, AtMost

        for _ in range(100):
            i = random_interpretation(rng)
            body = random_concept(rng, depth=2)
            n = rng.randint(1, 3)
            lo = interpret_concept(i, AtLeast(n, r, body))
            hi = interpret_concept(i, AtMost(n - 1, r, body))
            assert not (lo & hi)


class TestIsModel:
    def test_empty_ontology(self, rng):
        for _ in range(20):
            assert is_model(random_interpretation(rng), EMPTY_ONT)

    def test_ria_composition_violation(self):
        ont = make_ontology([RIA((r, s), t)], ())
        i = interp("abc", {}, {"r": (("a", "b"),), "s": (("b", "c"),), "t": ()})
        assert not is_model(i, ont)

    def test_gci_subset_satisfied(self):
        ont = make_ontology((), [GCI(TOP, C("not A or B"))])
        i = interp(("d", "e"), {"A": ("d",), "B": ("d", "e")})
        assert is_model(i, ont)


class TestSeqSatisfied:
    def test_vacuous_when_antecedent_fails(self):
        i = interp("d")
        seq = S("x != y |- x : A")
        assert seq_satisfied(i, {"x": "d", "y": "d"}, EMPTY_ONT, seq)

    def test_direct_consequent_hit(self):
        i = interp("d", {"A": "d"})
        assert seq_satisfied(i, {"x": "d"}, EMPTY_ONT, S("|- x : A"))

    def test_id_instances_always_satisfied(self, rng):
        seq = S("|- x : A, x : not A")
        for _ in range(30):
            i = random_interpretation(rng)
            for e in i.domain:
                assert seq_satisfied(i, {"x": e}, EMPTY_ONT, seq)


class TestRiaClosure:
    def test_composition_added(self):
        ont = make_ontology([RIA((r, s), t)], ())
        closed = ria_closure({"r": {("a", "b")}, "s": {("b", "c")}}, ont.rbox)
        assert ("a", "c") in closed["t"]

    def test_empty_rbox_identity(self):
        ext = {"r": frozenset({("a", "b")})}
        assert ria_closure(ext, ()) == ext

    def test_transitive_closure(self):
        rbox = (RIA((r, r), r),)
        closed = ria_closure({"r": {("a", "b"), ("b", "c")}}, rbox)
        assert ("a", "c") in closed["r"]

    def test_idempotent_and_satisfying(self, rng):
        rbox = (RIA((r, s), t), RIA((r,), s))
        for _ in range(30):
            i = random_interpretation(rng, roles=("r", "s", "t"), max_domain=3)
            closed = ria_closure(i.roles, rbox)
            again = ria_closure(closed, rbox)
            assert closed == again
            model = Interpretation(i.domain, i.concepts, closed)
            assert is_model(model, make_ontology(rbox, ()))


class TestOracle:
    def test_falsifier_domain_one(self):
        hit = find_countermodel_bounded(EMPTY_ONT, goal_sequent(EMPTY_ONT, C("A"), C("B")))
        assert hit is not None
        i, lam = hit
        assert len(i.domain) == 1

    def test_reflexive_subsumption_has_no_falsifier(self):
        assert find_countermodel_bounded(
            EMPTY_ONT, goal_sequent(EMPTY_ONT, C("A"), C("A"))) is None

    def test_ria_entailment_has_no_falsifier_up_to_three(self):
        ont = make_ontology([RIA((r,), s)], ())
        goal = goal_sequent(ont, C("some r . A"), C("some s . A"))
        assert find_countermodel_bounded(ont, goal, 3) is None

    def test_guard_requires_samples(self):
        big = goal_sequent(EMPTY_ONT, C("A and B and E and F"), C("G"))
        with pytest.raises(OracleGuardError):
            find_countermodel_bounded(EMPTY_ONT, big)
        assert find_countermodel_bounded(EMPTY_ONT, big, samples=50) is not None

    @pytest.mark.parametrize("bound", [{"max_domain": 0}, {"samples": 0}, {"samples": -5}],
                             ids=["max-domain-zero", "samples-zero", "samples-negative"])
    def test_a_bound_below_one_is_refused(self, bound):
        """A sample count below 1 would try no interpretation and report
        none found, as if a search had been made."""
        big = goal_sequent(EMPTY_ONT, C("A and B and E and F"), C("G"))
        with pytest.raises(ValueError, match="must be at least 1"):
            find_countermodel_bounded(EMPTY_ONT, big, **bound)

    def test_found_models_falsify(self, rng):
        from riq.semantics import falsifies

        found = 0
        for _ in range(60):
            sub = random_concept(rng, depth=2)
            sup = random_concept(rng, depth=2)
            goal = goal_sequent(EMPTY_ONT, sub, sup)
            hit = find_countermodel_bounded(EMPTY_ONT, goal)
            if hit:
                i, lam = hit
                assert falsifies(i, lam, EMPTY_ONT, goal)
                found += 1
        assert found >= 10


class TestBitmaskAgreesWithPublicInterpreter:
    """The oracle's fast path must match interpret_concept exactly."""

    def test_cross_check_random(self, rng):
        for _ in range(300):
            n = rng.randint(1, 3)
            cexts = {"A": rng.getrandbits(n), "B": rng.getrandbits(n)}
            rexts = {"r": rng.getrandbits(n * n)}
            c = random_concept(rng, depth=4)
            public = interp(
                tuple(f"e{i}" for i in range(n)),
                {name: {f"e{i}" for i in range(n) if mask & (1 << i)}
                 for name, mask in cexts.items()},
                {"r": {(f"e{i}", f"e{j}") for i in range(n) for j in range(n)
                       if rexts["r"] & (1 << (i * n + j))}})
            fast = _eval_bits(c, cexts, rexts, n)
            slow = interpret_concept(public, c)
            assert {f"e{i}" for i in range(n) if fast & (1 << i)} == slow


class TestModelSerialization:
    def test_roundtrip(self):
        i = interp(("d", "e"), {"A": ("d",)}, {"r": (("d", "e"),)})
        data = model_to_dict(i, {"x0": "d"})
        back, assignment = model_from_dict(data)
        assert back == i
        assert assignment == {"x0": "d"}

    @pytest.mark.parametrize("data", [
        {}, {"domain": 3}, {"domain": ["a"], "concepts": [1]},
        {"domain": ["a"], "concepts": {"A": ["b"]}},
        {"domain": ["a"], "roles": {"r": [["a"]]}},
        {"domain": ["a"], "roles": {"r": [["a", "a", "a"]]}},
        {"domain": ["a", "a"]}, {"domain": ["a"], "assignment": {"x0": "b"}},
    ], ids=["empty", "domain-not-list", "concepts-not-object", "element-outside",
            "short-pair", "long-pair", "repeated-element", "assignment-outside"])
    def test_malformed_model_is_rejected(self, data):
        with pytest.raises(SemanticsError):
            model_from_dict(data)

