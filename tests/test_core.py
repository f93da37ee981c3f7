import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riq.core import (
    And,
    AtLeast,
    AtMost,
    BOT,
    ConceptName,
    Exists,
    Forall,
    GCI,
    NegatedName,
    Not,
    OntologyError,
    Or,
    RIA,
    Role,
    TOP,
    cpt,
    find_regular_order,
    is_simple,
    nnf_negate,
    normalize_ontology,
    signature_of,
    subconcepts,
    to_nnf,
    weight,
)
from conftest import C, random_concept, random_interpretation, ria_matches_clause

r = Role("r")
A, B = ConceptName("A"), ConceptName("B")

ROLE_POOL = tuple(Role(name, inverted) for name in "rstu" for inverted in (False, True))
ROLES = st.sampled_from(ROLE_POOL)
#: RIAs over four role names and their inverses, most of them single-role
RIAS = st.builds(RIA, st.one_of(st.tuples(ROLES),
                                st.lists(ROLES, min_size=1, max_size=3).map(tuple)), ROLES)


class TestConceptIdentity:
    @staticmethod
    def chain(n, last=A):
        c = last
        for i in range(n):
            c = Or(ConceptName(f"A{i}"), c)
        return c

    def test_deep_concepts_hash_and_compare_without_recursion(self):
        assert sys.getrecursionlimit() == 1000
        a, b = self.chain(3000), self.chain(3000)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != self.chain(3000, B) and a != self.chain(2999)
        assert len({a, b, self.chain(2999)}) == 2

    def test_equality_distinguishes_every_field(self):
        assert C("atmost 2 r . A") != C("atmost 3 r . A") != C("atmost 3 s . A")
        assert C("some r . A") != C("only r . A") and C("A") != "A"

    def test_pickle_rebuilds_the_hash(self):
        c = C("some r . (A or atleast 2 r- . not B)")
        assert b"_hash" not in pickle.dumps(c)
        assert pickle.loads(pickle.dumps(c)) == c


class TestNnfNegate:
    def test_atmost_flips_to_atleast_plus_one(self):
        assert nnf_negate(C("atmost 2 r . A")) == C("atleast 3 r . A")

    def test_atleast_zero_is_bottom(self):
        assert nnf_negate(AtLeast(0, r, A)) == BOT

    def test_atleast_positive_drops_one(self):
        assert nnf_negate(C("atleast 2 r . A")) == C("atmost 1 r . A")

    def test_involution_on_sample(self):
        c = C("A and some r . B")
        assert nnf_negate(nnf_negate(c)) == c

    def test_top_bottom_swap(self):
        assert nnf_negate(TOP) == BOT
        assert nnf_negate(BOT) == TOP

    def test_involution_random(self, rng):
        # atleast_min=1: negating atleast 0 collapses to BOT by definition
        for _ in range(300):
            c = random_concept(rng, depth=6, atleast_min=1)
            assert nnf_negate(nnf_negate(c)) == c

    def test_semantic_negation_duality(self, rng):
        from riq.semantics import interpret_concept

        for _ in range(200):
            c = random_concept(rng, depth=5, atleast_min=0)
            i = random_interpretation(rng, max_domain=4)
            full = frozenset(i.domain)
            assert interpret_concept(i, nnf_negate(c)) == full - interpret_concept(i, c)


class TestToNnf:
    def test_de_morgan(self):
        assert to_nnf(Not(And(A, B))) == Or(NegatedName("A"), NegatedName("B"))

    def test_quantifier_duality(self):
        assert to_nnf(Not(Exists(r, A))) == Forall(r, NegatedName("A"))

    def test_counting_negation(self):
        assert to_nnf(Not(AtMost(1, r, A))) == AtLeast(2, r, A)

    def test_double_negation(self):
        assert to_nnf(Not(Not(A))) == A


class TestWeight:
    def test_literal(self):
        assert weight(A) == 1
        assert weight(NegatedName("A")) == 1

    def test_conjunction(self):
        assert weight(C("A and B")) == 3

    def test_atmost(self):
        assert weight(C("atmost 1 r . A")) == 3

    def test_quantifier(self):
        assert weight(C("some r . A")) == 2

    def test_atleast(self):
        assert weight(C("atleast 2 r . A")) == 3

    def test_positive_and_decreasing(self, rng):
        for _ in range(200):
            c = random_concept(rng, depth=4)
            for sub in subconcepts(c):
                w = weight(sub)
                assert w >= 1
                if isinstance(sub, (And, Or)):
                    assert w == weight(sub.left) + weight(sub.right) + 1
                elif isinstance(sub, (Exists, Forall)):
                    assert w == weight(sub.body) + 1
                elif isinstance(sub, AtMost):
                    assert w == weight(sub.body) + sub.n + 1
                elif isinstance(sub, AtLeast):
                    assert w == weight(sub.body) + sub.n


class TestSimpleRoles:
    def test_no_rias_means_simple(self):
        assert is_simple(r, ())

    def test_composition_target_is_not_simple(self):
        # clause (2) needs single-role left sides; r o s <= t has length 2
        rbox = (RIA((Role("r"), Role("s")), Role("t")),)
        assert not is_simple(Role("t"), rbox)

    def test_inverse_of_simple_chain(self):
        rbox = (RIA((Role("r"),), Role("s")),)
        assert is_simple(Role("s", True), rbox)

    def test_cycle_is_not_simple(self):
        rbox = (RIA((Role("s"),), Role("r")), RIA((Role("r"),), Role("s")))
        assert not is_simple(Role("r"), rbox)

    def test_inverse_rhs_mirrored(self):
        rbox = (RIA((Role("r"), Role("s")), Role("t", True)),)
        assert not is_simple(Role("t"), rbox)

    @staticmethod
    def walk_meets_complex_or_repeats(name: str, rbox) -> bool:
        """The definition, walked: follow every RIA into a name (or its
        inverse) back to its left side, on every path from ``name``."""
        todo = [(name, ())]
        while todo:
            current, seen = todo.pop()
            if current in seen:
                return True
            for ria in rbox:
                if ria.rhs.name == current:
                    if len(ria.lhs) != 1:
                        return True
                    todo.append((ria.lhs[0].name, seen + (current,)))
        return False

    @settings(max_examples=400, deadline=None)
    @given(st.lists(RIAS, max_size=7))
    def test_matches_the_definitional_walk(self, rbox):
        for role in ROLE_POOL:
            assert is_simple(role, rbox) == (
                not self.walk_meets_complex_or_repeats(role.name, rbox)), (role, rbox)


class TestRegularity:
    def test_transitivity_clause(self):
        report = find_regular_order([RIA((r, r), r)])
        assert report.ok and report.order == frozenset()

    def test_symmetric_cycle_rejected(self):
        report = find_regular_order([
            RIA((Role("s"),), Role("r")), RIA((Role("r"),), Role("s"))])
        assert not report.ok
        assert len(report.offenders) == 2
        assert "cycle" in report.message

    def test_empty_rbox(self):
        assert find_regular_order([]).ok

    @pytest.mark.parametrize("ria", [
        RIA((r, r), r),                                   # w = rr
        RIA((Role("r", True),), r),                       # w = r-
        RIA((Role("s"), Role("t")), r),                   # w = s1...sn
        RIA((r, Role("s")), r),                           # w = r s1...sn
        RIA((Role("s"), r), r),                           # w = s1...sn r
    ])
    def test_each_clause_shape_accepted(self, ria):
        report = find_regular_order([ria])
        assert report.ok
        assert ria_matches_clause(ria, report.order)

    def test_success_is_rechecked(self, rng):
        pool = [
            RIA((r, r), r),
            RIA((Role("s"),), r),
            RIA((Role("s"), Role("t")), r),
            RIA((Role("t"),), Role("s")),
            RIA((r, Role("s")), r),
        ]
        for _ in range(100):
            rias = rng.sample(pool, rng.randint(1, len(pool)))
            report = find_regular_order(rias)
            if report.ok:
                assert all(ria_matches_clause(x, report.order) for x in rias)


class TestNormalize:
    def test_general_gci_rewritten(self):
        ont = normalize_ontology([GCI(A, B)], [])
        assert ont.tbox == (GCI(TOP, Or(NegatedName("A"), B)),)

    def test_top_form_unchanged(self):
        ont = normalize_ontology([GCI(TOP, C("A or B"))], [])
        assert ont.tbox == (GCI(TOP, C("A or B")),)

    def test_counting_over_non_simple_role_rejected(self):
        rbox = [RIA((Role("r"), Role("s")), Role("t"))]
        with pytest.raises(OntologyError):
            normalize_ontology([GCI(AtMost(1, Role("t"), A), B)], rbox)

    def test_gci_list_fixed_order(self):
        ont = normalize_ontology([GCI(TOP, A), GCI(TOP, B)], [])
        assert ont.gci_list("x") == (("x", NegatedName("A")), ("x", NegatedName("B")))


class TestSignature:
    def test_cpt_of_concept(self):
        assert cpt(C("some r . A and not B")) == {"A", "B"}

    def test_sig_includes_roles(self):
        sig = signature_of(C("some r . A"))
        assert sig.concept_names == {"A"} and sig.roles == {"r"}

    def test_cpt_of_ontology(self):
        ont = normalize_ontology([GCI(A, B)], [])
        assert cpt(ont) == {"A", "B"}

    def test_reserved_name_excluded(self):
        assert cpt(TOP) == frozenset()
        assert signature_of(BOT).concept_names == frozenset()

    def test_cardinality_bound(self):
        with pytest.raises(OntologyError):
            AtMost(2**31, r, A)
