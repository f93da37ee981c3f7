"""Finite interpretations, concept and sequent semantics, and the bounded
brute-force counter-model oracle used for differential testing.

The oracle enumerates interpretations in a compact bitmask encoding
(canonicalized up to renaming of domain elements, which is sound because
sequent validity is isomorphism-invariant) and converts hits back to the
public Interpretation type.  A property test pins the bitmask evaluator to
interpret_concept, keeping the oracle an independent route from the prover.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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
    RESERVED_NAME,
    RIA,
    RiqError,
    Role,
    TOP,
    fold_concept,
    signature_of,
)
from .sequent import Eq, Neq, RoleAtom, Sequent, _atom_labels

Element = str
PairSet = frozenset[tuple[Element, Element]]


class SemanticsError(RiqError):
    """Unknown symbol or ill-formed model query."""


class OracleGuardError(RiqError):
    """Signature too large for exhaustive enumeration; pass a sample count."""


@dataclass(frozen=True)
class Interpretation:
    domain: tuple[Element, ...]
    concepts: Mapping[str, frozenset[Element]]
    roles: Mapping[str, PairSet]

    def concept_ext(self, name: str) -> frozenset[Element]:
        if name in self.concepts:
            return self.concepts[name]
        if name == RESERVED_NAME:
            # TOP/BOT are insensitive to the reserved name's extension
            return frozenset()
        raise SemanticsError(f"unknown concept name {name!r}")

    def role_ext(self, role: Role) -> PairSet:
        pairs = self.roles.get(role.name, frozenset())
        if role.inverted:
            return frozenset((b, a) for a, b in pairs)
        return pairs


LabelAssignment = Mapping[str, Element]


def interpret_concept(i: Interpretation, c: Concept) -> frozenset[Element]:
    """Extension of an NNF concept under the usual clauses, including the
    counting clauses for atmost/atleast."""

    def extension(node: Concept, parts: Sequence[frozenset[Element]]) -> frozenset[Element]:
        if isinstance(node, ConceptName):
            return i.concept_ext(node.name)
        if isinstance(node, NegatedName):
            return frozenset(i.domain) - i.concept_ext(node.name)
        if isinstance(node, And):
            return parts[0] & parts[1]
        if isinstance(node, Or):
            return parts[0] | parts[1]
        if isinstance(node, (Exists, Forall, AtMost, AtLeast)):
            body = parts[0]
            pairs = i.role_ext(node.role)
            successors: dict[Element, set[Element]] = {a: set() for a in i.domain}
            for a, b in pairs:
                successors[a].add(b)
            if isinstance(node, Exists):
                return frozenset(a for a in i.domain if successors[a] & body)
            if isinstance(node, Forall):
                return frozenset(a for a in i.domain if successors[a] <= body)
            counts = {a: len(successors[a] & body) for a in i.domain}
            if isinstance(node, AtMost):
                return frozenset(a for a in i.domain if counts[a] <= node.n)
            return frozenset(a for a in i.domain if counts[a] >= node.n)
        raise SemanticsError(f"cannot interpret {node!r}")

    return fold_concept(c, extension)


def _compose(left: PairSet, right: PairSet) -> PairSet:
    by_src: dict[Element, list[Element]] = {}
    for a, b in right:
        by_src.setdefault(a, []).append(b)
    return frozenset((a, c) for a, b in left for c in by_src.get(b, ()))


def is_model(i: Interpretation, o: Ontology) -> bool:
    """All GCIs and RIAs satisfied.  Normalized GCIs (lhs = TOP) require the
    rhs to cover the whole domain."""
    full = frozenset(i.domain)
    for g in o.tbox:
        if g.lhs == TOP:
            if interpret_concept(i, g.rhs) != full:
                return False
        elif not interpret_concept(i, g.lhs) <= interpret_concept(i, g.rhs):
            return False
    for ria in o.rbox:
        composed = i.role_ext(ria.lhs[0])
        for role in ria.lhs[1:]:
            composed = _compose(composed, i.role_ext(role))
        if not composed <= i.role_ext(ria.rhs):
            return False
    return True


def holds_antecedent(i: Interpretation, lam: LabelAssignment, seq: Sequent) -> bool:
    for atom in seq.antecedent:
        if isinstance(atom, RoleAtom):
            if (lam[atom.src], lam[atom.dst]) not in i.role_ext(atom.role):
                return False
        elif isinstance(atom, Eq):
            if lam[atom.left] != lam[atom.right]:
                return False
        elif isinstance(atom, Neq):
            if lam[atom.left] == lam[atom.right]:
                return False
    return True


def holds_consequent(i: Interpretation, lam: LabelAssignment, seq: Sequent) -> bool:
    return any(lam[occ.label] in interpret_concept(i, occ.concept)
               for occ in seq.consequent)


def seq_satisfied(i: Interpretation, lam: LabelAssignment, o: Ontology,
                  seq: Sequent) -> bool:
    """Sequent satisfaction relative to o: if i models o and the antecedent
    holds under lam, some consequent member must hold."""
    if not is_model(i, o):
        return True
    if not holds_antecedent(i, lam, seq):
        return True
    return holds_consequent(i, lam, seq)


def falsifies(i: Interpretation, lam: LabelAssignment, o: Ontology, seq: Sequent) -> bool:
    return not seq_satisfied(i, lam, o, seq)


def ria_closure(role_ext: Mapping[str, Iterable[tuple[Element, Element]]],
                rbox: Iterable[RIA]) -> dict[str, PairSet]:
    """Least fixpoint closing the role extensions under every RIA; used by
    counter-model extraction and by random model generation in tests."""
    rias = tuple(rbox)
    ext: dict[str, set[tuple[Element, Element]]] = {
        name: set(pairs) for name, pairs in role_ext.items()}

    def get(role: Role) -> PairSet:
        pairs = frozenset(ext.get(role.name, ()))
        if role.inverted:
            return frozenset((b, a) for a, b in pairs)
        return pairs

    changed = True
    while changed:
        changed = False
        for ria in rias:
            composed = get(ria.lhs[0])
            for role in ria.lhs[1:]:
                composed = _compose(composed, get(role))
            if ria.rhs.inverted:
                composed = frozenset((b, a) for a, b in composed)
            bucket = ext.setdefault(ria.rhs.name, set())
            new = composed - bucket
            if new:
                bucket |= new
                changed = True
    return {name: frozenset(pairs) for name, pairs in ext.items()}


# ---------------------------------------------------------------------------
# Bitmask evaluation (oracle internals)
# ---------------------------------------------------------------------------


def _rows(rext: int, n: int) -> list[int]:
    mask = (1 << n) - 1
    return [(rext >> (i * n)) & mask for i in range(n)]


def _transpose(rext: int, n: int) -> int:
    out = 0
    for i in range(n):
        for j in range(n):
            if rext & (1 << (i * n + j)):
                out |= 1 << (j * n + i)
    return out


def _eval_bits(c: Concept, cexts: Mapping[str, int], rexts: Mapping[str, int], n: int) -> int:
    full = (1 << n) - 1

    def bits(node: Concept, parts: Sequence[int]) -> int:
        if isinstance(node, (ConceptName, NegatedName)):
            if node.name in cexts:
                ext = cexts[node.name]
            elif node.name == RESERVED_NAME:
                ext = 0
            else:
                raise SemanticsError(f"unknown concept name {node.name!r}")
            return ext if isinstance(node, ConceptName) else full & ~ext
        if isinstance(node, And):
            return parts[0] & parts[1]
        if isinstance(node, Or):
            return parts[0] | parts[1]
        if isinstance(node, (Exists, Forall, AtMost, AtLeast)):
            body = parts[0]
            rext = rexts.get(node.role.name, 0)
            if node.role.inverted:
                rext = _transpose(rext, n)
            rows = _rows(rext, n)
            out = 0
            for i in range(n):
                hits = rows[i] & body
                if isinstance(node, Exists):
                    ok = hits != 0
                elif isinstance(node, Forall):
                    ok = (rows[i] & ~body & full) == 0
                elif isinstance(node, AtMost):
                    ok = bin(hits).count("1") <= node.n
                else:
                    ok = bin(hits).count("1") >= node.n
                if ok:
                    out |= 1 << i
            return out
        raise SemanticsError(f"cannot interpret {node!r}")

    return fold_concept(c, bits)


def _compose_bits(left: int, right: int, n: int) -> int:
    rows_left = _rows(left, n)
    rows_right = _rows(right, n)
    out = 0
    for i in range(n):
        acc = 0
        row = rows_left[i]
        for j in range(n):
            if row & (1 << j):
                acc |= rows_right[j]
        out |= acc << (i * n)
    return out


def _tbox_ok_bits(o: Ontology, cexts: Mapping[str, int], rexts: Mapping[str, int],
                  n: int) -> bool:
    full = (1 << n) - 1
    for g in o.tbox:
        if g.lhs == TOP:
            if _eval_bits(g.rhs, cexts, rexts, n) != full:
                return False
        else:
            lhs = _eval_bits(g.lhs, cexts, rexts, n)
            if lhs & ~_eval_bits(g.rhs, cexts, rexts, n):
                return False
    return True


def _rbox_ok_bits(o: Ontology, rexts: Mapping[str, int], n: int) -> bool:
    for ria in o.rbox:
        def ext_of(role: Role) -> int:
            e = rexts.get(role.name, 0)
            return _transpose(e, n) if role.inverted else e

        composed = ext_of(ria.lhs[0])
        for role in ria.lhs[1:]:
            composed = _compose_bits(composed, ext_of(role), n)
        if composed & ~ext_of(ria.rhs):
            return False
    return True


def _is_model_bits(o: Ontology, cexts: Mapping[str, int], rexts: Mapping[str, int],
                   n: int) -> bool:
    return _rbox_ok_bits(o, rexts, n) and _tbox_ok_bits(o, cexts, rexts, n)


def _permute_cext(mask: int, perm: Sequence[int]) -> int:
    out = 0
    for i, p in enumerate(perm):
        if mask & (1 << i):
            out |= 1 << p
    return out


def _permute_rext(mask: int, perm: Sequence[int], n: int) -> int:
    out = 0
    for i in range(n):
        for j in range(n):
            if mask & (1 << (i * n + j)):
                out |= 1 << (perm[i] * n + perm[j])
    return out


def _canonical_models_of(o: Ontology, names: tuple[str, ...],
                         roles: tuple[str, ...], n: int
                         ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All models of o on n elements, one representative per isomorphism
    class (lexicographically minimal encoding), generated lazily.

    Role vectors are enumerated in the outer loop so RIA violations prune the
    concept enumeration wholesale.
    """
    perms = [p for p in itertools.permutations(range(n)) if p != tuple(range(n))]
    rperm_tables = [([_permute_cext(m, perm) for m in range(1 << n)],
                     perm) for perm in perms]
    for rvec in itertools.product(range(1 << (n * n)), repeat=len(roles)):
        if not _rbox_ok_bits(o, dict(zip(roles, rvec)), n):
            continue
        rvec_images = [tuple(_permute_rext(m, perm, n) for m in rvec)
                       for _, perm in rperm_tables]
        for cvec in itertools.product(range(1 << n), repeat=len(names)):
            minimal = True
            for (ctable, _), rimage in zip(rperm_tables, rvec_images):
                permuted = (tuple(ctable[m] for m in cvec), rimage)
                if permuted < (cvec, rvec):
                    minimal = False
                    break
            if not minimal:
                continue
            if not _tbox_ok_bits(o, dict(zip(names, cvec)), dict(zip(roles, rvec)), n):
                continue
            yield cvec, rvec


def _to_interpretation(names: tuple[str, ...], roles: tuple[str, ...],
                       cvec: Sequence[int], rvec: Sequence[int], n: int) -> Interpretation:
    domain = tuple(f"e{i}" for i in range(n))
    concepts = {name: frozenset(f"e{i}" for i in range(n) if cvec[k] & (1 << i))
                for k, name in enumerate(names)}
    rolemap = {name: frozenset((f"e{i}", f"e{j}")
                               for i in range(n) for j in range(n)
                               if rvec[k] & (1 << (i * n + j)))
               for k, name in enumerate(roles)}
    return Interpretation(domain, concepts, rolemap)


def _sequent_signature(o: Ontology, seq: Sequent) -> tuple[tuple[str, ...], tuple[str, ...]]:
    sig = signature_of(o, [occ.concept for occ in seq.consequent])
    roles = set(sig.roles)
    for atom in seq.antecedent:
        if isinstance(atom, RoleAtom):
            roles.add(atom.role.name)
    return tuple(sorted(sig.concept_names)), tuple(sorted(roles))


def find_countermodel_bounded(
    o: Ontology,
    seq: Sequent,
    max_domain: int = 3,
    *,
    max_concept_names: int = 3,
    max_roles: int = 2,
    samples: Optional[int] = None,
    rng=None,
) -> Optional[tuple[Interpretation, dict[str, Element]]]:
    """First interpretation/assignment falsifying seq relative to o with
    domain size <= max_domain, or None.

    Within the guard (few names/roles, small domain) the search is exhaustive
    up to isomorphism, so None means "no counter-model up to the bound" —
    never validity.  Beyond the guard a sample count must be supplied and
    random interpretations are tried instead.  ValueError when `max_domain`
    or `samples` is less than 1.
    """
    if max_domain < 1:
        raise ValueError("max_domain must be at least 1")
    if samples is not None and samples < 1:
        raise ValueError("samples must be at least 1")
    names, roles = _sequent_signature(o, seq)
    labels = tuple(dict.fromkeys(
        [lab for atom in seq.antecedent for lab in _atom_labels(atom)]
        + [occ.label for occ in seq.consequent]))
    exhaustive = (len(names) <= max_concept_names and len(roles) <= max_roles
                  and max_domain <= 3)
    if not exhaustive and samples is None:
        raise OracleGuardError(
            f"signature too large for exhaustion ({len(names)} names, "
            f"{len(roles)} roles); pass samples=")

    goal_concepts = tuple((occ.label, occ.concept) for occ in seq.consequent)

    def try_model(cvec: Sequence[int], rvec: Sequence[int], n: int, *,
                  known_model: bool = False) -> Optional[dict[str, Element]]:
        cexts = dict(zip(names, cvec))
        rexts = dict(zip(roles, rvec))
        if not known_model and not _is_model_bits(o, cexts, rexts, n):
            return None
        extensions = {}
        for lab, concept in goal_concepts:
            if concept not in extensions:
                extensions[concept] = _eval_bits(concept, cexts, rexts, n)
        for assignment in itertools.product(range(n), repeat=len(labels)):
            lam = dict(zip(labels, assignment))
            ok_antecedent = True
            for atom in seq.antecedent:
                if isinstance(atom, RoleAtom):
                    bit = 1 << (lam[atom.src] * n + lam[atom.dst])
                    ext = rexts.get(atom.role.name, 0)
                    if atom.role.inverted:
                        ext = _transpose(ext, n)
                    if not ext & bit:
                        ok_antecedent = False
                        break
                elif isinstance(atom, Eq):
                    if lam[atom.left] != lam[atom.right]:
                        ok_antecedent = False
                        break
                elif lam[atom.left] == lam[atom.right]:
                    ok_antecedent = False
                    break
            if not ok_antecedent:
                continue
            if any(extensions[c] & (1 << lam[lab]) for lab, c in goal_concepts):
                continue
            return {lab: f"e{i}" for lab, i in lam.items()}
        return None

    if exhaustive:
        for n in range(1, max_domain + 1):
            for cvec, rvec in _canonical_models_of(o, names, roles, n):
                lam = try_model(cvec, rvec, n, known_model=True)
                if lam is not None:
                    return _to_interpretation(names, roles, cvec, rvec, n), lam
        return None

    import random as _random

    rng = rng or _random.Random(0)
    for _ in range(samples):
        n = rng.randint(1, max_domain)
        cvec = tuple(rng.getrandbits(n) for _ in names)
        rvec = tuple(rng.getrandbits(n * n) for _ in roles)
        lam = try_model(cvec, rvec, n)
        if lam is not None:
            return _to_interpretation(names, roles, cvec, rvec, n), lam
    return None


# ---------------------------------------------------------------------------
# Model serialization
# ---------------------------------------------------------------------------


def model_to_dict(i: Interpretation, assignment: Optional[LabelAssignment] = None) -> dict:
    out = {
        "domain": list(i.domain),
        "concepts": {name: sorted(i.concepts[name]) for name in sorted(i.concepts)},
        "roles": {name: sorted([list(p) for p in i.roles[name]])
                  for name in sorted(i.roles)},
    }
    if assignment is not None:
        out["assignment"] = {lab: assignment[lab] for lab in sorted(assignment)}
    return out


def _list(items: object, where: str, size: Optional[int] = None) -> list:
    if not isinstance(items, list) or (size is not None and len(items) != size):
        raise SemanticsError(f"{where} must be a list" + (f" of {size}" if size else ""))
    return items


def _elements(items: object, domain: frozenset, where: str, size: Optional[int] = None
              ) -> tuple[Element, ...]:
    for e in _list(items, where, size):
        if not isinstance(e, str) or e not in domain:
            raise SemanticsError(f"{where}: {e!r} is not a domain element")
    return tuple(items)


def model_from_dict(d: dict) -> tuple[Interpretation, Optional[dict[str, Element]]]:
    """The interpretation and assignment that ``model_to_dict`` writes;
    malformed input raises SemanticsError."""
    if not isinstance(d, dict):
        raise SemanticsError("a model must be a JSON object")
    domain = _list(d.get("domain"), "model domain")
    if not all(isinstance(e, str) for e in domain) or len(set(domain)) != len(domain):
        raise SemanticsError("model domain must list distinct strings")
    known = frozenset(domain)
    fields = {key: d.get(key, {}) for key in ("concepts", "roles", "assignment")}
    for key, value in fields.items():
        if not isinstance(value, dict) or not all(isinstance(k, str) for k in value):
            raise SemanticsError(f"model {key} must be a JSON object")
    concepts = {name: frozenset(_elements(elems, known, f"concept {name}"))
                for name, elems in fields["concepts"].items()}
    roles = {name: frozenset(_elements(p, known, f"pair of role {name}", 2)
                             for p in _list(pairs, f"role {name}"))
             for name, pairs in fields["roles"].items()}
    assignment = fields["assignment"]
    _elements(list(assignment.values()), known, "assignment")
    return (Interpretation(tuple(domain), concepts, roles),
            dict(assignment) if "assignment" in d else None)
