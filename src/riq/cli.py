"""Command-line interface: check/prove subsumptions, verify emitted proofs,
search for counter-models, compute interpolants, and extract explicit
definitions.

Exit codes: 0 proved (or pipeline succeeded), 1 refuted (counter-model found
/ not definable), 2 unknown (resource bound hit, or no counter-model up to
the bound), >2 usage or input errors.  Output is deterministic byte-for-byte
for identical inputs and limits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .core import RiqError, signature_of
from .definability import explicit_definition
from .interpolation import compute_concept_interpolant, interpolant_to_json
from .parser import parse_concept, parse_ontology, render_concept
from .prover import Proved, Refuted, SearchLimits, Unknown, goal_sequent, prove
from .rsystem import CflClosure
from .semantics import (
    OracleGuardError,
    find_countermodel_bounded,
    model_to_dict,
)
from .sequent import (
    build_prop_graph,
    check_proof,
    eq_classes,
    parse_sequent,
    proof_from_json,
    proof_to_json,
    render_sequent,
)

EXIT_PROVED = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors must exit above 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _positive(text: str) -> int:
    """The value of a limit or count option, which must be a positive
    integer."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, found {text!r}")
    return int(text)


def _add_limits(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-steps", type=_positive, default=50000,
                   help="total rule applications before giving up")
    p.add_argument("--max-labels", type=_positive, default=2000,
                   help="labels per branch before giving up")
    p.add_argument("--max-seconds", type=_positive, default=120,
                   help="wall-clock hint before giving up")


def _limits(args) -> SearchLimits:
    return SearchLimits(args.max_steps, args.max_labels, args.max_seconds)


def _load_ontology(path: str, strict: bool = False):
    return parse_ontology(Path(path).read_text(encoding="utf-8"), strict=strict)


def _write(path: Optional[str], text: str) -> None:
    if path:
        Path(path).write_text(text + ("" if text.endswith("\n") else "\n"),
                              encoding="utf-8")


def _cmd_check(args) -> int:
    ontology = _load_ontology(args.ontology, args.strict)
    sub = parse_concept(args.sub)
    sup = parse_concept(args.sup)
    result = prove(ontology, goal_sequent(ontology, sub, sup), _limits(args))
    if isinstance(result, Proved):
        print("Proved")
        if args.emit_proof:
            _write(args.emit_proof, proof_to_json(result.proof))
        return EXIT_PROVED
    if isinstance(result, Refuted):
        print("Refuted")
        model = model_to_dict(result.interpretation, result.assignment)
        print(json.dumps(model, indent=2))
        if args.emit_model:
            _write(args.emit_model, json.dumps(model, indent=2))
        return EXIT_REFUTED
    print(f"Unknown: {result.reason}")
    return EXIT_UNKNOWN


def _cmd_verify(args) -> int:
    ontology = _load_ontology(args.ontology)
    proof = proof_from_json(Path(args.proof).read_text(encoding="utf-8"))
    result = check_proof(ontology, proof)
    if result.ok:
        print("Proof valid")
        print(f"conclusion: {render_sequent(proof.conclusion)}")
        return EXIT_PROVED
    where = "/".join(str(i) for i in result.path) or "root"
    print(f"Proof INVALID at node {where}: {result.message}")
    return EXIT_REFUTED


def _cmd_model(args) -> int:
    ontology = _load_ontology(args.ontology)
    sub_text, sep, sup_text = args.goal.partition("<=")
    if not sep:
        print("goal must have the form 'C <= D'", file=sys.stderr)
        return EXIT_ERROR
    goal = goal_sequent(ontology, parse_concept(sub_text), parse_concept(sup_text))
    try:
        hit = find_countermodel_bounded(ontology, goal, args.max_domain,
                                        samples=args.samples)
    except OracleGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if hit is None:
        print(f"none up to {args.max_domain}")
        return EXIT_UNKNOWN
    interpretation, assignment = hit
    model = model_to_dict(interpretation, assignment)
    print(json.dumps(model, indent=2))
    if args.emit_model:
        _write(args.emit_model, json.dumps(model, indent=2))
    return EXIT_REFUTED


def _inconclusive(what: str, report) -> int:
    """Print a verification report in which a direction hit its bound."""
    reason = next(r.reason for r in (report.forward, report.backward)
                  if isinstance(r, Unknown))
    print(f"Unknown: {what} verification: {reason}")
    for line in report.lines():
        print("  " + line)
    return EXIT_UNKNOWN


def _cmd_interpolate(args) -> int:
    o1 = _load_ontology(args.o1)
    o2 = _load_ontology(args.o2)
    sub = parse_concept(args.sub)
    sup = parse_concept(args.sup)
    result = compute_concept_interpolant(o1, o2, sub, sup, _limits(args))
    if result.status == "refuted":
        print("Refuted: the subsumption does not hold, no interpolant exists")
        return EXIT_REFUTED
    if result.status == "unknown":
        if result.verification is not None:
            return _inconclusive("interpolant", result.verification)
        print(f"Unknown: {result.prove_result.reason}")
        return EXIT_UNKNOWN
    print(f"Interpolant: {render_concept(result.concept)}")
    for line in result.verification.lines():
        print("  " + line)
    if args.emit_interp:
        _write(args.emit_interp, interpolant_to_json(result.interpolant))
    return EXIT_PROVED


def _cmd_define(args) -> int:
    ontology = _load_ontology(args.ontology)
    concept = parse_concept(args.concept)
    theta = [name.strip() for name in args.theta.split(",") if name.strip()]
    result = explicit_definition(ontology, concept, theta, _limits(args))
    if result.status == "not-definable":
        print("Not implicitly definable from the given names")
        return EXIT_REFUTED
    if result.status == "unknown":
        if result.report is not None:
            return _inconclusive("definition", result.report)
        print(f"Unknown: {result.interpolation.prove_result.reason}")
        return EXIT_UNKNOWN
    print(f"Definition: {render_concept(result.definition)}")
    for line in result.report.lines():
        print("  " + line)
    if args.emit_def:
        _write(args.emit_def, render_concept(result.definition))
    if args.emit_proofs:
        outdir = Path(args.emit_proofs)
        outdir.mkdir(parents=True, exist_ok=True)
        # every one of them is Proved when the status is "ok"
        proved = {"implicit.json": result.implicit,
                  "forward.json": result.report.forward,
                  "backward.json": result.report.backward,
                  "interpolation.json": result.interpolation.prove_result}
        for name, res in proved.items():
            _write(str(outdir / name), proof_to_json(res.proof))
    return EXIT_PROVED


def _cmd_info(args) -> int:
    ontology = _load_ontology(args.ontology)
    sig = signature_of(ontology)
    print(f"roles: {', '.join(sorted(sig.roles)) or '(none)'}")
    print(f"concept names: {', '.join(sorted(sig.concept_names)) or '(none)'}")
    print(f"tbox axioms: {len(ontology.tbox)}, rias: {len(ontology.rbox)}")
    report = ontology.regularity
    print("regular rbox: " + ("yes" if report.ok else f"NO ({report.message})"))
    rsystem = ontology.rsystem
    print("productions:")
    for prod in sorted(rsystem.productions, key=str):
        print(f"  {prod}")
    if not rsystem.productions:
        print("  (none)")
    if args.sequent:
        seq = parse_sequent(args.sequent)
        eq = eq_classes(seq.antecedent, seq.labels())
        closure = CflClosure(rsystem, build_prop_graph(seq, eq))

        def node(rep: str) -> str:
            return "{" + ", ".join(sorted(eq.members(rep))) + "}"

        print(f"sequent: {render_sequent(seq)}")
        print("propagation nodes: "
              + "; ".join(node(lab) for lab in seq.labels() if eq.rep(lab) == lab))
        print("reach table:")
        printed = False
        for role, pairs in sorted(closure.reach.items(), key=lambda item: str(item[0])):
            rendered = sorted(f"({node(a)} -> {node(b)})" for a, b in pairs)
            print(f"  {role}: " + ", ".join(rendered))
            printed = True
        if not printed:
            print("  (empty)")
    return EXIT_PROVED


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="riq", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    for name in ("check", "prove"):
        p = commands.add_parser(name, parents=[], help="prove or refute a subsumption")
        p.add_argument("-o", "--ontology", required=True)
        p.add_argument("--sub", required=True, help="subsumee concept")
        p.add_argument("--sup", required=True, help="subsumer concept")
        p.add_argument("--strict", action="store_true",
                       help="require declared role names")
        p.add_argument("--emit-proof")
        p.add_argument("--emit-model")
        _add_limits(p)
        p.set_defaults(func=_cmd_check)

    p = commands.add_parser("verify", help="re-validate an emitted proof")
    p.add_argument("--proof", required=True)
    p.add_argument("-o", "--ontology", required=True)
    p.set_defaults(func=_cmd_verify)

    p = commands.add_parser("model", help="bounded counter-model search")
    p.add_argument("-o", "--ontology", required=True)
    p.add_argument("--goal", required=True, help='"C <= D"')
    p.add_argument("--max-domain", type=_positive, default=3)
    p.add_argument("--samples", type=_positive, default=None,
                   help="random sampling count for large signatures")
    p.add_argument("--emit-model")
    p.set_defaults(func=_cmd_model)

    p = commands.add_parser("interpolate", help="compute a concept interpolant")
    p.add_argument("--o1", required=True, help="left ontology file")
    p.add_argument("--o2", required=True, help="right ontology file")
    p.add_argument("--sub", required=True)
    p.add_argument("--sup", required=True)
    p.add_argument("--emit-interp")
    _add_limits(p)
    p.set_defaults(func=_cmd_interpolate)

    p = commands.add_parser("define", help="extract an explicit definition")
    p.add_argument("-o", "--ontology", required=True)
    p.add_argument("--concept", required=True)
    p.add_argument("--theta", required=True, help="comma-separated concept names")
    p.add_argument("--emit-def")
    p.add_argument("--emit-proofs", help="directory for the pipeline's proofs")
    _add_limits(p)
    p.set_defaults(func=_cmd_define)

    p = commands.add_parser("info", help="print productions and reach tables")
    p.add_argument("-o", "--ontology", required=True)
    p.add_argument("--sequent", help="print the reach table for this sequent")
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RiqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # never panic on user input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR + 1


if __name__ == "__main__":
    sys.exit(main())
