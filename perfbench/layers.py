"""Which library functions the traced run wraps, and the per-layer metrics
computed from their spans.

Spans are named ``<layer>.<what>``, the layer being the riq module whose
work the span measures.  The root span of every goal is ``service.goal``:
its self time is the benchmark's glue plus library work done outside any
traced function.  Per-layer values are per request, so runs that complete
different numbers of requests compare directly.
"""

from __future__ import annotations

from riq import core, definability, interpolation, prover, rsystem, sequent  # noqa: F401 (bindings to patch)

from spans import END, EXTRA, NAME, START, Tracer

LAYERS = ("service", "parser", "prover", "sequent", "rsystem", "semantics",
          "interpolation", "definability")

#: (defining module, function, span name); every riq binding is patched
FUNCTIONS = (
    ("riq.parser", "parse_ontology", "parser.parse"),
    ("riq.parser", "parse_concept", "parser.parse"),
    ("riq.prover", "subsumes", "prover.subsumes"),
    ("riq.prover", "extract_countermodel", "prover.countermodel"),
    ("riq.sequent", "apply_rule", "sequent.apply_rule"),
    ("riq.sequent", "build_prop_graph", "sequent.prop_graph"),
    ("riq.sequent", "eq_classes", "sequent.eq_classes"),
    ("riq.sequent", "check_proof", "sequent.check"),
    ("riq.sequent", "proof_to_json", "sequent.json"),
    ("riq.sequent", "proof_from_json", "sequent.json"),
    ("riq.semantics", "is_model", "semantics.is_model"),
    ("riq.semantics", "model_to_dict", "semantics.model_json"),
    ("riq.interpolation", "compute_concept_interpolant", "interpolation.pipeline"),
    ("riq.interpolation", "annotate_partition", "interpolation.partition"),
    ("riq.interpolation", "extract_interpolant", "interpolation.extract"),
    ("riq.interpolation", "verify_interpolant", "interpolation.verify"),
    ("riq.definability", "explicit_definition", "definability.explicit"),
    ("riq.definability", "verify_definition", "definability.verify"),
)

#: (class, method, span name)
METHODS = (
    (sequent.EqClasses, "class_of", "sequent.eq_classes"),
    (sequent.EqClasses, "rep", "sequent.eq_classes"),
    (sequent.EqClasses, "path", "sequent.eq_classes"),
)

#: spans that own the rule applications made beneath them
RULE_OWNERS = ("prover.prove", "sequent.check", "interpolation.partition")


def _prove_extra(result, _args):
    """Proof nodes of a Proved result."""
    if isinstance(result, prover.Proved):
        return sum(1 for _ in result.proof.nodes())
    return 0


def _closure_extra(_result, args):
    """(reachable pairs, key of the closure's input) of a built closure."""
    closure = args[0]
    return (sum(len(p) for p in closure.reach.values()),
            hash((closure.g, closure.edges)))


def _oracle_extra(_result, args):
    """Key of the model enumeration an oracle query needs."""
    onto, seq = args[0], args[1]
    return hash((onto, core.signature_of(onto, [occ.concept for occ in seq.consequent])))


def install(tracer: Tracer) -> None:
    for module, attr, name in FUNCTIONS:
        tracer.patch_function(module, attr, name)
    tracer.patch_function("riq.prover", "prove", "prover.prove", _prove_extra)
    tracer.patch_function("riq.semantics", "find_countermodel_bounded",
                          "semantics.oracle", _oracle_extra)
    for cls, attr, name in METHODS:
        tracer.patch_method(cls, attr, name)
    tracer.patch_method(rsystem.CflClosure, "__init__", "rsystem.closure",
                        _closure_extra)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _named(tracer: Tracer, name: str) -> list[int]:
    return [i for i, s in enumerate(tracer.spans) if s[NAME] == name]


def per_layer(tracer: Tracer, run, untraced_service: float
              ) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of a traced run; ``untraced_service`` is the scaled
    service time (see ``speed.py``) of the same requests without tracing."""
    n = len(run.records)
    spans = tracer.spans

    def per_request(x: float) -> float:
        return x / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    prover_rules = [i for i in _named(tracer, "sequent.apply_rule")
                    if tracer.nearest(i, RULE_OWNERS) == "prover.prove"]
    proof_nodes = sum(spans[i][EXTRA] or 0 for i in _named(tracer, "prover.prove"))
    closures = _named(tracer, "rsystem.closure")
    oracles = _named(tracer, "semantics.oracle")
    implicit = [i for i in _named(tracer, "prover.subsumes")
                if tracer.nearest(i, ("definability.explicit", "definability.verify"))
                == "definability.explicit"]
    busy = tracer.busy()

    def busy_of(indices) -> float:
        return sum(spans[i][END] - spans[i][START] for i in indices)

    m: dict[str, float] = {
        "rsystem.closure_busy_s": per_request(busy["rsystem.closure"]),
        "rsystem.closures": per_request(len(closures)),
        "rsystem.reach_pairs": per_request(sum(spans[i][EXTRA][0] for i in closures)),
        "rsystem.closure_distinct_ratio": ratio(
            len({spans[i][EXTRA][1] for i in closures}), len(closures)),
        "sequent.apply_rule_busy_s": per_request(busy_of(prover_rules)),
        "sequent.prop_graph_busy_s": per_request(busy["sequent.prop_graph"]),
        "sequent.eq_classes_busy_s": per_request(busy["sequent.eq_classes"]),
        "sequent.rule_apps": per_request(len(prover_rules)),
        "prover.useful_rule_ratio": ratio(proof_nodes, len(prover_rules)),
        "prover.countermodel_busy_s": per_request(busy["prover.countermodel"]),
        "semantics.oracle_busy_s": per_request(busy["semantics.oracle"]),
        "semantics.oracle_calls": per_request(len(oracles)),
        "semantics.oracle_distinct_ratio": ratio(
            len({spans[i][EXTRA] for i in oracles}), len(oracles)),
        "semantics.is_model_busy_s": per_request(busy["semantics.is_model"]),
        "interpolation.partition_busy_s": per_request(busy["interpolation.partition"]),
        "interpolation.extract_busy_s": per_request(busy["interpolation.extract"]),
        "interpolation.verify_busy_s": per_request(busy["interpolation.verify"]),
        "definability.implicit_busy_s": per_request(busy_of(implicit)),
        "definability.verify_busy_s": per_request(busy["definability.verify"]),
        "parser.busy_s": per_request(busy["parser.parse"]),
        "sequent.check_busy_s": per_request(busy["sequent.check"]),
        "sequent.json_busy_s": per_request(busy["sequent.json"]),
    }
    selfs = tracer.layer_self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_request(selfs.get(layer, 0.0))
    m["trace.self_coverage"] = ratio(sum(selfs.values()), run.service)
    m["trace.overhead_ratio"] = ratio(sum(run.scaled()), untraced_service)
    units = {name: ("ratio" if name.endswith(("_ratio", "_coverage"))
                    else "s/request" if name.endswith("_s")
                    else "count/request")
             for name in m}
    return m, units


def print_layers(tracer: Tracer, run) -> None:
    """Self time per layer, and how much of the traced loop it accounts for."""
    selfs = tracer.layer_self_times()
    total = sum(selfs.values())
    service, wall = run.service, run.wall
    print(f"  self time by layer ({len(run.records)} requests, {len(tracer.spans)} spans)")
    for layer in sorted(selfs, key=selfs.get, reverse=True):
        print(f"    {layer:16s} {selfs[layer]:10.4f} s  {selfs[layer] / total:7.2%}")
    print(f"    {'sum':16s} {total:10.4f} s = {total / service:.4%} of the "
          f"{service:.4f} s timed service, {total / wall:.2%} of the "
          f"{wall:.4f} s traced loop (the rest generates requests and checks answers)")
