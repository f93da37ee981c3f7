"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that the same seed gives the same inputs, that every pass serves the
whole catalogue and renaming only renames, that an untraced run reports
every end-to-end metric and a traced run every per-layer metric listed in
BENCHMARK.json, that only the known defect's exception is tolerated as an
error, that verdicts repeat exactly, and that the benchmark
refuses to run without the library's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    return result


def test_same_seed_same_inputs():
    for name in workloads.GENERATORS:
        first = [workloads.GENERATORS[name](7, i) for i in range(30)]
        again = [workloads.GENERATORS[name](7, i) for i in range(30)]
        other = [workloads.GENERATORS[name](8, i) for i in range(30)]
        assert first == again
        assert first != other


def test_every_pass_serves_the_whole_catalogue():
    for name, catalogue in workloads.CATALOGUES.items():
        size = len(catalogue)
        for rounds in range(3):
            goals = [workloads.GENERATORS[name](7, rounds * size + pos)
                     for pos in range(size)]
            assert sorted(goal.gid for goal in goals) == list(range(size))


def test_renaming_keeps_the_goal_and_changes_its_text():
    for name, catalogue in workloads.CATALOGUES.items():
        size = len(catalogue)
        for i in range(size, 2 * size):
            goal = workloads.GENERATORS[name](7, i)
            entry = catalogue[goal.gid]
            assert goal.sub != entry.sub
            for text in ("ontology", "ontology2", "sub", "sup"):
                assert getattr(goal, text).replace("_1", "") == getattr(entry, text)
            assert tuple(n.replace("_1", "") for n in goal.theta) == entry.theta


def _service():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import service

    return service


def _verification_failed(forward: str, backward: str, oracle: str) -> str:
    return ("interpolant verification failed:\n  signature: ok"
            f"\n  subsumee <= interpolant: {forward}"
            f"\n  interpolant <= subsumer: {backward}"
            f"\n  oracle spot-check: {oracle}\n  interpolant: B")


def test_only_the_known_defect_is_tolerated():
    service = _service()
    from riq.definability import DefinabilityError
    from riq.interpolation import InterpolationError
    from riq.prover import CountermodelError

    tolerated = InterpolationError(
        _verification_failed("Proved", "Unknown", "no counter-model found"))
    wrong = [
        InterpolationError(_verification_failed("Refuted", "Unknown",
                                                "no counter-model found")),
        InterpolationError(_verification_failed("Proved", "Unknown",
                                                "counter-model against A <= B")),
        InterpolationError("prover emitted an invalid proof: bad rule"),
        CountermodelError("extracted interpretation is not a model of the ontology"),
        DefinabilityError("definition verification failed:\n  signature: ok"),
        ValueError("boom"),
    ]
    goal = workloads.INTERP_CATALOGUE[0]
    assert service.check(goal, service.Answer("error", "x", result=tolerated)) is None
    for exc in wrong:
        assert not service.inconclusive_verification(exc)
        assert service.check(goal, service.Answer("error", "x", result=exc)) is not None


def test_untraced_run_reports_every_end_to_end_metric():
    result = last_json(run("--workload", "subsume-random", "--seed", "3",
                           "--goals", "20", "--trace", "0"))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, goals in (("rbox-chain", "4"), ("interp-define", "2")):
        result = last_json(run("--workload", workload, "--seed", "3",
                               "--goals", goals, "--trace", "1"))
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected


def test_verdicts_repeat_exactly():
    def digest() -> str:
        proc = run("--workload", "subsume-random", "--seed", "5", "--goals", "440",
                   "--no-setup", "--trace", "0")
        last_json(proc)
        return next(line for line in proc.stdout.splitlines() if "verdict digest" in line)

    assert digest() == digest()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "subsume-random", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
