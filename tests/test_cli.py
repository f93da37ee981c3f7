import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riq
from riq.cli import main


@pytest.fixture
def ontdir(tmp_path):
    (tmp_path / "ab.riq").write_text("gci: A <= B\n")
    (tmp_path / "empty.riq").write_text("# empty\n")
    (tmp_path / "eq.riq").write_text("gci: A <= B\ngci: B <= A\n")
    (tmp_path / "ria.riq").write_text("ria: r <= s\n")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_proved_exit_zero(self, ontdir, capsys):
        code, out, _ = run(capsys, "check", "-o", str(ontdir / "ab.riq"),
                           "--sub", "A", "--sup", "B")
        assert code == 0 and "Proved" in out

    def test_refuted_exit_one_with_model(self, ontdir, capsys):
        code, out, _ = run(capsys, "check", "-o", str(ontdir / "empty.riq"),
                           "--sub", "A", "--sup", "B")
        assert code == 1 and "Refuted" in out
        assert '"domain"' in out

    def test_unknown_exit_two(self, ontdir, capsys):
        # every r-successor needs two r-successors outside A: the labels run
        # out before the tree repeats in a way that folds into a model
        (ontdir / "split.riq").write_text(
            "gci: TOP <= only r . (atleast 2 r . not A)\n"
            "gci: TOP <= only r . (A or not A)\n")
        code, out, _ = run(capsys, "check", "-o", str(ontdir / "split.riq"),
                           "--sub", "atleast 1 r . E", "--sup", "(A and not E) or B",
                           "--max-labels", "5")
        assert code == 2 and "Unknown" in out

    def test_endless_chain_is_refuted_by_a_folded_model(self, ontdir, capsys):
        from riq.parser import parse_concept, parse_ontology
        from riq.prover import goal_sequent
        from riq.semantics import falsifies, is_model, model_from_dict

        (ontdir / "loop.riq").write_text("gci: TOP <= some r . A\n")
        path = ontdir / "m.json"
        code, out, _ = run(capsys, "check", "-o", str(ontdir / "loop.riq"),
                           "--sub", "A", "--sup", "B", "--max-labels", "5",
                           "--emit-model", str(path))
        assert code == 1 and "Refuted" in out
        interpretation, assignment = model_from_dict(json.loads(path.read_text()))
        ont = parse_ontology((ontdir / "loop.riq").read_text())
        goal = goal_sequent(ont, parse_concept("A"), parse_concept("B"))
        assert is_model(interpretation, ont)
        assert falsifies(interpretation, assignment, ont, goal)

    def test_emitted_proof_verifies(self, ontdir, capsys):
        proof_path = ontdir / "p.json"
        code, _, _ = run(capsys, "check", "-o", str(ontdir / "ab.riq"),
                         "--sub", "A", "--sup", "B",
                         "--emit-proof", str(proof_path))
        assert code == 0
        code, out, _ = run(capsys, "verify", "--proof", str(proof_path),
                           "-o", str(ontdir / "ab.riq"))
        assert code == 0 and "valid" in out

    def test_prove_alias(self, ontdir, capsys):
        code, out, _ = run(capsys, "prove", "-o", str(ontdir / "ab.riq"),
                           "--sub", "A", "--sup", "B")
        assert code == 0 and "Proved" in out

    def test_deterministic_output(self, ontdir, capsys):
        args = ("check", "-o", str(ontdir / "ria.riq"),
                "--sub", "some r . (A and B)", "--sup", "some s . A")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second


class TestVerify:
    def test_tampered_proof_rejected(self, ontdir, capsys):
        proof_path = ontdir / "p.json"
        run(capsys, "check", "-o", str(ontdir / "ab.riq"),
            "--sub", "A", "--sup", "B", "--emit-proof", str(proof_path))
        data = json.loads(proof_path.read_text())
        for node in data["nodes"]:
            if node["rule"] == "id":
                node["sequent"] = node["sequent"].replace(": A", ": B", 1)
        proof_path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--proof", str(proof_path),
                           "-o", str(ontdir / "ab.riq"))
        assert code == 1 and "INVALID" in out

    def test_invalid_names_the_failing_node(self, ontdir, capsys):
        # (or) at the root, (or) at 0, (id) at 0/0; break the (id) witness
        proof_path = ontdir / "p.json"
        run(capsys, "check", "-o", str(ontdir / "empty.riq"),
            "--sub", "A and B", "--sup", "A", "--emit-proof", str(proof_path))
        data = json.loads(proof_path.read_text())
        assert [node["rule"] for node in data["nodes"]] == ["id", "or", "or"]
        data["nodes"][0]["witness"]["concept"] = "B"
        proof_path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--proof", str(proof_path),
                           "-o", str(ontdir / "empty.riq"))
        assert code == 1 and "INVALID at node 0/0: id: " in out

    def test_deep_proof_round_trips(self, ontdir, capsys):
        # 599 nodes deep: beyond the default recursion limit
        proof_path = ontdir / "p.json"
        big = " or ".join(f"A{i}" for i in range(300))
        code, _, err = run(capsys, "check", "-o", str(ontdir / "empty.riq"),
                           "--sub", big, "--sup", big, "--emit-proof", str(proof_path))
        assert code == 0, err
        code, out, err = run(capsys, "verify", "--proof", str(proof_path),
                             "-o", str(ontdir / "empty.riq"))
        assert code == 0 and "Proof valid" in out, err

    @pytest.mark.parametrize("payload", [
        [1, 2],
        {"format": "riq-proof", "version": 1},
        {"format": "riq-proof", "version": 3, "nodes": [{"rule": "id"}]},
        {"format": "riq-proof", "version": 3,
         "nodes": [{"rule": "id", "sequent": "|- x : A", "premises": [0]}]},
        {"format": "riq-proof", "version": 3,
         "nodes": [{"rule": "id", "sequent": "r ( x ,", "premises": []}]},
    ], ids=["array", "no-nodes", "no-sequent", "premise-not-earlier",
            "sequent-without-turnstile"])
    def test_malformed_proof_is_an_input_error(self, ontdir, capsys, payload):
        proof_path = ontdir / "p.json"
        proof_path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "verify", "--proof", str(proof_path),
                           "-o", str(ontdir / "empty.riq"))
        assert code == 3 and "internal error" not in err


    #: goals whose proofs hold the rules below: (ontology file, sub, sup)
    WITNESS_GOALS = {
        "some": ("ria.riq", "some r . A", "some s . A"),
        "atleast": ("empty.riq", "atleast 2 r . A", "atleast 2 r . A"),
    }

    @pytest.mark.parametrize("goal, rule, field, value", [
        ("some", "exists", "target", []),
        ("some", "forall", "fresh", [[5]]),
        ("atleast", "atmost", "fresh", [[5]]),
        ("atleast", "atleast", "targets", [[5]]),
        ("atleast", "atleast", "paths", [["x0", {}], ["x0", "x2"]]),
        ("atleast", "id_eq", "pair", [["x0"], "x1"]),
    ], ids=["exists-target", "forall-fresh", "atmost-fresh", "atleast-targets",
            "atleast-paths", "id_eq-pair"])
    def test_non_string_witness_label_is_an_input_error(
            self, ontdir, capsys, goal, rule, field, value):
        ontology, sub, sup = self.WITNESS_GOALS[goal]
        proof_path = ontdir / "p.json"
        code, _, _ = run(capsys, "check", "-o", str(ontdir / ontology),
                         "--sub", sub, "--sup", sup, "--emit-proof", str(proof_path))
        assert code == 0
        data = json.loads(proof_path.read_text())
        node = next(node for node in data["nodes"] if node["rule"] == rule)
        node["witness"][field] = value
        proof_path.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", "--proof", str(proof_path),
                           "-o", str(ontdir / ontology))
        assert code == 3 and "internal error" not in err

    def emit_ria_proof(self, ontdir, capsys) -> tuple[Path, dict]:
        """The proof of `some r . A <= some s . A` under `r <= s`; its (exists)
        witness derives r from s in the step [0, "s", "r"]."""
        proof_path = ontdir / "p.json"
        code, _, _ = run(capsys, "check", "-o", str(ontdir / "ria.riq"), "--sub",
                         "some r . A", "--sup", "some s . A", "--emit-proof", str(proof_path))
        assert code == 0
        data = json.loads(proof_path.read_text())
        assert data["version"] == 3
        return proof_path, data

    def verify_edited(self, ontdir, capsys, rule, field, value):
        proof_path, data = self.emit_ria_proof(ontdir, capsys)
        node = next(node for node in data["nodes"] if node["rule"] == rule)
        node["witness"][field] = value
        proof_path.write_text(json.dumps(data))
        return run(capsys, "verify", "--proof", str(proof_path),
                   "-o", str(ontdir / "ria.riq"))

    @pytest.mark.parametrize("fresh", ["x1", "y"])
    def test_a_string_for_a_label_list_is_an_input_error(self, ontdir, capsys, fresh):
        code, out, err = self.verify_edited(ontdir, capsys, "forall", "fresh", fresh)
        assert code == 3 and "INVALID" not in out and "internal error" not in err

    @pytest.mark.parametrize("derivations", [
        [[0, "s", "r"]],
        [[[-1, "s", "r"]]],
        [[["0", "s", "r"]]],
        [[[True, "s", "r"]]],
        [[[0, "s"]]],
        [[[0, "s", ["r"]]]],
        [[[0, "s", "r s"]]],
        "0 s r",
    ], ids=["step-not-a-list", "negative-position", "string-position", "bool-position",
            "no-rhs", "nested-role", "role-not-a-name", "not-a-list"])
    def test_malformed_derivation_step_is_an_input_error(self, ontdir, capsys,
                                                         derivations):
        code, out, err = self.verify_edited(ontdir, capsys, "exists", "derivations",
                                            derivations)
        assert code == 3 and "INVALID" not in out and "internal error" not in err

    @pytest.mark.parametrize("field, value, reason", [
        ("derivations", [[[1, "s", "r"]]], "position 1 is outside the string"),
        ("derivations", [[[0, "s", "t"]]], "s -> t is not in the R-system"),
        ("derivations", [[[0, "r", "s"]]], "r -> s does not rewrite s"),
        ("derivations", [[]], "missing propagation edge x0 -s-> x1"),
        ("paths", [["x0", "x1", "x0"]], "path length does not match"),
    ], ids=["position-out-of-range", "production-not-in-rsystem", "lhs-mismatch",
            "labels-differ-from-string", "path-too-long"])
    def test_tampered_derivation_is_invalid(self, ontdir, capsys, field, value, reason):
        code, out, _ = self.verify_edited(ontdir, capsys, "exists", field, value)
        assert code == 1 and "Proof INVALID at node 0/0: exists: " in out and reason in out

    def test_an_exists_node_without_its_witness_is_invalid(self, ontdir, capsys):
        """The search derives propagation witnesses for the nodes of a
        returned proof only; the checker still requires one of every
        (exists) node it reads."""
        proof_path, data = self.emit_ria_proof(ontdir, capsys)
        node = next(node for node in data["nodes"] if node["rule"] == "exists")
        assert node["witness"]["paths"] and node["witness"]["derivations"]
        node["witness"]["paths"] = node["witness"]["derivations"] = []
        proof_path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--proof", str(proof_path),
                             "-o", str(ontdir / "ria.riq"))
        assert code == 1 and "internal error" not in err
        assert "Proof INVALID at node 0/0: exists: (exists) needs exactly one " \
            "propagation witness" in out

    def test_a_version_2_file_is_an_input_error(self, ontdir, capsys):
        proof_path = ontdir / "p.json"
        proof_path.write_text(V2_PROOF)
        code, _, err = run(capsys, "verify", "--proof", str(proof_path),
                           "-o", str(ontdir / "ria.riq"))
        assert code == 3 and "version 3" in err


#: `riq check --emit-proof` of `some r . A <= some s . A` under `r <= s`, as
#: `riq-proof` version 2 wrote it: every derivation step a whole string
V2_PROOF = json.dumps({"format": "riq-proof", "version": 2, "nodes": [
    {"rule": "id", "sequent": "r(x0,x1) |- x1 : not A, x0 : some s . A, x1 : A",
     "witness": {"label": "x1", "concept": "A"}, "premises": []},
    {"rule": "exists", "sequent": "r(x0,x1) |- x1 : not A, x0 : some s . A",
     "witness": {"label": "x0", "concept": "some s . A", "target": "x1",
                 "strings": [["r"]], "paths": [["x0", "x1"]],
                 "derivations": [[["s"], ["r"]]]}, "premises": [0]},
    {"rule": "forall", "sequent": "|- x0 : only r . not A, x0 : some s . A",
     "witness": {"label": "x0", "concept": "only r . not A", "fresh": ["x1"]},
     "premises": [1]},
    {"rule": "or", "sequent": "|- x0 : (only r . not A) or some s . A",
     "witness": {"label": "x0", "concept": "(only r . not A) or some s . A"},
     "premises": [2]}]})


class TestModel:
    def test_countermodel_printed(self, ontdir, capsys):
        code, out, _ = run(capsys, "model", "-o", str(ontdir / "empty.riq"),
                           "--goal", "A <= B", "--max-domain", "2")
        assert code == 1
        assert json.loads(out)["concepts"]["A"]

    def test_none_up_to_bound(self, ontdir, capsys):
        code, out, _ = run(capsys, "model", "-o", str(ontdir / "ab.riq"),
                           "--goal", "A <= B")
        assert code == 2 and "none up to 3" in out

    def test_emitted_model_falsifies(self, ontdir, capsys):
        from riq.parser import parse_concept, parse_ontology
        from riq.prover import goal_sequent
        from riq.semantics import falsifies, model_from_dict

        path = ontdir / "m.json"
        code, _, _ = run(capsys, "model", "-o", str(ontdir / "empty.riq"),
                         "--goal", "A <= B", "--emit-model", str(path))
        assert code == 1
        interpretation, assignment = model_from_dict(json.loads(path.read_text()))
        ont = parse_ontology((ontdir / "empty.riq").read_text())
        goal = goal_sequent(ont, parse_concept("A"), parse_concept("B"))
        assert falsifies(interpretation, assignment, ont, goal)


class TestHashSeed:
    """Sets of interpolant members, atoms and concepts iterate in an order
    that follows Python's string hashing; nothing printed or emitted may."""

    LEFT = "gci: A <= some r . B\ngci: B <= only r . B\n"
    RIGHT = "gci: some r . B <= E\ngci: E <= B\n"
    DEFINED = ("gci: A <= B and some r . E\ngci: B and some r . E <= A\n"
               "gci: E <= only r . E\ngci: E <= not B\n")
    LIMITS = ("--max-steps", "1500", "--max-labels", "40")

    #: three constraint cycles through a: a <-> b, a <-> c and a -> d -> e -> a
    THREE_CYCLES = "".join(f"ria: {s} <= {r}\n" for s, r in (
        ("a", "b"), ("b", "a"), ("a", "c"), ("c", "a"), ("a", "d"), ("d", "e"), ("e", "a")))

    @staticmethod
    def _cli(workdir: Path, seed: str, *argv: str) -> str:
        src = str(Path(riq.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-m", "riq.cli", *argv],
                              cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def _run(self, workdir: Path, seed: str):
        workdir.mkdir()
        for name, text in (("left", self.LEFT), ("right", self.RIGHT),
                           ("defined", self.DEFINED)):
            (workdir / f"{name}.riq").write_text(text)
        outputs = []
        for argv in (("interpolate", "--o1", "left.riq", "--o2", "right.riq",
                      "--sub", "A and (some r . A)", "--sup", "E or (only r . E)",
                      "--emit-interp", "interpolant.json"),
                     ("define", "-o", "defined.riq", "--concept", "A or (only r . B)",
                      "--theta", "B,E", "--emit-def", "definition.txt",
                      "--emit-proofs", "proofs")):
            outputs.append(self._cli(workdir, seed, *argv, *self.LIMITS))
        emitted = {str(p.relative_to(workdir)): p.read_bytes()
                   for p in sorted(workdir.rglob("*")) if p.is_file() and p.suffix != ".riq"}
        assert len(emitted) == 6  # interpolant, definition and four proofs
        return outputs, emitted

    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path):
        assert self._run(tmp_path / "seed0", "0") == self._run(tmp_path / "seed1", "1")

    def test_regularity_report_does_not_depend_on_the_hash_seed(self, tmp_path):
        (tmp_path / "cycles.riq").write_text(self.THREE_CYCLES)
        outputs = {self._cli(tmp_path, seed, "info", "-o", "cycles.riq")
                   for seed in "0123"}
        assert len(outputs) == 1
        assert "regular rbox: NO (constraint cycle through a, b)\n" in outputs.pop()


class TestInterpolateAndDefine:
    def test_interpolate_emits_valid_artifact(self, ontdir, capsys):
        from riq.interpolation import interpolant_from_json

        path = ontdir / "g.json"
        code, out, _ = run(capsys, "interpolate",
                           "--o1", str(ontdir / "ab.riq"),
                           "--o2", str(ontdir / "empty.riq"),
                           "--sub", "A", "--sup", "B or E",
                           "--emit-interp", str(path))
        assert code == 0 and "Interpolant: B" in out
        interpolant_from_json(path.read_text())

    def test_interpolate_refuted(self, ontdir, capsys):
        code, out, _ = run(capsys, "interpolate",
                           "--o1", str(ontdir / "empty.riq"),
                           "--o2", str(ontdir / "empty.riq"),
                           "--sub", "A", "--sup", "B")
        assert code == 1 and "Refuted" in out

    def test_define_end_to_end(self, ontdir, capsys):
        outdir = ontdir / "proofs"
        deffile = ontdir / "def.txt"
        code, out, _ = run(capsys, "define", "-o", str(ontdir / "eq.riq"),
                           "--concept", "A", "--theta", "B",
                           "--emit-def", str(deffile),
                           "--emit-proofs", str(outdir))
        assert code == 0 and "Definition: B" in out
        assert deffile.read_text().strip() == "B"
        emitted = sorted(p.name for p in outdir.iterdir())
        assert "implicit.json" in emitted and "interpolation.json" in emitted

    def test_emitted_define_proofs_verify(self, ontdir, capsys):
        outdir = ontdir / "proofs2"
        run(capsys, "define", "-o", str(ontdir / "eq.riq"),
            "--concept", "A", "--theta", "B", "--emit-proofs", str(outdir))
        from riq.core import union_ontology
        from riq.definability import rename_outside_theta
        from riq.parser import parse_concept, parse_ontology
        from riq.sequent import check_proof, proof_from_json

        ont = parse_ontology((ontdir / "eq.riq").read_text())
        o_theta, _, _ = rename_outside_theta(ont, parse_concept("A"), ["B"])
        union = union_ontology(ont, o_theta)
        proof = proof_from_json((outdir / "implicit.json").read_text())
        assert check_proof(union, proof).ok
        proof = proof_from_json((outdir / "forward.json").read_text())
        assert check_proof(ont, proof).ok

    def test_define_not_definable(self, ontdir, capsys):
        code, out, _ = run(capsys, "define", "-o", str(ontdir / "empty.riq"),
                           "--concept", "A", "--theta", "B")
        assert code == 3  # theta name outside the signature: input error

    def test_define_refuted(self, ontdir, capsys):
        code, out, _ = run(capsys, "define", "-o", str(ontdir / "ab.riq"),
                           "--concept", "A", "--theta", "B")
        assert code == 1 and "Not implicitly definable" in out

    def test_define_unknown_prints_the_reason(self, ontdir, capsys):
        code, out, _ = run(capsys, "define", "-o", str(ontdir / "eq.riq"),
                           "--concept", "A", "--theta", "B", "--max-steps", "1")
        assert code == 2
        assert out == "Unknown: step limit reached\n"

    def test_interpolate_inconclusive_verification_exit_two(self, ontdir, capsys):
        (ontdir / "o1.riq").write_text("gci: TOP <= some r . (not B or A)\n")
        (ontdir / "o2.riq").write_text(
            "ria: r o r <= r\ngci: TOP <= some r . only r . not B\n")
        code, out, _ = run(capsys, "interpolate",
                           "--o1", str(ontdir / "o1.riq"),
                           "--o2", str(ontdir / "o2.riq"),
                           "--sub", "(some r . not A) and only r . A",
                           "--sup", "some r . (not B or not B)",
                           "--max-steps", "45", "--max-labels", "40")
        assert code == 2
        assert out.startswith("Unknown: interpolant verification: step limit reached")
        assert "  subsumee <= interpolant: Unknown" in out
        assert "Interpolant:" not in out

    def test_define_without_interpolant_verification(self, ontdir, capsys):
        # define verifies only the definition under the ontology, not the
        # interpolant over the union: A is unsatisfiable here, so BOT
        # defines it from no names at all
        (ontdir / "bot.riq").write_text(
            "gci: TOP <= (atleast 2 r- . not A) and only r . not A\n")
        code, out, _ = run(capsys, "define", "-o", str(ontdir / "bot.riq"),
                           "--concept", "A", "--theta", "",
                           "--max-steps", "200", "--max-labels", "20")
        assert code == 0
        assert out.startswith("Definition: ")

    def test_define_inconclusive_definition_exit_two(self, ontdir, capsys,
                                                     monkeypatch):
        from riq import definability
        from riq.prover import SearchLimits

        verify = definability.verify_definition
        monkeypatch.setattr(
            definability, "verify_definition",
            lambda o, c, d, theta, limits: verify(o, c, d, theta,
                                                  SearchLimits(max_steps=1)))
        code, out, _ = run(capsys, "define", "-o", str(ontdir / "eq.riq"),
                           "--concept", "A", "--theta", "B")
        assert code == 2
        assert out.startswith("Unknown: definition verification: step limit reached")
        assert "  concept <= definition: Unknown" in out
        assert "Definition:" not in out


class TestInfo:
    def test_productions_and_reach(self, ontdir, capsys):
        (ontdir / "comp.riq").write_text("ria: r o s <= t\n")
        code, out, _ = run(capsys, "info", "-o", str(ontdir / "comp.riq"),
                           "--sequent", "r(x,y), s(y,z) |- x : some t . A")
        assert code == 0
        assert "t -> r s" in out
        assert "t- -> s- r-" in out
        assert "({x} -> {z})" in out

    def test_reach_table_of_an_inverse_role_sequent(self, ontdir, capsys):
        # every role is listed with its inverse, whose pairs are the transpose
        (ontdir / "inv.riq").write_text("ria: s- o r <= t\n")
        code, out, _ = run(capsys, "info", "-o", str(ontdir / "inv.riq"),
                           "--sequent", "s-(x,y), r(y,z) |- x : some t . A")
        assert code == 0
        assert out.split("productions:\n")[1] == (
            "  t -> s- r\n"
            "  t- -> r- s\n"
            "sequent: s-(x,y), r(y,z) |- x : some t . A\n"
            "propagation nodes: {x}; {y}; {z}\n"
            "reach table:\n"
            "  r: ({y} -> {z})\n"
            "  r-: ({z} -> {y})\n"
            "  s: ({y} -> {x})\n"
            "  s-: ({x} -> {y})\n"
            "  t: ({x} -> {z})\n"
            "  t-: ({z} -> {x})\n")

    def test_an_equality_class_is_one_node(self, ontdir, capsys):
        # z = w merges two r-successors: one node, rendered as its sorted class
        code, out, _ = run(capsys, "info", "-o", str(ontdir / "empty.riq"),
                           "--sequent", "r(x,y), r(x,z), r(x,w), z = w |- x : atleast 2 r . C")
        assert code == 0
        assert out.split("productions:\n")[1] == (
            "  (none)\n"
            "sequent: r(x,y), r(x,z), r(x,w), z = w |- x : atleast 2 r . C\n"
            "propagation nodes: {x}; {y}; {w, z}\n"
            "reach table:\n"
            "  r: ({x} -> {w, z}), ({x} -> {y})\n"
            "  r-: ({w, z} -> {x}), ({y} -> {x})\n")

    def test_a_sequent_without_atoms_has_its_label_as_node(self, ontdir, capsys):
        code, out, _ = run(capsys, "info", "-o", str(ontdir / "empty.riq"),
                           "--sequent", "|- x : A")
        assert code == 0
        assert out.split("productions:\n")[1] == (
            "  (none)\n"
            "sequent: |- x : A\n"
            "propagation nodes: {x}\n"
            "reach table:\n"
            "  (empty)\n")

    def test_truncated_sequent_is_a_parse_error(self, ontdir, capsys):
        code, _, err = run(capsys, "info", "-o", str(ontdir / "empty.riq"),
                           "--sequent", "r ( x ,")
        assert code == 3 and "error: expected ')', found ''" in err
        assert "internal error" not in err

    def test_usage_error_exit_above_two(self, capsys):
        assert main(["check", "--sub", "A"]) == 3
        capsys.readouterr()


class TestLimits:
    @pytest.mark.parametrize("argv", [
        ("check", "--sub", "A", "--sup", "B", "--max-steps", "0"),
        ("check", "--sub", "A", "--sup", "B", "--max-labels", "0"),
        ("check", "--sub", "A", "--sup", "B", "--max-seconds", "-1"),
        ("check", "--sub", "A", "--sup", "B", "--max-steps", "abc"),
        ("model", "--goal", "A <= B", "--max-domain", "0"),
        ("model", "--goal", "A and C and D <= E", "--samples", "0"),
        ("model", "--goal", "A and C and D <= E", "--samples", "-5"),
    ], ids=["max-steps", "max-labels", "max-seconds", "max-steps-text", "max-domain",
            "samples-zero", "samples-negative"])
    def test_a_limit_that_is_not_positive_is_a_usage_error(self, ontdir, capsys, argv):
        code, out, err = run(capsys, argv[0], "-o", str(ontdir / "ab.riq"), *argv[1:])
        assert code == 3 and not out
        assert f"argument {argv[-2]}: expected a positive integer" in err
        assert "internal error" not in err


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "-o", "/nonexistent.riq",
                           "--sub", "A", "--sup", "B")
        assert code == 3 and "error" in err

    def test_parse_error(self, ontdir, capsys):
        (ontdir / "bad.riq").write_text("gci: A <=\n")
        code, _, err = run(capsys, "check", "-o", str(ontdir / "bad.riq"),
                           "--sub", "A", "--sup", "B")
        assert code == 3 and "error" in err

    def test_parse_error_column_counts_from_the_line_start(self, ontdir, capsys):
        (ontdir / "bad.riq").write_text("gci: A <= B\ngci: A <= B <= C\n")
        code, _, err = run(capsys, "check", "-o", str(ontdir / "bad.riq"),
                           "--sub", "A", "--sup", "B")
        assert code == 3 and "line 2, column 13" in err, err

    @pytest.mark.parametrize("sub", ["(" * 600 + "A" + ")" * 600,
                                     "some r . " * 400 + "A"],
                             ids=["parentheses", "existentials"])
    def test_deep_nesting_is_answered(self, ontdir, capsys, sub):
        # nesting depth is bounded by memory, not by the recursion limit
        code, out, err = run(capsys, "check", "-o", str(ontdir / "empty.riq"),
                             "--sub", sub, "--sup", "A")
        assert code in (0, 1, 2) and not err, err
        assert out.startswith(("Proved", "Refuted", "Unknown"))
