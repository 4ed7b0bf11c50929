"""CLI tests for ``flexminer check-plan`` and ``flexminer lint``.

Pins the exit-code contract both commands share:

* 0 — analysis ran, no error-severity findings (warnings are fine);
* 1 — analysis ran and found errors;
* 2 — usage error (unknown pattern, missing path, no targets).
"""

import json
import os

import pytest

from repro.cli import main
from repro.compiler import compile_pattern, emit_ir
from repro.patterns import four_cycle

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


class TestCheckPlan:
    def test_clean_patterns_exit_zero(self, capsys):
        assert main(["check-plan", "triangle", "4-cycle"]) == 0
        out = capsys.readouterr().out
        assert "plan:triangle" in out
        assert "clean" in out
        assert "2 plan(s), 0 error(s)" in out

    def test_obligations_printed_without_routing(self, capsys):
        # Every plan walks, the edge included: the proof block lists the
        # walker's obligations and no batch/recursive decision, and the
        # opt-in that reported routing is gone.
        assert main(["check-plan", "edge"]) == 0
        out = capsys.readouterr().out
        assert "  walker: row-limit=" in out
        for code in ("FM172", "FM173", "FM174"):
            assert f"    {code} " in out, code
        assert "decision=" not in out
        with pytest.raises(SystemExit) as exc:
            main(["check-plan", "edge", "--batch-frontier"])
        assert exc.value.code == 2

    def test_ir_file_target(self, tmp_path, capsys):
        ir = tmp_path / "plan.ir"
        ir.write_text(emit_ir(compile_pattern(four_cycle())))
        assert main(["check-plan", str(ir)]) == 0
        assert "plan:4-cycle" in capsys.readouterr().out

    def test_broken_ir_exits_one(self, tmp_path, capsys):
        # Hand-edit the IR the way the paper's Listing 1 tempts you to:
        # drop the symmetry bounds.  The verifier must reject it.
        text = emit_ir(compile_pattern(four_cycle()))
        text = text.replace("pruneBy(v0, {})", "pruneBy(inf, {})")
        text = text.replace("pruneBy(v1, {})", "pruneBy(inf, {})")
        text = text.replace("pruneBy(v0, {v1})", "pruneBy(inf, {v1})")
        ir = tmp_path / "broken.ir"
        ir.write_text(text)
        assert main(["check-plan", str(ir)]) == 1
        out = capsys.readouterr().out
        assert "FM110" in out

    def test_unknown_pattern_exits_two(self, capsys):
        assert main(["check-plan", "octagon-of-doom"]) == 2
        assert "neither a file nor" in capsys.readouterr().err

    def test_no_targets_exits_two(self, capsys):
        assert main(["check-plan"]) == 2
        assert "give pattern names" in capsys.readouterr().err

    def test_missing_corpus_exits_two(self, capsys):
        assert main(["check-plan", "--corpus", "no/such/dir"]) == 2
        assert "check-plan:" in capsys.readouterr().err

    def test_corpus_is_statically_clean(self, capsys):
        assert main(["check-plan", "--corpus", CORPUS_DIR]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_json_envelope(self, capsys):
        assert main(["check-plan", "triangle", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "analysis"
        body = payload["data"]
        assert body["subject"] == "check-plan"
        assert body["ok"] is True
        assert body["errors"] == 0
        assert body["data"]["subjects"] == ["plan:triangle"]

    def test_json_findings_carry_codes(self, tmp_path, capsys):
        text = emit_ir(compile_pattern(four_cycle()))
        text = text.replace("pruneBy(v0, {})", "pruneBy(inf, {})")
        text = text.replace("pruneBy(v1, {})", "pruneBy(inf, {})")
        text = text.replace("pruneBy(v0, {v1})", "pruneBy(inf, {v1})")
        ir = tmp_path / "broken.ir"
        ir.write_text(text)
        assert main(["check-plan", str(ir), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        findings = payload["data"]["findings"]
        assert [f["code"] for f in findings] == ["FM110"]
        assert findings[0]["severity"] == "error"
        assert findings[0]["hint"]


class TestLint:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        mod = tmp_path / "clean.py"
        mod.write_text("x = 1\n")
        assert main(["lint", str(mod)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        mod = tmp_path / "hw" / "bad.py"
        mod.parent.mkdir()
        mod.write_text("import time\n\nt = time.time()\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FM205" in out
        assert "bad.py:3" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "no/such/path.py"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_default_paths_lint_the_package(self, capsys):
        # From a checkout this walks src/repro; the tree ships clean.
        assert main(["lint"]) == 0

    def test_json_envelope(self, tmp_path, capsys):
        mod = tmp_path / "hw" / "bad.py"
        mod.parent.mkdir()
        mod.write_text("import random\n\nr = random.random()\n")
        assert main(["lint", str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "analysis"
        body = payload["data"]
        assert body["ok"] is False
        assert [f["code"] for f in body["findings"]] == ["FM205"]
        assert body["data"]["files"] == 1
