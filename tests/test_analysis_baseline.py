"""Tests for finding baselines (repro.analysis.baseline) and SARIF
export (repro.analysis.sarif), plus their ``flexminer lint`` wiring.

The baseline contract: recorded findings stop gating, new findings
still gate, and a recorded finding that disappears turns into an FM299
*error* — stale suppressions are debt that must be deleted, not
ballast the gate quietly carries forever.
"""

import json
import os

import pytest

from repro.analysis import (
    AnalysisReport,
    apply_baseline,
    baseline_from_report,
    lint_source,
    load_baseline,
    save_baseline,
    to_sarif,
)
from repro.cli import main

LEAKY = (
    "def leak(n):\n"
    "    shm = SharedMemory(create=True, size=n)\n"
    "    return None\n"
)


def leaky_report():
    rep = AnalysisReport(subject="fmlint:test")
    rep.extend(lint_source(LEAKY, path="src/repro/engine/leaky.py"))
    assert rep.findings  # FM204 + FM300
    return rep


class TestBaseline:
    def test_round_trip(self, tmp_path):
        rep = leaky_report()
        base = baseline_from_report(rep)
        path = str(tmp_path / "baseline.json")
        save_baseline(path, base)
        loaded = load_baseline(path)
        assert loaded.entries == base.entries
        assert len(loaded) == len(rep.findings)

    def test_recorded_findings_stop_gating(self):
        rep = leaky_report()
        base = baseline_from_report(rep)
        filtered = apply_baseline(rep, base)
        assert filtered.findings == []
        assert filtered.ok
        assert filtered.data["baseline"]["suppressed"] == len(rep.findings)
        assert filtered.data["baseline"]["stale"] == 0

    def test_new_findings_still_gate(self):
        base = baseline_from_report(AnalysisReport(subject="empty"))
        rep = leaky_report()
        filtered = apply_baseline(rep, base)
        assert [d.code for d in filtered.findings] == [
            d.code for d in rep.findings
        ]
        assert not filtered.ok

    def test_stale_entry_fails_as_fm299(self):
        rep = leaky_report()
        base = baseline_from_report(rep)
        clean = AnalysisReport(subject="fmlint:test")
        filtered = apply_baseline(clean, base)
        assert {d.code for d in filtered.findings} == {"FM299"}
        assert not filtered.ok
        assert filtered.data["baseline"]["stale"] == len(rep.findings)

    def test_fingerprint_ignores_line_drift(self):
        rep = leaky_report()
        base = baseline_from_report(rep)
        shifted = AnalysisReport(subject="fmlint:test")
        shifted.extend(
            lint_source("\n\n" + LEAKY, path="src/repro/engine/leaky.py")
        )
        filtered = apply_baseline(shifted, base)
        assert filtered.findings == []

    def test_duplicate_findings_counted_not_collapsed(self):
        double = LEAKY + LEAKY.replace("def leak", "def leak2")
        rep = AnalysisReport(subject="fmlint:test")
        rep.extend(lint_source(double, path="src/repro/engine/leaky.py"))
        base = baseline_from_report(rep)
        # the same multiset passes...
        assert apply_baseline(rep, base).findings == []
        # ...but one occurrence fewer turns the spare entries stale
        single = AnalysisReport(subject="fmlint:test")
        single.extend(lint_source(LEAKY, path="src/repro/engine/leaky.py"))
        filtered = apply_baseline(single, base)
        assert {d.code for d in filtered.findings} == {"FM299"}

    def test_bad_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_baseline(str(path))


class TestSarif:
    def test_minimal_valid_shape(self):
        log = to_sarif(leaky_report(), tool_version="1.2.3")
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "flexminer-lint"
        assert driver["version"] == "1.2.3"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert "FM300" in rule_ids

    def test_results_reference_rules_and_locations(self):
        log = to_sarif(leaky_report())
        (run,) = log["runs"]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        for result in run["results"]:
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            assert result["level"] in ("error", "warning", "note")
            (loc,) = result["locations"]
            phys = loc["physicalLocation"]
            assert phys["artifactLocation"]["uri"] == (
                "src/repro/engine/leaky.py"
            )
            assert phys["region"]["startLine"] >= 1

    def test_severity_level_mapping(self):
        rep = AnalysisReport(subject="s")
        rep.add("FM300", "e", location="a/b.py:1")
        rep.add("FM303", "w", location="a/b.py:2")  # warning severity
        rep.add("FM174", "i", severity="info")  # no physical location
        log = to_sarif(rep)
        levels = [r["level"] for r in log["runs"][0]["results"]]
        assert levels == ["error", "warning", "note"]
        assert "locations" not in log["runs"][0]["results"][2]

    def test_empty_report(self):
        log = to_sarif(AnalysisReport(subject="s"))
        (run,) = log["runs"]
        assert run["results"] == []
        assert run["tool"]["driver"]["rules"] == []


class TestLintCli:
    def _leaky_tree(self, tmp_path):
        pkg = tmp_path / "engine"
        pkg.mkdir()
        (pkg / "leaky.py").write_text(LEAKY)
        return str(tmp_path)

    def test_update_then_pass(self, tmp_path, capsys):
        tree = self._leaky_tree(tmp_path)
        baseline = str(tmp_path / "baseline.json")
        assert main(["lint", tree]) == 1  # gate fails without baseline
        assert main(["lint", tree, "--update-baseline", baseline]) == 0
        assert main(["lint", tree, "--baseline", baseline]) == 0

    def test_stale_baseline_fails(self, tmp_path, capsys):
        tree = self._leaky_tree(tmp_path)
        baseline = str(tmp_path / "baseline.json")
        assert main(["lint", tree, "--update-baseline", baseline]) == 0
        os.remove(os.path.join(tree, "engine", "leaky.py"))
        (tmp_path / "engine" / "clean.py").write_text("x = 1\n")
        assert main(["lint", tree, "--baseline", baseline]) == 1
        assert "FM299" in capsys.readouterr().out

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        tree = self._leaky_tree(tmp_path)
        assert main(["lint", tree, "--baseline", "no/such.json"]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_format_sarif(self, tmp_path, capsys):
        tree = self._leaky_tree(tmp_path)
        assert main(["lint", tree, "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"]

    def test_format_json_matches_json_flag(self, tmp_path, capsys):
        tree = self._leaky_tree(tmp_path)
        assert main(["lint", tree, "--format", "json"]) == 1
        via_format = json.loads(capsys.readouterr().out)
        assert main(["lint", tree, "--json"]) == 1
        via_flag = json.loads(capsys.readouterr().out)
        assert via_format["data"]["findings"] == via_flag["data"]["findings"]

    def test_checked_in_baseline_is_current(self):
        # The committed baseline must stay in sync with the tree: zero
        # entries while the tree lints clean, and never stale.
        repo_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        path = os.path.join(repo_root, "analysis-baseline.json")
        assert os.path.exists(path)
        baseline = load_baseline(path)
        assert len(baseline) == 0
