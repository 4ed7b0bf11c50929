"""Smoke self-test of the e2e benchmark (tiny tiers, whole set < 30 s).

Run explicitly -- tier-1's ``testpaths`` stay ``tests``::

    python -m pytest benchmarks/e2e -q
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.abspath(os.path.join(HERE, "..", ".."))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import battery  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 3


@pytest.fixture(scope="module")
def contract():
    return run.load_contract()


def session_members(sid):
    """Pids of the processes (zombies too) still in session ``sid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                # After "pid (comm)": state ppid pgrp session ...
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            out.append(int(entry))
    return out


@pytest.fixture(scope="module")
def smoke(tmp_path_factory, contract):
    """Every workload once untraced and once traced, at smoke size; no
    run may leave a process behind (the traced run's shared memory
    starts multiprocessing's resource tracker, which outlives a parent
    that does not stop it)."""
    workdir = str(tmp_path_factory.mktemp("e2e"))
    results = {}
    for workload in contract["workloads"]:
        for trace in (0, 1):
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload["name"], "--seed", str(SEED),
                 "--smoke", "--trace", str(trace), "--workdir", workdir],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                start_new_session=True,
            )
            out, err = proc.communicate()
            assert session_members(proc.pid) == []
            assert proc.returncode == 0, out + err
            assert "CHECKS OK" in out
            last = out.strip().split("\n")[-1]
            results[workload["name"], trace] = json.loads(last)
    return workdir, results


def test_contract_is_well_formed(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(contract["workloads"]) <= 8
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in contract["end_to_end"])


def test_full_metric_by_workload_grid(contract, smoke):
    _, results = smoke
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in contract[key]}
        for workload in contract["workloads"]:
            result = results[workload["name"], trace]
            assert set(result) == {
                "correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True
            assert result["failed"] == 0 and result["attempted"] >= 1
            assert set(result["metrics"]) == set(declared)
            for name, metric in result["metrics"].items():
                assert metric["unit"] == declared[name]
                assert math.isfinite(metric["value"]), name
                if trace == 0:
                    assert metric["value"] > 0, name


def test_trace_spans_form_a_tree(contract, smoke):
    workdir, _ = smoke
    for workload in contract["workloads"]:
        tag = f"{workload['name']}-s{SEED}"
        with open(os.path.join(workdir, "out", f"trace-{tag}.json")) as f:
            events = json.load(f)["traceEvents"]
        ids = {e["args"]["id"] for e in events}
        roots = [e for e in events if e["args"]["parent"] is None]
        assert [e["name"] for e in roots] == ["workload"]
        for event in events:
            assert event["args"]["workload"] == workload["name"]
            assert event["dur"] >= 0
            parent = event["args"]["parent"]
            assert parent is None or parent in ids
        names = {e["name"] for e in events}
        assert {"setup", "load", "orient", "compile", "register", "mine",
                "cell", "construct", "run", "simulate", "request",
                "cli"} <= names
        with open(os.path.join(workdir, "out", f"layers-{tag}.json")) as f:
            self_times = json.load(f)["self_time_s"]
        assert all(seconds >= -1e-9 for seconds in self_times.values())


def test_injected_wrong_count_is_a_failed_operation(
    smoke, monkeypatch, capsys
):
    workdir, _ = smoke
    real = battery.run_app

    def off_by_one(graph, **kwargs):
        result = real(graph, **kwargs)
        if kwargs.get("batch_frontier"):
            result.counts = tuple(c + 1 for c in result.counts)
        return result

    monkeypatch.setattr(battery, "run_app", off_by_one)
    code = run.main(["--workload", "sl-wide", "--seed", str(SEED),
                     "--smoke", "--trace", "0", "--workdir", workdir])
    out = capsys.readouterr().out.strip().split("\n")
    result = json.loads(out[-1])
    assert code == 1
    assert "CHECKS FAILED" in out
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
