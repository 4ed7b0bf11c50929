"""Observability threaded through the stack: the no-drift guarantee,
trace well-formedness, report round trips, harness telemetry, and the
CLI acceptance path (``sim --trace --emit-json``, ``stats``)."""

import json
import os

import pytest

from repro.bench import Harness
from repro.cli import main
from repro.compiler import compile_pattern
from repro.engine import OpCounters, PatternAwareEngine
from repro.graph import load_dataset
from repro.hw import FlexMinerConfig, SimReport, simulate
from repro.obs import MetricsRegistry, Tracer, validate_trace
from repro.obs.trace import SIM_PID
from repro.patterns import four_cycle, triangle


def _zero_report(**overrides):
    base = dict(
        counts=(0,), cycles=0.0, seconds=0.0, num_pes=4,
        busy_cycles=0.0, stall_cycles=0.0, pruner_cycles=0.0,
        setop_cycles=0.0, cmap_cycles=0.0, noc_requests=0,
        dram_accesses=0, l2_hits=0, l2_misses=0, private_hits=0,
        private_misses=0, cmap_reads=0, cmap_writes=0, cmap_overflows=0,
        cmap_fallbacks=0, frontier_reads=0, tasks=0,
    )
    base.update(overrides)
    return SimReport(**base)


class TestSimReportDerived:
    def test_zero_denominators_are_finite(self):
        report = _zero_report()
        assert report.l2_miss_rate == 0.0
        assert report.l2_hit_rate == 0.0
        assert report.private_hit_rate == 0.0
        assert report.private_miss_rate == 0.0
        assert report.cmap_read_ratio == 0.0
        assert report.memory_bound_fraction == 0.0
        assert report.load_imbalance == 1.0  # no PEs: call it balanced
        assert report.speedup_over(1.0) == 0.0

    def test_hit_and_miss_rates_sum_to_one(self):
        report = _zero_report(
            l2_hits=3, l2_misses=1, private_hits=9, private_misses=1
        )
        assert report.l2_hit_rate + report.l2_miss_rate == pytest.approx(1.0)
        assert report.l2_hit_rate == pytest.approx(0.75)
        assert (
            report.private_hit_rate + report.private_miss_rate
            == pytest.approx(1.0)
        )

    def test_as_dict_round_trip(self):
        report = _zero_report(
            counts=(7,), cycles=123.5, l2_hits=4, l2_misses=4,
            per_pe_cycles=[100.0, 123.5], extras={"x": 1.0},
        )
        data = json.loads(report.to_json())
        assert data["counts"] == [7]
        assert data["derived"]["l2_hit_rate"] == 0.5
        rebuilt = SimReport.from_dict(data)
        assert rebuilt == report
        assert rebuilt.counts == (7,)  # tuple restored


class TestOpCounters:
    def test_iadd(self):
        a = OpCounters(tasks=1, matches=2)
        a += OpCounters(tasks=3, setop_iterations=5)
        assert (a.tasks, a.matches, a.setop_iterations) == (4, 2, 5)

    def test_diff_against_snapshot(self):
        c = OpCounters(tasks=2, matches=10)
        before = c.copy()
        c.tasks += 3
        c.matches += 1
        delta = c.diff(before)
        assert (delta.tasks, delta.matches) == (3, 1)
        assert delta.setop_iterations == 0
        # snapshot is independent of the live counters
        assert before.tasks == 2


@pytest.fixture(scope="module")
def graph():
    return load_dataset("As")


@pytest.fixture(scope="module")
def plan():
    return compile_pattern(triangle())


class TestNoDrift:
    """Tracing on must be bit-identical to tracing off."""

    def test_sim_identical_with_and_without_tracer(self, graph, plan):
        config = FlexMinerConfig(num_pes=4)
        plain = simulate(graph, plan, config)
        tracer = Tracer()
        metrics = MetricsRegistry()
        traced = simulate(graph, plan, config, tracer=tracer,
                          metrics=metrics)
        assert traced.as_dict() == plain.as_dict()
        assert traced.counts == plain.counts
        assert traced.cycles == plain.cycles
        assert len(tracer) > 0
        assert metrics.snapshot()["sim.cycles"] == plain.cycles

    def test_cmap_overflow_instants_identical_across_timing_kernels(
        self, graph
    ):
        # The batched c-map kernels compute occupancy/probe statistics
        # once per insert instead of per key; the rare-incident trace
        # instants (overflows) must still fire at the same cycle
        # timestamps with the same payloads as the legacy loops.
        plan = compile_pattern(four_cycle())
        configs = {
            kernels: FlexMinerConfig(
                num_pes=2, cmap_bytes=64, timing_kernels=kernels
            )
            for kernels in (False, True)
        }
        events = {}
        reports = {}
        for kernels, config in configs.items():
            tracer = Tracer()
            reports[kernels] = simulate(graph, plan, config, tracer=tracer)
            events[kernels] = [
                (e["ts"], e["args"])
                for e in tracer.events()
                if e["name"] == "cmap-overflow"
            ]
        assert events[True], "workload never overflowed the tiny c-map"
        assert events[True] == events[False]
        assert reports[True].as_dict() == reports[False].as_dict()

    def test_engine_identical_with_and_without_tracer(self, graph, plan):
        plain = PatternAwareEngine(graph, plan).run()
        tracer = Tracer()
        metrics = MetricsRegistry()
        traced = PatternAwareEngine(
            graph, plan, tracer=tracer, metrics=metrics
        ).run()
        assert traced.as_dict() == plain.as_dict()
        assert metrics.snapshot()["engine.matches"] == plain.counts[0]
        names = {e["name"] for e in tracer.events()}
        assert "mine" in names

    def test_parallel_identical_with_and_without_observability(
        self, graph, plan
    ):
        from repro.engine import MinerPool

        plain = PatternAwareEngine(graph, plan).run()
        tracer = Tracer()
        metrics = MetricsRegistry()
        with MinerPool(
            graph, workers=2, tracer=tracer, metrics=metrics
        ) as pool:
            observed = pool.mine(plan)
        with MinerPool(graph, workers=2) as pool:
            bare = pool.mine(plan)
        assert observed.as_dict() == plain.as_dict()
        assert observed.as_dict() == bare.as_dict()
        snap = metrics.snapshot()
        assert snap["engine.parallel.workers"] == 2
        assert snap["engine.matches"] == plain.counts[0]
        names = {e["name"] for e in tracer.events()}
        assert "mine-parallel" in names


class TestSimTrace:
    def test_trace_structure(self, graph, plan):
        tracer = Tracer()
        report = simulate(
            graph, plan, FlexMinerConfig(num_pes=4), tracer=tracer
        )
        trace = json.loads(tracer.to_json())
        assert validate_trace(trace) == []
        events = trace["traceEvents"]
        # one named trace thread per PE plus the scheduler rail
        thread_names = {
            (e["tid"], e["args"]["name"])
            for e in events if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert (0, "PE 0") in thread_names
        assert (4, "scheduler") in thread_names
        # every active PE contributed at least one task span
        task_tids = {
            e["tid"] for e in events
            if e["ph"] == "X" and e.get("cat") == "task"
        }
        active = {
            i for i, c in enumerate(report.per_pe_cycles) if c > 0
        }
        assert active
        assert task_tids >= active
        # cycle-domain events live in the simulator's virtual process
        assert all(
            e["pid"] == SIM_PID for e in events
            if e.get("cat") in ("task", "setop", "cmap", "mem")
        )
        # the makespan span covers the whole run on the scheduler rail
        runs = [e for e in events if e["name"] == "run"]
        assert len(runs) == 1
        assert runs[0]["dur"] == report.cycles


class TestHarnessTelemetry:
    def test_per_cell_files_and_summary(self, tmp_path):
        h = Harness(telemetry_dir=str(tmp_path))
        report = h.sim("TC", "As", num_pes=4, cmap_bytes=1024)
        h.sim("TC", "As", num_pes=4, cmap_bytes=1024)  # cache hit
        cell = tmp_path / "sim_TC_As_pes4_cmap1024.json"
        assert cell.exists()
        envelope = json.loads(cell.read_text())
        assert envelope["schema"] == "flexminer.run/1"
        assert envelope["kind"] == "sim"
        assert envelope["meta"]["app"] == "TC"
        assert envelope["data"]["cycles"] == report.cycles

        summary_path = h.write_summary()
        assert os.path.basename(summary_path) == "BENCH_summary.json"
        summary = json.loads(open(summary_path).read())
        assert summary["kind"] == "bench-summary"
        assert set(summary["data"]) == {
            "quick_mode", "sim", "cpu", "metrics",
        }
        cells = summary["data"]["sim"]
        assert cells["TC_As_pes4_cmap1024"]["cycles"] == report.cycles
        metrics = summary["data"]["metrics"]
        assert metrics["bench.sim_runs"] == 1
        assert metrics["bench.sim_cache_hits"] == 1

    def test_telemetry_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_TELEMETRY", str(tmp_path))
        assert Harness().telemetry_dir == str(tmp_path)
        monkeypatch.delenv("REPRO_BENCH_TELEMETRY")
        assert Harness().telemetry_dir is None


class TestCli:
    def test_sim_trace_and_emit_json(self, tmp_path, capsys):
        """The acceptance path: a valid Chrome trace plus a JSON report,
        with simulated results bit-identical to an untraced run."""
        trace_path = str(tmp_path / "trace.json")
        rc = main([
            "sim", "triangle", "--dataset", "Mi",
            "--trace", trace_path, "--emit-json",
        ])
        assert rc == 0
        out = capsys.readouterr()
        assert trace_path in out.err
        report = json.loads(out.out)
        assert report["schema"] == "flexminer.run/1"
        assert report["kind"] == "sim"
        assert report["meta"]["dataset"] == "Mi"
        assert report["data"]["counts"] and report["data"]["cycles"] > 0

        with open(trace_path) as f:
            trace = json.load(f)
        assert validate_trace(trace) == []
        task_tids = {
            e["tid"] for e in trace["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "task"
        }
        active = {
            i for i, c in enumerate(report["data"]["per_pe_cycles"])
            if c > 0
        }
        assert active and task_tids >= active

        # identical simulated results without --trace
        rc = main(["sim", "triangle", "--dataset", "Mi", "--emit-json"])
        assert rc == 0
        untraced = json.loads(capsys.readouterr().out)
        assert untraced["data"] == report["data"]

    def test_mine_emit_json(self, capsys):
        rc = main(["mine", "triangle", "--dataset", "As", "--emit-json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "mine"
        assert report["data"]["total"] == report["data"]["counts"][0] > 0
        assert report["data"]["model_seconds"] > 0

    def test_stats_single_and_diff(self, tmp_path, capsys):
        from repro.obs import make_report, write_report

        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        write_report(a, make_report("sim", {"cycles": 100, "tasks": 8}))
        write_report(b, make_report("sim", {"cycles": 50, "tasks": 8}))

        assert main(["stats", a]) == 0
        single = capsys.readouterr().out
        assert "data.cycles" in single and "100" in single

        assert main(["stats", a, b]) == 0
        diff = capsys.readouterr().out
        assert "data.cycles" in diff and "(0.500x)" in diff
        assert "data.tasks" not in diff  # unchanged rows hidden

        assert main(["stats", a, b, "--all"]) == 0
        assert "data.tasks" in capsys.readouterr().out
