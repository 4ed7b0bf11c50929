"""Tests for the CPU baseline models and the bench harness."""

import pytest

from repro.compiler import compile_pattern
from repro.engine import OpCounters
from repro.graph import erdos_renyi
from repro.patterns import diamond, k_clique, triangle
from repro.hw import FlexMinerConfig, simulate
from repro.bench import (
    CpuModelConfig,
    GramerModelConfig,
    Harness,
    automine_time,
    cpu_time_seconds,
    geometric_mean,
    gramer_time,
    graphzero_time,
    restrict,
    strip_symmetry,
)

GRAPH = erdos_renyi(40, 0.3, seed=33)


class TestCpuModel:
    def test_more_threads_faster_until_roofline(self):
        counters = OpCounters(
            setop_iterations=10 ** 7, adjacency_bytes=10 ** 5
        )
        t1 = cpu_time_seconds(counters, threads=1)
        t10 = cpu_time_seconds(counters, threads=10)
        t20 = cpu_time_seconds(counters, threads=20)
        assert t1 > t10 > t20
        assert t1 / t10 == pytest.approx(10, rel=0.01)

    def test_hyperthreading_sublinear(self):
        config = CpuModelConfig()
        assert config.effective_threads(20) < 20
        assert config.effective_threads(20) > config.effective_threads(10)
        assert config.effective_threads(10) == 10

    def test_bandwidth_roofline_binds(self):
        # Tiny compute, huge traffic -> memory time dominates.
        counters = OpCounters(setop_iterations=1, adjacency_bytes=10 ** 12)
        config = CpuModelConfig(dram_bandwidth_gbs=100.0)
        assert cpu_time_seconds(counters, config) == pytest.approx(10.0)

    def test_graphzero_runs_plan(self):
        seconds, result = graphzero_time(
            GRAPH, compile_pattern(triangle())
        )
        assert seconds > 0
        assert result.counts[0] > 0


class TestAutoMineModel:
    def test_strip_symmetry_removes_bounds(self):
        plan = compile_pattern(diamond(), use_orientation=False)
        bare = strip_symmetry(plan)
        assert all(not s.upper_bounds for s in bare.steps)
        assert not bare.oriented

    def test_counts_normalized_by_automorphisms(self):
        plan = compile_pattern(k_clique(3))
        _, am = automine_time(GRAPH, plan)
        _, gz = graphzero_time(GRAPH, plan)
        assert am.counts == gz.counts

    def test_automine_slower_than_graphzero(self):
        plan = compile_pattern(diamond(), use_orientation=False)
        t_am, _ = automine_time(GRAPH, plan)
        t_gz, _ = graphzero_time(GRAPH, plan)
        assert t_am > t_gz


class TestGramerModel:
    def test_scales_with_work(self):
        small = OpCounters(subgraphs_enumerated=10, isomorphism_tests=10)
        large = OpCounters(
            subgraphs_enumerated=1000, isomorphism_tests=1000
        )
        assert gramer_time(large, 4) > gramer_time(small, 4)

    def test_bigger_patterns_cost_more_per_test(self):
        counters = OpCounters(subgraphs_enumerated=0, isomorphism_tests=100)
        assert gramer_time(counters, 5) > gramer_time(counters, 4)

    def test_config_override(self):
        counters = OpCounters(subgraphs_enumerated=1000)
        fast = GramerModelConfig(processing_units=16)
        slow = GramerModelConfig(processing_units=1)
        assert gramer_time(counters, 3, fast) < gramer_time(
            counters, 3, slow
        )


class TestHarness:
    def test_sim_memoized(self):
        harness = Harness()
        a = harness.sim("TC", "As", num_pes=2, cmap_bytes=0)
        b = harness.sim("TC", "As", num_pes=2, cmap_bytes=0)
        assert a is b

    def test_cpu_memoized(self):
        harness = Harness()
        a = harness.cpu("TC", "As")
        b = harness.cpu("TC", "As")
        assert a is b

    def test_speedup_validates_counts(self):
        harness = Harness()
        speedup = harness.speedup("TC", "As", num_pes=2, cmap_bytes=0)
        assert speedup > 0

    def test_plan_cached(self):
        harness = Harness()
        assert harness.plan("TC") is harness.plan("TC")

    def test_sim_cell_is_one_serial_simulate(self):
        # A fresh cell is one simulate() call with the harness's cell
        # configuration: task splitting for every app but 3-MC.
        harness = Harness()
        for app in ("TC", "3-MC"):
            split = None if app == "3-MC" else Harness.TASK_SPLIT_DEGREE
            config = FlexMinerConfig(
                num_pes=4, cmap_bytes=0, task_split_degree=split
            )
            expected = simulate(
                harness.graph("As"), harness.plan(app), config
            )
            report = harness.sim(app, "As", num_pes=4, cmap_bytes=0)
            assert report.as_dict() == expected.as_dict(), app

    def test_sim_wall_clock_gauges(self):
        harness = Harness()
        harness.sim("TC", "As", num_pes=4, cmap_bytes=0)
        snap = harness.metrics.snapshot()
        assert snap["sim.wall_s"] > 0
        assert snap["sim.cells_per_s"] > 0
        # Cache hits don't re-accumulate wall clock.
        wall = snap["sim.wall_s"]
        harness.sim("TC", "As", num_pes=4, cmap_bytes=0)
        assert harness.metrics.snapshot()["sim.wall_s"] == wall


class TestHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_restrict_quick_mode(self, monkeypatch):
        cells = {"TC": ["As", "Mi"], "4-CL": ["As", "Mi", "Pa"]}
        monkeypatch.delenv("REPRO_BENCH_QUICK", raising=False)
        assert restrict(cells) == cells
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        assert restrict(cells) == {"TC": ["As"], "4-CL": ["As"]}
