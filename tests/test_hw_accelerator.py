"""Tests for the PE, scheduler, and full accelerator simulation."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.graph import complete_graph, erdos_renyi, star_graph
from repro.patterns import diamond, four_cycle, k_clique, triangle
from repro.compiler import compile_motifs, compile_pattern
from repro.engine import mine, mine_multi
from repro.hw import (
    AreaModel,
    FlexMinerAccelerator,
    FlexMinerConfig,
    PE_AREA_MM2,
    Scheduler,
    simulate,
)

GRAPH = erdos_renyi(48, 0.25, seed=13)
SMALL_CONFIG = FlexMinerConfig(num_pes=4)


class TestFunctionalEquivalence:
    @pytest.mark.parametrize(
        "pattern,kwargs",
        [
            (triangle(), {}),
            (k_clique(4), {}),
            (four_cycle(), {}),
            (diamond(), {"use_orientation": False}),
            (four_cycle(), {"induced": True}),
        ],
        ids=lambda x: getattr(x, "name", str(x)),
    )
    def test_sim_counts_match_engine(self, pattern, kwargs):
        plan = compile_pattern(pattern, **kwargs)
        sw = mine(GRAPH, plan)
        report = simulate(GRAPH, plan, SMALL_CONFIG)
        assert report.counts == sw.counts

    def test_multiplan_counts_match(self):
        plan = compile_motifs(3)
        sw = mine_multi(GRAPH, plan)
        report = simulate(GRAPH, plan, SMALL_CONFIG)
        assert report.counts == sw.counts

    def test_counts_independent_of_pe_count(self):
        plan = compile_pattern(four_cycle())
        counts = {
            simulate(GRAPH, plan, FlexMinerConfig(num_pes=p)).counts
            for p in (1, 3, 16)
        }
        assert len(counts) == 1

    def test_counts_independent_of_cmap_size(self):
        plan = compile_pattern(four_cycle())
        counts = {
            simulate(
                GRAPH, plan, FlexMinerConfig(num_pes=2, cmap_bytes=size)
            ).counts
            for size in (0, 256, 8192)
        }
        assert len(counts) == 1

    def test_roots_subset(self):
        plan = compile_pattern(triangle(), use_orientation=False)
        full = simulate(GRAPH, plan, SMALL_CONFIG)
        partial = simulate(GRAPH, plan, SMALL_CONFIG, roots=range(10))
        assert partial.total <= full.total


class TestTimingBehaviour:
    def test_more_pes_fewer_cycles(self):
        plan = compile_pattern(k_clique(4))
        g = erdos_renyi(128, 0.2, seed=5)
        c1 = simulate(g, plan, FlexMinerConfig(num_pes=1)).cycles
        c8 = simulate(g, plan, FlexMinerConfig(num_pes=8)).cycles
        assert c8 < c1 / 3

    def test_busy_work_conserved_across_pe_counts(self):
        plan = compile_pattern(k_clique(4))
        b1 = simulate(GRAPH, plan, FlexMinerConfig(num_pes=1)).busy_cycles
        b8 = simulate(GRAPH, plan, FlexMinerConfig(num_pes=8)).busy_cycles
        assert b1 == pytest.approx(b8, rel=0.01)

    def test_cycles_positive_and_report_consistent(self):
        plan = compile_pattern(triangle())
        report = simulate(GRAPH, plan, SMALL_CONFIG)
        assert report.cycles > 0
        assert report.seconds == pytest.approx(
            report.cycles / (SMALL_CONFIG.pe_freq_ghz * 1e9)
        )
        assert 0 <= report.memory_bound_fraction <= 1
        assert report.load_imbalance >= 1.0
        assert "matches" in report.summary()

    def test_cmap_reduces_noc_traffic_for_four_cycle(self):
        # Fig. 16: memoization cuts edgelist re-reads.  The private
        # cache is shrunk so the graph does not fit (the regime of the
        # paper's full-size inputs) and re-reads become NoC traffic.
        plan = compile_pattern(four_cycle())
        g = erdos_renyi(96, 0.2, seed=3)
        base_cfg = dict(num_pes=2, private_cache_bytes=2048)
        no = simulate(g, plan, FlexMinerConfig(cmap_bytes=0, **base_cfg))
        with_cmap = simulate(
            g, plan, FlexMinerConfig(cmap_bytes=8192, **base_cfg)
        )
        assert with_cmap.noc_requests < no.noc_requests
        assert with_cmap.cycles < no.cycles

    def test_cmap_read_ratio_high_for_four_cycle(self):
        # §VII-C reports 86-98% c-map read ratios for 4-cycle: each
        # inserted neighbour list is queried many times.
        report = simulate(
            erdos_renyi(40, 0.25, seed=3),
            compile_pattern(four_cycle()),
            FlexMinerConfig(num_pes=2),
        )
        assert report.cmap_read_ratio > 0.5

    def test_cmap_overflow_falls_back(self):
        # A tiny c-map overflows on hubs; results stay correct and the
        # fall-back events are visible.
        g = star_graph(200)
        plan = compile_pattern(four_cycle())
        tiny = simulate(
            g, plan, FlexMinerConfig(num_pes=1, cmap_bytes=100)
        )
        assert tiny.counts == mine(g, plan).counts
        assert tiny.cmap_overflows > 0

    def test_dense_graph_triangles(self):
        g = complete_graph(16)
        plan = compile_pattern(triangle())
        report = simulate(g, plan, SMALL_CONFIG)
        assert report.total == 560  # C(16,3)


class TestScheduler:
    def test_order_tasks_by_degree(self):
        g = star_graph(5)
        order = Scheduler.order_tasks(g)
        assert order[0][0] == 0  # the hub first (LPT)

    def test_empty_pe_list_rejected(self):
        with pytest.raises(ValueError):
            Scheduler([])

    def test_all_tasks_dispatched(self):
        plan = compile_pattern(triangle())
        accel = FlexMinerAccelerator(GRAPH, plan, SMALL_CONFIG)
        accel.run()
        assert accel.scheduler.tasks_dispatched == GRAPH.num_vertices

    def test_work_spread_over_pes(self):
        plan = compile_pattern(k_clique(4))
        accel = FlexMinerAccelerator(
            erdos_renyi(64, 0.3, seed=9), plan, SMALL_CONFIG
        )
        accel.run()
        assert all(pe.stats.tasks > 0 for pe in accel.pes)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            FlexMinerConfig(num_pes=0)
        with pytest.raises(ConfigError):
            FlexMinerConfig(line_bytes=48)
        with pytest.raises(ConfigError):
            FlexMinerConfig(cmap_occupancy_threshold=0.0)
        with pytest.raises(ConfigError):
            FlexMinerConfig(cmap_bytes=3)

    @pytest.mark.parametrize("degree", [0, -3])
    def test_rejects_split_degree_below_one(self, degree):
        # A split degree below 1 used to skip splitting silently (with
        # numpy RuntimeWarnings for 0).
        with pytest.raises(ConfigError, match="task_split_degree"):
            FlexMinerConfig(task_split_degree=degree)

    def test_rejects_negative_dispatch_cycles(self):
        # ... which would charge negative busy cycles per task.
        with pytest.raises(ConfigError, match="dispatch_cycles"):
            FlexMinerConfig(dispatch_cycles=-5)
        assert FlexMinerConfig(dispatch_cycles=0).dispatch_cycles == 0

    def test_with_helpers(self):
        config = FlexMinerConfig()
        assert config.with_pes(7).num_pes == 7
        assert config.with_cmap_bytes(1024).cmap_bytes == 1024
        assert config.without_cmap().cmap_bytes == 0

    def test_bad_plan_rejected(self):
        with pytest.raises(SimulationError):
            FlexMinerAccelerator(GRAPH, object(), SMALL_CONFIG)


class TestArea:
    def test_paper_constants(self):
        model = AreaModel(FlexMinerConfig())
        # The evaluated PE (32 kB cache + 8 kB c-map) is 0.18 mm2.
        assert model.pe_area_mm2 == pytest.approx(PE_AREA_MM2, rel=0.01)

    def test_sixty_four_pes_fit_in_a_core(self):
        # §VII-A: 64 PEs take roughly one Skylake core of area.
        model = AreaModel(FlexMinerConfig(num_pes=64))
        assert 0.5 < model.skylake_core_equivalents < 1.2

    def test_area_scales_with_sram(self):
        small = AreaModel(FlexMinerConfig(cmap_bytes=0))
        big = AreaModel(FlexMinerConfig(cmap_bytes=16 * 1024))
        assert big.pe_area_mm2 > small.pe_area_mm2

    def test_clock_ratio(self):
        model = AreaModel(FlexMinerConfig())
        assert model.clock_ratio_vs_cpu == pytest.approx(1.3 / 4.0)

    def test_summary_renders(self):
        assert "PE area" in AreaModel(FlexMinerConfig()).summary()
