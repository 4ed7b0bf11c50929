"""Unit tests for the processing element's hardware behaviors."""

import pytest

from repro.compiler import compile_pattern
from repro.graph import complete_graph, erdos_renyi
from repro.hw import FlexMinerAccelerator, FlexMinerConfig
from repro.patterns import diamond, four_cycle, k_clique, triangle

GRAPH = erdos_renyi(40, 0.3, seed=8)


def one_pe_accel(pattern_plan, graph=GRAPH, **config_overrides):
    config = FlexMinerConfig(num_pes=1, **config_overrides)
    return FlexMinerAccelerator(graph, pattern_plan, config)


class TestCycleAccounting:
    def test_time_advances_monotonically(self):
        accel = one_pe_accel(compile_pattern(triangle()))
        pe = accel.pes[0]
        times = []
        for v in range(5):
            accel.run(roots=[v])
            times.append(pe.time)
        assert times == sorted(times)

    def test_dispatch_cost_charged_per_task(self):
        plan = compile_pattern(triangle())
        # A vertex with no neighbors costs exactly the dispatch overhead
        # plus the (empty) level-1 load.
        from repro.graph import CSRGraph

        lonely = CSRGraph.from_edges([(1, 2)], num_vertices=3)
        accel = one_pe_accel(plan, graph=lonely)
        pe = accel.pes[0]
        before = pe.time
        accel.run(roots=[0])
        assert pe.time >= before + accel.config.dispatch_cycles

    def test_busy_and_stall_partition_time(self):
        accel = one_pe_accel(compile_pattern(k_clique(4)))
        report = accel.run()
        pe = accel.pes[0]
        assert pe.stats.busy_cycles + pe.stats.stall_cycles == pytest.approx(
            report.cycles
        )

    def test_component_cycles_within_busy(self):
        accel = one_pe_accel(compile_pattern(four_cycle()))
        accel.run()
        stats = accel.pes[0].stats
        component_sum = (
            stats.pruner_cycles + stats.setop_cycles + stats.cmap_cycles
        )
        assert component_sum <= stats.busy_cycles


class TestCmapIntegration:
    def test_cmap_resets_between_tasks(self):
        accel = one_pe_accel(compile_pattern(four_cycle()))
        accel.run()
        stats = accel.pes[0].cmap.stats
        # Self-cleaned in stack order: every key written is deleted again.
        assert stats.inserts > 0
        assert stats.deletes == stats.inserts + stats.updates

    def test_fallback_on_tiny_cmap(self):
        # A 12-entry c-map cannot hold the ~12-neighbor lists of this
        # graph below the 75% threshold, so insertions get rejected and
        # the consuming checks fall back to the SIU (§VI-B).
        plan = compile_pattern(four_cycle())
        accel = one_pe_accel(plan, cmap_bytes=64)
        report = accel.run()
        pe = accel.pes[0]
        assert pe.cmap.stats.overflows > 0
        assert pe.stats.cmap_fallbacks > 0
        # SIU picked up the rejected checks.
        assert pe.stats.siu_resolved_checks > 0
        from repro.engine import mine

        assert report.counts == mine(GRAPH, plan).counts

    def test_no_cmap_config_disables_everything(self):
        accel = one_pe_accel(
            compile_pattern(four_cycle()), cmap_bytes=0
        )
        accel.run()
        pe = accel.pes[0]
        assert pe.cmap is None
        assert pe.stats.cmap_cycles == 0

    def test_cmap_checks_prefer_cmap_over_siu(self):
        accel = one_pe_accel(compile_pattern(four_cycle()))
        accel.run()
        pe = accel.pes[0]
        assert pe.stats.cmap_resolved_checks > pe.stats.siu_resolved_checks


class TestFrontierTable:
    def test_diamond_reads_frontier(self):
        plan = compile_pattern(diamond(), use_orientation=False)
        accel = one_pe_accel(plan)
        accel.run()
        pe = accel.pes[0]
        assert pe.stats.frontier_reads > 0

    def test_clique_composition_uses_frontier(self):
        plan = compile_pattern(k_clique(5))
        accel = one_pe_accel(plan, graph=complete_graph(12))
        accel.run()
        assert accel.pes[0].stats.frontier_reads > 0

    def test_frontier_allocator_wraps(self):
        plan = compile_pattern(diamond(), use_orientation=False)
        accel = one_pe_accel(plan)
        pe = accel.pes[0]
        pe._frontier_ptr = pe._frontier_limit - 4  # nearly exhausted
        accel.run()  # must not raise; allocator wraps
        assert pe._frontier_ptr >= pe._frontier_base


class TestOverlapCredit:
    def test_compute_hides_memory_latency(self):
        # With an enormous overlap credit the fetch is fully hidden.
        accel = one_pe_accel(compile_pattern(triangle()))
        pe = accel.pes[0]
        pe._overlap_credit = 10 ** 9
        before = pe.time
        pe._touch(0x4000_0000, 256)
        assert pe.time == before  # no stall charged
        assert pe._overlap_credit == 0.0  # credit consumed

    def test_cold_fetch_without_credit_stalls(self):
        accel = one_pe_accel(compile_pattern(triangle()))
        pe = accel.pes[0]
        pe._overlap_credit = 0.0
        before = pe.time
        pe._touch(0x5000_0000, 256)
        assert pe.time > before
