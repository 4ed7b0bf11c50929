"""Tests for cache, DRAM, NoC and the shared memory system."""

import pytest

from repro.errors import ConfigError
from repro.graph import erdos_renyi
from repro.hw import (
    DramConfig,
    DramModel,
    FlexMinerConfig,
    GraphLayout,
    MemorySystem,
    NocModel,
    SetAssocCache,
)


class TestCache:
    def test_hit_after_miss(self):
        cache = SetAssocCache(1024, 2, 64)
        assert not cache.access_line(7)
        assert cache.access_line(7)

    def test_lru_eviction(self):
        # 2-way cache: lines 0, S, 2S map to the same set.
        cache = SetAssocCache(4 * 64, 2, 64)  # 2 sets, 2 ways
        s = cache.num_sets
        cache.access_line(0)
        cache.access_line(s)
        cache.access_line(0)  # refresh 0: S is now LRU
        cache.access_line(2 * s)  # evicts S
        assert cache.contains(0)
        assert not cache.contains(s)
        assert cache.stats.evictions == 1

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            SetAssocCache(64, 4, 64)

    def test_flush(self):
        cache = SetAssocCache(1024, 2, 64)
        cache.access_line(3)
        cache.flush()
        assert not cache.contains(3)

    def test_miss_rate(self):
        cache = SetAssocCache(1024, 2, 64)
        cache.access_line(1)
        cache.access_line(1)
        assert cache.stats.miss_rate == pytest.approx(0.5)


class TestDram:
    def config(self):
        return FlexMinerConfig()

    def test_row_hit_cheaper_than_conflict(self):
        dram = DramModel(self.config())
        first = dram.access(0, 0.0)  # opens the row
        # Line 64 maps to the same channel (64 % 4 == 0), same bank
        # ((64 // 4) % 16 == 0) and the same 8 kB row.
        hit = dram.access(64, 1000.0)
        assert hit < first
        assert dram.stats.row_hits >= 1

    def test_backlog_queues_bursts(self):
        dram = DramModel(self.config())
        lat = [dram.access(0, 10.0) for _ in range(8)]
        # Same instant: after the first (row-opening) access, each
        # subsequent burst queues behind the previous one.
        assert all(b > a for a, b in zip(lat[1:], lat[2:]))

    def test_backlog_drains_over_time(self):
        dram = DramModel(self.config())
        for _ in range(8):
            dram.access(0, 10.0)
        relaxed = dram.access(0, 10_000.0)
        assert relaxed <= dram.access(0, 10_000.0) + 1e-9  # stable
        assert relaxed < 100

    def test_out_of_order_timestamps_tolerated(self):
        # PE-local times are not globally ordered; latency must stay sane.
        dram = DramModel(self.config())
        dram.access(0, 1_000_000.0)
        lat = dram.access(64 * 4, 10.0)
        assert lat < 1_000.0

    def test_channel_interleaving(self):
        dram = DramModel(self.config())
        for line in range(4):
            dram.access(line, 0.0)
        # Four channels: no queueing among the four.
        assert dram.stats.queue_cycles == 0

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            DramConfig(num_channels=0)
        with pytest.raises(ConfigError):
            DramConfig(t_cas_ns=0)

    def test_peak_bandwidth(self):
        assert DramConfig().peak_bandwidth_gbs == pytest.approx(
            4 * 64 / 3.0
        )


class TestNoc:
    def test_counts_requests_per_pe(self):
        noc = NocModel(FlexMinerConfig(num_pes=16))
        noc.request_latency(3, 64)
        noc.request_latency(3, 64)
        noc.request_latency(5, 64)
        assert noc.stats.requests == 3
        assert noc.stats.requests_per_pe == {3: 2, 5: 1}

    def test_latency_grows_with_mesh(self):
        small = NocModel(FlexMinerConfig(num_pes=4))
        large = NocModel(FlexMinerConfig(num_pes=64))
        assert large.request_latency(0, 64) > small.request_latency(0, 64)

    def test_serialization_flits(self):
        small = NocModel(FlexMinerConfig(num_pes=4)).request_latency(0, 16)
        big = NocModel(FlexMinerConfig(num_pes=4)).request_latency(0, 64)
        assert big == small + 3  # 4 flits vs 1

    def test_ejection_port_contention(self):
        # A burst at one instant queues behind the ejection ports; the
        # backlog drains once time advances.
        noc = NocModel(FlexMinerConfig(num_pes=16))
        burst = [noc.request_latency(i, 64, now=0.0) for i in range(32)]
        assert burst[-1] > burst[0]
        assert noc.stats.queue_cycles > 0
        relaxed = noc.request_latency(0, 64, now=10_000.0)
        assert relaxed == pytest.approx(burst[0])

    def test_fewer_ports_more_queueing(self):
        from repro.hw import NocConfig

        def total_queue(ports):
            noc = NocModel(
                FlexMinerConfig(
                    num_pes=16, noc=NocConfig(l2_ejection_ports=ports)
                )
            )
            for i in range(64):
                noc.request_latency(i % 16, 64, now=0.0)
            return noc.stats.queue_cycles

        assert total_queue(1) > total_queue(8)


class TestMemorySystem:
    def setup_method(self):
        self.config = FlexMinerConfig(num_pes=4)
        self.graph = erdos_renyi(32, 0.2, seed=1)
        self.mem = MemorySystem(self.config, self.graph)

    def test_miss_goes_to_dram_then_hits_l2(self):
        lines = [100]
        first = self.mem.fetch_lines(0, lines, 0.0)
        again = self.mem.fetch_lines(1, lines, 0.0)
        assert self.mem.dram.stats.accesses == 1
        assert again < first

    def test_frontier_addresses_never_reach_dram(self):
        base, _ = GraphLayout.frontier_region(2)
        line = base // self.config.line_bytes
        self.mem.fetch_lines(2, [line], 0.0)
        assert self.mem.dram.stats.accesses == 0
        assert self.mem.noc.stats.requests == 1

    def test_empty_batch_free(self):
        assert self.mem.fetch_lines(0, [], 5.0) == 0.0

    def test_batch_pipelines(self):
        lines = list(range(200, 208))
        batch = self.mem.fetch_lines(0, lines, 0.0)
        single = sum(
            MemorySystem(self.config, self.graph).fetch_lines(0, [l], 0.0)
            for l in lines
        )
        assert batch < single

    def test_layout_regions_disjoint(self):
        layout = self.mem.layout
        ind_addr, _ = layout.indptr_range(31)
        idx_addr, _ = layout.indices_range(10 ** 6, 4)
        front, _ = GraphLayout.frontier_region(0)
        assert ind_addr < idx_addr < front
        assert GraphLayout.is_frontier(front)
        assert not GraphLayout.is_frontier(idx_addr)
