"""Cross-model consistency of the operation counters.

The CPU baseline model and the simulator both consume OpCounters-level
work; these tests pin the invariants that keep the two models
comparable.
"""

import pytest

from repro.compiler import compile_pattern
from repro.engine import PatternAwareEngine
from repro.graph import erdos_renyi
from repro.hw import FlexMinerAccelerator, FlexMinerConfig
from repro.patterns import diamond, four_cycle, k_clique, triangle

GRAPH = erdos_renyi(40, 0.3, seed=71)


class TestEngineVsSimulatorWork:
    @pytest.mark.parametrize(
        "pattern,kwargs",
        [
            (triangle(), {}),
            (k_clique(4), {}),
            (four_cycle(), {}),
            (diamond(), {"use_orientation": False}),
        ],
        ids=lambda x: getattr(x, "name", str(x)),
    )
    def test_identical_algorithmic_work(self, pattern, kwargs):
        """The PE executes the same search tree as the engine: with the
        c-map off every check is an SIU/SDU merge (one iteration per
        cycle) and the pruner scans every raw candidate once, so the
        simulated unit cycles equal the engine's op counters — under
        either tracer."""
        plan = compile_pattern(pattern, **kwargs)
        engine = PatternAwareEngine(GRAPH, plan)
        engine.run()
        for timing_kernels in (True, False):
            accel = FlexMinerAccelerator(
                GRAPH, plan, FlexMinerConfig(
                    num_pes=1, cmap_bytes=0, timing_kernels=timing_kernels
                ),
            )
            report = accel.run()
            pe = accel.pes[0]
            assert (
                report.setop_cycles
                == pe.stats.setop_cycles
                == engine.counters.setop_iterations
            )
            assert (
                report.pruner_cycles
                == engine.counters.candidates_checked
            )
            assert report.tasks == engine.counters.tasks

    def test_cmap_eliminates_siu_iterations(self):
        plan = compile_pattern(four_cycle())
        with_cmap = FlexMinerAccelerator(
            GRAPH, plan, FlexMinerConfig(num_pes=1, cmap_bytes=8192)
        )
        without = FlexMinerAccelerator(
            GRAPH, plan, FlexMinerConfig(num_pes=1, cmap_bytes=0)
        )
        with_cmap.run()
        without.run()
        assert (
            with_cmap.pes[0].stats.setop_cycles
            < without.pes[0].stats.setop_cycles
        )
        assert with_cmap.pes[0].cmap.stats.queries > 0

    def test_counters_sum_across_pes(self):
        plan = compile_pattern(k_clique(4))
        single = FlexMinerAccelerator(
            GRAPH, plan, FlexMinerConfig(num_pes=1, cmap_bytes=0)
        )
        many = FlexMinerAccelerator(
            GRAPH, plan, FlexMinerConfig(num_pes=6, cmap_bytes=0)
        )
        single.run()
        many.run()
        total = sum(pe.stats.setop_cycles for pe in many.pes)
        assert total == single.pes[0].stats.setop_cycles


class TestCounterInvariants:
    def test_bytes_are_four_per_id(self):
        plan = compile_pattern(triangle(), use_orientation=False)
        engine = PatternAwareEngine(GRAPH, plan)
        engine.run()
        c = engine.counters
        assert c.adjacency_bytes % 4 == 0

    def test_matches_never_exceed_candidates(self):
        plan = compile_pattern(four_cycle())
        engine = PatternAwareEngine(GRAPH, plan)
        result = engine.run()
        assert result.counts[0] <= engine.counters.candidates_checked

    def test_frontier_hits_bounded_by_base_steps(self):
        plan = compile_pattern(k_clique(5))
        engine = PatternAwareEngine(GRAPH, plan)
        engine.run()
        # Every hit corresponds to executing a step with a base.
        base_steps = sum(1 for s in plan.steps if s.base_step is not None)
        assert base_steps > 0
        assert engine.counters.frontier_hits >= 0
