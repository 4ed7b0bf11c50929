"""Tests for repro.obs.prof: phases, worker lanes, determinism.

Pins the tentpole guarantees of the profiling layer:

* merged Chrome traces carry one lane per worker plus a coordinator
  lane, and validate structurally;
* the normalized ``task`` event set is identical across repeated runs
  (timestamps aside), and across worker counts the roots it names
  always partition the root set;
* profiling is zero-drift — counts, OpCounters and SimReports are
  bit-identical with profiling on or off at every worker count.
"""

import re

import pytest

from repro.compiler import compile_pattern
from repro.engine import MinerPool, order_tasks
from repro.engine import pool as pool_module
from repro.graph import erdos_renyi, orient_by_degree
from repro.hw import FlexMinerConfig, simulate, simulate_parallel
from repro.obs import (
    NULL_PROFILER,
    PhaseProfiler,
    Tracer,
    WORKERS_PID,
    event_key,
    trace_event_set,
    validate_trace,
)
from repro.obs.prof import (
    LaneRecorder,
    NullProfiler,
    slice_label,
    task_label,
)
from repro.patterns import four_clique, triangle

ER = erdos_renyi(120, 0.07, seed=11, name="er")
PLAN = compile_pattern(triangle())
CLIQUE_PLAN = compile_pattern(four_clique())


class TestLaneRecorder:
    def test_records_span_tuple(self):
        rec = LaneRecorder()
        with rec.span("attach-shm"):
            pass
        assert len(rec) == 1
        name, t0, t1, cat, args = rec.spans[0]
        assert name == "attach-shm"
        assert t1 >= t0
        assert cat == "lane"
        assert args is None

    def test_args_preserved(self):
        rec = LaneRecorder()
        with rec.span("task v3", cat="task", root=3):
            pass
        assert rec.spans[0][4] == {"root": 3}

    def test_totals_counts_durations_by_cat(self):
        rec = LaneRecorder()
        with rec.span("a", cat="task"):
            pass
        with rec.span("b", cat="task"):
            pass
        with rec.span("w", cat="queue-wait"):
            pass
        assert rec.count("task") == 2
        assert rec.count("queue-wait") == 1
        assert len(rec.durations("task")) == 2
        assert rec.total("task") == pytest.approx(
            sum(rec.durations("task"))
        )
        assert rec.total("nope") == 0.0

    def test_span_recorded_on_exception(self):
        rec = LaneRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("boom"):
                raise RuntimeError("x")
        assert rec.count("lane") == 1


class TestTaskLabel:
    def test_plain_root(self):
        assert task_label(7) == "task v7"

    def test_chunked(self):
        assert task_label(7, (1, 4)) == "task v7 [1/4]"

    def test_root_slice(self):
        assert slice_label([9, 4, 2]) == "tasks v9..v2 x3"
        assert slice_label([5]) == "tasks v5..v5 x1"


class TestPhaseProfiler:
    def test_records_wall_cpu_rss(self):
        prof = PhaseProfiler()
        with prof.phase("setup", workers=2):
            sum(range(1000))
        (rec,) = prof.phases()
        assert rec.name == "setup"
        assert rec.wall_s >= 0.0
        assert rec.cpu_s >= 0.0
        assert rec.peak_rss_kb > 0
        assert rec.depth == 0
        assert rec.args == {"workers": 2}

    def test_nesting_depth(self):
        prof = PhaseProfiler()
        with prof.phase("outer"):
            with prof.phase("inner"):
                pass
        by_name = {p.name: p for p in prof.phases()}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1

    def test_coverage_counts_depth0_only(self):
        prof = PhaseProfiler()
        with prof.phase("outer"):
            with prof.phase("inner"):
                sum(range(20000))
        assert 0.0 < prof.coverage() <= 1.0
        # only the outer phase counts toward coverage: the nested
        # inner span must not double-book the same wall time
        top = [p for p in prof.phases() if p.depth == 0]
        assert [p.name for p in top] == ["outer"]

    def test_as_dict_shape(self):
        prof = PhaseProfiler()
        with prof.phase("mine"):
            pass
        d = prof.as_dict()
        assert d["enabled"] is True
        assert d["coverage"] >= 0.0
        assert d["phases"][0]["name"] == "mine"

    def test_table_and_timeline_render(self):
        prof = PhaseProfiler()
        with prof.phase("compile"):
            pass
        with prof.phase("mine"):
            pass
        assert "compile" in prof.table()
        assert "% wall" in prof.table() or "%" in prof.table()
        assert "mine" in prof.timeline()

    def test_timeline_empty(self):
        assert "no phases" in PhaseProfiler().timeline()

    def test_disabled_profiler_records_nothing(self):
        prof = PhaseProfiler(enabled=False)
        with prof.phase("mine"):
            pass
        assert prof.phases() == []

    def test_disabled_profiler_still_mirrors_tracer(self):
        tracer = Tracer()
        prof = PhaseProfiler(tracer=tracer, enabled=False)
        with prof.phase("mine"):
            pass
        names = {e["name"] for e in tracer.events()}
        assert "mine" in names
        assert prof.phases() == []

    def test_null_profiler_inert(self):
        assert NULL_PROFILER.enabled is False
        with NULL_PROFILER.phase("x"):
            pass
        with NULL_PROFILER.lane_span("y"):
            pass
        NULL_PROFILER.init_lanes(4)
        NULL_PROFILER.add_lane(0, [("a", 0.0, 1.0, "lane", None)])
        assert NULL_PROFILER.phases() == []
        assert NULL_PROFILER.as_dict() == {
            "enabled": False,
            "phases": [],
        }
        assert isinstance(NULL_PROFILER, NullProfiler)


class TestLaneMerge:
    def test_add_lane_places_events_on_worker_tid(self):
        tracer = Tracer()
        prof = PhaseProfiler(tracer=tracer)
        prof.init_lanes(2)
        rec = LaneRecorder()
        with rec.span("attach-shm"):
            pass
        with rec.span(task_label(5), cat="task"):
            pass
        prof.add_lane(1, rec.spans)
        lane = [
            e
            for e in tracer.events()
            if e.get("pid") == WORKERS_PID and e.get("ph") == "X"
        ]
        assert {e["tid"] for e in lane} == {2}  # worker 1 -> tid 2
        assert {e["name"] for e in lane} == {
            "attach-shm",
            "task v5",
        }
        assert validate_trace(tracer.to_dict()) == []

    def test_lane_metadata_names(self):
        tracer = Tracer()
        prof = PhaseProfiler(tracer=tracer)
        prof.init_lanes(2)
        meta = [
            e["args"]["name"]
            for e in tracer.events()
            if e.get("ph") == "M" and e.get("pid") == WORKERS_PID
        ]
        assert "coordinator" in meta
        assert "worker 0" in meta and "worker 1" in meta

    def test_add_lane_noop_without_tracer(self):
        prof = PhaseProfiler()  # NULL_TRACER
        prof.init_lanes(2)
        prof.add_lane(0, [("a", 0.0, 1.0, "lane", None)])  # no raise

    def test_lane_span_coordinator_rail(self):
        tracer = Tracer()
        prof = PhaseProfiler(tracer=tracer)
        with prof.lane_span("counter-merge"):
            pass
        (ev,) = [
            e
            for e in tracer.events()
            if e.get("pid") == WORKERS_PID and e.get("ph") == "X"
        ]
        assert ev["tid"] == 0
        assert ev["name"] == "counter-merge"


class TestEventNormalization:
    def test_event_key_drops_timing_and_lane(self):
        a = {
            "name": "task v5",
            "ph": "X",
            "cat": "task",
            "ts": 10.0,
            "dur": 3.0,
            "pid": 2,
            "tid": 1,
        }
        b = dict(a, ts=99.0, dur=7.0, tid=3)
        assert event_key(a) == event_key(b)

    def test_event_key_drops_volatile_args(self):
        a = {"name": "s", "ph": "X", "cat": "lane",
             "args": {"seconds": 0.5, "tasks": 3}}
        b = {"name": "s", "ph": "X", "cat": "lane",
             "args": {"seconds": 9.9, "tasks": 3}}
        assert event_key(a) == event_key(b)
        assert ("tasks", 3) in event_key(a)[3]

    def test_trace_event_set_excludes_meta_and_counters(self):
        events = [
            {"name": "process_name", "ph": "M", "args": {"name": "x"}},
            {"name": "gauge", "ph": "C", "args": {"v": 1}},
            {"name": "task v1", "ph": "X", "cat": "task"},
        ]
        keys = trace_event_set({"traceEvents": events})
        assert len(keys) == 1
        assert next(iter(keys))[0] == "task v1"

    def test_trace_event_set_cat_filter(self):
        events = [
            {"name": "a", "ph": "X", "cat": "task"},
            {"name": "b", "ph": "X", "cat": "lane"},
        ]
        keys = trace_event_set(events, cats=("task",))
        assert {k[0] for k in keys} == {"a"}


def _mine_trace(workers, plan=PLAN):
    """Normalized task-event set of one profiled parallel mine."""
    tracer = Tracer()
    prof = PhaseProfiler(tracer=tracer)
    with MinerPool(
        ER, workers=workers, tracer=tracer, profiler=prof
    ) as pool:
        result = pool.mine(plan)
    return result, tracer.to_dict()


class TestMergedTraceDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_one_lane_per_worker_plus_coordinator(self, workers):
        _result, trace = _mine_trace(workers)
        assert validate_trace(trace) == []
        lanes = {
            e["tid"]
            for e in trace["traceEvents"]
            if e.get("pid") == WORKERS_PID and e.get("ph") == "X"
        }
        # coordinator rail (tid 0) plus every worker lane
        assert lanes == set(range(workers + 1))

    def test_task_set_invariant_across_worker_counts(self, monkeypatch):
        # A task span names a root slice (first root, last root, size
        # of a contiguous run of the issue order).  How the order is
        # cut depends on the worker count; that the named roots
        # partition the root set does not.
        monkeypatch.setattr(pool_module, "_FRONTIER_BAND_ELEMS", 16)
        order = [
            root for root, _chunk in order_tasks(orient_by_degree(ER))
        ]
        results, slice_counts = [], []
        for workers in (1, 2, 4):
            result, trace = _mine_trace(workers)
            results.append(result.counts)
            spans = trace_event_set(trace, cats=("task",))
            slice_counts.append(len(spans))
            named = []
            for key in spans:
                first, last, size = map(int, re.fullmatch(
                    r"tasks v(\d+)\.\.v(\d+) x(\d+)", key[0]
                ).groups())
                start = order.index(first)
                assert order[start + size - 1] == last
                named += order[start:start + size]
            assert sorted(named) == sorted(order)  # each root once
        assert results[0] == results[1] == results[2]
        assert slice_counts[0] == 1  # in-process: one walk
        assert 1 < slice_counts[1] < slice_counts[2]

    def test_full_set_stable_across_repeated_runs(self):
        _r1, trace_a = _mine_trace(2)
        _r2, trace_b = _mine_trace(2)
        assert trace_event_set(trace_a) == trace_event_set(trace_b)

    def test_sim_task_set_invariant_across_worker_counts(self):
        # A sim lane's task span names one traced root slice; how the
        # order is cut depends on the worker count, that the named
        # slices partition the task order does not.
        order = [
            root for root, _chunk in order_tasks(orient_by_degree(ER))
        ]
        slice_counts = []
        for workers in (1, 2):
            tracer = Tracer()
            prof = PhaseProfiler(tracer=tracer)
            simulate_parallel(
                ER, PLAN, FlexMinerConfig(num_pes=4),
                workers=workers, profiler=prof,
            )
            trace = tracer.to_dict()
            assert validate_trace(trace) == []
            spans = trace_event_set(trace, cats=("task",))
            slice_counts.append(len(spans))
            named = []
            for key in spans:
                first, last, size = map(int, re.fullmatch(
                    r"tasks v(\d+)\.\.v(\d+) x(\d+)", key[0]
                ).groups())
                start = order.index(first)
                assert order[start + size - 1] == last
                named += order[start:start + size]
            assert sorted(named) == sorted(order)  # each root once
        assert slice_counts[0] == 1  # in-process: one slice
        assert slice_counts[1] > 1


class TestZeroDrift:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_mining_bit_identical_with_profiling(self, workers):
        with MinerPool(ER, workers=workers) as pool:
            plain = pool.mine(CLIQUE_PLAN)
        tracer = Tracer()
        prof = PhaseProfiler(tracer=tracer)
        with MinerPool(
            ER, workers=workers, tracer=tracer, profiler=prof
        ) as pool:
            profiled = pool.mine(CLIQUE_PLAN)
        assert profiled.counts == plain.counts
        assert profiled.counters.as_dict() == plain.counters.as_dict()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sim_report_bit_identical_with_profiling(self, workers):
        config = FlexMinerConfig(num_pes=4)
        plain = simulate_parallel(ER, PLAN, config, workers=workers)
        tracer = Tracer()
        prof = PhaseProfiler(tracer=tracer)
        profiled = simulate_parallel(
            ER, PLAN, config, workers=workers, profiler=prof
        )
        assert profiled.as_dict() == plain.as_dict()

    def test_serial_sim_bit_identical_with_profiling(self):
        config = FlexMinerConfig(num_pes=4)
        plain = simulate(ER, PLAN, config)
        prof = PhaseProfiler()
        profiled = simulate(ER, PLAN, config, profiler=prof)
        assert profiled.as_dict() == plain.as_dict()
        assert {p.name for p in prof.phases()} >= {
            "setup",
            "simulate",
            "trace",
            "replay",
            "merge",
        }


class TestPhaseAttributionWiring:
    def test_parallel_miner_records_phases(self):
        prof = PhaseProfiler()
        with MinerPool(ER, workers=2, profiler=prof) as pool:
            pool.mine(PLAN)
        names = [p.name for p in prof.phases() if p.depth == 0]
        assert names.count("mine") == 1
        assert "setup" in names and "merge" in names

    def test_parallel_sim_records_phases(self):
        prof = PhaseProfiler()
        simulate_parallel(
            ER, PLAN, FlexMinerConfig(num_pes=4),
            workers=2, profiler=prof,
        )
        names = {p.name for p in prof.phases()}
        assert {"setup", "trace", "replay", "merge"} <= names
