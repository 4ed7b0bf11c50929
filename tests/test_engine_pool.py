"""Tests for the persistent mining pool (repro.engine.pool).

The contract: every request served by a resident pool returns counts
*and* op counters bit-identical to a serial run (with chunking off), across the whole request stream and
for every worker count.  On top of that the pool owns lifecycle edge
cases — worker death surfaces as a structured error instead of a hang,
close() is idempotent, shared-memory segments are unlinked on shutdown
— and the calibrated cost model that turns dispatch overhead into a
split degree.
"""

import multiprocessing
import os
import signal
import threading
from multiprocessing import shared_memory

import pytest

from repro.cli import main
from repro.compiler import compile_motifs, compile_pattern
from repro.engine import (
    MinerPool,
    PatternAwareEngine,
    PoolWorkerError,
    ReferenceEngine,
    cost_model_split_degree,
    mine_multi,
    order_tasks,
)
from repro.engine import pool as pool_module
from repro.engine.parallel import MineJob
from repro.engine.pool import MIN_SPLIT_DEGREE
from repro.engine.motifs import count_motifs, motif_count_plan
from repro.graph import (
    assign_degree_labels,
    csr,
    erdos_renyi,
    orient_by_degree,
    path_graph,
    power_law_cluster,
)
from repro.obs import MetricsRegistry
from repro.patterns import (
    PATTERN_NAMES,
    four_cycle,
    from_name,
    k_clique,
    triangle,
    wedge,
)

ER = erdos_renyi(150, 0.06, seed=7, name="er")
PL = power_law_cluster(200, 3, 0.4, seed=9, name="pl")


def serial(graph, plan, **kw):
    """The reference every pool answer is held to."""
    return ReferenceEngine(graph, plan, **kw).run()


class SteppedClock:
    """Fake monotonic clock: advances one fixed step per reading.

    Injected into the pool's calibration path, it makes every recorded
    ping span exactly ``step`` seconds long regardless of host load —
    the calibration mean is then ``step`` by arithmetic, not by timing.
    """

    def __init__(self, step: float) -> None:
        self.step = step
        self.now = 0.0
        self.reads = 0

    def __call__(self) -> float:
        self.now += self.step
        self.reads += 1
        return self.now


# ----------------------------------------------------------------------
# Request-stream parity
# ----------------------------------------------------------------------
class TestStreamParity:
    def test_mixed_request_stream_bit_identical(self):
        plans = [
            compile_pattern(p) for p in (triangle(), k_clique(4), four_cycle())
        ]
        with MinerPool(ER, workers=2) as pool:
            for _ in range(2):  # same plans twice: resident state reused
                for plan in plans:
                    base = serial(ER, plan)
                    got = pool.mine(plan)
                    assert got.counts == base.counts
                    assert got.counters == base.counters
            assert pool.requests_served == 6

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_sweep_bit_identical(self, workers):
        plan = compile_pattern(k_clique(4))
        base = serial(PL, plan)
        with MinerPool(PL, workers=workers) as pool:
            got = pool.mine(plan)
        assert got.counts == base.counts
        assert got.counters == base.counters

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_root_slice_stream_bit_identical(self, monkeypatch, workers):
        # Resident workers serve chain, tree and chunked requests back
        # to back, several root slices each (the floor is lowered: the
        # real one makes a graph this small a single slice), and every
        # answer equals the default engine's and recursion's.
        monkeypatch.setattr(pool_module, "_FRONTIER_BAND_ELEMS", 32)
        plans = [
            compile_pattern(k_clique(4)),
            compile_motifs(3),
            compile_pattern(four_cycle()),
        ]
        with MinerPool(PL, workers=workers) as pool:
            for _ in range(2):
                for plan in plans:
                    walker = PatternAwareEngine(PL, plan).run()
                    base = serial(PL, plan)
                    got = pool.mine(plan)
                    assert got.counts == walker.counts == base.counts
                    assert got.counters == walker.counters == base.counters
            chunked = pool.mine(plans[2], split_degree=4)
            assert chunked.counts == base.counts
            assert chunked.counters.tasks == len(
                order_tasks(PL, split_degree=4)
            )
            after = pool.mine(plans[0])  # chunking left no residue
            assert after.counters == serial(PL, plans[0]).counters

    def test_multi_pattern_request(self):
        plan = compile_motifs(3)
        base = mine_multi(ER, plan)
        with MinerPool(ER, workers=2) as pool:
            got = pool.mine(plan)
        assert got.counts == base.counts
        assert got.counters.as_dict() == base.counters.as_dict()

    def test_chunked_counts_exact(self):
        plan = compile_pattern(triangle())
        with MinerPool(PL, workers=2) as pool:
            got = pool.mine(plan, split_degree=16)
        assert got.counts == serial(PL, plan).counts

    def test_auto_split_counts_exact(self):
        plan = compile_pattern(k_clique(4))
        with MinerPool(PL, workers=2) as pool:
            got = pool.mine(plan, split_degree="auto")
        assert got.counts == serial(PL, plan).counts


# ----------------------------------------------------------------------
# The in-process route: workers=1 is one PatternAwareEngine.run
# ----------------------------------------------------------------------
LABELED_PL = assign_degree_labels(PL)

#: Counters of chunked in-process mines, recorded before the workers=1
#: body became one engine call (it then ran the task list as a single
#: worker slice); chunking must inflate them exactly so still.
CHUNKED_PINS = {
    ("4-cycle", 4): dict(
        tasks=359, set_intersections=592, setop_iterations=20657,
        adjacency_loads=2137, adjacency_bytes=111496,
        candidates_checked=8934, frontier_hits=0, matches=855,
    ),
    ("diamond", 3): dict(
        tasks=481, set_intersections=641, setop_iterations=12038,
        adjacency_loads=1763, adjacency_bytes=66032,
        candidates_checked=5218, frontier_hits=315, matches=59,
    ),
}


def _one_pool_mine(graph, plan, **kw):
    with MinerPool(graph, workers=1) as pool:
        return pool.mine(plan, **kw)


class TestInProcessRoute:
    @pytest.mark.parametrize("name", PATTERN_NAMES)
    @pytest.mark.parametrize("induced", [False, True])
    def test_pattern_library_equals_engine_run(self, name, induced):
        plan = compile_pattern(from_name(name), induced=induced)
        for roots in (None, range(0, PL.num_vertices, 3), [5, 0, 17]):
            want = PatternAwareEngine(PL, plan).run(roots)
            got = _one_pool_mine(PL, plan, roots=roots)
            assert got.counts == want.counts
            assert got.counters.as_dict() == want.counters.as_dict()

    @pytest.mark.parametrize("labels", [(1, 1, 2), (0, 1, 1), (2, 2, 2)])
    def test_labeled_plans_equal_engine_run(self, labels):
        for pattern in (triangle(), wedge()):
            plan = compile_pattern(pattern.with_labels(list(labels)))
            for roots in (None, range(40)):
                want = PatternAwareEngine(LABELED_PL, plan).run(roots)
                got = _one_pool_mine(LABELED_PL, plan, roots=roots)
                assert got.counts == want.counts
                assert got.counters.as_dict() == want.counters.as_dict()

    @pytest.mark.parametrize("k", [3, 4])
    def test_motif_chain_plans_equal_engine_run(self, k):
        plan = motif_count_plan(k)
        with MinerPool(ER, workers=1) as pool:
            for chain in plan.chains:
                want = PatternAwareEngine(ER, chain).run()
                got = pool.mine(chain)
                assert got.counts == want.counts
                assert got.counters.as_dict() == want.counters.as_dict()
            got = count_motifs(ER, plan, pool.mine)
        want = count_motifs(
            ER, plan, lambda chain: PatternAwareEngine(ER, chain).run()
        )
        assert got.counts == want.counts
        assert got.counters.as_dict() == want.counters.as_dict()

    @pytest.mark.parametrize(
        "graph,name,split", [(PL, "4-cycle", 4), (ER, "diamond", 3)]
    )
    def test_chunked_counters_inflate_as_pinned(self, graph, name, split):
        plan = compile_pattern(from_name(name))
        got = _one_pool_mine(graph, plan, split_degree=split)
        pinned = CHUNKED_PINS[(name, split)]
        assert {key: got.counters.as_dict()[key] for key in pinned} == pinned
        assert got.counts == (pinned["matches"],)
        assert got.counters.tasks == len(
            order_tasks(orient_by_degree(graph) if plan.oriented else graph,
                        split_degree=split)
        )

    def test_publishes_the_engine_gauges_only(self):
        registry = MetricsRegistry()
        plan = compile_pattern(k_clique(4))
        with MinerPool(PL, workers=1, metrics=registry) as pool:
            got = pool.mine(plan)
            assert pool.requests_served == 1
        snap = registry.snapshot()
        assert snap["engine.matches"] == got.counts[0]
        assert snap["engine.setop_iterations"] == got.counters.setop_iterations
        assert snap["engine.frontier.bands"] > 0
        assert not [
            key for key in snap
            if key.startswith(("engine.parallel.", "engine.pool."))
        ]

    def test_run_tasks_needs_forked_workers(self):
        with MinerPool(ER, workers=1) as pool:
            with pytest.raises(ValueError, match="forked workers"):
                pool.run_tasks(
                    MineJob(compile_pattern(triangle())), [order_tasks(ER)]
                )
            assert pool.health()["resident_workers"] == 0


# ----------------------------------------------------------------------
# Cost-model chunking
# ----------------------------------------------------------------------
class TestCostModel:
    def test_multi_plan_never_splits(self):
        plan = compile_motifs(3)
        assert (
            cost_model_split_degree(ER, plan, dispatch_overhead_s=1e-3)
            is None
        )

    def test_zero_overhead_hits_floor(self):
        # With free dispatch the model splits as finely as allowed.
        plan = compile_pattern(triangle())
        split = cost_model_split_degree(PL, plan, dispatch_overhead_s=0.0)
        assert split == MIN_SPLIT_DEGREE
        assert int(PL.degrees().max()) >= 2 * split

    def test_heavy_overhead_disables_splitting(self):
        # A one-second round trip: no chunk on these graphs can carry
        # enough work, so the model keeps whole-root tasks (and merged
        # counters bit-identical).
        plan = compile_pattern(triangle())
        assert (
            cost_model_split_degree(PL, plan, dispatch_overhead_s=1.0)
            is None
        )

    def test_split_monotone_in_overhead(self):
        plan = compile_pattern(triangle())
        splits = []
        for overhead in (0.0, 1e-7, 1e-6):
            got = cost_model_split_degree(
                PL, plan, dispatch_overhead_s=overhead
            )
            if got is not None:
                splits.append(got)
        assert splits == sorted(splits)
        assert splits[0] == MIN_SPLIT_DEGREE

    def test_light_graph_never_splits(self):
        # Max degree 2: no hub is worth slicing at any overhead.
        plan = compile_pattern(triangle())
        chain = path_graph(50)
        assert (
            cost_model_split_degree(chain, plan, dispatch_overhead_s=0.0)
            is None
        )

    def test_serial_pool_auto_is_none_and_overhead_zero(self):
        plan = compile_pattern(triangle())
        with MinerPool(PL, workers=1) as pool:
            assert pool.dispatch_overhead_s == 0.0
            assert pool.auto_split_degree(plan) is None

    def test_forked_pool_calibration_arithmetic_pinned(self):
        # A stepped fake clock pins the calibration arithmetic exactly:
        # each of the CALIBRATION_PINGS spans is one step long, so the
        # mean IS the step — no wall-clock dependence on loaded hosts.
        from repro.engine.pool import CALIBRATION_PINGS

        clock = SteppedClock(0.25)
        with MinerPool(ER, workers=2, calibration_clock=clock) as pool:
            overhead = pool.dispatch_overhead_s
            assert overhead == 0.25
            # Warm-up ping + measured pings, two reads per span.
            assert clock.reads == 2 * (CALIBRATION_PINGS + 1)
            # Cached: the second read is the same value, no re-ping.
            assert pool.dispatch_overhead_s == overhead
            assert clock.reads == 2 * (CALIBRATION_PINGS + 1)

    def test_fake_clock_auto_split_deterministic(self):
        # With the calibrated overhead pinned by the fake clock, the
        # pool's auto split degree equals the cost model's closed-form
        # answer for that overhead — end to end, deterministically.
        plan = compile_pattern(four_cycle())  # not oriented: work
        assert not plan.oriented             # graph is PL itself
        step = 2.0 ** -20  # ~1 µs, exactly representable
        clock = SteppedClock(step)
        with MinerPool(PL, workers=2, calibration_clock=clock) as pool:
            assert pool.dispatch_overhead_s == step
            assert pool.auto_split_degree(plan) == cost_model_split_degree(
                PL, plan, dispatch_overhead_s=step
            )
        # A one-second fake step prices every chunk out: no splitting.
        clock = SteppedClock(1.0)
        with MinerPool(PL, workers=2, calibration_clock=clock) as pool:
            assert pool.dispatch_overhead_s == 1.0
            assert pool.auto_split_degree(plan) is None


# ----------------------------------------------------------------------
# Lifecycle edge cases
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_close_is_idempotent(self):
        pool = MinerPool(ER, workers=2)
        pool.mine(compile_pattern(triangle()))
        pool.close()
        pool.close()  # second close: no-op, no error
        assert pool.closed

    def test_close_before_first_request(self):
        pool = MinerPool(ER, workers=2)
        pool.close()
        assert pool.closed

    def test_closed_pool_rejects_requests(self):
        pool = MinerPool(ER, workers=2)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.mine(compile_pattern(triangle()))

    def test_shared_segments_unlinked_on_close(self):
        pool = MinerPool(PL, workers=2)
        pool.mine(compile_pattern(triangle()))
        exported = pool._shared.spec
        specs = [exported, exported.get("oriented")]
        names = [
            spec[key]["shm"]
            for spec in specs
            if spec is not None
            for key in ("indptr", "indices")
            if key in spec
        ]
        assert names  # at least the topology was exported
        pool.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=str(name))

    def test_close_reaps_all_segments_despite_owner_failure(self):
        # Regression (FM301): a failing owner.close() used to abort the
        # teardown loop, stranding every later segment past process
        # exit.  The loop must keep going and re-raise the first error.
        pool = MinerPool(PL, workers=2)
        pool.mine(compile_pattern(triangle()))
        names = [
            spec[key]["shm"]
            for spec in (
                pool._shared.spec, pool._shared.spec.get("oriented")
            )
            if spec is not None
            for key in ("indptr", "indices")
            if key in spec
        ]
        assert names

        class _Boom:
            def close(self):
                raise OSError("close boom")

            def unlink(self):
                raise OSError("unlink boom")

        pool._shared._shms.insert(0, _Boom())
        with pytest.raises(OSError, match="close boom"):
            pool.close()
        assert pool.closed
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=str(name))

    def test_worker_death_raises_structured_error(self):
        plan = compile_pattern(triangle())
        pool = MinerPool(ER, workers=2)
        try:
            pool.mine(plan)  # forks the workers
            victim = pool._procs[0]
            victim.terminate()
            victim.join()
            with pytest.raises(PoolWorkerError, match="died") as exc:
                pool.mine(plan)
            assert exc.value.reason == "died"
            assert pool.broken
            with pytest.raises(RuntimeError, match="broken"):
                pool.mine(plan)
        finally:
            pool.close()

    def test_timeout_raises_instead_of_hanging(self):
        # SIGSTOP leaves workers alive but unresponsive — the exact
        # failure mode the "died" check cannot see.  The request
        # timeout must surface it as a structured error, not a hang.
        plan = compile_pattern(triangle())
        pool = MinerPool(ER, workers=2)
        try:
            pool.mine(plan)  # forks the workers
            for proc in pool._procs:
                os.kill(proc.pid, signal.SIGSTOP)
            with pytest.raises(PoolWorkerError, match="timeout") as exc:
                pool.mine(plan, timeout_s=1.0)
            assert exc.value.reason == "timeout"
            assert pool.broken
        finally:
            for proc in pool._procs:
                try:
                    os.kill(proc.pid, signal.SIGCONT)
                except ProcessLookupError:  # pragma: no cover
                    pass
            pool.close()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched worker main reaches the child only under fork",
    )
    def test_worker_exit_zero_raises(self, monkeypatch):
        # A worker main that returns mid-request exits 0 without a
        # result: the parent must raise, not wait on it forever.
        created = []
        real = csr.share_array

        def recording(arr):
            shm, spec = real(arr)
            created.append(spec["shm"])
            return shm, spec

        monkeypatch.setattr(csr, "share_array", recording)
        monkeypatch.setattr(pool_module, "_pool_worker", lambda *args: None)
        raised = []

        def call():
            try:
                with MinerPool(ER, workers=2) as pool:
                    pool.mine(compile_pattern(triangle()))
            except Exception as exc:  # handed to the test thread
                raised.append(exc)

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "the parent waits on a dead worker"
        assert len(raised) == 1 and isinstance(raised[0], PoolWorkerError)
        assert raised[0].reason == "died"
        assert "exit codes [0" in raised[0].detail
        assert created
        assert not set(created) & set(os.listdir("/dev/shm"))
        assert not multiprocessing.active_children()

    def test_worker_exception_surfaces_with_traceback(self):
        pool = MinerPool(ER, workers=2)
        try:
            # A poisoned plan crosses the queue fine and crashes in the
            # worker while it builds its engine.
            with pytest.raises(PoolWorkerError, match="failed") as exc:
                pool.run_tasks(MineJob(None), [order_tasks(ER)])
            assert exc.value.reason == "failed"
            assert "Traceback" in exc.value.detail
            assert pool.broken
        finally:
            pool.close()


# ----------------------------------------------------------------------
# Leases and health (the serving layer's contract)
# ----------------------------------------------------------------------
class TestLeases:
    def test_lease_defers_close_until_last_release(self):
        pool = MinerPool(ER, workers=1)
        plan = compile_pattern(triangle())
        with pool.lease():
            with pool.lease():  # leases nest (one per request)
                pool.close()
                assert not pool.closed  # deferred, still serving
                got = pool.mine(plan)
                assert got.counts == serial(ER, plan).counts
            assert not pool.closed
        assert pool.closed  # last release ran the deferred close

    def test_close_without_leases_is_immediate(self):
        pool = MinerPool(ER, workers=1)
        pool.acquire()
        pool.release()
        pool.close()
        assert pool.closed

    def test_acquire_while_closing_rejected(self):
        pool = MinerPool(ER, workers=1)
        pool.acquire()
        pool.close()  # deferred
        with pytest.raises(RuntimeError, match="closing"):
            pool.acquire()
        pool.release()
        assert pool.closed

    def test_release_without_acquire_raises(self):
        pool = MinerPool(ER, workers=1)
        try:
            with pytest.raises(RuntimeError, match="acquire"):
                pool.release()
        finally:
            pool.close()

    def test_acquire_closed_pool_raises(self):
        pool = MinerPool(ER, workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.acquire()

    def test_health_snapshot(self):
        pool = MinerPool(ER, workers=2)
        try:
            pool.mine(compile_pattern(triangle()))
            with pool.lease():
                health = pool.health()
                assert health["healthy"]
                assert health["resident_workers"] == 2
                assert health["alive_workers"] == 2
                assert health["leases"] == 1
                assert health["requests_served"] == 1
        finally:
            pool.close()
        health = pool.health()
        assert not health["healthy"]
        assert health["closed"]

    def test_health_in_process_pool(self):
        with MinerPool(ER, workers=1) as pool:
            health = pool.health()
            assert health["healthy"]
            assert health["resident_workers"] == 0


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestObservability:
    def test_pool_gauges(self):
        registry = MetricsRegistry()
        plan = compile_pattern(triangle())
        with MinerPool(PL, workers=2, metrics=registry) as pool:
            pool.mine(plan)
            pool.mine(plan)
            overhead = pool.dispatch_overhead_s
        snap = registry.snapshot()
        assert snap["engine.pool.workers"] == 2
        assert snap["engine.pool.resident_workers"] == 2
        assert snap["engine.pool.requests"] == 2
        assert snap["engine.pool.dispatch_overhead_us"] == pytest.approx(
            overhead * 1e6
        )
        # The per-request parallel family is still published.
        assert snap["engine.parallel.workers"] == 2


# ----------------------------------------------------------------------
# Entry points: apps API and CLI
# ----------------------------------------------------------------------
class TestEntryPoints:
    def test_apps_api_pool(self):
        from repro.apps import clique_count, subgraph_list
        from repro.errors import ConfigError

        base = clique_count(ER, 4)
        with MinerPool(ER, workers=2) as pool:
            got = clique_count(ER, 4, pool=pool)
            again = clique_count(ER, 4, pool=pool)
            assert got.counts == base.counts
            assert again.counts == base.counts
            with pytest.raises(ConfigError):
                clique_count(ER, 4, backend="oblivious", pool=pool)
            with pytest.raises(ConfigError):
                subgraph_list(ER, triangle(), collect=True, pool=pool)

    def test_cli_pool_workers_round_trip(self, capsys):
        matches = []
        for workers in ("1", "2", "4"):
            args = [
                "mine", "triangle", "--dataset", "As",
                "--workers", workers,
            ]
            assert main(args) == 0
            out = capsys.readouterr().out
            line = [ln for ln in out.splitlines() if "matches:" in ln]
            matches.append(line[0])
        assert len(set(matches)) == 1

    def test_cli_pool_auto_split(self, capsys):
        args = [
            "mine", "4-clique", "--dataset", "As",
            "--workers", "2", "--split-degree", "auto",
        ]
        assert main(args) == 0
        assert "matches:" in capsys.readouterr().out

    def test_cli_auto_split_in_process(self, capsys):
        # One worker: the pool runs in-process and never auto-splits,
        # so "auto" is accepted and changes nothing.
        args = ["mine", "triangle", "--dataset", "As", "--split-degree", "auto"]
        assert main(args) == 0
        assert "matches:" in capsys.readouterr().out
