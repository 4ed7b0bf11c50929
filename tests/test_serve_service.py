"""Tests for the resident mining service (repro.serve).

The serving layer's contract: every served request — executed, plan-
cached or result-cached, in any arrival order — returns counts and op
counters bit-identical to a direct serial engine run; the compiler runs
exactly once per canonical pattern per service lifetime; graph
re-registration invalidates exactly that graph's memoized results; and
admission control rejects (never queues unboundedly, never hangs) past
``max_active``.
"""

import pytest

from repro.apps import clique_count, motif_count, run_app, subgraph_list
from repro.compiler import compile_pattern
from repro.engine import ReferenceEngine, mine_multi
from repro.errors import (
    ConfigError,
    GraphNotRegistered,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.graph import erdos_renyi, power_law_cluster
from repro.obs import MetricsRegistry
from repro.serve import MineRequest, MiningService, plan_cache_key
from repro.patterns import four_cycle, k_clique, triangle

ER = erdos_renyi(120, 0.07, seed=3, name="er")
PL = power_law_cluster(150, 3, 0.4, seed=5, name="pl")


def serial(graph, plan):
    """The reference every served answer is held to."""
    return ReferenceEngine(graph, plan).run()


@pytest.fixture
def service():
    with MiningService(workers=1) as svc:
        svc.register_graph("er", ER)
        yield svc


# ----------------------------------------------------------------------
# Bit-identical served results
# ----------------------------------------------------------------------
class TestZeroDrift:
    @pytest.mark.parametrize(
        "pattern", [triangle(), k_clique(4), four_cycle()],
        ids=["triangle", "4-clique", "4-cycle"],
    )
    def test_served_bit_identical_to_direct(self, service, pattern):
        base = serial(ER, compile_pattern(pattern))
        got = service.mine("er", pattern=pattern)
        assert got.counts == base.counts
        assert got.counters.as_dict() == base.counters.as_dict()

    def test_cache_hit_bit_identical(self, service):
        first = service.mine("er", app="TC")
        second = service.mine("er", app="TC")
        assert second.result_cache_hit
        assert second.counts == first.counts
        assert second.counters.as_dict() == first.counters.as_dict()

    def test_motifs_served(self, service):
        # k-MC is served by decomposition: the MultiPlan's counts, and
        # the counters the direct apps route charges (its chain plans').
        from repro.compiler import compile_motifs

        for k in (3, 4):
            got = service.mine("er", app="k-MC", k=k)
            assert got.counts == mine_multi(ER, compile_motifs(k)).counts
            direct = motif_count(ER, k)
            assert got.counters.as_dict() == direct.counters.as_dict()

    def test_batch_frontier_service_bit_identical(self):
        with MiningService(workers=1, batch_frontier=True) as svc:
            svc.register_graph("er", ER)
            base = serial(ER, compile_pattern(k_clique(4)))
            got = svc.mine("er", pattern=k_clique(4))
            assert got.counts == base.counts
            assert got.counters.as_dict() == base.counters.as_dict()

    def test_cached_counters_are_private_copies(self, service):
        first = service.mine("er", app="TC")
        first.counters.matches = -1  # mutate the returned copy
        second = service.mine("er", app="TC")
        assert second.result_cache_hit
        assert second.counters.matches != -1


# ----------------------------------------------------------------------
# Plan cache: one compile per canonical pattern, ever
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_compiles_once_per_canonical_pattern(self, service):
        for _ in range(3):
            service.mine("er", app="TC")
            service.mine("er", pattern=k_clique(4))
            service.mine("er", pattern=four_cycle())
        assert service.compiles == 3
        stats = service.cache_stats()["plan"]
        assert stats["misses"] == 3
        assert stats["hits"] == 6

    def test_isomorphic_patterns_share_one_plan(self, service):
        # The same 4-cycle under two different vertex numberings: one
        # canonical form, one compile, identical counts.
        from repro.patterns import Pattern

        a = Pattern(4, [(0, 1), (1, 2), (2, 3), (3, 0)], name="cyc-a")
        b = Pattern(4, [(0, 2), (2, 1), (1, 3), (3, 0)], name="cyc-b")
        assert a.canonical_form() == b.canonical_form()
        first = service.mine("er", pattern=a)
        second = service.mine("er", pattern=b)
        assert service.compiles == 1
        assert second.plan_cache_hit
        assert first.counts == second.counts

    def test_app_and_explicit_pattern_share_plan(self, service):
        # TC is k_clique(3): the app shorthand and the explicit
        # pattern hit the same canonical entry.
        service.mine("er", app="TC")
        service.mine("er", pattern=triangle())
        assert service.compiles == 1

    def test_induced_gets_its_own_entry(self, service):
        service.mine("er", pattern=four_cycle())
        service.mine("er", pattern=four_cycle(), induced=True)
        assert service.compiles == 2

    def test_matching_order_gets_its_own_entry(self, service):
        service.mine("er", pattern=four_cycle())
        service.mine(
            "er", pattern=four_cycle(), matching_order=(0, 1, 2, 3)
        )
        assert service.compiles == 2

    def test_plan_cache_is_global_across_graphs(self, service):
        service.register_graph("pl", PL)
        service.mine("er", app="TC")
        service.mine("pl", app="TC")
        assert service.compiles == 1

    def test_plan_key_shapes(self):
        unordered = plan_cache_key(four_cycle())
        ordered = plan_cache_key(
            four_cycle(), matching_order=(0, 1, 2, 3)
        )
        motifs = plan_cache_key(motif_k=3)
        assert unordered[0] == "pattern"
        assert ordered[0] == "pattern-ordered"
        assert motifs == ("motifs", 3)
        with pytest.raises(ConfigError):
            plan_cache_key()
        with pytest.raises(ConfigError):
            plan_cache_key(four_cycle(), motif_k=3)


# ----------------------------------------------------------------------
# Result cache: epochs and invalidation
# ----------------------------------------------------------------------
class TestResultCache:
    def test_use_cache_false_always_executes(self, service):
        service.mine("er", app="TC")
        again = service.mine("er", app="TC", use_cache=False)
        assert not again.result_cache_hit
        # Both requests actually reached the pool (no memo short-cut).
        stats = service.stats()
        assert stats["graphs"]["er"]["pool"]["requests_served"] == 2

    def test_reregistration_bumps_epoch_and_invalidates(self, service):
        first = service.mine("er", app="TC")
        assert first.epoch == 0
        epoch = service.register_graph("er", PL)  # same name, new graph
        assert epoch == 1
        fresh = service.mine("er", app="TC")
        assert fresh.epoch == 1
        assert not fresh.result_cache_hit  # old memo is gone
        base = serial(PL, compile_pattern(triangle()))
        assert fresh.counts == base.counts

    def test_invalidation_is_per_graph(self, service):
        service.register_graph("pl", PL)
        service.mine("er", app="TC")
        service.mine("pl", app="TC")
        service.register_graph("er", ER)  # re-register er only
        assert service.mine("pl", app="TC").result_cache_hit
        assert not service.mine("er", app="TC").result_cache_hit

    def test_unregister_drops_graph_and_memos(self, service):
        service.mine("er", app="TC")
        service.unregister_graph("er")
        assert service.graphs() == []
        with pytest.raises(GraphNotRegistered):
            service.mine("er", app="TC")
        with pytest.raises(GraphNotRegistered):
            service.unregister_graph("er")

    def test_split_degree_keys_separately(self, service):
        whole = service.mine("er", pattern=triangle())
        chunked = service.mine(
            "er", pattern=triangle(), split_degree=16
        )
        assert not chunked.result_cache_hit  # different result key
        assert chunked.counts == whole.counts

    def test_disabled_result_cache_never_hits(self):
        with MiningService(workers=1, result_cache=False) as svc:
            svc.register_graph("er", ER)
            svc.mine("er", app="TC")
            again = svc.mine("er", app="TC")
            assert not again.result_cache_hit
            assert again.plan_cache_hit  # plan cache is independent


# ----------------------------------------------------------------------
# Admission control and lifecycle
# ----------------------------------------------------------------------
class TestAdmission:
    def test_overload_rejected_with_backpressure(self):
        with MiningService(workers=1, max_active=2, threads=1) as svc:
            svc.register_graph("er", ER)
            # Hold the graph's mine lock so admitted requests park.
            entry = svc._graphs["er"]
            with entry.mine_lock:
                futures = [
                    svc.submit(MineRequest(graph="er", app="TC"))
                    for _ in range(2)
                ]
                with pytest.raises(ServiceOverloaded) as exc:
                    svc.submit(MineRequest(graph="er", app="TC"))
                assert exc.value.active == 2
                assert exc.value.max_active == 2
                assert svc.active_tasks == 2
            for future in futures:
                assert future.result().counts  # drains after release
            assert svc.requests_rejected == 1
            assert svc.active_tasks == 0

    def test_closed_service_rejects_everything(self):
        svc = MiningService(workers=1)
        svc.register_graph("er", ER)
        svc.close()
        assert svc.closed
        with pytest.raises(ServiceClosed):
            svc.submit(MineRequest(graph="er", app="TC"))
        with pytest.raises(ServiceClosed):
            svc.register_graph("pl", PL)
        svc.close()  # idempotent

    def test_submit_rolls_back_admission_on_executor_failure(
        self, service, monkeypatch
    ):
        # Regression: if the executor rejects the task after admission,
        # the active/queued counters must roll back or the slot leaks
        # until the service dies of phantom backpressure.
        real_submit = service._executor.submit

        def boom(*args, **kwargs):
            raise RuntimeError("executor boom")

        monkeypatch.setattr(service._executor, "submit", boom)
        with pytest.raises(RuntimeError, match="executor boom"):
            service.submit(MineRequest(graph="er", app="TC"))
        assert service.active_tasks == 0
        monkeypatch.setattr(service._executor, "submit", real_submit)
        assert service.mine("er", app="TC").counts  # slot not leaked

    def test_request_validation(self, service):
        with pytest.raises(ConfigError):
            service.mine("er")  # neither app nor pattern
        with pytest.raises(ConfigError):
            service.mine("er", pattern=triangle(), motif_k=3)
        with pytest.raises(ConfigError):
            service.mine("er", app="TC", pattern=triangle())
        with pytest.raises(ConfigError):
            service.mine("er", app="SL")  # SL needs a pattern
        with pytest.raises(ConfigError):
            service.mine("er", app="nope")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MiningService(max_active=0)
        with pytest.raises(ConfigError):
            MiningService(threads=0)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestResourceLifecycle:
    """Regressions for the FM300-family findings the dataflow verifier
    surfaced: every pool must reach close() on every path, and leases
    must balance even when the request path errors out."""

    def test_close_retires_every_pool_despite_failure(self):
        svc = MiningService(workers=1)
        svc.register_graph("er", ER)
        svc.register_graph("pl", PL)
        pools = [entry.pool for entry in svc._graphs.values()]
        first = pools[0]
        real_close = first.close

        def boom():
            real_close()
            raise OSError("pool close boom")

        first.close = boom
        with pytest.raises(OSError, match="pool close boom"):
            svc.close()
        assert svc.closed
        assert all(pool.closed for pool in pools)

    def test_register_failure_reaps_fresh_pool(self, service, monkeypatch):
        # If the registry insert raises, the service never took
        # ownership of the just-built pool — register_graph must close
        # it before re-raising (regression: FM301 pool leak).
        import repro.serve.service as service_mod

        created = []
        real_pool = service_mod.MinerPool

        def tracking(*args, **kwargs):
            pool = real_pool(*args, **kwargs)
            created.append(pool)
            return pool

        monkeypatch.setattr(service_mod, "MinerPool", tracking)

        class _BoomDict(dict):
            def __setitem__(self, key, value):
                raise RuntimeError("registry boom")

        service._graphs = _BoomDict(service._graphs)
        with pytest.raises(RuntimeError, match="registry boom"):
            service.register_graph("pl", PL)
        assert len(created) == 1
        assert created[0].closed

    def test_reregistration_retires_old_pool(self, service):
        old_pool = service._graphs["er"].pool
        epoch = service.register_graph("er", ER)
        assert epoch == 1
        assert old_pool.closed
        assert not service._graphs["er"].pool.closed
        assert service.mine("er", app="TC").counts

    def test_unknown_graph_message_reads_the_registry_under_its_lock(
        self, service
    ):
        # Regression: the "known: ..." list iterated the registry after
        # releasing its lock, so a concurrent (un)registration could
        # raise "dictionary changed size during iteration" instead of
        # GraphNotRegistered.
        lock = service._registry_lock

        class _LockCheckedDict(dict):
            def __iter__(self):
                assert lock.locked(), "registry iterated without its lock"
                return super().__iter__()

        service._graphs = _LockCheckedDict(service._graphs)
        with pytest.raises(GraphNotRegistered, match=r"known: er\)"):
            service.graph_epoch("nope")

    def test_missing_graph_leases_nothing(self, service):
        # Regression (FM302): leases must balance on every path through
        # the request pipeline, including lookup failures.
        pool = service._graphs["er"].pool
        assert pool.leases == 0
        with pytest.raises(GraphNotRegistered):
            service._leased_entry("nope")
        assert pool.leases == 0
        with pytest.raises(GraphNotRegistered):
            service.mine("nope", app="TC")
        assert pool.leases == 0


class TestObservability:
    def test_serve_metrics_published(self):
        registry = MetricsRegistry()
        with MiningService(workers=1, metrics=registry) as svc:
            svc.register_graph("er", ER)
            svc.mine("er", app="TC")
            svc.mine("er", app="TC")
        snap = registry.snapshot()
        assert snap["serve.requests"] == 2
        assert snap["serve.plan_cache.compiles"] == 1
        assert snap["serve.plan_cache.hits"] == 1
        assert snap["serve.result_cache.hits"] == 1
        assert snap["serve.result_cache.misses"] == 1
        assert snap["serve.request_ms"]["count"] == 2
        assert "p99" in snap["serve.request_ms"]
        assert snap["serve.graphs"] == 1

    def test_stats_snapshot(self, service):
        service.mine("er", app="TC")
        stats = service.stats()
        assert stats["completed"] == 1
        assert stats["qps"] > 0
        assert stats["graphs"]["er"]["epoch"] == 0
        assert stats["graphs"]["er"]["pool"]["healthy"]
        assert stats["caches"]["plan"]["compiles"] == 1
        assert stats["latency_ms"]["count"] == 1

    def test_stats_report_envelope(self, service):
        service.mine("er", app="TC")
        report = service.stats_report(source="test")
        assert report["kind"] == "serve"
        assert report["meta"]["source"] == "test"
        assert report["data"]["completed"] == 1
        assert "metrics" in report["data"]

    def test_fake_clock_latency_arithmetic(self):
        # Two clock reads per request span: latency == one step.
        reads = iter(range(1000))

        def clock():
            return float(next(reads))

        with MiningService(workers=1, clock=clock) as svc:
            svc.register_graph("er", ER)
            response = svc.mine("er", app="TC")
        # request span: 2 mine-span reads nested inside 2 request
        # reads, each read advancing 1.0 -> latency exactly 3.0.
        assert response.latency_s == 3.0


# ----------------------------------------------------------------------
# Apps API passthrough
# ----------------------------------------------------------------------
class TestAppsPassthrough:
    def test_apps_served_bit_identical(self, service):
        base = clique_count(ER, 4)
        got = clique_count(ER, 4, service=service)
        assert got.counts == base.counts
        assert got.counters.as_dict() == base.counters.as_dict()
        # The graph object was recognized as already registered.
        assert service.graphs() == ["er"]

    def test_apps_all_four_via_run_app(self, service):
        for app, kwargs in (
            ("TC", {}),
            ("k-CL", {"k": 4}),
            ("SL", {"pattern": four_cycle()}),
            ("k-MC", {"k": 3}),
        ):
            direct = run_app(ER, app, **kwargs)
            served = run_app(ER, app, service=service, **kwargs)
            assert served.counts == direct.counts
            assert (
                served.counters.as_dict() == direct.counters.as_dict()
            )

    def test_unregistered_graph_autoregisters(self, service):
        from repro.compiler import compile_motifs

        got = motif_count(PL, 3, service=service)
        assert got.counts == mine_multi(PL, compile_motifs(3)).counts
        assert len(service.graphs()) == 2  # er + the anon entry

    def test_service_excludes_pool_and_workers(self, service):
        with pytest.raises(ConfigError):
            clique_count(ER, 3, service=service, workers=4)
        with pytest.raises(ConfigError):
            clique_count(ER, 3, service=service, backend="sim")
        with pytest.raises(ConfigError):
            subgraph_list(
                ER, triangle(), service=service, collect=True
            )
