"""Concurrency tests for the mining service.

N threads hammer one service with interleaved requests across two
graphs and three patterns.  The assertions are exact, not statistical:

* every response is bit-identical to the direct serial engine for its
  (graph, pattern) cell — arrival order cannot leak into results;
* the compiler ran exactly once per canonical pattern (single-flight
  plan cache), so plan-cache hits match the closed-form expectation
  ``requests - distinct_patterns``;
* admission control never let more than ``max_active`` requests in
  flight, and overloads surfaced as rejections, never hangs;
* ``request()`` and ``submit()`` cache hits run on the caller's thread:
  they return while every executor thread is parked.
"""

import sys
import threading
import time

import pytest

from repro.compiler import compile_pattern
from repro.engine import PatternAwareEngine
from repro.errors import ServiceClosed, ServiceOverloaded
from repro.graph import erdos_renyi, power_law_cluster
from repro.obs import MetricsRegistry
from repro.serve import MineRequest, MiningService
from repro.patterns import four_cycle, k_clique, triangle

GRAPHS = {
    "er": erdos_renyi(100, 0.08, seed=11, name="er"),
    "pl": power_law_cluster(120, 3, 0.4, seed=13, name="pl"),
}
PATTERNS = {
    "triangle": triangle(),
    "4-clique": k_clique(4),
    "4-cycle": four_cycle(),
}

#: Direct serial ground truth per (graph, pattern) cell.
BASELINE = {
    (gname, pname): PatternAwareEngine(
        graph, compile_pattern(pattern)
    ).run()
    for gname, graph in GRAPHS.items()
    for pname, pattern in PATTERNS.items()
}


def _wait_until(predicate, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def _call_within(timeout_s: float, fn, *args):
    """``fn(*args)`` on a helper thread; fails instead of hanging."""
    outcome = []

    def run() -> None:
        try:
            outcome.append(fn(*args))
        except BaseException as exc:  # re-raised on the test thread
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), f"{fn.__name__} did not return"
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0]


def _same_as_baseline(response, cell) -> bool:
    base = BASELINE[cell]
    return (
        response.counts == base.counts
        and response.counters.as_dict() == base.counters.as_dict()
    )


def _cells(repeat: int):
    """The interleaved request schedule: every cell, ``repeat`` times."""
    return [
        (gname, pname)
        for _ in range(repeat)
        for gname in GRAPHS
        for pname in PATTERNS
    ]


class TestInterleavedRequests:
    @pytest.mark.parametrize("threads", [4, 8])
    def test_results_independent_of_arrival_order(self, threads):
        repeat = 4
        schedule = _cells(repeat)
        with MiningService(
            workers=1, max_active=len(schedule), threads=threads
        ) as svc:
            for name, graph in GRAPHS.items():
                svc.register_graph(name, graph)
            barrier = threading.Barrier(threads)
            results = {}
            errors = []

            def worker(worker_id: int) -> None:
                barrier.wait()  # maximize interleaving
                try:
                    for i, (gname, pname) in enumerate(schedule):
                        if i % threads != worker_id:
                            continue
                        response = svc.request(
                            MineRequest(
                                graph=gname, pattern=PATTERNS[pname]
                            )
                        )
                        results[(worker_id, i)] = (gname, pname, response)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            pool = [
                threading.Thread(target=worker, args=(t,))
                for t in range(threads)
            ]
            for t in pool:
                t.start()
            for t in pool:
                t.join()

            assert not errors
            assert len(results) == len(schedule)
            for gname, pname, response in results.values():
                base = BASELINE[(gname, pname)]
                assert response.counts == base.counts
                assert (
                    response.counters.as_dict() == base.counters.as_dict()
                )

            # Closed-form plan-cache expectation: the cache is global
            # across graphs, so 3 distinct canonical patterns compile
            # exactly once each; every other request is a hit.
            assert svc.compiles == len(PATTERNS)
            plan = svc.cache_stats()["plan"]
            assert plan["misses"] == len(PATTERNS)
            assert plan["hits"] == len(schedule) - len(PATTERNS)

            # Admission stayed within bounds and nothing was rejected.
            assert svc.active_peak <= len(schedule)
            assert svc.requests_rejected == 0
            assert svc.requests_completed == len(schedule)

    def test_single_flight_compiles_under_concurrent_first_requests(self):
        # 8 threads race the very first request for the same pattern:
        # one leader compiles, everyone else waits for that plan.
        with MiningService(workers=1, max_active=16, threads=8) as svc:
            svc.register_graph("er", GRAPHS["er"])
            barrier = threading.Barrier(8)
            responses = []
            lock = threading.Lock()

            def worker() -> None:
                barrier.wait()
                response = svc.request(
                    MineRequest(graph="er", pattern=k_clique(4))
                )
                with lock:
                    responses.append(response)

            pool = [threading.Thread(target=worker) for _ in range(8)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()

            assert len(responses) == 8
            assert svc.compiles == 1
            base = BASELINE[("er", "4-clique")]
            for response in responses:
                assert response.counts == base.counts
            # Single-flight result cache: the mine also ran only once.
            stats = svc.stats()
            assert (
                stats["graphs"]["er"]["pool"]["requests_served"] == 1
            )

    def test_admission_bound_is_enforced_under_load(self):
        max_active = 3
        with MiningService(
            workers=1, max_active=max_active, threads=2
        ) as svc:
            svc.register_graph("er", GRAPHS["er"])
            entry = svc._graphs["er"]
            admitted = []
            with entry.mine_lock:  # park every admitted request
                for _ in range(max_active):
                    admitted.append(
                        svc.submit(MineRequest(graph="er", app="TC"))
                    )
                rejected = 0
                for _ in range(5):
                    try:
                        svc.submit(MineRequest(graph="er", app="TC"))
                    except ServiceOverloaded:
                        rejected += 1
                assert rejected == 5
                assert svc.active_tasks == max_active
            for future in admitted:
                future.result()
            assert svc.active_peak == max_active
            assert svc.requests_rejected == 5
            # Rejections cleared: the service takes traffic again.
            assert svc.mine("er", app="TC").counts


class TestCallerThreadRoute:
    """A waiting caller is served on its own thread: no executor hop."""

    def test_request_returns_while_the_only_executor_thread_is_parked(
        self,
    ):
        with MiningService(workers=1, threads=1, max_active=4) as svc:
            for name, graph in GRAPHS.items():
                svc.register_graph(name, graph)
            with svc._graphs["er"].mine_lock:
                parked = svc.submit(MineRequest(graph="er", app="TC"))
                # the executor thread took the miss and waits on the lock
                _wait_until(lambda: svc.stats()["queue_depth"] == 0)
                response = _call_within(
                    30.0,
                    svc.request,
                    MineRequest(graph="pl", pattern=k_clique(4)),
                )
                assert _same_as_baseline(response, ("pl", "4-clique"))
                assert not parked.done()
            assert _same_as_baseline(parked.result(), ("er", "triangle"))
            assert svc.active_tasks == 0

    def test_request_is_rejected_when_submits_fill_every_slot(self):
        registry = MetricsRegistry()
        with MiningService(
            workers=1, threads=1, max_active=2, metrics=registry
        ) as svc:
            svc.register_graph("er", GRAPHS["er"])
            with svc._graphs["er"].mine_lock:
                parked = [
                    svc.submit(MineRequest(graph="er", app="TC"))
                    for _ in range(2)
                ]
                with pytest.raises(ServiceOverloaded) as exc:
                    svc.request(MineRequest(graph="er", app="TC"))
                assert (exc.value.active, exc.value.max_active) == (2, 2)
                assert svc.requests_rejected == 1
                assert registry.snapshot()["serve.rejected"] == 1
            for future in parked:
                assert _same_as_baseline(future.result(), ("er", "triangle"))
            stats = svc.stats()
            assert (stats["active"], stats["queue_depth"]) == (0, 0)
            assert stats["completed"] == 2

    def test_submit_miss_parked_behind_the_mine_lock_is_not_done(self):
        with MiningService(workers=1, threads=1) as svc:
            svc.register_graph("er", GRAPHS["er"])
            with svc._graphs["er"].mine_lock:
                miss = svc.submit(MineRequest(graph="er", app="TC"))
                _wait_until(lambda: svc.stats()["queue_depth"] == 0)
                assert not miss.done()  # on the executor, behind the lock
            assert _same_as_baseline(miss.result(), ("er", "triangle"))
            assert svc.active_tasks == 0

    def test_close_drains_an_inline_request_that_holds_a_lease(self):
        svc = MiningService(workers=1)
        svc.register_graph("er", GRAPHS["er"])
        pool = svc._graphs["er"].pool
        responses = []
        with svc._graphs["er"].mine_lock:
            client = threading.Thread(
                target=lambda: responses.append(
                    svc.request(MineRequest(graph="er", pattern=k_clique(4)))
                )
            )
            client.start()
            _wait_until(lambda: pool.leases == 1)
            closer = threading.Thread(target=svc.close)
            closer.start()
            _wait_until(lambda: svc.closed)
            with pytest.raises(ServiceClosed):
                svc.request(MineRequest(graph="er", app="TC"))
            closer.join(0.05)
            assert closer.is_alive()  # close() waits for the request
            assert not pool.closed
        client.join(30.0)
        closer.join(30.0)
        assert not client.is_alive() and not closer.is_alive()
        assert _same_as_baseline(responses[0], ("er", "4-clique"))
        assert pool.closed
        assert pool.leases == 0
        assert svc.active_tasks == 0

    def test_caller_threads_keep_admission_exact_under_stress(self):
        # More client threads than cores, a short switch interval, and
        # both routes at once (request() and submit(), each with hits
        # and forced misses): a lost update to the admission
        # counters or a pool lease would leave a slot or lease behind.
        clients, rounds = 6, 12
        cells = [(g, p) for g in GRAPHS for p in PATTERNS]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with MiningService(
                workers=1, threads=2, max_active=clients * 2
            ) as svc:
                for name, graph in GRAPHS.items():
                    svc.register_graph(name, graph)
                pools = [entry.pool for entry in svc._graphs.values()]
                barrier = threading.Barrier(clients)
                served, errors = [], []

                def client(k: int) -> None:
                    barrier.wait()
                    try:
                        for i in range(rounds):
                            cell = cells[(k + i) % len(cells)]
                            request = MineRequest(
                                graph=cell[0],
                                pattern=PATTERNS[cell[1]],
                                use_cache=(i % 4 != 0),
                            )
                            if i % 2:
                                response = svc.submit(request).result(60)
                            else:
                                response = svc.request(request)
                            served.append((cell, response))
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [
                    threading.Thread(target=client, args=(k,))
                    for k in range(clients)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(120.0)
                assert not any(t.is_alive() for t in threads)
                assert not errors
                assert len(served) == clients * rounds
                for cell, response in served:
                    assert _same_as_baseline(response, cell)
                stats = svc.stats()
                assert (stats["active"], stats["queue_depth"]) == (0, 0)
                assert stats["rejected"] == 0
                assert stats["completed"] == clients * rounds
                assert stats["active_peak"] <= clients
                assert all(pool.leases == 0 for pool in pools)
                plan = svc.cache_stats()["plan"]
                assert plan["misses"] == len(PATTERNS)
                assert plan["hits"] == clients * rounds - len(PATTERNS)
        finally:
            sys.setswitchinterval(previous)

