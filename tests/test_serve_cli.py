"""Tests for the JSON-lines serving transport and ``flexminer serve``.

The stream loop's contract: one JSON response per request line, errors
are data (never stream deaths), overloads are flagged retryable, and a
``close`` op ends the loop.  The CLI test drives the full binary path —
register, a request stream with repeats, stats — through stdin.
"""

import io
import json
import threading
import time

import pytest

from repro.cli import main
from repro.engine import PatternAwareEngine
from repro.compiler import compile_pattern
from repro.graph import erdos_renyi, load_dataset
from repro.serve import (
    MineRequest,
    MiningService,
    handle_request,
    serve_stream,
)
from repro.patterns import from_name, triangle

ER = erdos_renyi(100, 0.08, seed=17, name="er")


@pytest.fixture
def service():
    with MiningService(workers=1) as svc:
        svc.register_graph("er", ER)
        yield svc


def run_lines(service, lines):
    out = io.StringIO()
    serve_stream(service, lines, out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestHandleRequest:
    def test_mine_round_trip(self, service):
        base = PatternAwareEngine(ER, compile_pattern(triangle())).run()
        response = handle_request(
            service, {"op": "mine", "graph": "er", "app": "TC"}
        )
        assert response["ok"]
        assert response["counts"] == list(base.counts)
        assert response["total"] == base.total
        assert not response["result_cache_hit"]
        again = handle_request(
            service, {"op": "mine", "graph": "er", "app": "TC"}
        )
        assert again["result_cache_hit"]
        assert again["counts"] == response["counts"]

    def test_mine_by_pattern_name(self, service):
        response = handle_request(
            service, {"op": "mine", "graph": "er", "pattern": "4-cycle"}
        )
        assert response["ok"]
        base = PatternAwareEngine(
            ER, compile_pattern(from_name("4-cycle"))
        ).run()
        assert response["counts"] == list(base.counts)

    def test_register_and_unregister(self, service):
        response = handle_request(
            service, {"op": "register", "name": "mi", "dataset": "Mi"}
        )
        assert response["ok"]
        assert response["epoch"] == 0
        mi = load_dataset("Mi")
        assert response["vertices"] == mi.num_vertices
        mined = handle_request(
            service, {"op": "mine", "graph": "mi", "app": "TC"}
        )
        assert mined["ok"]
        gone = handle_request(
            service, {"op": "unregister", "graph": "mi"}
        )
        assert gone["ok"]
        missing = handle_request(
            service, {"op": "mine", "graph": "mi", "app": "TC"}
        )
        assert not missing["ok"]
        assert missing["kind"] == "GraphNotRegistered"

    def test_errors_are_data(self, service):
        for payload, kind in (
            ({"op": "mine"}, "KeyError"),  # no graph
            ({"op": "mine", "graph": "nope", "app": "TC"},
             "GraphNotRegistered"),
            ({"op": "mine", "graph": "er", "app": "bad"}, "ConfigError"),
            ({"op": "mine", "graph": "er", "pattern": "not-a-pattern"},
             "PatternError"),
            ({"op": "explode"}, "ValueError"),
            ({"op": "unregister", "graph": "nope"},
             "GraphNotRegistered"),
        ):
            response = handle_request(service, payload)
            assert not response["ok"], payload
            assert response["kind"] == kind, payload

    def test_register_rejects_oversized_vertex_ids(self, service, tmp_path):
        # Before the int32 bound this request tried a 745 GiB allocation.
        path = tmp_path / "huge.el"
        path.write_text("0 1\n1 99999999999\n")
        response = handle_request(
            service, {"op": "register", "name": "huge", "path": str(path)}
        )
        assert not response["ok"]
        assert response["kind"] == "GraphFormatError"
        assert response["error"] == (
            f"{path}:2: vertex id 99999999999 does not fit int32"
        )

    def test_oversized_motif_request_fails_promptly(self, service):
        # k=9 would enumerate 2^36 edge subsets; the compiler refuses it
        # before any work, and neither the service thread nor the plan
        # key's single-flight slot stays held: the repeat fails the same
        # way and the next request is served.
        import time

        payload = {"op": "mine", "graph": "er", "app": "k-MC", "k": 9}
        started = time.perf_counter()
        for _ in range(2):
            response = handle_request(service, payload)
            assert not response["ok"]
            assert response["kind"] == "ValueError"
            assert "motif size" in response["error"]
        assert time.perf_counter() - started < 5.0
        ok = handle_request(
            service, {"op": "mine", "graph": "er", "app": "k-MC", "k": 3}
        )
        assert ok["ok"]
        assert service.stats()["active"] == 0

    def test_large_clique_request_answers_promptly(self, service):
        # The plan key's canonical form of a 40-clique is its full bit
        # mask, not a search over 40! vertex permutations.
        import time

        started = time.perf_counter()
        response = handle_request(
            service, {"op": "mine", "graph": "er", "app": "k-CL", "k": 40}
        )
        assert response["ok"], response
        assert response["counts"] == [0]
        assert time.perf_counter() - started < 5.0
        assert service.stats()["active"] == 0

    def test_overload_is_retryable(self, service):
        # Fill every admission slot with a client thread parked behind
        # the graph's mine lock.
        request = MineRequest(graph="er", app="TC")
        clients = [
            threading.Thread(target=service.request, args=(request,))
            for _ in range(service.max_active)
        ]
        with service._graphs["er"].mine_lock:
            for client in clients:
                client.start()
            deadline = time.monotonic() + 30.0
            while service.active_tasks < service.max_active:
                assert time.monotonic() < deadline, "clients not admitted"
                time.sleep(0.001)
            response = handle_request(
                service, {"op": "mine", "graph": "er", "app": "TC"}
            )
        for client in clients:
            client.join(30.0)
        assert service.active_tasks == 0
        assert not response["ok"]
        assert response["retry"] is True
        assert response["kind"] == "ServiceOverloaded"

    def test_stats_op(self, service):
        handle_request(service, {"op": "mine", "graph": "er", "app": "TC"})
        response = handle_request(service, {"op": "stats"})
        assert response["ok"]
        assert response["stats"]["completed"] == 1
        assert response["stats"]["caches"]["plan"]["compiles"] == 1


class TestServeStream:
    def test_stream_round_trip_and_close(self, service):
        responses = run_lines(service, [
            json.dumps({"op": "mine", "graph": "er", "app": "TC"}),
            "",  # blank lines are skipped
            "definitely not json",
            json.dumps({"op": "close"}),
            json.dumps({"op": "mine", "graph": "er", "app": "TC"}),
        ])
        # close stops the loop: the trailing mine is never served.
        assert len(responses) == 3
        assert responses[0]["ok"]
        assert not responses[1]["ok"]
        assert responses[2]["op"] == "close"

    def test_non_object_line_is_an_error(self, service):
        responses = run_lines(service, ["[1, 2, 3]"])
        assert not responses[0]["ok"]
        assert "JSON object" in responses[0]["error"]


class TestServeCLI:
    def _drive(self, monkeypatch, capsys, lines, argv):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("".join(l + "\n" for l in lines))
        )
        assert main(argv) == 0
        out = capsys.readouterr().out
        return [json.loads(line) for line in out.splitlines()]

    def test_cli_stream(self, monkeypatch, capsys, tmp_path):
        report_path = tmp_path / "serve_stats.json"
        responses = self._drive(
            monkeypatch, capsys,
            [
                json.dumps({"op": "mine", "graph": "Mi", "app": "TC"}),
                json.dumps({"op": "mine", "graph": "Mi", "app": "TC"}),
                json.dumps({"op": "stats"}),
            ],
            [
                "serve", "--register", "Mi",
                "--stats-report", str(report_path),
            ],
        )
        assert [r["ok"] for r in responses] == [True, True, True]
        assert responses[0]["total"] == responses[1]["total"]
        assert responses[1]["result_cache_hit"]
        stats = responses[2]["stats"]
        assert stats["caches"]["result"]["hits"] == 1
        report = json.loads(report_path.read_text())
        assert report["kind"] == "serve"
        assert report["data"]["completed"] == 2
        assert report["data"]["latency_ms"]["p99"] > 0

    def test_cli_register_alias(self, monkeypatch, capsys):
        responses = self._drive(
            monkeypatch, capsys,
            [json.dumps({"op": "mine", "graph": "tiny", "app": "TC"})],
            ["serve", "--register", "tiny=Mi"],
        )
        assert responses[0]["ok"]

    def test_cli_serve_has_no_mode_flag(self, capsys):
        # the service always runs the default walker
        with pytest.raises(SystemExit):
            main(["serve", "--batch-frontier"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cli_no_result_cache(self, monkeypatch, capsys):
        responses = self._drive(
            monkeypatch, capsys,
            [
                json.dumps({"op": "mine", "graph": "Mi", "app": "TC"}),
                json.dumps({"op": "mine", "graph": "Mi", "app": "TC"}),
            ],
            ["serve", "--register", "Mi", "--no-result-cache"],
        )
        assert responses[1]["ok"]
        assert not responses[1]["result_cache_hit"]
        assert responses[1]["plan_cache_hit"]
