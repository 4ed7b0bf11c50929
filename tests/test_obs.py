"""Unit tests for the observability layer (``repro.obs``)."""

import json
import logging

import pytest

from repro.obs import (
    HOST_PID,
    NULL_REGISTRY,
    NULL_TRACER,
    SIM_PID,
    DiffRow,
    MetricsRegistry,
    Tracer,
    diff_reports,
    flatten,
    get_logger,
    load_report,
    make_report,
    render_diff,
    render_report,
    validate_trace,
    write_report,
)
from repro.obs.metrics import metric_key


class TestMetrics:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("events")
        c.inc()
        c.inc(4)
        assert c.get() == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_instruments_memoized(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g", pe=3) is reg.gauge("g", pe=3)
        assert reg.gauge("g", pe=3) is not reg.gauge("g", pe=4)

    def test_metric_key_label_order(self):
        assert metric_key("x", {"b": 2, "a": 1}) == "x{a=1,b=2}"
        assert metric_key("x", {}) == "x"

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("n")
        with pytest.raises(TypeError):
            reg.gauge("n")

    def test_gauge(self):
        g = MetricsRegistry().gauge("occupancy")
        g.set(7)
        g.add(-2)
        assert g.get() == 5

    def test_histogram(self):
        h = MetricsRegistry().histogram("lat")
        for v in (1, 2, 3, 100):
            h.observe(v)
        got = h.get()
        assert got["count"] == 4
        assert got["sum"] == 106
        assert got["min"] == 1
        assert got["max"] == 100
        assert got["mean"] == pytest.approx(26.5)
        # 1 -> bucket 0, 2 -> 1, 3 -> 2, 100 -> 7
        assert h.buckets == {0: 1, 1: 1, 2: 1, 7: 1}

    def test_histogram_quantiles_in_get(self):
        h = MetricsRegistry().histogram("lat")
        for v in range(1, 9):
            h.observe(v)
        got = h.get()
        assert got["p50"] == pytest.approx(4.0)
        assert got["p90"] <= got["p99"] <= 8.0
        assert got["p50"] <= got["p90"]

    def test_quantile_exact_for_single_valued_bucket(self):
        h = MetricsRegistry().histogram("lat")
        for _ in range(8):
            h.observe(4)
        # interpolation lands inside (2, 4]; min/max clamp makes the
        # single-valued distribution exact at every quantile
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 4.0

    def test_quantile_clamped_to_observed_range(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(3)
        h.observe(100)
        assert h.quantile(0.0) == 3.0
        assert h.quantile(1.0) == 100.0
        assert 3.0 <= h.quantile(0.5) <= 100.0

    def test_quantile_empty_and_invalid(self):
        h = MetricsRegistry().histogram("lat")
        assert h.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_snapshot_and_as_dict(self):
        reg = MetricsRegistry()
        reg.counter("c", pe=1).inc(3)
        reg.histogram("h").observe(5)
        snap = reg.snapshot()
        assert snap["c{pe=1}"] == 3
        assert snap["h"]["count"] == 1
        full = reg.as_dict()
        assert full["c{pe=1}"]["kind"] == "counter"
        assert full["c{pe=1}"]["labels"] == {"pe": 1}
        assert full["h"]["kind"] == "histogram"
        assert full["h"]["buckets"] == {3: 1}

    def test_diff_skips_histograms(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.histogram("h").observe(1)
        before = reg.snapshot()
        reg.counter("c").inc(3)
        reg.counter("new").inc(1)
        reg.histogram("h").observe(1)
        assert reg.diff(before) == {"c": 3, "new": 1}

    def test_absorb_nested(self):
        reg = MetricsRegistry()
        reg.absorb(
            {"cycles": 10, "cache": {"hits": 3}, "name": "skip",
             "list": [1, 2]},
            prefix="sim.",
        )
        snap = reg.snapshot()
        assert snap == {"sim.cycles": 10, "sim.cache.hits": 3}

    def test_absorb_repeats_like_per_leaf_gauges(self):
        # The cached gauges of a repeated bundle are the registry's own:
        # snapshot() and as_dict() read exactly what one gauge().set()
        # per leaf would have written, bundle after bundle.
        fast, slow = MetricsRegistry(), MetricsRegistry()
        for step in range(3):
            bundle = {
                "hits": step, "on": step == 1, "ratio": step / 4,
                "inner": {"deep": 10 + step}, "tag": "skip",
            }
            fast.absorb(bundle, prefix="engine.")
            fast.absorb(bundle, prefix="lane.", lane=step)
            for name, value in (
                ("hits", step), ("on", int(step == 1)),
                ("ratio", step / 4), ("inner.deep", 10 + step),
            ):
                slow.gauge("engine." + name).set(value)
                slow.gauge("lane." + name, lane=step).set(value)
            assert fast.snapshot() == slow.snapshot()
            assert fast.as_dict() == slow.as_dict()
        assert fast.gauge("engine.hits").get() == 2
        fast.counter("engine.taken").inc()
        with pytest.raises(TypeError):
            fast.absorb({"taken": 1}, prefix="engine.")

    def test_absorb_leaf_kinds(self):
        # bool leaves become 0/1, int and float leaves pass through,
        # nested mappings of any Mapping type recurse with a dotted
        # prefix, and sequences and strings are skipped.
        from types import MappingProxyType

        reg = MetricsRegistry()
        reg.absorb(
            {
                "on": True,
                "off": False,
                "n": 7,
                "ratio": 0.25,
                "inner": MappingProxyType(
                    {"deep": {"x": 2.5, "flag": True}, "seq": (1, 2)}
                ),
                "rows": [3, 4],
                "tag": "skip",
            },
            prefix="p.",
            lane=1,
        )
        assert reg.snapshot() == {
            "p.on{lane=1}": 1,
            "p.off{lane=1}": 0,
            "p.n{lane=1}": 7,
            "p.ratio{lane=1}": 0.25,
            "p.inner.deep.x{lane=1}": 2.5,
            "p.inner.deep.flag{lane=1}": 1,
        }
        assert all(
            reg.as_dict()[key]["kind"] == "gauge" for key in reg
        )
        before = reg.snapshot()
        reg.absorb({"n": 9, "inner": {"deep": {"x": 2.5}}}, prefix="p.",
                   lane=1)
        assert reg.diff(before) == {"p.n{lane=1}": 2}

    def test_disabled_registry_is_inert(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("c")
        c.inc(5)
        assert c.get() == 0
        # every instrument of a disabled registry is one shared null
        assert reg.counter("c") is reg.gauge("g") is reg.histogram("h")
        assert len(reg) == 0
        assert reg.snapshot() == {}
        assert NULL_REGISTRY.enabled is False

    def test_len_and_iter(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.gauge("b")
        assert len(reg) == 2
        assert sorted(reg) == ["a", "b"]
        # no clear(): a bound handle stays the registry's instrument
        assert not hasattr(reg, "clear")


class TestTracer:
    def test_span_emits_matched_pair(self):
        t = Tracer()
        with t.span("compile", pattern="triangle"):
            pass
        events = t.events()
        assert [e["ph"] for e in events] == ["B", "E"]
        assert events[0]["name"] == events[1]["name"] == "compile"
        assert events[0]["args"] == {"pattern": "triangle"}
        assert validate_trace(events) == []

    def test_primitives(self):
        t = Tracer()
        t.complete("task", 10.0, 5.0, pid=SIM_PID, tid=2, cat="task")
        t.instant("overflow", 12.0, pid=SIM_PID, tid=2)
        t.counter("noc", 13.0, {"requests": 7}, pid=SIM_PID)
        x, i, c = t.events()
        assert (x["ph"], x["dur"], x["tid"]) == ("X", 5.0, 2)
        assert (i["ph"], i["s"]) == ("i", "t")
        assert (c["ph"], c["args"]) == ("C", {"requests": 7})

    def test_export_sorted_and_metadata_first(self):
        t = Tracer()
        t.thread_name("PE 0", pid=SIM_PID, tid=0)
        t.complete("b", 20.0, 1.0, pid=SIM_PID)
        t.complete("a", 5.0, 1.0, pid=SIM_PID, tid=1)
        events = t.events()
        assert events[0]["ph"] == "M"
        assert [e["ts"] for e in events[1:]] == [5.0, 20.0]
        assert validate_trace(t.to_dict()) == []

    def test_json_round_trip(self, tmp_path):
        t = Tracer()
        with t.span("phase"):
            t.complete("work", t.now_us(), 1.0)
        loaded = json.loads(t.to_json())
        assert loaded["otherData"]["tool"] == "flexminer"
        path = tmp_path / "trace.json"
        t.write(str(path))
        with open(path) as f:
            on_disk = json.load(f)
        assert on_disk == loaded
        assert validate_trace(on_disk) == []

    def test_max_events_drops(self):
        t = Tracer(max_events=2)
        for i in range(5):
            t.instant("e", float(i))
        assert len(t._events) == 2
        assert t.dropped == 3
        assert t.to_dict()["otherData"]["dropped_events"] == 3

    def test_null_tracer_is_inert(self):
        NULL_TRACER.begin("x", 0)
        NULL_TRACER.complete("x", 0, 1)
        with NULL_TRACER.span("x"):
            pass
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.events() == []
        assert NULL_TRACER.to_dict() == {"traceEvents": []}

    def test_pid_constants_distinct(self):
        assert HOST_PID != SIM_PID

    def test_validate_catches_problems(self):
        bad = [
            {"name": "a", "ph": "B", "ts": 2.0, "pid": 0, "tid": 0},
            {"name": "b", "ph": "E", "ts": 1.0, "pid": 0, "tid": 0},
            {"name": "c", "ph": "E", "ts": 3.0, "pid": 0, "tid": 1},
            {"name": "d", "ph": "X", "ts": 4.0, "pid": 0, "tid": 0},
            {"name": "e", "ph": "B", "ts": -1, "pid": 0, "tid": 0},
            {"name": "f", "ph": "B", "ts": 5.0, "pid": 0, "tid": 0},
        ]
        problems = validate_trace(bad)
        assert any("non-monotonic" in p for p in problems)  # b after a
        assert any("closes" in p for p in problems)  # b closes a
        assert any("no open span" in p for p in problems)  # c
        assert any("without dur" in p for p in problems)  # d
        assert any("bad ts" in p for p in problems)  # e
        assert any("never closed" in p for p in problems)  # f left open


class TestReports:
    def test_envelope(self):
        report = make_report("sim", {"cycles": 5}, meta={"dataset": "Mi"})
        assert report["schema"] == "flexminer.run/1"
        assert report["kind"] == "sim"
        assert report["meta"] == {"dataset": "Mi"}
        assert report["data"] == {"cycles": 5}

    def test_write_load_round_trip(self, tmp_path):
        path = str(tmp_path / "r.json")
        report = make_report("sim", {"cycles": 5})
        assert write_report(path, report) == path
        assert load_report(path) == report

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_report(str(path))

    def test_flatten(self):
        flat = flatten({
            "schema": "dropped",
            "a": {"b": 1},
            "counts": [10, 20],
            "mixed": [1, {"x": 2}],
            "none": None,
        })
        assert flat == {"a.b": 1, "counts.0": 10, "counts.1": 20,
                        "none": None}

    def test_diff_rows(self):
        rows = diff_reports({"a": 1, "b": 2}, {"a": 1, "b": 4, "c": 9})
        by_key = {r.key: r for r in rows}
        assert not by_key["a"].changed
        assert by_key["b"].delta == 2
        assert by_key["b"].ratio == 2.0
        assert by_key["c"].before is None
        assert by_key["c"].ratio is None

    def test_zero_baseline_has_no_ratio(self):
        assert DiffRow("k", 0, 5).ratio is None
        assert DiffRow("k", 0, 5).delta == 5

    def test_render_report(self):
        text = render_report(make_report("sim", {"cycles": 5}))
        assert "data.cycles" in text
        assert ": 5" in text

    def test_render_diff_hides_unchanged(self):
        rows = diff_reports({"a": 1, "b": 2}, {"a": 1, "b": 4})
        text = render_diff(rows)
        assert len(text.splitlines()) == 1
        assert text.startswith("b")
        assert "(2.000x)" in text
        assert len(render_diff(rows, all_rows=True).splitlines()) == 2
        assert render_diff([DiffRow("a", 1, 1)]) == "no differences"


class TestLog:
    def test_namespacing(self):
        assert get_logger("bench").name == "repro.bench"
        assert get_logger("repro.hw").name == "repro.hw"

    def test_records_propagate_to_caplog(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro"):
            get_logger("test_channel").debug("hello %d", 7)
        assert "hello 7" in caplog.text

    def test_env_var_attaches_handler(self, monkeypatch):
        from repro.obs import log as obslog

        logger = logging.getLogger("repro")
        before_handlers = list(logger.handlers)
        before_level = logger.level
        monkeypatch.setenv(obslog.ENV_VAR, "debug")
        try:
            configured = obslog.configure(force=True)
            assert configured.level == logging.DEBUG
            assert any(
                isinstance(h, logging.StreamHandler)
                for h in configured.handlers
            )
        finally:
            monkeypatch.delenv(obslog.ENV_VAR, raising=False)
            logger.handlers[:] = before_handlers
            logger.setLevel(before_level)
            obslog.configure(force=True)  # re-settle without the env var

    def test_bad_level_rejected(self):
        from repro.obs.log import _coerce_level

        with pytest.raises(ValueError):
            _coerce_level("not-a-level")
        assert _coerce_level("info") == logging.INFO
        assert _coerce_level(10) == 10
