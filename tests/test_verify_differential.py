"""Tests for the differential runner, including mutation tests.

The mutation tests are the subsystem's own acceptance check: a
deliberately broken backend (symmetry bounds stripped from the compiled
plan, so matches are multi-counted) must be caught by the fuzzer and
shrunk to a handful of vertices.
"""

import re

import pytest

from repro.graph import erdos_renyi
from repro.patterns import four_cycle, triangle, wedge
from repro.verify import (
    BACKENDS,
    VerifyCase,
    fuzz,
    resolve_backends,
    run_case,
)
from repro.verify.differential import SIM_DRIFT_BACKENDS, ZERO_DRIFT_BACKENDS


def small_graph(seed=0):
    return erdos_renyi(10, 0.45, seed=seed)


class TestFullMatrix:
    @pytest.mark.parametrize(
        "pattern", [triangle(), wedge(), four_cycle()],
        ids=lambda p: p.name,
    )
    def test_all_backends_agree(self, pattern):
        report = run_case(VerifyCase(graph=small_graph(), pattern=pattern))
        assert report.ok, [str(m) for m in report.mismatches]
        assert set(report.counts) == set(BACKENDS)
        assert len(set(report.counts.values())) == 1

    def test_motif_case(self):
        report = run_case(VerifyCase(graph=small_graph(1), motif_k=3))
        assert report.ok, [str(m) for m in report.mismatches]
        assert all(len(c) == 2 for c in report.counts.values())

    def test_serve_backends_registered_and_zero_drift(self):
        # The serving layer participates in the differential matrix,
        # and is held to the bit-identical OpCounters invariant — the
        # caches must not change what gets counted, only when.
        assert "serve-pool-2" in BACKENDS
        assert "serve-cached" in BACKENDS
        assert "serve-pool-2" in ZERO_DRIFT_BACKENDS
        assert "serve-cached" in ZERO_DRIFT_BACKENDS

    def test_correct_expected_passes(self):
        graph = small_graph(2)
        truth = run_case(
            VerifyCase(graph=graph, pattern=triangle()),
            backends=("serial",),
        ).truth
        report = run_case(
            VerifyCase(graph=graph, pattern=triangle(), expected=truth)
        )
        assert report.ok

    def test_serial_truth_without_oracle(self):
        report = run_case(
            VerifyCase(graph=small_graph(3), pattern=triangle()),
            oracle=False,
        )
        assert report.ok
        assert report.truth == report.counts["serial"]


class TestMismatchDetection:
    def test_wrong_expected_flags_oracle(self):
        report = run_case(
            VerifyCase(
                graph=small_graph(), pattern=triangle(), expected=(10**9,)
            ),
            backends=("serial", "reference"),
        )
        assert not report.ok
        # Truth stays the oracle, so the backends all agree with it and
        # only the bogus expectation itself is flagged.
        kinds = {m.kind for m in report.mismatches}
        assert kinds == {"oracle-expected"}

    def test_count_bug_detected(self):
        def off_by_one(case, plan):
            counts, ctrs = BACKENDS["serial"](case, plan)
            return tuple(c + 1 for c in counts), None

        report = run_case(
            VerifyCase(graph=small_graph(), pattern=triangle()),
            backends={"serial": BACKENDS["serial"], "buggy": off_by_one},
        )
        assert [m for m in report.mismatches if m.backend == "buggy"]
        assert all(m.kind == "count" for m in report.mismatches)

    def test_counter_drift_detected(self):
        class DriftedCounters:
            def __init__(self, base):
                self._d = dict(base)
                self._d["set_intersections"] = (
                    self._d.get("set_intersections", 0) + 1
                )

            def as_dict(self):
                return dict(self._d)

        def drifted(case, plan):
            counts, ctrs = BACKENDS["serial"](case, plan)
            return counts, DriftedCounters(ctrs.as_dict())

        # The injected name must be one the zero-drift invariant covers.
        assert "reference" in ZERO_DRIFT_BACKENDS
        report = run_case(
            VerifyCase(graph=small_graph(), pattern=triangle()),
            backends={"serial": BACKENDS["serial"], "reference": drifted},
        )
        drift = [m for m in report.mismatches if m.kind == "counter-drift"]
        assert drift and drift[0].backend == "reference"
        assert "set_intersections" in str(drift[0])
        assert not [m for m in report.mismatches if m.kind == "count"]

    def test_sim_report_drift_detected(self):
        # A sim flavor whose counts are right but whose timing model
        # drifted by a single cycle must be flagged as
        # sim-report-drift, not pass on count parity alone.
        class DriftedReport:
            def __init__(self, base):
                self._d = dict(base)
                self._d["cycles"] = self._d["cycles"] + 1.0

            def as_dict(self):
                return dict(self._d)

        def drifted_sim(case, plan):
            counts, report = BACKENDS["sim"](case, plan)
            return counts, DriftedReport(report.as_dict())

        # The injected name must be one the sim-drift invariant covers.
        assert "sim-fast" in SIM_DRIFT_BACKENDS
        report = run_case(
            VerifyCase(graph=small_graph(), pattern=triangle()),
            backends={
                "serial": BACKENDS["serial"],
                "sim": BACKENDS["sim"],
                "sim-fast": drifted_sim,
            },
        )
        drift = [
            m for m in report.mismatches if m.kind == "sim-report-drift"
        ]
        assert drift and drift[0].backend == "sim-fast"
        assert "cycles" in str(drift[0])
        assert not [m for m in report.mismatches if m.kind == "count"]

    def test_error_backend_reported(self):
        def broken(case, plan):
            raise RuntimeError("kaboom")

        report = run_case(
            VerifyCase(graph=small_graph(), pattern=triangle()),
            backends={"serial": BACKENDS["serial"], "bad": broken},
        )
        errors = [m for m in report.mismatches if m.kind == "error"]
        assert errors and "kaboom" in errors[0].actual

    def test_resolve_backends_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backends(["serial", "warp-drive"])


def _strip_symmetry(case, plan):
    """A deliberately broken backend: every pruneBy bound widened to
    ``inf``, so symmetric matches are multi-counted."""
    from repro.compiler import emit_ir, parse_ir
    from repro.engine import PatternAwareEngine

    broken = parse_ir(
        re.sub(r"pruneBy\(.*?, \{", "pruneBy(inf, {", emit_ir(plan))
    )
    result = PatternAwareEngine(case.graph, broken).run()
    return result.counts, result.counters


class TestMutation:
    """The injected-bug acceptance test from the issue."""

    def test_fuzzer_catches_and_shrinks_injected_bug(self):
        report = fuzz(
            seed=0,
            cases=20,
            backends={
                "serial": BACKENDS["serial"],
                "buggy": _strip_symmetry,
            },
            patterns=[four_cycle()],
            families=("er", "plc"),
            shrink=True,
        )
        assert not report.ok, "the broken backend was never caught"
        for failure in report.failures:
            assert any(
                m.backend == "buggy" and m.kind == "count"
                for m in failure.report.mismatches
            )
            assert failure.shrunk is not None
            topo = getattr(failure.shrunk.graph, "graph", failure.shrunk.graph)
            assert topo.num_vertices <= 8, (
                f"shrink left {topo.num_vertices} vertices"
            )
            assert not failure.shrunk_report.ok

    def test_shrunk_reproducer_is_minimal_four_cycle(self):
        report = fuzz(
            seed=0,
            cases=20,
            backends={
                "serial": BACKENDS["serial"],
                "buggy": _strip_symmetry,
            },
            patterns=[four_cycle()],
            families=("er",),
            shrink=True,
        )
        assert not report.ok
        # Overcounting needs at least one 4-cycle in the graph; greedy
        # deletion cannot go below the pattern itself.
        smallest = min(
            getattr(f.shrunk.graph, "graph", f.shrunk.graph).num_vertices
            for f in report.failures
            if f.shrunk is not None
        )
        assert smallest == 4
