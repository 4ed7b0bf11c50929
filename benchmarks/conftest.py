"""Shared fixtures for the benchmark suite.

Every bench wraps its experiment in ``benchmark.pedantic(..., rounds=1)``
so ``pytest benchmarks/ --benchmark-only`` both times the harness and
regenerates the paper artifact.  Rendered tables/series are printed and
saved under ``benchmarks/results/``.
"""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def harness():
    from repro.bench import get_harness

    h = get_harness()
    yield h
    # When REPRO_BENCH_TELEMETRY is set, roll the session's cells into
    # BENCH_summary.json next to the per-cell reports.
    if h.telemetry_dir:
        h.write_summary()


@pytest.fixture()
def save_artifact():
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _save(name: str, text: str) -> str:
        path = os.path.join(RESULTS_DIR, name)
        with open(path, "w") as f:
            f.write(text if text.endswith("\n") else text + "\n")
        print(f"\n{text}\n[saved to {path}]")
        return path

    return _save
