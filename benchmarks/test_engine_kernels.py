"""Wall-clock bench for the CPU-engine kernel layer and process backend.

Times the materialize-everything ``ReferenceEngine`` against the
current serial engine, a transient ``MinerPool`` per call (spawn cost
included) and the warmed persistent ``MinerPool``, plus a request-stream
cell separating steady-state throughput from cold-start and a
``frontier_sweep`` (recursive vs level-synchronous batch frontier at
workers 1/2/4 with peak RSS); asserts
count/counter parity, and writes the cross-PR diffable
``BENCH_engine.json`` artifact (plus a human-readable text summary under
``benchmarks/results/``).
"""

import json
import os

from repro.bench import engine_bench, write_engine_bench


def _render(payload) -> str:
    lines = [
        f"engine bench (cpu_count={payload['cpu_count']}, "
        f"quick={payload['quick_mode']})"
    ]
    for cell, entry in payload["cells"].items():
        lines.append(
            f"  {cell}: reference "
            f"{entry['reference_seconds'] * 1e3:8.2f} ms, "
            f"kernel {entry['kernel_seconds'] * 1e3:8.2f} ms "
            f"({entry['kernel_speedup']:.2f}x)"
        )
        for mode in ("parallel", "pool"):
            for workers, sub in sorted(
                entry[mode].items(), key=lambda kv: int(kv[0])
            ):
                lines.append(
                    f"    {mode} x{workers}: "
                    f"{sub['seconds'] * 1e3:8.2f} ms "
                    f"({sub['speedup_vs_reference']:.2f}x vs reference, "
                    f"{sub['speedup_vs_kernel']:.2f}x vs kernel)"
                )
    for cell, sweep in payload["frontier_sweep"].items():
        for workers, sub in sorted(
            sweep.items(), key=lambda kv: int(kv[0])
        ):
            lines.append(
                f"  frontier {cell} x{workers}: "
                f"recursive {sub['recursive_seconds'] * 1e3:8.2f} ms "
                f"({sub['recursive_peak_rss_kb']} kB), "
                f"batch {sub['batch_seconds'] * 1e3:8.2f} ms "
                f"({sub['batch_peak_rss_kb']} kB) -> "
                f"{sub['speedup']:.2f}x"
            )
    for cell, stream in payload["stream"].items():
        if "warm_cells_per_s" in stream:
            lines.append(
                f"  stream {cell}: warm {stream['warm_cells_per_s']:.1f} "
                f"cells/s vs spawn {stream['spawn_cells_per_s']:.1f} "
                f"cells/s ({stream['warm_vs_spawn_speedup']:.2f}x, "
                f"dispatch {stream['dispatch_overhead_s'] * 1e6:.0f} us)"
            )
        else:
            lines.append(
                f"  stream {cell}: cached "
                f"{stream['cached_cells_per_s']:.1f} cells/s vs executed "
                f"{stream['executed_cells_per_s']:.1f} cells/s "
                f"({stream['cached_vs_executed_speedup']:.2f}x)"
            )
    return "\n".join(lines)


def test_engine_kernel_bench(benchmark, harness, save_artifact):
    """Kernel layer vs reference engine vs pool sweep, with parity."""
    payload = benchmark.pedantic(
        lambda: engine_bench(harness), rounds=1, iterations=1
    )

    # Parity is asserted inside engine_bench; spot-check the payload
    # shape and that the acceptance cell is present.
    assert "4-CL_As" in payload["cells"]
    cell = payload["cells"]["4-CL_As"]
    assert cell["counts"] and cell["kernel_seconds"] > 0
    assert set(cell["parallel"]) == {"1", "2", "4"}
    assert set(cell["pool"]) == {"1", "2", "4"}

    # The frontier sweep covers both apps at every worker count, and
    # its parity (counts AND op counters, recursive vs batch) is
    # asserted inside engine_bench.
    assert set(payload["frontier_sweep"]) == {"4-CL_As", "TC_As"}
    for sweep in payload["frontier_sweep"].values():
        assert set(sweep) == {"1", "2", "4"}
        for sub in sweep.values():
            assert sub["recursive_seconds"] > 0
            assert sub["batch_seconds"] > 0

    # The stream cell must separate steady-state from cold-start and
    # carry the calibrated dispatch-overhead constant in the envelope.
    assert payload["stream"], "stream section missing"
    stream = next(iter(payload["stream"].values()))
    assert stream["warm_pool_seconds"] > 0
    assert stream["spawn_seconds"] > 0
    assert payload["dispatch_overhead_s"] >= 0

    # The artifact: next to the telemetry dir when set, else results/.
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    default = os.path.join(results_dir, "BENCH_engine.json")
    path = write_engine_bench(
        None if harness.telemetry_dir else default, harness
    )
    with open(path) as f:
        report = json.load(f)
    assert report["data"]["cells"].keys() == payload["cells"].keys()

    save_artifact("engine_kernels.txt", _render(payload))
