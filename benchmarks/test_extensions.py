"""Benches for the extensions beyond the paper's evaluated scope.

* labeled mining (the intro's PPI motivation, §I);
* partitioned mining (the §VII-D future-work remark);
* energy comparison vs the CPU baseline (§I efficiency claim);
* 4-MC — the multi-pattern app at the next motif size (Fig. 3 right);
* the software vector c-map (§II-C cites an average 2.3x for k-CL).
"""

import time

from repro.bench import get_harness
from repro.compiler import compile_motifs, compile_pattern
from repro.engine import (
    PatternAwareEngine,
    mine,
    mine_multi,
    mine_partitioned,
)
from repro.graph import assign_random_labels, load_dataset
from repro.hw import (
    FlexMinerConfig,
    cpu_energy,
    estimate_energy,
    simulate,
)
from repro.patterns import k_clique, triangle


def test_ext_labeled_mining(benchmark, save_artifact):
    """Label constraints prune the tree; all paths agree."""
    base = load_dataset("Mi")
    graph = assign_random_labels(base, 3, seed=5)

    def run():
        rows = {}
        unlabeled = compile_pattern(triangle())
        rows["unlabeled"] = mine(graph, unlabeled)
        labeled = compile_pattern(triangle().with_labels([0, 1, 2]))
        rows["labeled"] = mine(graph, labeled)
        report = simulate(
            graph, labeled, FlexMinerConfig(num_pes=20)
        )
        assert report.counts == rows["labeled"].counts
        rows["sim_cycles"] = report.cycles
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    labeled, unlabeled = rows["labeled"], rows["unlabeled"]
    assert 0 < labeled.counts[0] < unlabeled.counts[0]
    assert (
        labeled.counters.setop_iterations
        < unlabeled.counters.setop_iterations
    )
    save_artifact(
        "ext_labeled.txt",
        "labeled TC on Mi (3 uniform labels): "
        f"{labeled.counts[0]}/{unlabeled.counts[0]} triangles survive; "
        f"work {labeled.counters.setop_iterations}/"
        f"{unlabeled.counters.setop_iterations} SIU iterations",
    )


def test_ext_partitioned_mining(benchmark, save_artifact):
    """§VII-D: partition the roots, mine halos, same counts."""
    graph = load_dataset("Lj")
    plan = compile_pattern(k_clique(4))

    def run():
        whole = mine(graph, plan).counts[0]
        rows = {}
        for parts in (4, 16, 64):
            result, halo_edges = mine_partitioned(graph, plan, parts)
            assert result.counts[0] == whole
            rows[parts] = max(halo_edges)
        return whole, rows

    total, rows = benchmark.pedantic(run, rounds=1, iterations=1)
    # More partitions -> smaller max working set (the memory win).
    sizes = [rows[p] for p in sorted(rows)]
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[-1] < graph.num_edges / 2

    lines = [
        f"4-CL on Lj = {total} cliques; max halo edges by partition "
        f"count (full graph: {graph.num_edges}):"
    ]
    lines += [f"  parts={p:<3d} halo_edges={rows[p]}" for p in sorted(rows)]
    save_artifact("ext_partitioned.txt", "\n".join(lines))


def test_ext_energy(benchmark, save_artifact):
    """FlexMiner's energy advantage on identical mining work."""
    harness = get_harness()

    def run():
        report = harness.sim("4-CL", "Mi", num_pes=40)
        seconds, _ = harness.cpu("4-CL", "Mi")
        accel = estimate_energy(
            report, FlexMinerConfig(num_pes=40)
        )
        cpu = cpu_energy(seconds)
        return accel, cpu

    accel, cpu = benchmark.pedantic(run, rounds=1, iterations=1)
    assert accel.total_j < cpu.total_j
    ratio = cpu.total_j / accel.total_j
    save_artifact(
        "ext_energy.txt",
        "4-CL on Mi: FlexMiner-40PE "
        f"{accel.total_j * 1e6:.1f} uJ vs CPU-20T "
        f"{cpu.total_j * 1e6:.1f} uJ -> {ratio:.1f}x more "
        f"energy-efficient\n  accelerator: {accel.summary()}",
    )


def test_ext_4mc(benchmark, save_artifact):
    """4-motif counting: the multi-pattern tree at the next size."""
    graph = load_dataset("As")
    plan = compile_motifs(4)

    def run():
        sw = mine_multi(graph, plan)
        report = simulate(graph, plan, FlexMinerConfig(num_pes=20))
        assert report.counts == sw.counts
        return sw, report

    sw, report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(sw.counts) == 6
    assert sum(sw.counts) > 0

    lines = ["4-MC on As (multi-pattern dependency tree):"]
    for pattern, count in zip(plan.patterns, sw.counts):
        lines.append(f"  {pattern.name:<16s}{count:>12d}")
    lines.append(f"  sim cycles: {report.cycles:.0f} on 20 PEs")
    save_artifact("ext_4mc.txt", "\n".join(lines))


def test_ext_software_cmap(benchmark, save_artifact, monkeypatch):
    """§II-C: the software vector c-map speeds up k-CL on the CPU.

    The frontier walker answers every set operation after a step's first
    from :meth:`CSRGraph.arc_map` — the software c-map.  Capping the map
    at 0 bytes sends it down the gather + binary-search path instead:
    same counts and ``OpCounters``, more elements gathered.  Both wall
    times (best of 3) and their ratio go to the artifact; no wall-clock
    assert.
    """
    from repro.graph import csr

    graph = load_dataset("Mi")
    plan = compile_pattern(k_clique(4))

    def best_of_3():
        best = float("inf")
        for _ in range(3):
            engine = PatternAwareEngine(graph, plan)
            start = time.perf_counter()
            result = engine.run()
            best = min(best, time.perf_counter() - start)
        return best, result, engine.frontier_stats()

    def run():
        with_map = best_of_3()
        monkeypatch.setattr(csr, "ARC_MAP_MAX_BYTES", 0)
        without_map = best_of_3()
        monkeypatch.undo()
        return with_map, without_map

    (t_map, on, on_stats), (t_gather, off, off_stats) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert on.counts == off.counts
    assert on.counters == off.counters
    assert on_stats["arc_probes"] > 0
    assert off_stats["arc_probes"] == 0
    assert on_stats["elems_gathered"] < off_stats["elems_gathered"]
    save_artifact(
        "ext_software_cmap.txt",
        f"4-CL on Mi, frontier walker (best of 3): arc map "
        f"{t_map * 1e3:.1f} ms vs gather + search {t_gather * 1e3:.1f} ms "
        f"-> {t_gather / t_map:.2f}x (paper cites 2.3x average); "
        f"elements gathered {on_stats['elems_gathered']} vs "
        f"{off_stats['elems_gathered']}, arc probes "
        f"{on_stats['arc_probes']}",
    )
