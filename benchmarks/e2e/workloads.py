"""Workload catalogue and seeded input generation for the e2e benchmark.

A workload is an *input class*: graph tiers of one generator family
(``mine`` tier sized for a >= 1 s engine pass, ``sim`` tier for a >= 1 s
simulator pass, ``serve`` tier for 5-200 ms forced requests) plus the
pattern list every stage runs.  The structure of each graph is fixed by
the catalogue (its generator seed is part of "why this input");
``--seed`` draws the vertex relabeling, the edge order of the files, the
request stream and the kernel samples.  Structure-seeded replicates move
the work itself by 2-15 % (measured while sizing), which would be
reported as benchmark noise; relabeled replicates keep every count
invariant, so the same reference counts hold for every seed.

The program under test only ever sees the edge-list files written here
(by a child process, so generation never shows in ``peak_rss_mb``).
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: (generator name, positional args, structure seed)
GraphSpec = Tuple[str, tuple, int]
#: (graph key, pattern name); pattern names are ``repro.patterns.from_name``
#: names, or ``"<k>-motifs"`` for the multi-pattern k-MC plan.
Cell = Tuple[str, str]

CLIQUES = ("triangle", "4-clique")
SL3 = ("4-cycle", "diamond", "tailed-triangle")
SMALL7 = ("triangle", "wedge", "4-clique", "5-clique") + SL3


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded once, in BENCHMARK.json."""

    name: str
    graphs: Dict[str, GraphSpec]
    mine_cells: Tuple[Cell, ...]
    sim_cells: Tuple[Cell, ...]
    serve_cells: Tuple[Cell, ...]
    #: Sweeps over ``mine_cells`` per frontier pass, so a pass stays
    #: near 1 s where the frontier engine is several times faster than
    #: recursion; ``mine_frontier_s`` is still the time of one sweep.
    frontier_sweeps: int = 1


def _cells(graph: str, patterns) -> Tuple[Cell, ...]:
    return tuple((graph, p) for p in patterns)


def _catalogue(smoke: bool) -> Dict[str, Workload]:
    # Smoke tiers only prove the plumbing (whole set < 30 s).
    s = smoke
    small3 = ("as", "mi", "pa")
    workloads = [
        Workload(
            "cliques-skewed",
            {
                "mine": ("rmat", (7, 8) if s else (10, 48), 101),
                "sim": ("rmat", (6, 6) if s else (10, 16), 102),
                "serve": ("rmat", (6, 6) if s else (8, 12), 103),
            },
            _cells("mine", CLIQUES),
            _cells("sim", CLIQUES),
            _cells("serve", CLIQUES + ("5-clique",)),
            frontier_sweeps=1 if s else 2,
        ),
        Workload(
            "sl-wide",
            {
                "mine": ("erdos_renyi", (96, 8) if s else (1024, 16), 201),
                "sim": ("erdos_renyi", (64, 6) if s else (512, 12), 202),
                "serve": ("erdos_renyi", (64, 6) if s else (256, 12), 203),
            },
            _cells("mine", SL3),
            _cells("sim", SL3),
            _cells("serve", SL3),
            frontier_sweeps=1 if s else 3,
        ),
        Workload(
            "motifs-multi",
            {
                "mine3": ("power_law_cluster",
                          (64, 3, 0.5) if s else (512, 8, 0.5), 301),
                "mine4": ("power_law_cluster",
                          (24, 3, 0.5) if s else (72, 5, 0.5), 302),
                "sim3": ("power_law_cluster",
                         (48, 3, 0.5) if s else (320, 8, 0.5), 303),
                "sim4": ("power_law_cluster",
                         (16, 3, 0.5) if s else (40, 4, 0.5), 304),
                "serve3": ("power_law_cluster",
                           (48, 3, 0.5) if s else (96, 6, 0.5), 305),
                "serve4": ("power_law_cluster",
                           (16, 3, 0.5) if s else (24, 3, 0.5), 306),
            },
            (("mine3", "3-motifs"), ("mine4", "4-motifs")),
            (("sim3", "3-motifs"), ("sim4", "4-motifs")),
            (("serve3", "3-motifs"), ("serve4", "4-motifs")),
        ),
        Workload(
            "many-small",
            {
                "as": ("rmat", (6, 6) if s else (8, 8), 11),
                "mi": ("power_law_cluster",
                       (48, 4, 0.6) if s else (128, 9, 0.6), 23),
                "pa": ("rmat", (7, 4) if s else (9, 5), 37),
                "as-serve": ("rmat", (5, 6) if s else (7, 8), 12),
                "mi-serve": ("power_law_cluster",
                             (24, 4, 0.6) if s else (96, 7, 0.6), 24),
                "pa-serve": ("rmat", (6, 4) if s else (8, 5), 38),
            },
            tuple(c for g in small3 for c in _cells(g, SMALL7)),
            _cells("as", SMALL7),
            tuple(
                c for g in small3 for c in _cells(f"{g}-serve", SMALL7)
            ),
            frontier_sweeps=1 if s else 3,
        ),
    ]
    return {w.name: w for w in workloads}


WORKLOADS = _catalogue(smoke=False)
SMOKE_WORKLOADS = _catalogue(smoke=True)


def get_workload(name: str, smoke: bool = False) -> Workload:
    return (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]


def graph_path(input_dir: str, workload: Workload, key: str) -> str:
    """Edge-list file of one tier; the name carries the generator spec
    so a resized catalogue never reads a stale cached file."""
    family, args, structure_seed = workload.graphs[key]
    tag = "-".join(str(a) for a in args)
    return os.path.join(
        input_dir, f"{key}-{family}-{tag}-g{structure_seed}.el"
    )


def input_dir(workdir: str, workload: str, seed: int, smoke: bool) -> str:
    size = "smoke" if smoke else "full"
    return os.path.join(workdir, "inputs", f"{workload}-{size}-s{seed}")


# ----------------------------------------------------------------------
# Request stream (pure function of the seed; no graph needed)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamItem:
    cell: Cell
    #: Vertex relabeling of the pattern (isomorphic variants must hit
    #: the service's canonical plan cache); unused by motif requests.
    perm: Tuple[int, ...]
    forced: bool  #: ``use_cache=False``


def pattern_size(pattern: str) -> int:
    if pattern in ("triangle", "wedge"):
        return 3
    return int(pattern[0]) if pattern.endswith("-clique") else 4


def request_stream(
    workload: Workload, seed: int, segments: int, min_forced: int
) -> List[List[StreamItem]]:
    """``segments`` statistically identical request segments.

    Every segment forces (``use_cache=False``) each serve cell equally
    often -- at least ``min_forced`` executions, exactly 25 % of the
    segment -- so segment throughputs are comparable and the stream's
    cost does not depend on the seed.  The seed draws the order, the
    cell of each cacheable request and every pattern relabeling.
    """
    rng = random.Random(seed * 7919 + 17)
    cells = workload.serve_cells
    forced_sweeps = -(-min_forced // len(cells))
    out = []
    for _ in range(segments):
        draws = [(cell, True) for cell in cells] * forced_sweeps
        draws += [
            (rng.choice(cells), False) for _ in range(3 * len(draws))
        ]
        rng.shuffle(draws)
        items = []
        for cell, forced in draws:
            order = list(range(pattern_size(cell[1])))
            rng.shuffle(order)
            items.append(StreamItem(cell, tuple(order), forced))
        out.append(items)
    return out


# ----------------------------------------------------------------------
# Graph files (child process)
# ----------------------------------------------------------------------
def write_inputs(workload: Workload, seed: int, out_dir: str) -> None:
    """Generate every tier, relabel by ``seed`` and write edge lists.

    Only non-isolated vertices are relabeled (compactly), so the loaded
    graph has the same vertex count for every seed.  Files appear
    atomically; existing ones are kept (one generation per
    (workload, seed), never timed).
    """
    import numpy as np

    from repro import graph as graph_mod

    os.makedirs(out_dir, exist_ok=True)
    for key, (family, args, structure_seed) in workload.graphs.items():
        path = graph_path(out_dir, workload, key)
        if os.path.exists(path):
            continue
        if family == "erdos_renyi":
            n, degree = args
            args = (n, degree / n)
        g = getattr(graph_mod, family)(*args, seed=structure_seed)
        rng = np.random.default_rng([seed, structure_seed])
        src = np.repeat(
            np.arange(g.num_vertices, dtype=np.int64), np.diff(g.indptr)
        )
        dst = np.asarray(g.indices, dtype=np.int64)
        keep = src < dst
        edges = np.stack([src[keep], dst[keep]], axis=1)
        used = np.unique(edges)
        relabel = np.zeros(g.num_vertices, dtype=np.int64)
        relabel[used] = rng.permutation(len(used))
        edges = relabel[edges]
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip][:, ::-1]
        edges = edges[rng.permutation(len(edges))]
        tmp = f"{path}.{os.getpid()}.tmp"
        np.savetxt(
            tmp, edges, fmt="%d",
            header=f"{family}{args} structure_seed={structure_seed} "
            f"relabel_seed={seed}",
        )
        os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    write_inputs(get_workload(args.workload, args.smoke), args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.path.insert(
        0,
        os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"
        ),
    )
    sys.exit(main())
