"""Tests for k-MC by decomposition (repro.engine.motifs).

The decomposition's contract: vertex-induced k-motif counts identical
to the merged ``MultiPlan``'s and to the ESU oracle, on every route the
apps API, the service and the CLI take (both engine modes, a transient
or resident pool, the service, the keyed path past the arc-map cap),
with the sparse motifs counted in closed form and only the 4-cycle and
the 4-clique enumerated.
"""

import numpy as np
import pytest

from repro.apps import motif_count
from repro.cli import main
from repro.compiler import compile_motifs
from repro.engine import MinerPool, PatternAwareEngine
from repro.engine.motifs import (
    _degrees,
    count_motifs,
    motif_count_plan,
)
from repro.graph import (
    CSRGraph,
    assign_random_labels,
    csr,
    erdos_renyi,
    power_law_cluster,
    rmat,
    star_graph,
)
from repro.patterns import brute_force_count
from repro.serve import MiningService
from repro.verify.oracle import oracle_count

ER = erdos_renyi(40, 0.2, seed=7, name="er")
PLC = power_law_cluster(48, 3, 0.5, seed=3, name="plc")
RMAT = rmat(5, 4, seed=11, name="rmat")
STAR = star_graph(7, name="star")
EMPTY = CSRGraph.from_edges([], num_vertices=0)
ISOLATED = CSRGraph.from_edges([(0, 1), (1, 2), (2, 0)], num_vertices=5)
DISCONNECTED = CSRGraph.from_edges(
    [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (5, 6), (6, 7), (7, 5),
     (7, 8)],
    num_vertices=9,
)
LABELED = assign_random_labels(ER, 3, seed=1)
GRAPHS = {
    "er": ER, "plc": PLC, "rmat": RMAT, "star": STAR, "empty": EMPTY,
    "isolated": ISOLATED, "disconnected": DISCONNECTED,
    "labeled": LABELED,
}


def merged(graph, k, **options):
    return PatternAwareEngine(graph, compile_motifs(k), **options).run()


def oracle(graph, k):
    return tuple(
        oracle_count(graph, m, induced=True)
        for m in motif_count_plan(k).motifs
    )


class TestPlan:
    def test_lattice_matrices(self):
        three = motif_count_plan(3)
        assert [m.name for m in three.motifs] == ["wedge", "triangle"]
        assert three.matrix == ((1, 3), (0, 1))
        assert three.chains == ()
        four = motif_count_plan(4)
        assert [m.name for m in four.motifs] == [
            "3-star", "4-path", "tailed-triangle", "4-cycle", "diamond",
            "4-clique",
        ]
        assert four.matrix == (
            (1, 0, 1, 0, 2, 4),
            (0, 1, 2, 4, 6, 12),
            (0, 0, 1, 0, 4, 12),
            (0, 0, 0, 1, 1, 3),
            (0, 0, 0, 0, 1, 6),
            (0, 0, 0, 0, 0, 1),
        )
        assert [c.pattern.name for c in four.chains] == [
            "4-cycle", "4-clique"
        ]
        assert all(not c.induced for c in four.chains)

    @pytest.mark.parametrize("k", [2, 5])
    def test_no_closed_form_keeps_the_multiplan(self, k):
        assert motif_count_plan(k) is None

    def test_cached_per_k(self):
        assert motif_count_plan(4) is motif_count_plan(4)


class TestClosedForms:
    @pytest.mark.parametrize(
        "graph", [DISCONNECTED, STAR, ISOLATED, rmat(4, 4, seed=2),
                  erdos_renyi(12, 0.45, seed=5)],
        ids=["disconnected", "star", "isolated", "rmat", "er"],
    )
    @pytest.mark.parametrize("k", [3, 4])
    def test_closed_form_is_the_edge_induced_count(self, graph, k):
        plan = motif_count_plan(k)
        degrees = _degrees(graph)
        for motif, term in zip(plan.motifs, plan.terms):
            if not callable(term):
                continue  # a chain plan
            assert term(degrees) == brute_force_count(
                graph, motif, induced=False
            ), motif.name

    def test_codegrees_past_the_arc_map_cap(self, monkeypatch):
        with_map = _degrees(PLC)
        monkeypatch.setattr(csr, "ARC_MAP_MAX_BYTES", 0)
        graph = CSRGraph(PLC.indptr, PLC.indices, validate=False)
        assert graph.arc_map() is None
        assert np.array_equal(_degrees(graph).c, with_map.c)


class TestCounts:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("k", [3, 4])
    def test_decomposed_equals_multiplan_and_oracle(self, name, k):
        graph = GRAPHS[name]
        expected = merged(graph, k, batch_frontier=False).counts
        assert expected == oracle(graph, k)
        for batch_frontier in (True, False):
            got = motif_count(graph, k, batch_frontier=batch_frontier)
            assert got.counts == expected, batch_frontier

    @pytest.mark.parametrize("k", [3, 4])
    def test_counters_are_the_chain_plans(self, k):
        plan = motif_count_plan(k)
        result = motif_count(PLC, k)
        want = {}
        for chain in plan.chains:
            for key, value in PatternAwareEngine(
                PLC, chain
            ).run().counters.as_dict().items():
                want[key] = want.get(key, 0) + value
        want["matches"] = sum(result.counts)
        got = result.counters.as_dict()
        assert got == {key: want.get(key, 0) for key in got}

    def test_both_modes_charge_the_same(self):
        walker = motif_count(PLC, 4)
        recursive = motif_count(PLC, 4, batch_frontier=False)
        assert walker.counts == recursive.counts
        assert walker.counters.as_dict() == recursive.counters.as_dict()

    @pytest.mark.parametrize("k", [3, 4])
    def test_keyed_path_past_the_cap(self, k, monkeypatch):
        expected = motif_count(PLC, k)
        monkeypatch.setattr(csr, "ARC_MAP_MAX_BYTES", 0)
        graph = CSRGraph(PLC.indptr, PLC.indices, validate=False)
        got = motif_count(graph, k)
        assert got.counts == expected.counts
        assert got.counters.as_dict() == expected.counters.as_dict()

    def test_directed_graph_keeps_the_multiplan(self):
        directed = CSRGraph.from_edges(
            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 0)], directed=True
        )
        for k in (3, 4):
            want = merged(directed, k)
            got = motif_count(directed, k)
            assert got.counts == want.counts
            assert got.counters.as_dict() == want.counters.as_dict()


class TestRoutes:
    @pytest.mark.parametrize("k", [3, 4])
    def test_transient_pool(self, k):
        direct = motif_count(ER, k)
        pooled = motif_count(ER, k, workers=2)
        assert pooled.counts == direct.counts
        assert pooled.counters.as_dict() == direct.counters.as_dict()

    def test_resident_pool(self):
        with MinerPool(PLC, workers=2) as pool:
            for k in (3, 4):
                direct = motif_count(PLC, k)
                pooled = motif_count(PLC, k, pool=pool)
                assert pooled.counts == direct.counts
                assert (
                    pooled.counters.as_dict() == direct.counters.as_dict()
                )

    def test_service(self):
        with MiningService(workers=1) as service:
            for k in (3, 4):
                direct = motif_count(LABELED, k)
                served = motif_count(LABELED, k, service=service)
                assert served.counts == direct.counts
                assert (
                    served.counters.as_dict() == direct.counters.as_dict()
                )
                again = service.mine(
                    service.graphs()[0], app="k-MC", k=k
                )
                assert again.plan_cache_hit and again.result_cache_hit

    def test_served_motifs_accept_split_degree(self):
        with MiningService(workers=1) as service:
            service.register_graph("plc", PLC)
            for k in (3, 4):
                got = service.mine(
                    "plc", app="k-MC", k=k, split_degree=2
                )
                assert got.counts == merged(PLC, k).counts

    def test_count_motifs_runs_only_the_chains(self):
        seen = []

        def mine(plan):
            seen.append(plan)
            return PatternAwareEngine(ER, plan).run()

        plan = motif_count_plan(4)
        assert count_motifs(ER, plan, mine).counts == merged(ER, 4).counts
        assert seen == list(plan.chains)
        # k = 3 enumerates nothing: the closed forms charge nothing.
        three = count_motifs(ER, motif_count_plan(3), mine)
        assert seen == list(plan.chains)
        assert three.counts == merged(ER, 3).counts
        charged = three.counters.as_dict()
        assert charged.pop("matches") == sum(three.counts)
        assert set(charged.values()) == {0}

    def test_cli_motifs_output(self, capsys, tmp_path):
        path = tmp_path / "g.el"
        path.write_text(
            "\n".join(f"{u} {v}" for u, v in PLC.edges()) + "\n"
        )
        for k in (3, 4):
            assert main(["motifs", str(k), "--graph", str(path)]) == 0
            out = capsys.readouterr().out.strip().split("\n")
            plan = compile_motifs(k)
            # the IR block still shows the merged plan
            assert out[0].startswith(f"multiplan k={k} ")
            rows = out[-plan.num_patterns:]
            assert [row.split()[0] for row in rows] == [
                p.name for p in plan.patterns
            ]
            assert tuple(int(row.split()[-1]) for row in rows) == (
                merged(PLC, k).counts
            )
