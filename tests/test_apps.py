"""Tests for the application-level API (TC, k-CL, SL, k-MC)."""

from math import comb

import pytest

from repro.errors import ConfigError
from repro.graph import complete_graph, erdos_renyi
from repro.hw import FlexMinerConfig, SimReport
from repro.engine import MinerPool, MiningResult
from repro.patterns import diamond, four_cycle
from repro.apps import (
    APP_NAMES,
    clique_count,
    motif_count,
    run_app,
    subgraph_list,
    triangle_count,
)
from repro.serve import MiningService

GRAPH = erdos_renyi(30, 0.3, seed=21)
SIM_CONFIG = FlexMinerConfig(num_pes=2)


class TestBackendsAgree:
    def test_triangle_count_all_backends(self):
        reference = triangle_count(GRAPH).counts
        for backend in ("oblivious", "sim"):
            result = triangle_count(
                GRAPH, backend=backend, config=SIM_CONFIG
            )
            assert result.counts == reference, backend

    def test_clique_count_all_backends(self):
        reference = clique_count(GRAPH, 4).counts
        for backend in ("oblivious", "sim"):
            assert (
                clique_count(
                    GRAPH, 4, backend=backend, config=SIM_CONFIG
                ).counts
                == reference
            ), backend

    def test_subgraph_list_all_backends(self):
        reference = subgraph_list(GRAPH, diamond()).counts
        for backend in ("oblivious", "sim"):
            assert (
                subgraph_list(
                    GRAPH, diamond(), backend=backend, config=SIM_CONFIG
                ).counts
                == reference
            ), backend

    def test_motif_count_all_backends(self):
        reference = motif_count(GRAPH, 3).counts
        for backend in ("oblivious", "sim"):
            assert (
                motif_count(
                    GRAPH, 3, backend=backend, config=SIM_CONFIG
                ).counts
                == reference
            ), backend


class TestSemantics:
    def test_triangle_closed_form(self):
        assert triangle_count(complete_graph(9)).counts[0] == comb(9, 3)

    def test_motif_counts_partition(self):
        result = motif_count(GRAPH, 3)
        assert len(result.counts) == 2  # wedge, triangle

    def test_four_motifs(self):
        result = motif_count(GRAPH, 4)
        assert len(result.counts) == 6

    def test_subgraph_list_collect(self):
        result = subgraph_list(GRAPH, four_cycle(), collect=True)
        assert len(result.embeddings) == result.counts[0]

    @pytest.mark.parametrize("k", [3, 4])
    def test_motif_count_collect(self, k):
        # k = 3, 4 count by decomposition, which cannot enumerate:
        # collect walks the merged plan instead
        graph = erdos_renyi(12, 0.4, seed=1)
        result = motif_count(graph, k, collect=True)
        assert result.embeddings is not None
        assert len(result.embeddings) == sum(result.counts)
        assert result.counts == motif_count(graph, k).counts
        assert len(set(result.embeddings)) == len(result.embeddings)

    def test_result_types(self):
        assert isinstance(triangle_count(GRAPH), MiningResult)
        assert isinstance(
            triangle_count(GRAPH, backend="sim", config=SIM_CONFIG),
            SimReport,
        )


class TestRunAppDispatch:
    def test_all_apps(self):
        assert run_app(GRAPH, "TC").counts == triangle_count(GRAPH).counts
        assert run_app(GRAPH, "k-CL", k=4).counts == clique_count(
            GRAPH, 4
        ).counts
        assert (
            run_app(GRAPH, "SL", pattern=diamond()).counts
            == subgraph_list(GRAPH, diamond()).counts
        )
        assert run_app(GRAPH, "k-MC", k=3).counts == motif_count(
            GRAPH, 3
        ).counts

    def test_app_names_constant(self):
        assert set(APP_NAMES) == {"TC", "k-CL", "SL", "k-MC"}

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigError):
            run_app(GRAPH, "PageRank")

    def test_sl_requires_pattern(self):
        with pytest.raises(ConfigError):
            run_app(GRAPH, "SL")

    def test_run_app_ignores_batch_frontier(self):
        # run_app accepts the retired mode keyword and ignores it; the
        # app functions no longer take it
        base = clique_count(GRAPH, 4)
        for flag in (True, False):
            got = run_app(GRAPH, "k-CL", k=4, batch_frontier=flag)
            assert got.counts == base.counts
            assert got.counters.as_dict() == base.counters.as_dict()
        with pytest.raises(TypeError, match="batch_frontier"):
            clique_count(GRAPH, 4, batch_frontier=False)

    @pytest.mark.parametrize("flag", [None, False])
    def test_every_route_accepts_the_ignored_keyword(self, flag):
        options = {} if flag is None else {"batch_frontier": flag}
        want = triangle_count(GRAPH).counts
        sim = run_app(
            GRAPH, "TC", backend="sim", config=SIM_CONFIG, **options
        )
        assert tuple(sim.counts) == want
        assert run_app(
            GRAPH, "TC", backend="oblivious", **options
        ).counts == want
        with MinerPool(GRAPH, workers=1) as pool:
            assert run_app(GRAPH, "TC", pool=pool, **options).counts == want
        with MiningService(workers=1) as svc:
            assert run_app(
                GRAPH, "TC", service=svc, **options
            ).counts == want

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            triangle_count(GRAPH, backend="gpu")

    def test_cmap_backend_retired(self):
        # the walker's arc map is the software c-map: no backend of its own
        with pytest.raises(ConfigError, match="engine/oblivious/sim"):
            triangle_count(GRAPH, backend="cmap")

    def test_sim_cannot_collect(self):
        with pytest.raises(ConfigError):
            subgraph_list(
                GRAPH, diamond(), backend="sim", collect=True,
                config=SIM_CONFIG,
            )
