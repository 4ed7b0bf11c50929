"""Tests for graph IO, orientation, datasets and statistics."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import (
    CSRGraph,
    DATASET_NAMES,
    degree_histogram,
    erdos_renyi,
    graph_stats,
    load_dataset,
    load_edge_list,
    load_graph,
    load_mtx,
    orient_by_degree,
    orientation_rank,
    power_law_cluster,
    rmat,
    save_edge_list,
    suite_stats,
)


class TestIO:
    def test_edge_list_round_trip(self, tmp_path):
        g = rmat(7, 4.0, seed=4)
        path = tmp_path / "g.el"
        save_edge_list(g, path)
        back = load_edge_list(path)
        assert back.num_edges == g.num_edges
        assert np.array_equal(back.indices, g.indices)

    def test_edge_list_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n\n0 1\n% other comment\n1 2\n")
        g = load_edge_list(path)
        assert g.num_edges == 2

    def test_edge_list_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_edge_list_non_integer(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_mtx(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 2\n1 2\n2 3\n"
        )
        g = load_mtx(path)
        assert g.num_vertices == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_load_graph_dispatch(self, tmp_path):
        el = tmp_path / "g.el"
        el.write_text("0 1\n")
        assert load_graph(el).num_edges == 1

    def test_self_loop_line_does_not_count_toward_vertices(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("5 5\n0 1\n")
        g = load_edge_list(path)
        assert (g.num_vertices, g.num_edges) == (2, 1)

    def test_large_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        g = CSRGraph.from_edges(rng.integers(0, 60_000, size=(120_000, 2)))
        assert g.num_edges >= 10**5
        path = tmp_path / "big.el"
        save_edge_list(g, path)
        back = load_edge_list(path)
        assert back.indptr.tobytes() == g.indptr.tobytes()
        assert back.indices.tobytes() == g.indices.tobytes()

    def test_oversized_id_token_is_a_line_numbered_error(self, tmp_path):
        # 745 GiB of indptr before the bound; now rejected before any
        # graph-sized allocation.
        path = tmp_path / "huge.el"
        path.write_text("0 1\n1 99999999999\n")
        with pytest.raises(GraphFormatError, match=r"huge\.el:2: vertex id"):
            load_graph(path)

    def test_id_past_int32_is_rejected(self, tmp_path):
        path = tmp_path / "wide.el"
        path.write_text("1 2147483648\n")
        with pytest.raises(GraphFormatError, match="does not fit int32"):
            load_graph(path)
        with pytest.raises(GraphFormatError, match="does not fit int32"):
            CSRGraph.from_edges(np.array([[0, 2**40]]))
        with pytest.raises(GraphFormatError, match="out of range for int32"):
            CSRGraph.from_edges([], num_vertices=2**40)

    def test_truncated_mtx_is_rejected(self, tmp_path):
        path = tmp_path / "cut.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                        "4 4 3\n1 2\n2 3\n")
        with pytest.raises(GraphFormatError, match="3 entries, found 2"):
            load_mtx(path)

    def test_mtx_keeps_declared_vertex_count(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket\n% note\n5 6 2\n1 2 0.5\n3 1 2.5\n")
        g = load_mtx(path)
        assert g.num_vertices == 6
        assert sorted(g.edges()) == [(0, 1), (0, 2)]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 2\n", ":1: malformed size line"),
            ("%x\n3 3\n1 2\n", ":2: malformed size line"),
            ("%x\n3 3 1\n1\n", ":3: expected 'u v', got '1'"),
            ("%x\n3 3 1\n1 b\n", ":3: non-integer vertex id"),
            ("", ": not a Matrix Market file"),
        ],
    )
    def test_mtx_errors_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(GraphFormatError) as info:
            load_mtx(path)
        assert str(info.value) == f"{path}{message}"


# ----------------------------------------------------------------------
# The per-line reader and the lexsort build that the numpy parser and
# the sort-key from_edges replaced: the oracle their output must match
# byte for byte, errors included.
# ----------------------------------------------------------------------
def oracle_from_edges(edges, *, num_vertices=None, directed=False, name=""):
    pairs = np.asarray(list(edges), dtype=np.int64)
    if pairs.size == 0:
        n = int(num_vertices or 0)
        return np.zeros(n + 1, dtype=np.int64), np.empty(0, np.int32), name
    if pairs.min() < 0:
        raise GraphFormatError("vertex ids must be non-negative")
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if not directed:
        pairs = np.concatenate([pairs, pairs[:, ::-1]])
    # the old build crashed on an all-self-loop input; it is empty now
    top = int(pairs.max()) if len(pairs) else -1
    n = int(num_vertices) if num_vertices is not None else top + 1
    if top >= n:
        raise GraphFormatError(
            f"edge endpoint {top} out of range for {n} vertices"
        )
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    if len(pairs):
        keep = np.ones(len(pairs), dtype=bool)
        keep[1:] = np.any(pairs[1:] != pairs[:-1], axis=1)
        pairs = pairs[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs[:, 0], minlength=n), out=indptr[1:])
    return indptr, pairs[:, 1].astype(np.int32), name


def oracle_load_edge_list(path):
    edges = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'u v', got {line!r}"
                )
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer vertex id"
                ) from exc
    return oracle_from_edges(edges, name=os.path.basename(str(path)))


def arrays(result):
    """A graph or oracle result as dtype-tagged CSR bytes plus its name."""
    if isinstance(result, CSRGraph):
        result = (result.indptr, result.indices, result.name)
    indptr, indices, name = result
    return (
        indptr.dtype.str, indptr.tobytes(),
        indices.dtype.str, indices.tobytes(),
        name,
    )


def outcome(load, path):
    try:
        return arrays(load(path))
    except GraphFormatError as exc:
        return str(exc)


_space = st.sampled_from(["", " ", "\t", "  ", " \t", "\x0b", "\x0c"])
_sep = st.sampled_from([" ", "\t", "  ", " \t ", "\x0c"])
_vertex = st.builds(
    lambda sign, v, zeros: sign + "0" * zeros + str(v),
    st.sampled_from(["", "", "", "+"]),
    st.integers(0, 12),
    st.sampled_from([0, 0, 0, 1]),
)
_bad_token = st.sampled_from(
    ["a", "1.5", "-", "+", "1-2", "x1", "2#", "-3", "+1-2", "-x", "++1"]
)
_extra = st.sampled_from(["7", "0.25", "w", "#tail", "%", "-1"])


@st.composite
def _line(draw):
    kind = draw(st.sampled_from(
        ["edge"] * 6 + ["comment", "blank", "short", "bad"]
    ))
    lead, trail = draw(_space), draw(_space)
    if kind == "comment":
        body = draw(st.sampled_from(["#", "%", "# note 1 2", "%% x"]))
    elif kind == "blank":
        body = ""
    elif kind == "short":
        body = draw(st.one_of(_vertex, _bad_token))
    else:
        u, v = draw(_vertex), draw(_vertex)
        if kind == "bad":
            if draw(st.booleans()):
                u = draw(_bad_token)
            else:
                v = draw(_bad_token)
        extras = draw(st.lists(_extra, max_size=2))
        body = draw(_sep).join([u, v] + extras)
    return lead + body + trail


@st.composite
def edge_list_text(draw):
    lines = draw(st.lists(_line(), max_size=12))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines)
    if lines and draw(st.booleans()):
        text += ending
    return text


class TestParserParity:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(edge_list_text())
    def test_matches_per_line_oracle(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.el")
            with open(path, "wb") as f:
                f.write(text.encode())
            want = outcome(oracle_load_edge_list, path)
            assert outcome(load_edge_list, path) == want

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=80
        ),
        st.booleans(),
        st.sampled_from([None, 41, 60]),
    )
    def test_from_edges_matches_lexsort_build(self, edges, directed, n):
        want = oracle_from_edges(edges, num_vertices=n, directed=directed)
        for given_edges in (edges, np.array(edges, dtype=np.int64)):
            g = CSRGraph.from_edges(
                given_edges, num_vertices=n, directed=directed
            )
            assert arrays(g) == arrays(want)

    @pytest.mark.parametrize(
        "text, lineno",
        [("0 1\n\n1\n", 3), ("0 1\r\n1 x\r\n", 2), ("0 1\r2\n", 2)],
    )
    def test_errors_count_crlf_and_lone_cr_lines(self, tmp_path, text, lineno):
        path = tmp_path / "e.el"
        path.write_bytes(text.encode())
        with pytest.raises(GraphFormatError, match=f"e\\.el:{lineno}: "):
            load_edge_list(path)


class TestOrientation:
    def test_dag_has_each_edge_once(self):
        g = rmat(8, 6.0, seed=6)
        dag = g if False else orient_by_degree(g)
        assert dag.directed
        assert dag.num_directed_edges == g.num_edges

    def test_acyclic_by_rank(self):
        g = rmat(8, 6.0, seed=6)
        rank = orientation_rank(g)
        dag = orient_by_degree(g)
        for u in dag.vertices():
            for v in dag.neighbors(u):
                assert rank[u] < rank[int(v)]

    def test_rank_orders_by_degree_then_id(self):
        g = CSRGraph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2)])
        rank = orientation_rank(g)
        # degrees: v0=3, v1=2, v2=2, v3=1 -> order v3, v1, v2, v0
        assert rank[3] < rank[1] < rank[2] < rank[0]

    def test_triangle_count_preserved_as_ordered_paths(self):
        # Each triangle appears exactly once as u->v, u->w, v->w in the DAG.
        import networkx as nx

        g = rmat(8, 8.0, seed=12)
        dag = orient_by_degree(g)
        count = 0
        for u in dag.vertices():
            nbrs = dag.neighbors(u)
            for v in nbrs:
                vn = dag.neighbors(int(v))
                count += len(np.intersect1d(nbrs, vn))
        expected = sum(nx.triangles(g.to_networkx()).values()) // 3
        assert count == expected


def orient_edge_by_edge(graph: CSRGraph) -> CSRGraph:
    """The construction ``orient_by_degree`` replaced: a Python pass
    over the edges and a ``from_edges`` re-sort."""
    rank = orientation_rank(graph)
    arcs = [(u, v) if rank[u] < rank[v] else (v, u) for u, v in graph.edges()]
    return CSRGraph.from_edges(
        arcs,
        num_vertices=graph.num_vertices,
        directed=True,
        name=graph.name + "-dag" if graph.name else "dag",
    )


def corpus_graphs():
    import os

    from repro.verify import load_corpus

    corpus = os.path.join(os.path.dirname(__file__), "corpus")
    for path, case in load_corpus(corpus):
        yield os.path.basename(path), getattr(case.graph, "graph", case.graph)


ORIENTATION_GRAPHS = dict(
    corpus_graphs(),
    rmat=rmat(8, 8.0, seed=12),
    erdos_renyi=erdos_renyi(200, 0.05, seed=3),
    power_law_cluster=power_law_cluster(150, 4, 0.5, seed=8),
    isolated=CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=7),
)


class TestVectorizedOrientation:
    @pytest.mark.parametrize("name", list(ORIENTATION_GRAPHS))
    def test_byte_identical_to_edge_by_edge_construction(self, name):
        graph = ORIENTATION_GRAPHS[name]
        got, want = orient_by_degree(graph), orient_edge_by_edge(graph)
        assert got.indptr.dtype == want.indptr.dtype
        assert got.indices.dtype == want.indices.dtype
        assert got.indptr.tobytes() == want.indptr.tobytes()
        assert got.indices.tobytes() == want.indices.tobytes()
        assert (got.name, got.directed) == (want.name, True)
        assert not got.indices.flags.writeable


class TestGeneratorGraphsUnchanged:
    @pytest.mark.parametrize("name", list(ORIENTATION_GRAPHS))
    def test_from_edges_matches_lexsort_build(self, name):
        graph = ORIENTATION_GRAPHS[name]
        edges = np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
        # shuffled, mirrored in part and with repeats, as files come
        rng = np.random.default_rng(5)
        edges = np.concatenate([edges, edges[: len(edges) // 3, ::-1]])
        edges = edges[rng.permutation(len(edges))]
        n = graph.num_vertices
        got = CSRGraph.from_edges(edges, num_vertices=n, name="g")
        want = oracle_from_edges(edges, num_vertices=n, name="g")
        assert arrays(got) == arrays(want)
        assert got == graph


class TestStatsAndDatasets:
    def test_degree_histogram_sums_to_n(self):
        g = rmat(8, 6.0, seed=8)
        hist = degree_histogram(g)
        assert hist.sum() == g.num_vertices

    def test_graph_stats_row(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2)], name="tiny")
        row = graph_stats(g).as_row()
        assert row[0] == "tiny" and row[1] == 3 and row[2] == 2

    def test_all_datasets_load_and_cache(self):
        for name in DATASET_NAMES:
            g1 = load_dataset(name)
            g2 = load_dataset(name)
            assert g1 is g2  # cached
            assert g1.num_edges > 0

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("nope")

    def test_suite_shape_matches_paper(self):
        stats = {s.name: s for s in suite_stats()}
        # Mi is the densest (paper §VII-C); As is the smallest.
        densest = max(stats.values(), key=lambda s: s.avg_degree / 1.0)
        assert densest.name in ("Mi", "Or")
        assert stats["Mi"].avg_degree == max(
            stats[n].avg_degree for n in ("As", "Mi", "Pa", "Yo", "Lj")
        )
        smallest = min(stats.values(), key=lambda s: s.num_vertices)
        assert smallest.name == "As"
        # Pa and Yo are larger and sparser than Mi.
        assert stats["Pa"].num_vertices > stats["Mi"].num_vertices
        assert stats["Pa"].avg_degree < stats["Mi"].avg_degree
