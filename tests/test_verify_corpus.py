"""Regression-corpus round-trip tests and the tests/corpus replay.

``tests/corpus/*.json`` are frozen differential cases (shrunken fuzz
failures and asserted negative results).  Replaying them here pins the
oracle against the stored expectations and every backend against the
oracle, forever.
"""

import os

import numpy as np
import pytest

from repro.graph import CSRGraph, LabeledGraph
from repro.patterns import triangle, wedge
from repro.verify import (
    CASE_SCHEMA,
    VerifyCase,
    case_from_dict,
    case_to_dict,
    load_case,
    load_corpus,
    replay_corpus,
    save_case,
)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def _same_case(a: VerifyCase, b: VerifyCase) -> bool:
    topo_a = getattr(a.graph, "graph", a.graph)
    topo_b = getattr(b.graph, "graph", b.graph)
    labels_a = getattr(a.graph, "labels", None)
    labels_b = getattr(b.graph, "labels", None)
    if (labels_a is None) != (labels_b is None):
        return False
    if labels_a is not None and list(labels_a) != list(labels_b):
        return False
    if (a.pattern is None) != (b.pattern is None):
        return False
    if a.pattern is not None and (
        a.pattern.num_vertices != b.pattern.num_vertices
        or sorted(a.pattern.edges) != sorted(b.pattern.edges)
        or list(a.pattern.labels) != list(b.pattern.labels)
    ):
        return False
    return (
        topo_a == topo_b
        and a.motif_k == b.motif_k
        and a.induced == b.induced
        and a.matching_order == b.matching_order
        and a.expected == b.expected
        and a.check_oracle == b.check_oracle
    )


class TestRoundTrip:
    def test_plain_case(self):
        case = VerifyCase(
            graph=CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)]),
            pattern=triangle(),
            expected=(1,),
            name="tri",
        )
        assert _same_case(case_from_dict(case_to_dict(case)), case)

    def test_labeled_case_with_order(self):
        topo = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        case = VerifyCase(
            graph=LabeledGraph(topo, np.array([0, 1, 0, 1])),
            pattern=wedge().with_labels([0, None, 1]),
            induced=True,
            matching_order=(1, 0, 2),
            name="labeled",
        )
        assert _same_case(case_from_dict(case_to_dict(case)), case)

    def test_motif_case(self):
        case = VerifyCase(
            graph=CSRGraph.from_edges([(0, 1), (1, 2)]),
            motif_k=3,
            expected=(1, 0),
        )
        assert _same_case(case_from_dict(case_to_dict(case)), case)

    def test_no_oracle_flag_round_trips(self):
        case = VerifyCase(
            graph=CSRGraph.from_edges([(0, 1)]),
            pattern=triangle(),
            expected=(0,),
            check_oracle=False,
        )
        back = case_from_dict(case_to_dict(case))
        assert back.check_oracle is False

    def test_schema_stamped_and_enforced(self):
        payload = case_to_dict(
            VerifyCase(
                graph=CSRGraph.from_edges([(0, 1)]), pattern=triangle()
            )
        )
        assert payload["schema"] == CASE_SCHEMA
        payload["schema"] = "flexminer.verifycase/99"
        with pytest.raises(ValueError, match="unsupported corpus schema"):
            case_from_dict(payload)

    def test_save_load(self, tmp_path):
        case = VerifyCase(
            graph=CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)]),
            pattern=triangle(),
            expected=(1,),
            name="roundtrip",
        )
        path = str(tmp_path / "case.json")
        save_case(path, case, description="round-trip test")
        assert _same_case(load_case(path), case)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(str(tmp_path / "nope"))


class TestCorpusReplay:
    def test_corpus_exists_and_is_pinned(self):
        cases = load_corpus(CORPUS_DIR)
        assert len(cases) >= 5
        for path, case in cases:
            assert case.expected is not None, (
                f"{path} has no pinned expected counts"
            )

    def test_replay_full_matrix(self):
        replayed = replay_corpus(CORPUS_DIR)
        assert replayed
        for path, report in replayed:
            assert report.ok, (
                f"{path}: " + "; ".join(str(m) for m in report.mismatches)
            )

    def test_replay_walker_without_the_arc_map(self, monkeypatch):
        """Every corpus graph fits the arc map, so the full-matrix
        replay only proves the lookup path; this one sends the default
        walker down the gather + keyed-search path it takes past the
        map's size cap, against the same recursive reference."""
        from repro.graph import csr

        monkeypatch.setattr(csr, "ARC_MAP_MAX_BYTES", 0)
        replayed = replay_corpus(
            CORPUS_DIR, backends=("serial", "frontier-batch")
        )
        assert replayed
        for path, report in replayed:
            assert report.ok, (
                f"{path}: " + "; ".join(str(m) for m in report.mismatches)
            )

    def test_kernel_leaf_parity_case_is_meaningful(self):
        """The frozen negative result must keep exercising what it
        claims: adjacency lists past the count-only threshold."""
        from repro.engine import PatternAwareEngine

        case = load_case(
            os.path.join(CORPUS_DIR, "kernel_leaf_parity.json")
        )
        topo = getattr(case.graph, "graph", case.graph)
        assert topo.max_degree() > PatternAwareEngine.leaf_count_min_work
        assert case.check_oracle is False  # oracle pinned at promotion

    def test_corrupted_expectation_is_caught(self, tmp_path):
        """End-to-end: a corpus case whose expectation is wrong fails
        replay (guards against silently-vacuous corpus files)."""
        import json

        src = os.path.join(CORPUS_DIR, "triangle_er10.json")
        with open(src) as f:
            payload = json.load(f)
        payload["expected"] = [payload["expected"][0] + 5]
        bad_dir = tmp_path / "corpus"
        bad_dir.mkdir()
        with open(bad_dir / "bad.json", "w") as f:
            json.dump(payload, f)
        (path, report), = replay_corpus(str(bad_dir))
        assert not report.ok
        assert any(m.kind == "oracle-expected" for m in report.mismatches)
