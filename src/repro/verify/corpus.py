"""Regression corpus: serialized differential cases, replayed in CI.

Every shrunken fuzz failure (and every interesting negative result) can
be frozen as a small JSON file and replayed forever.  The schema is
self-contained — graph edges, labels, pattern, semantics, and the
expected per-pattern counts — so a corpus case pins down three things
at once: the oracle (checked against ``expected``), every backend
(checked against the oracle), and the zero-drift counter invariant.

Promotion workflow (see ``docs/verification.md``): take the
``reproducer`` block from a failing ``flexminer verify`` report, fix the
bug, fill in ``expected`` with the now-agreed counts, and drop the file
into ``tests/corpus/``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.labels import LabeledGraph
from ..patterns import Pattern
from .differential import DifferentialReport, VerifyCase, run_case

__all__ = [
    "CASE_SCHEMA",
    "case_from_dict",
    "case_to_dict",
    "load_case",
    "load_corpus",
    "replay_corpus",
    "save_case",
]

#: Corpus-case schema identifier; bump the suffix on breaking changes.
CASE_SCHEMA = "flexminer.verifycase/1"


def case_to_dict(
    case: VerifyCase, *, description: str = ""
) -> Dict[str, object]:
    """Serialize a case to a JSON-able dict (see :data:`CASE_SCHEMA`)."""
    graph = case.graph
    topo = graph.graph if isinstance(graph, LabeledGraph) else graph
    labels = getattr(graph, "labels", None)
    payload: Dict[str, object] = {
        "schema": CASE_SCHEMA,
        "name": case.name,
        "description": description,
        "graph": {
            "num_vertices": topo.num_vertices,
            "edges": [[int(u), int(v)] for u, v in topo.edges()],
            "labels": (
                [int(x) for x in labels] if labels is not None else None
            ),
        },
        "induced": case.induced,
        "matching_order": (
            list(case.matching_order)
            if case.matching_order is not None
            else None
        ),
        "expected": (
            list(case.expected) if case.expected is not None else None
        ),
        "check_oracle": case.check_oracle,
    }
    if case.motif_k is not None:
        payload["motif_k"] = case.motif_k
        payload["pattern"] = None
    else:
        pattern = case.pattern
        payload["motif_k"] = None
        payload["pattern"] = {
            "num_vertices": pattern.num_vertices,
            "edges": [[int(u), int(v)] for u, v in pattern.edges],
            "labels": (
                [lab for lab in pattern.labels]
                if pattern.is_labeled
                else None
            ),
            "name": pattern.name,
        }
    return payload


def case_from_dict(payload: Dict[str, object]) -> VerifyCase:
    """Rebuild a :class:`VerifyCase` from :func:`case_to_dict` output."""
    schema = payload.get("schema")
    if schema != CASE_SCHEMA:
        raise ValueError(
            f"unsupported corpus schema {schema!r} (want {CASE_SCHEMA})"
        )
    gspec = payload["graph"]
    topo = CSRGraph.from_edges(
        [(int(u), int(v)) for u, v in gspec["edges"]],
        num_vertices=int(gspec["num_vertices"]),
        name=str(payload.get("name", "")),
    )
    graph: object = topo
    if gspec.get("labels") is not None:
        graph = LabeledGraph(
            topo, np.asarray(gspec["labels"], dtype=np.int32)
        )
    pattern: Optional[Pattern] = None
    if payload.get("pattern") is not None:
        pspec = payload["pattern"]
        pattern = Pattern(
            int(pspec["num_vertices"]),
            [(int(u), int(v)) for u, v in pspec["edges"]],
            name=str(pspec.get("name", "")),
            labels=pspec.get("labels"),
        )
    order = payload.get("matching_order")
    expected = payload.get("expected")
    return VerifyCase(
        graph=graph,
        pattern=pattern,
        motif_k=payload.get("motif_k"),
        induced=bool(payload.get("induced", False)),
        matching_order=tuple(order) if order is not None else None,
        name=str(payload.get("name", "")),
        expected=tuple(expected) if expected is not None else None,
        check_oracle=bool(payload.get("check_oracle", True)),
    )


def save_case(
    path: str, case: VerifyCase, *, description: str = ""
) -> str:
    """Write one corpus case as pretty-printed JSON."""
    with open(path, "w") as f:
        json.dump(
            case_to_dict(case, description=description),
            f,
            indent=2,
            sort_keys=True,
        )
        f.write("\n")
    return path


def load_case(path: str) -> VerifyCase:
    with open(path) as f:
        return case_from_dict(json.load(f))


def load_corpus(directory: str) -> List[Tuple[str, VerifyCase]]:
    """Load every ``*.json`` case in a directory, sorted by filename."""
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"corpus directory {directory!r} not found")
    out: List[Tuple[str, VerifyCase]] = []
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".json"):
            path = os.path.join(directory, entry)
            out.append((path, load_case(path)))
    return out


def replay_corpus(
    directory: str,
    *,
    backends=None,
    oracle: bool = True,
    metrics=None,
) -> List[Tuple[str, DifferentialReport]]:
    """Run every corpus case through the differential runner."""
    return [
        (path, run_case(case, backends=backends, oracle=oracle, metrics=metrics))
        for path, case in load_corpus(directory)
    ]
