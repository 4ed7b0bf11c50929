"""Differential verification: oracle, backend matrix, fuzzer, corpus.

The correctness contract of this repository is *cross-implementation
count agreement*: the serial engine in both execution modes, the
materialize-everything reference engine, the worker pool, the serving
layer and the cycle-level simulator must all agree — with each other, and with a brute-force oracle that never
touches the compiler.  This package makes that contract continuously
enforceable:

* :mod:`~repro.verify.oracle` — ESU-based enumeration oracle built
  straight on :mod:`repro.patterns`;
* :mod:`~repro.verify.differential` — one case through every backend,
  count and zero-drift op-counter comparison, structured mismatches;
* :mod:`~repro.verify.fuzz` — seeded random case generation plus greedy
  shrinking of failures to small reproducers;
* :mod:`~repro.verify.corpus` — JSON-frozen shrunken cases replayed by
  the test suite and CI.

CLI entry point: ``flexminer verify --seed 0 --cases 50``.
"""

from .corpus import (
    CASE_SCHEMA,
    case_from_dict,
    case_to_dict,
    load_case,
    load_corpus,
    replay_corpus,
    save_case,
)
from .differential import (
    BACKENDS,
    DEFAULT_BACKENDS,
    DifferentialReport,
    Mismatch,
    VerifyCase,
    mismatch_report,
    resolve_backends,
    run_case,
)
from .fuzz import (
    GRAPH_FAMILIES,
    FuzzFailure,
    FuzzReport,
    fuzz,
    random_case,
    random_graph,
    random_pattern,
    shrink_case,
)
from .oracle import connected_vertex_sets, oracle_count, oracle_embeddings

__all__ = [
    "CASE_SCHEMA",
    "case_from_dict",
    "case_to_dict",
    "load_case",
    "load_corpus",
    "replay_corpus",
    "save_case",
    "BACKENDS",
    "DEFAULT_BACKENDS",
    "DifferentialReport",
    "Mismatch",
    "VerifyCase",
    "mismatch_report",
    "resolve_backends",
    "run_case",
    "GRAPH_FAMILIES",
    "FuzzFailure",
    "FuzzReport",
    "fuzz",
    "random_case",
    "random_graph",
    "random_pattern",
    "shrink_case",
    "connected_vertex_sets",
    "oracle_count",
    "oracle_embeddings",
]
