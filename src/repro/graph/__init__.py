"""Graph substrate: CSR graphs, generators, orientation, IO, statistics."""

from .csr import (
    CSRGraph,
    SharedCSRBuffers,
    attach_array,
    attach_shared_csr,
    share_array,
    worker_context,
)
from .generators import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    power_law_cluster,
    rmat,
    star_graph,
)
from .io import load_edge_list, load_graph, load_mtx, save_edge_list
from .orientation import orient_by_degree, orientation_rank
from .stats import GraphStats, degree_histogram, graph_stats, power_law_exponent
from .datasets import DATASET_NAMES, SMALL_SUITE, load_dataset, load_suite, suite_stats
from .sample import induced_subgraph, random_vertex_sample
from .labels import LabeledGraph, assign_degree_labels, assign_random_labels

__all__ = [
    "CSRGraph",
    "SharedCSRBuffers",
    "attach_array",
    "attach_shared_csr",
    "share_array",
    "worker_context",
    "erdos_renyi",
    "rmat",
    "power_law_cluster",
    "complete_graph",
    "star_graph",
    "cycle_graph",
    "path_graph",
    "grid_graph",
    "barbell_graph",
    "load_edge_list",
    "save_edge_list",
    "load_mtx",
    "load_graph",
    "orient_by_degree",
    "orientation_rank",
    "GraphStats",
    "graph_stats",
    "degree_histogram",
    "power_law_exponent",
    "DATASET_NAMES",
    "SMALL_SUITE",
    "load_dataset",
    "load_suite",
    "suite_stats",
    "induced_subgraph",
    "random_vertex_sample",
    "LabeledGraph",
    "assign_random_labels",
    "assign_degree_labels",
]
