"""Graph substrate: CSR graphs, generators, orientation, IO, statistics.

The surface is lazy (:mod:`repro._lazy`): a name's submodule is
imported on first use, so loading an edge list does not load the
generators or the dataset suite.  Code inside ``repro`` imports from the
defining submodule.
"""

from .._lazy import lazy_surface

_EXPORTS = {
    "csr": (
        "CSRGraph",
        "SharedCSRBuffers",
        "attach_array",
        "attach_shared_csr",
        "share_array",
        "worker_context",
    ),
    "generators": (
        "erdos_renyi",
        "rmat",
        "power_law_cluster",
        "complete_graph",
        "star_graph",
        "cycle_graph",
        "path_graph",
        "grid_graph",
        "barbell_graph",
    ),
    "io": ("load_edge_list", "save_edge_list", "load_mtx", "load_graph"),
    "orientation": ("orient_by_degree", "orientation_rank"),
    "stats": (
        "GraphStats",
        "graph_stats",
        "degree_histogram",
        "power_law_exponent",
    ),
    "datasets": (
        "DATASET_NAMES",
        "SMALL_SUITE",
        "load_dataset",
        "load_suite",
        "suite_stats",
    ),
    "sample": ("induced_subgraph", "random_vertex_sample"),
    "labels": (
        "LabeledGraph",
        "assign_random_labels",
        "assign_degree_labels",
    ),
}

__all__, __getattr__ = lazy_surface(__name__, _EXPORTS)
