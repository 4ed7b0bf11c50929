"""The FlexMiner compiler: pattern analysis and execution-plan generation.

The surface is lazy (:mod:`repro._lazy`): a name's submodule is
imported on first use, so compiling a plan does not load the estimator
or the validator.  Code inside ``repro`` imports from the defining
submodule, which also keeps its annotations visible to mypy.
"""

from .._lazy import lazy_surface

_EXPORTS = {
    "matching_order": (
        "choose_matching_order",
        "connected_ancestors",
        "enumerate_matching_orders",
        "score_matching_order",
    ),
    "symmetry": ("symmetry_conditions", "transitive_reduction"),
    "plan": ("ExecutionPlan", "MultiPlan", "PlanNode", "VertexStep"),
    "hints": (
        "assign_frontier_hints",
        "cmap_insert_hints",
        "cmap_needed_depths",
    ),
    "compiler": ("compile_pattern", "compile_multi", "compile_motifs"),
    "ir": ("emit_ir", "emit_multi_ir", "parse_ir"),
    "estimate": (
        "GraphProfile",
        "LevelEstimate",
        "estimate_plan",
        "measure_levels",
        "choose_matching_order_for_graph",
    ),
    "validate": ("PlanValidation", "validate_plan"),
}

__all__, __getattr__ = lazy_surface(__name__, _EXPORTS)
