"""Static analysis: plan verifier (FM1xx) + lint (FM2xx/FM30x).

The passes share one diagnostics core:

* :mod:`repro.analysis.plancheck` proves execution-plan invariants
  (connectivity, symmetry soundness/completeness against the
  automorphism group, injectivity-skip and hint legality, and the
  FM17x frontier-walker obligations) before a plan ever runs —
  ``flexminer check-plan``;
* :mod:`repro.analysis.fmlint` enforces the determinism conventions the
  bit-identical parallel/simulator guarantees rest on — ``flexminer
  lint``;
* :mod:`repro.analysis.flowcheck` runs path-sensitive
  resource-lifecycle and lock-discipline proofs (FM30x) on the CFG +
  fixpoint framework in :mod:`repro.analysis.flow`, wired into the
  same lint driver;
* :mod:`repro.analysis.baseline` ratchets the lint gate (recorded debt
  passes, new findings and stale suppressions fail) and
  :mod:`repro.analysis.sarif` exports SARIF 2.1.0 for code scanning.

All passes emit catalogued
:class:`~repro.analysis.diagnostics.Diagnostic` records rendered as
text or ``flexminer.run/1`` JSON via :mod:`repro.obs`.
"""

from .diagnostics import (
    CATALOG,
    SEVERITIES,
    AnalysisReport,
    CodeInfo,
    Diagnostic,
    merge_reports,
    register_code,
)
from .plancheck import check_multi_plan, check_plan, plan_shape
from .fmlint import (
    DEFAULT_RULES,
    LintRule,
    iter_python_files,
    lint_paths,
    lint_source,
)
from .baseline import (
    Baseline,
    apply_baseline,
    baseline_from_report,
    load_baseline,
    save_baseline,
)
from .flow import CFG, ForwardAnalysis, build_cfg, run_forward
from .flowcheck import FLOW_CODES, check_functions, flow_findings
from .sarif import to_sarif

__all__ = [
    "CATALOG",
    "SEVERITIES",
    "AnalysisReport",
    "CodeInfo",
    "Diagnostic",
    "merge_reports",
    "register_code",
    "check_plan",
    "check_multi_plan",
    "plan_shape",
    "DEFAULT_RULES",
    "LintRule",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "Baseline",
    "apply_baseline",
    "baseline_from_report",
    "load_baseline",
    "save_baseline",
    "CFG",
    "ForwardAnalysis",
    "build_cfg",
    "run_forward",
    "FLOW_CODES",
    "check_functions",
    "flow_findings",
    "to_sarif",
]
