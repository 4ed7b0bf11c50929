"""fmlint: AST-based determinism lint for the repro tree (``FM2xx``).

PR 2 and PR 4 promise *bit-identical* results — the parallel miner's
OpCounters and the parallel simulator's SimReport must match the serial
references exactly at any worker count.  Those guarantees rest on code
conventions nothing enforced until now:

* **FM201** — no iteration over unordered ``set``/``frozenset``
  expressions in the ``engine``/``hw`` hot paths (hash order leaks into
  op order and merge order);
* **FM202** — no float literals flowing into ``*cycles`` accumulators
  (cycle accounting is integer-exact so per-task deltas re-group
  losslessly);
* **FM203** — no direct mutation of metric instruments
  (``registry.counter("x").value = ...`` bypasses the ``inc``/``set``
  API the observability layer audits);
* **FM204** — every locally created ``shared_memory.SharedMemory`` must
  be closed/unlinked or handed off (leaked segments outlive the
  process);
* **FM205** — no wall-clock or RNG calls inside the simulator
  (``hw/``): cycle accounting must be a pure function of the inputs;
* **FM206** — no direct ``perf_counter``/``process_time``/``monotonic``
  calls in ``engine/``/``hw/`` (dotted or from-imported): timing flows
  through ``repro.obs`` (LaneRecorder / PhaseProfiler / Tracer) so the
  profile is the single source of wall-clock truth;
* **FM207** — no ``multiprocessing`` ``Process``/``Pool`` construction
  in ``engine/`` outside :mod:`repro.engine.pool`: per-request process
  spawning is exactly the overhead the persistent pool exists to
  amortize, so all worker lifecycles live in one audited module.
* **FM208** — no per-element Python ``for`` loops over ndarray contents
  inside :mod:`repro.engine.kernels` hot functions: the kernels module
  exists to keep set algebra vectorized, and an interpreter-speed loop
  over array elements silently re-introduces the O(n) Python overhead
  the frontier engine batches away.  Documented scalar fallbacks carry
  the standard per-line suppression.

Rules are deliberately *syntactic*: they flag the patterns that caused
(or nearly caused) real drift bugs, run in milliseconds, and are each
unit-tested on a failing and a passing snippet.  Findings can be
suppressed per line (``# fmlint: disable=FM201``) or per file
(``# fmlint: skip-file`` in the first ten lines).
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .diagnostics import AnalysisReport, Diagnostic, register_code
from .flowcheck import FLOW_CODES, flow_findings

__all__ = [
    "DEFAULT_RULES",
    "FLOW_RULES",
    "LintRule",
    "iter_python_files",
    "lint_paths",
    "lint_source",
]

FM200 = register_code(
    "FM200", "file could not be parsed", "error",
    "fix the syntax error before linting",
)
FM201 = register_code(
    "FM201", "iteration over an unordered set expression", "error",
    "wrap the iterable in sorted(...); hash order is not deterministic "
    "across runs and workers",
)
FM202 = register_code(
    "FM202", "float literal flows into a cycle accumulator", "error",
    "keep cycle accounting integral (int()/math.ceil the contribution); "
    "per-task deltas must re-group exactly",
)
FM203 = register_code(
    "FM203", "metric instrument mutated directly", "error",
    "use inc()/set() on the instrument instead of writing its fields",
)
FM204 = register_code(
    "FM204", "SharedMemory created without close/unlink or hand-off",
    "error",
    "close and unlink the segment, or return/store the handle so an "
    "owner can",
)
FM205 = register_code(
    "FM205", "wall-clock or RNG call inside the simulator", "error",
    "simulator accounting must be a pure function of its inputs; pass "
    "times/seeds in explicitly",
)
FM206 = register_code(
    "FM206", "direct wall-clock timing call outside repro.obs", "error",
    "route timing through repro.obs (LaneRecorder, PhaseProfiler or "
    "Tracer) so busy accounting and profiles share one clock",
)
FM207 = register_code(
    "FM207", "worker process constructed outside repro.engine.pool",
    "error",
    "route worker lifecycles through repro.engine.pool (a resident or "
    "transient MinerPool); Process/Pool spawns elsewhere escape its "
    "structured failure handling and shared-memory teardown",
)

FM208 = register_code(
    "FM208", "per-element Python loop over ndarray contents in a kernel",
    "error",
    "vectorize with numpy (searchsorted/cumsum/fancy indexing) or move "
    "the loop out of repro.engine.kernels; a documented scalar fallback "
    "may stay with '# fmlint: disable=FM208' on the loop line",
)

_SUPPRESS_RE = re.compile(
    r"#\s*fmlint:\s*disable(?:=(?P<codes>[A-Z0-9,\s]+))?"
)
_SKIP_FILE_RE = re.compile(r"#\s*fmlint:\s*skip-file")


@dataclass
class LintContext:
    """Everything a rule needs about one file."""

    path: str  #: display path (repo-relative where possible)
    tree: ast.AST
    lines: Sequence[str]


@dataclass(frozen=True)
class LintRule:
    """One lint rule: a code plus a per-file AST check.

    ``paths`` holds path fragments (posix style); a non-empty tuple
    scopes the rule to files whose display path contains one of them.
    """

    code: str
    check: "RuleCheck"
    paths: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if not self.paths:
            return True
        posix = path.replace(os.sep, "/")
        return any(fragment in posix for fragment in self.paths)


class RuleCheck:
    """Protocol-ish callable: (LintContext) -> iterator of (line, msg)."""

    def __call__(self, ctx: LintContext) -> Iterator[Tuple[int, str]]:
        raise NotImplementedError  # pragma: no cover


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def _dotted_name(node: ast.AST) -> str:
    """'time.perf_counter' for the func of a call, '' when dynamic."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_set_expression(node: ast.AST) -> bool:
    """Syntactically guaranteed to evaluate to an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted_name(node.func)
        return name in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub)
    ):
        return _is_set_expression(node.left) or _is_set_expression(
            node.right
        )
    return False


_INT_COERCIONS = {"int", "round", "ceil", "floor", "len"}


def _has_uncoerced_float(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        name = _dotted_name(node.func)
        if name.rsplit(".", 1)[-1] in _INT_COERCIONS:
            return False
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    return any(
        _has_uncoerced_float(child) for child in ast.iter_child_nodes(node)
    )


def _target_name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
def _check_unordered_iteration(
    ctx: LintContext,
) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(ctx.tree):
        iters: List[ast.AST] = []
        if isinstance(node, ast.For):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            # Sets/dicts built from sets stay unordered — harmless.
            # Lists/sequences built from sets bake hash order in.
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if _is_set_expression(it):
                yield (
                    it.lineno,
                    "iterating an unordered set expression",
                )


def _check_float_cycles(ctx: LintContext) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.AugAssign):
            continue
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            continue
        name = _target_name(node.target)
        if not name.endswith("cycles"):
            continue
        if _has_uncoerced_float(node.value):
            yield (
                node.lineno,
                f"float literal accumulated into {name!r}",
            )


_INSTRUMENT_FACTORIES = {"counter", "gauge", "histogram"}


def _check_metric_mutation(ctx: LintContext) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(ctx.tree):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets.extend(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets.append(node.target)
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            value = target.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in _INSTRUMENT_FACTORIES
            ):
                yield (
                    target.lineno,
                    f"writes .{target.attr} on a "
                    f"{value.func.attr}() instrument",
                )


def _check_shared_memory(ctx: LintContext) -> Iterator[Tuple[int, str]]:
    for func in ast.walk(ctx.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        created: Dict[str, int] = {}
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and _dotted_name(node.value.func).rsplit(".", 1)[-1]
                == "SharedMemory"
            ):
                created[node.targets[0].id] = node.lineno
        if not created:
            continue
        released: Set[str] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Name) or node.id not in created:
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            parent = _PARENTS.get(id(node))
            # `.buf` access only *borrows* the mapping; anything else
            # (close/unlink, return, call argument, storage) counts as
            # releasing or handing off ownership.
            if (
                isinstance(parent, ast.Attribute)
                and parent.attr == "buf"
            ):
                continue
            released.add(node.id)
        for name, lineno in created.items():
            if name not in released:
                yield (
                    lineno,
                    f"SharedMemory bound to {name!r} is never closed, "
                    "unlinked, or handed off",
                )


#: Parent map for the file currently being linted (rebuilt per file).
_PARENTS: Dict[int, ast.AST] = {}


def _index_parents(tree: ast.AST) -> None:
    _PARENTS.clear()
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            _PARENTS[id(child)] = parent


_WALLCLOCK_PREFIXES = ("time.", "random.", "datetime.")
_WALLCLOCK_EXACT = {"default_rng"}


def _check_wallclock(ctx: LintContext) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted_name(node.func)
        if not name:
            continue
        hit = (
            name.startswith(_WALLCLOCK_PREFIXES)
            or ".random." in name
            or name in _WALLCLOCK_EXACT
            or name.endswith(".default_rng")
        )
        if hit:
            yield (node.lineno, f"call to {name}()")


#: Clock functions of the ``time`` module FM206 polices.
_TIMING_FUNCS = {
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "monotonic",
    "monotonic_ns",
}


def _check_direct_timing(ctx: LintContext) -> Iterator[Tuple[int, str]]:
    """FM206: dotted *and* from-imported clock calls in engine//hw/.

    ``from time import perf_counter`` would slip past the dotted-name
    check of FM205, so the rule first collects local aliases bound by
    from-imports of :mod:`time` and then flags bare calls to them too.
    """
    bare: Dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _TIMING_FUNCS:
                    bare[alias.asname or alias.name] = alias.name
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted_name(node.func)
        if not name:
            continue
        leaf = name.rsplit(".", 1)[-1]
        if name.startswith("time.") and leaf in _TIMING_FUNCS:
            yield (node.lineno, f"direct call to {name}()")
        elif "." not in name and name in bare:
            yield (
                node.lineno,
                f"direct call to {name}() "
                f"(from-imported time.{bare[name]})",
            )


#: Constructors FM207 polices.  Matched on the attribute leaf of a
#: dotted call (``mp.Process``, ``ctx.Pool``) and on bare names bound by
#: ``from multiprocessing[...] import Process/Pool``.
_PROCESS_CTORS = {"Process", "Pool"}


def _check_process_construction(
    ctx: LintContext,
) -> Iterator[Tuple[int, str]]:
    """FM207: Process/Pool construction in engine/ outside the pool.

    :mod:`repro.engine.pool` is the one sanctioned home for worker
    lifecycles (the ``paths`` scope cannot express exclusions, so the
    carve-out lives here).
    """
    posix = ctx.path.replace(os.sep, "/")
    if posix.endswith("engine/pool.py"):
        return
    bare: Dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "multiprocessing"
            or node.module.startswith("multiprocessing.")
        ):
            for alias in node.names:
                if alias.name in _PROCESS_CTORS:
                    bare[alias.asname or alias.name] = alias.name
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted_name(node.func)
        if not name:
            continue
        if "." in name:
            if name.rsplit(".", 1)[-1] in _PROCESS_CTORS:
                yield (node.lineno, f"constructs {name}()")
        elif name in bare:
            yield (
                node.lineno,
                f"constructs {name}() "
                f"(from-imported multiprocessing {bare[name]})",
            )


def _is_ndarray_annotation(node: ast.AST) -> bool:
    """``np.ndarray`` / ``ndarray`` / ``Optional[np.ndarray]`` — but NOT
    container types like ``Sequence[np.ndarray]``, whose loops are
    per-array rather than per-element."""
    if isinstance(node, ast.Attribute):
        return node.attr == "ndarray"
    if isinstance(node, ast.Name):
        return node.id == "ndarray"
    if isinstance(node, ast.Subscript):
        name = _dotted_name(node.value)
        if name.rsplit(".", 1)[-1] == "Optional":
            return _is_ndarray_annotation(node.slice)
    return False


def _ndarray_params(
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Set[str]:
    """Parameter names annotated as ``np.ndarray`` (top level)."""
    names: Set[str] = set()
    args = (
        list(func.args.posonlyargs)
        + list(func.args.args)
        + list(func.args.kwonlyargs)
    )
    for arg in args:
        if arg.annotation is not None and _is_ndarray_annotation(
            arg.annotation
        ):
            names.add(arg.arg)
    return names


def _is_len_of(node: ast.AST, names: Set[str]) -> bool:
    return (
        isinstance(node, ast.Call)
        and _dotted_name(node.func) == "len"
        and bool(node.args)
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id in names
    )


def _iterates_elements(node: ast.AST, names: Set[str]) -> bool:
    """The iterable walks an ndarray parameter element-by-element."""
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Subscript) and isinstance(
        node.value, ast.Name
    ):
        # A slice of an ndarray parameter still yields its elements.
        return node.value.id in names
    if isinstance(node, ast.Call):
        fname = _dotted_name(node.func)
        if fname in ("range", "enumerate", "zip", "reversed"):
            return any(
                _iterates_elements(arg, names) or _is_len_of(arg, names)
                for arg in node.args
            )
    return False


def _check_elementwise_loops(
    ctx: LintContext,
) -> Iterator[Tuple[int, str]]:
    """FM208: interpreter-speed element loops inside kernel functions."""
    for func in ast.walk(ctx.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = _ndarray_params(func)
        if not names:
            continue
        for node in func.body:
            for inner in ast.walk(node):
                if isinstance(inner, ast.For) and _iterates_elements(
                    inner.iter, names
                ):
                    yield (
                        inner.lineno,
                        f"Python for loop over ndarray contents in "
                        f"{func.name}()",
                    )
                elif isinstance(
                    inner,
                    (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
                ):
                    for gen in inner.generators:
                        if _iterates_elements(gen.iter, names):
                            yield (
                                inner.lineno,
                                f"comprehension over ndarray contents in "
                                f"{func.name}()",
                            )


class _FlowRule:
    """Adapter exposing one FM30x dataflow code as a LintRule check.

    All ten rules share a single CFG/fixpoint run per file —
    :func:`repro.analysis.flowcheck.flow_findings` memoizes on the
    parsed tree — so the dataflow pass costs one analysis, not ten.
    """

    def __init__(self, code: str) -> None:
        self.code = code

    def __call__(self, ctx: LintContext) -> Iterator[Tuple[int, str]]:
        yield from flow_findings(ctx.tree).get(self.code, [])


#: dataflow checkers run where the shared-memory/lease/lock machinery
#: lives: the engine (pool, parallel, frontier) and the serving layer.
FLOW_RULE_PATHS: Tuple[str, ...] = ("engine/", "serve/", "graph/", "hw/")

FLOW_RULES: Tuple[LintRule, ...] = tuple(
    LintRule(code, _FlowRule(code), paths=FLOW_RULE_PATHS)
    for code in FLOW_CODES
)

DEFAULT_RULES: Tuple[LintRule, ...] = (
    LintRule(
        FM201, _check_unordered_iteration, paths=("engine/", "hw/")
    ),
    LintRule(FM202, _check_float_cycles, paths=("engine/", "hw/")),
    LintRule(FM203, _check_metric_mutation),
    LintRule(FM204, _check_shared_memory),
    LintRule(FM205, _check_wallclock, paths=("hw/",)),
    LintRule(FM206, _check_direct_timing, paths=("engine/", "hw/")),
    LintRule(FM207, _check_process_construction, paths=("engine/",)),
    LintRule(
        FM208, _check_elementwise_loops, paths=("engine/kernels.py",)
    ),
) + FLOW_RULES


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _suppressions(lines: Sequence[str]) -> Dict[int, Optional[Set[str]]]:
    """lineno -> suppressed codes (None = all codes)."""
    out: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = {
                c.strip() for c in codes.split(",") if c.strip()
            }
    return out


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[LintRule] = DEFAULT_RULES,
) -> List[Diagnostic]:
    """Lint one source blob; returns the surviving findings."""
    lines = source.splitlines()
    if any(_SKIP_FILE_RE.search(line) for line in lines[:10]):
        return []
    tree = ast.parse(source, filename=path)
    _index_parents(tree)
    suppressed = _suppressions(lines)
    findings: List[Diagnostic] = []
    for rule in rules:
        if not rule.applies_to(path):
            continue
        ctx = LintContext(path=path, tree=tree, lines=lines)
        for lineno, message in rule.check(ctx):
            if lineno in suppressed:
                allowed = suppressed[lineno]
                if allowed is None or rule.code in allowed:
                    continue
            findings.append(
                Diagnostic(
                    code=rule.code,
                    message=message,
                    location=f"{path}:{lineno}",
                )
            )
    findings.sort(key=lambda d: (d.location, d.code))
    return findings


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    out.append(os.path.join(dirpath, filename))
    return sorted(dict.fromkeys(out))


def lint_paths(
    paths: Sequence[str],
    rules: Sequence[LintRule] = DEFAULT_RULES,
) -> AnalysisReport:
    """Lint every python file under ``paths`` into one report."""
    files = iter_python_files(paths)
    rep = AnalysisReport(subject=f"fmlint:{','.join(paths)}")
    rep.data["files"] = len(files)
    rep.data["rules"] = [rule.code for rule in rules]
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            rep.extend(lint_source(source, path, rules))
        except SyntaxError as exc:
            rep.add(FM200, f"could not parse: {exc}", location=path)
    return rep
