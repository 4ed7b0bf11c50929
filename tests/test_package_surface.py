"""Package-surface and integration tests.

Checks the things a downstream user hits first: the exception hierarchy,
the public ``__all__`` exports actually resolving, version metadata, and
the examples executing end to end.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self):
        for name in (
            "GraphFormatError",
            "PatternError",
            "CompileError",
            "IRSyntaxError",
            "SimulationError",
            "ConfigError",
            "ServeError",
            "ServiceOverloaded",
            "GraphNotRegistered",
            "ServiceClosed",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_ir_error_is_compile_error(self):
        assert issubclass(errors.IRSyntaxError, errors.CompileError)

    def test_single_catch_at_api_boundary(self):
        from repro.patterns import from_name

        with pytest.raises(errors.ReproError):
            from_name("not-a-pattern")


class TestPublicSurface:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.graph",
            "repro.patterns",
            "repro.compiler",
            "repro.engine",
            "repro.hw",
            "repro.apps",
            "repro.bench",
            "repro.obs",
            "repro.serve",
        ],
    )
    def test_all_exports_resolve(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_every_public_symbol_documented(self):
        import importlib

        for module_name in ("repro.compiler", "repro.hw", "repro.engine"):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                obj = getattr(module, name)
                if callable(obj) or isinstance(obj, type):
                    assert obj.__doc__, f"{module_name}.{name} undocumented"


def test_execution_mode_surface():
    """No execution-mode keyword crosses a layer: the memo ablation and
    the row budget stay on the engine, the pool is the only process
    backend, and the service has no mode at all (``batch_frontier`` is
    accepted and ignored: test_ignored_mode_keyword_on_three_signatures).  Every other
    constructor keyword is listed here as *not* selecting how a plan
    executes, so a new knob has to be classified to get past this pin."""
    import inspect

    from repro import engine
    from repro.serve import MiningService

    not_modes = {
        "self", "graph", "plan", "collect", "workers",
        "calibration_clock", "metrics", "profiler",
        "max_active", "threads", "result_cache", "result_cache_entries",
        "request_timeout_s", "clock", "batch_frontier",
    }

    def mode_keywords(cls):
        return set(inspect.signature(cls.__init__).parameters) - not_modes

    assert mode_keywords(engine.PatternAwareEngine) == {
        "use_frontier_memo", "frontier_row_limit",
    }
    assert mode_keywords(engine.MinerPool) == set()
    assert mode_keywords(MiningService) == set()
    assert not {"ParallelMiner", "mine_parallel"} & set(engine.__all__)
    assert not hasattr(engine.kernels, "set_strategy")


def test_single_measurement_surface(capsys):
    """``benchmarks/e2e`` is the only yardstick: the wall-clock bench
    modules, the trend recorder and the ``bench-trend`` verb stay gone
    (the figure/table side of ``repro.bench`` is not measurement code)."""
    from repro import bench, obs
    from repro.cli import main

    gone_from_obs = {
        "trend", "compute_trends", "record_report", "load_history",
    }
    assert not gone_from_obs & (set(obs.__all__) | set(vars(obs)))
    gone_from_bench = re.compile(
        r"(engine|sim)_bench|run_\w+_cell|write_\w+_bench"
    )
    assert not [n for n in bench.__all__ if gone_from_bench.fullmatch(n)]
    assert not {
        "engine_cell", "engine_stream", "engine_served_stream",
    } & set(vars(bench.Harness))
    with pytest.raises(SystemExit) as exc:
        main(["bench-trend"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_single_owner_surface():
    """One owner per cross-stack invariant: replay is one pass per task
    on the PE the scheduler dispatches to (no per-event charge hooks on
    it, none on the reference tracer, which records events), the
    scheduler issues the pool's task list, the root-label filter and
    the oriented DAG exist once, and no internal signature takes a
    ``work_graph`` to dodge a re-orientation any more."""
    import inspect

    from repro import engine
    from repro.graph import assign_degree_labels, cycle_graph, orient_by_degree
    from repro.hw import (
        NocModel, ProcessingElement, Scheduler, SetAssocCache, accelerator,
    )
    from repro.hw.events import ShardTrace
    from repro.hw.parallel_sim import TraceReplay, _TracePE

    assert "replay" in vars(TraceReplay)
    assert {"execute_task", "settle"} <= set(vars(ProcessingElement))
    for hook in ("_charge_busy", "_charge", "_touch", "_write_frontier"):
        assert not hasattr(ProcessingElement, hook), hook
        assert not hasattr(_TracePE, hook), hook
    assert not hasattr(TraceReplay, "_replay")
    assert not hasattr(ShardTrace, "task")
    # The replay pass and the miss batch inline the cache and NoC walks.
    for gone in ("access_range", "access_lines_batch"):
        assert not hasattr(SetAssocCache, gone), gone
    assert not hasattr(NocModel, "batch_latency")
    assert Scheduler.order_tasks is engine.order_tasks
    assert not hasattr(accelerator, "filter_roots")
    for graph in (cycle_graph(6), assign_degree_labels(cycle_graph(6))):
        assert orient_by_degree(graph) is orient_by_degree(graph)
    for func in (ProcessingElement.__init__, _TracePE.__init__):
        assert "work_graph" not in inspect.signature(func).parameters
    # a workers=1 pool mine is one PatternAwareEngine.run: no second
    # in-process runner beside it
    from repro.engine import parallel

    assert not hasattr(parallel, "run_tasks_in_process")


def test_one_simulator_model():
    """One simulator model: no timing-kernel or exact-c-map switch on
    the config, no tracer rule, one replay PE and one reference tracer
    that is an engine, not a PE, no second in-process sim backend and
    no squared-degree slice budget."""
    import dataclasses
    import inspect

    from repro.hw import (
        FlexMinerConfig, HardwareCMap, ProcessingElement, parallel_sim,
    )
    from repro.verify import BACKENDS

    fields = {f.name for f in dataclasses.fields(FlexMinerConfig)}
    assert not {"timing_kernels", "cmap_exact"} & fields
    with pytest.raises(TypeError):
        FlexMinerConfig(timing_kernels=False)
    assert "kernels" not in inspect.signature(HardwareCMap).parameters
    for name in (
        "tracer_for", "_ReplayPE", "PETiming", "_SLICE_WORK",
        "_trace_worker", "_trace_in_processes",
    ):
        assert not hasattr(parallel_sim, name), name
    # in-process slices are sized by the events they trace: one module
    # constant, no flag or config field
    assert isinstance(parallel_sim._SLICE_EVENTS, int)
    assert not {"slice_events", "slice_work"} & fields
    assert not issubclass(parallel_sim._TracePE, ProcessingElement)
    assert "sim-fast" not in BACKENDS


def test_one_software_cmap():
    """The walker's arc map is the software vector c-map, and the
    simulator's trace walk is Fig. 10's iteration order: the recursive
    c-map engine, the extender FSM replica and the ``engine.verify``
    helpers that ran them stay deleted (``tests/test_apps.py`` pins the
    retired ``backend="cmap"``)."""
    import importlib

    from repro import engine, hw
    from repro.apps import api

    for module in (
        "repro.engine.cmap_sw", "repro.hw.fsm", "repro.engine.verify",
    ):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    gone = {
        "CMapSoftwareEngine", "VectorCMap", "ExtenderFSM", "PEState",
        "count_all_ways", "check_consistency",
    }
    for module in (engine, hw, api):
        assert not gone & (set(module.__all__) | set(vars(module))), module


#: The only sources that may call ``arc_map(`` or ``arc_rows(``: the
#: graph package that builds them, the frontier walkers (the engine's and
#: the simulator's trace walker built on it) and the k-MC codegree pass.
_ARC_MAP_READERS = re.compile(
    r"graph/.*|engine/(explore|motifs)\.py|hw/walktrace\.py"
)


def _arc_map_callers(root):
    """Sources under ``root`` (paths relative to it, ``/``-separated)
    that call ``arc_map(`` or ``arc_rows(``."""
    calls = re.compile(r"\barc_(map|rows)\(")
    found = []
    for folder, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as f:
                    if calls.search(f.read()):
                        found.append(
                            os.path.relpath(path, root).replace(os.sep, "/")
                        )
    return sorted(found)


def test_arc_maps_stay_the_walkers():
    """The arc map and its packed rows are n*n structures: recursion,
    replay and the service must not grow a dependency on them."""
    callers = _arc_map_callers(os.path.dirname(repro.__file__))
    assert "engine/explore.py" in callers  # the scan sees the walker
    assert [
        path for path in callers if not _ARC_MAP_READERS.fullmatch(path)
    ] == []


def test_one_observability_handle():
    """The profiler is a run's one observability handle: no ``tracer=``
    beside it on the engine, the pool or the simulator (its tracer is
    ``profiler.tracer``), and the engine publishes no gauges — both
    pool bodies publish the ``engine.*`` schema through one helper."""
    import inspect

    from repro.engine import MinerPool, PatternAwareEngine, parallel
    from repro.hw import FlexMinerAccelerator, simulate, simulate_parallel

    for func in (
        PatternAwareEngine.__init__, MinerPool.__init__,
        FlexMinerAccelerator.__init__, simulate, simulate_parallel,
    ):
        params = inspect.signature(func).parameters
        assert "tracer" not in params, func.__qualname__
        assert "profiler" in params, func.__qualname__
    assert "metrics" not in inspect.signature(
        PatternAwareEngine.__init__
    ).parameters
    assert callable(parallel.publish_engine_gauges)


def test_callerless_routes_stay_deleted():
    """Partitioned mining is one walk per halo, the bench harness
    simulates one way (a serial memo over cells, no process pool of its
    own), and the engine derives its work graph: the second routes
    those replaced stay deleted."""
    import inspect

    from repro import engine
    from repro.bench import Harness, harness
    from repro.engine import partitioned

    for name in (
        "PartitionedMiner", "PartitionStats", "partition_vertices",
        "halo_ball",
    ):
        assert not hasattr(partitioned, name), name
        assert name not in engine.__all__, name
    for name in ("sim_many", "_sim_cell_worker", "_sim_cell_config"):
        assert not hasattr(Harness, name), name
        assert not hasattr(harness, name), name

    def params(func):
        return list(inspect.signature(func).parameters)

    assert "work_graph" not in params(engine.PatternAwareEngine.__init__)
    assert "profiler" not in params(Harness.__init__)
    assert "parallel" not in params(Harness.sim)
    assert params(engine.mine_partitioned) == ["graph", "plan", "num_parts"]


def test_ignored_mode_keyword_on_three_signatures():
    """``batch_frontier`` survives, accepted and ignored, on exactly the
    three signatures the benchmark still passes it to, each saying so
    in its docstring; no other callable in ``repro`` takes it."""
    import importlib
    import inspect
    import pkgutil

    import repro

    carriers = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = {name: obj}
            if isinstance(obj, type):
                members = {
                    f"{name}.{attr}": value
                    for attr, value in vars(obj).items()
                    if callable(value)
                }
            for qualname, func in members.items():
                try:
                    params = inspect.signature(func).parameters
                except (TypeError, ValueError):
                    continue
                if "batch_frontier" in params:
                    carriers.add(f"{module.__name__}.{qualname}")
                    assert params["batch_frontier"].default is True
                    doc = inspect.getdoc(
                        obj if isinstance(obj, type) else func
                    )
                    assert "accepted and ignored" in doc.lower(), qualname
    assert carriers == {
        "repro.apps.api.run_app",
        "repro.engine.explore.PatternAwareEngine.__init__",
        "repro.engine.pool.MinerPool.__init__",
    }


def test_walker_is_the_default():
    """One engine on every layer: the frontier walker.  Engines that
    override candidate generation subclass the recursion in
    :mod:`repro.engine.reference` instead."""
    from repro.compiler import compile_pattern
    from repro.engine import PatternAwareEngine
    from repro.graph import erdos_renyi
    from repro.hw import FlexMinerConfig
    from repro.engine.reference import RecursiveEngine
    from repro.hw.parallel_sim import _TracePE
    from repro.patterns import four_clique

    graph = erdos_renyi(40, 0.3, seed=2)
    plan = compile_pattern(four_clique())
    engine = PatternAwareEngine(graph, plan)
    engine.run()
    assert engine.frontier_stats()["bands"] > 0
    tracer = _TracePE(graph, plan, FlexMinerConfig(num_pes=1))
    assert isinstance(tracer, RecursiveEngine)


def test_one_way_to_run_a_task():
    """The walker walks whole root sets, with no one-root mode and no
    mode-pair backends; the recursion's own leaf counters, the
    plan-shape oracle that picked them, its lint code, its kernels and
    its differential backend stay deleted.  The
    walker is the walker only: the recursion lives once, in
    :mod:`repro.engine.reference`; shallow plans and over-limit rows
    walk, so the routing switch, the row fallback, their plancheck codes
    and the dead set-op kernels stay deleted too."""
    import inspect

    from repro.analysis import check_multi_plan, check_plan
    from repro.analysis.diagnostics import CATALOG
    from repro.compiler import compile_pattern
    from repro.compiler.plan import ExecutionPlan
    from repro.engine import PatternAwareEngine, kernels, setops
    from repro.engine.reference import RecursiveEngine
    from repro.graph import erdos_renyi
    from repro.patterns import four_clique
    from repro.verify import BACKENDS

    recursion = (
        "_extend", "_extend_node", "_filtered_candidates", "_operands",
        "_raw_candidates", "_load_adjacency", "_on_descend",
        "_on_backtrack",
    )
    for name in recursion:
        assert name in vars(RecursiveEngine), name
    for name in recursion + (
        "_count_leaf", "_count_leaf_batch", "_batch_leaf_excluded",
        "leaf_count_min_work", "_frontier_recurse", "_frontier_ok",
        "supports_leaf_counting",
    ):
        assert not hasattr(PatternAwareEngine, name), name
    assert not hasattr(ExecutionPlan, "batch_leaf_shape")
    for code in ("FM170", "FM171", "FM175"):
        assert code not in CATALOG, code
    for func in (check_plan, check_multi_plan):
        params = inspect.signature(func).parameters
        assert "batch_frontier" not in params, func
        assert "supports_leaf_counting" not in params, func
    for name in (
        "kernel-probe", "row-fallback", "frontier-batch", "pool-2-batch",
    ):
        assert name not in BACKENDS, name
    assert "one-row-bands" in BACKENDS
    for module, names in (
        (setops, {"intersect_count", "difference_count", "intersect_many"}),
        (kernels, {
            "segmented_difference_count", "contains", "intersect_count",
            "difference_count", "difference_count_below",
            "intersect_multi", "segmented_intersect",
            "segmented_difference",
        }),
    ):
        assert not names & (set(module.__all__) | set(vars(module))), module
    engine = PatternAwareEngine(
        erdos_renyi(40, 0.3, seed=2), compile_pattern(four_clique())
    )
    engine.run()
    assert engine.frontier_stats()["bands"] > 0
    assert not hasattr(engine, "_batch_leaf")
    assert not hasattr(engine, "_raw_stack")


LAZY_PACKAGES = ("repro.engine", "repro.bench", "repro.compiler", "repro.graph")

#: What a cold ``flexminer mine`` / ``motifs`` must not load: the
#: simulator, the service, the other engines, the bench harness, the
#: estimator, the generators and any process machinery.
NOT_ON_THE_MINE_PATH = (
    "repro.hw", "repro.serve", "repro.apps", "repro.analysis",
    "repro.verify", "repro.engine.pool", "repro.engine.partitioned",
    "repro.bench.harness", "repro.compiler.estimate",
    "repro.graph.generators", "repro.engine.reference",
    "repro.engine.setops", "multiprocessing",
)


def _fresh_modules(body, *argv):
    """``sys.modules`` after running ``body`` (with ``sys.argv[1:]`` set
    to ``argv``) in a fresh interpreter."""
    script = body + "print(json.dumps(sorted(sys.modules)))\n"
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


def _cli_modules(argv):
    """``sys.modules`` after ``python -m repro.cli *argv`` in a fresh
    interpreter."""
    return _fresh_modules(
        "import contextlib, io, json, runpy, sys\n"
        "sys.argv = ['flexminer'] + json.loads(sys.argv[1])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('repro.cli', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert not exc.code, exc.code\n",
        json.dumps(argv),
    )


def test_mine_imports_only_what_it_mines(tmp_path):
    """The cold-start pin: a mining verb loads the walker, the compiler
    and the graph reader, and nothing it does not run; the pool arrives
    only when ``--workers`` asks for it."""
    graph = tmp_path / "g.el"
    graph.write_text("0 1\n1 2\n2 0\n2 3\n3 0\n3 4\n")
    for argv in (
        ["mine", "triangle", "--graph", str(graph)],
        ["motifs", "3", "--graph", str(graph)],
    ):
        loaded = _cli_modules(argv)
        assert "repro.engine.explore" in loaded, argv
        assert not set(NOT_ON_THE_MINE_PATH) & loaded, argv
    pooled = _cli_modules(
        ["mine", "triangle", "--graph", str(graph), "--workers", "2"]
    )
    assert "repro.engine.pool" in pooled


def test_one_esu():
    """The oracle's ESU is the repository's one enumerator of connected
    vertex sets: the oblivious baseline walks it without loading the
    verification package, and keeps no enumerator or classifier of its
    own."""
    import repro.verify
    from repro.engine import oblivious
    from repro.graph import cycle_graph
    from repro.patterns import isomorphism, triangle

    loaded = _fresh_modules("import json, sys\nimport repro.apps\n")
    assert "repro.engine.oblivious" in loaded
    assert not {m for m in loaded if m.startswith("repro.verify")}
    assert (
        repro.verify.connected_vertex_sets
        is isomorphism.connected_vertex_sets
    )
    assert oblivious.connected_vertex_sets is isomorphism.connected_vertex_sets
    engine = oblivious.ObliviousEngine(cycle_graph(5), [triangle()])
    for name in (
        "_extend", "_classify", "_match_classes", "_canon", "_wildcards",
        "_pattern_edge_counts", "_adj",
    ):
        assert not hasattr(engine, name), name
        assert not hasattr(oblivious, name), name
    with open(oblivious.__file__, encoding="utf-8") as fh:
        source = fh.read()
    assert not re.search(r"def (_extend|_match_classes|_canon)\b", source)
    assert "Pattern(" not in source


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_surface(package):
    """One export table per lazy package: ``__all__`` is its names, each
    name resolves to the defining submodule's object, and an unknown
    name is an ``AttributeError`` (so ``hasattr`` and ``from ... import``
    fail as they did for the eager packages)."""
    import importlib

    module = importlib.import_module(package)
    table = module._EXPORTS
    names = [name for owned in table.values() for name in owned]
    assert module.__all__ == names
    assert len(set(names)) == len(names)
    for submodule, owned in table.items():
        defining = importlib.import_module(f"{package}.{submodule}")
        for name in owned:
            assert getattr(module, name) is getattr(defining, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


@pytest.mark.parametrize(
    "example",
    ["quickstart.py", "social_cliques.py"],
)
def test_example_runs(example):
    """The quick examples must execute cleanly as scripts."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "examples", example)
    result = subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
