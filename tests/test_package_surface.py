"""Package-surface and integration tests.

Checks the things a downstream user hits first: the exception hierarchy,
the public ``__all__`` exports actually resolving, version metadata, and
the examples executing end to end.
"""

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
    """One switch: ``batch_frontier`` is the only execution-mode keyword
    that crosses a layer; the memo ablation and the row budget stay on
    the engine, and the pool is the only process backend.  Every other
    constructor keyword is listed here as *not* selecting how a plan
    executes, so a new knob has to be classified to get past this pin."""
    import inspect

    from repro import engine
    from repro.serve import MiningService

    not_modes = {
        "self", "graph", "plan", "collect", "work_graph", "workers",
        "calibration_clock", "tracer", "metrics", "profiler",
        "max_active", "threads", "result_cache", "result_cache_entries",
        "request_timeout_s", "clock",
    }

    def mode_keywords(cls):
        return set(inspect.signature(cls.__init__).parameters) - not_modes

    assert mode_keywords(engine.PatternAwareEngine) == {
        "use_frontier_memo", "batch_frontier", "frontier_row_limit",
    }
    assert mode_keywords(engine.MinerPool) == {"batch_frontier"}
    assert mode_keywords(MiningService) == {"batch_frontier"}
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
    """One owner per cross-stack invariant: the replay PE inherits the
    PE's timing hooks instead of re-implementing them (the recursive
    tracer overrides them to record), the scheduler issues the pool's
    task list, the root-label filter and the oriented DAG exist once,
    and no internal signature takes a ``work_graph`` to dodge a
    re-orientation any more."""
    import inspect

    from repro import engine
    from repro.engine.parallel import run_tasks_in_process
    from repro.graph import assign_degree_labels, cycle_graph, orient_by_degree
    from repro.hw import ProcessingElement, Scheduler, accelerator
    from repro.hw.parallel_sim import _ReplayPE, _TracePE

    for hook in ("_charge_busy", "_charge", "_touch", "_write_frontier"):
        shared = getattr(ProcessingElement, hook)
        assert getattr(_ReplayPE, hook) is shared, hook
        assert getattr(_TracePE, hook) is not shared, hook
    assert Scheduler.order_tasks is engine.order_tasks
    assert not hasattr(accelerator, "filter_roots")
    for graph in (cycle_graph(6), assign_degree_labels(cycle_graph(6))):
        assert orient_by_degree(graph) is orient_by_degree(graph)
    for func in (ProcessingElement.__init__, run_tasks_in_process):
        assert "work_graph" not in inspect.signature(func).parameters


def test_walker_is_the_default():
    """One default, on every layer that threads the switch: the frontier
    walker.  Engines that override candidate generation still route
    themselves to recursion."""
    import inspect

    from repro.apps import run_app
    from repro.compiler import compile_pattern
    from repro.engine import MinerPool, PatternAwareEngine
    from repro.engine.parallel import run_tasks_in_process
    from repro.graph import erdos_renyi
    from repro.hw import FlexMinerConfig, MemorySystem, ProcessingElement
    from repro.patterns import four_clique
    from repro.serve import MiningService

    for func in (
        PatternAwareEngine, MinerPool, MiningService,
        run_tasks_in_process, run_app,
    ):
        parameter = inspect.signature(func).parameters["batch_frontier"]
        assert parameter.default is True, func
    graph = erdos_renyi(40, 0.3, seed=2)
    plan = compile_pattern(four_clique())
    engine = PatternAwareEngine(graph, plan)
    engine.run()
    assert engine.frontier_stats()["bands"] > 0
    config = FlexMinerConfig(num_pes=1)
    pe = ProcessingElement(
        0, graph, plan, config, MemorySystem(config, graph)
    )
    assert not pe._frontier_ok


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
