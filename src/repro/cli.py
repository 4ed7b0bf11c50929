"""Command-line interface.

Examples::

    flexminer compile 4-cycle                 # print the execution-plan IR
    flexminer mine triangle --dataset Mi      # software mining
    flexminer mine 4-clique --dataset As --workers 4   # multi-process
    flexminer mine 4-clique --dataset As --workers 4 --split-degree auto
    flexminer sim diamond --dataset As --pes 20 --cmap-kb 8
    flexminer sim triangle --dataset Mi --trace t.json --emit-json
    flexminer profile mine 4-clique --dataset As --workers 4
    flexminer stats old.json new.json         # diff two run reports
    flexminer motifs 3 --dataset As
    flexminer datasets                        # Table I for the suite
    flexminer verify --seed 0 --cases 50      # differential fuzz, all backends
    flexminer verify --corpus tests/corpus --cases 25 --report verify.json
    flexminer check-plan 4-cycle plan.ir      # static plan verification
    flexminer check-plan --corpus tests/corpus --json
    flexminer lint src/repro --json           # determinism lint (FM2xx)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, List, Optional

# Module top holds only what every mining verb needs; each verb imports
# the rest in its own body, so `mine` never loads the simulator, the
# pool or the bench harness (tests/test_package_surface.py pins this).
from . import __version__
from .compiler.compiler import compile_motifs, compile_pattern
from .engine.explore import PatternAwareEngine
from .obs import (
    PhaseProfiler,
    Tracer,
    diff_reports,
    load_report,
    make_report,
    render_diff,
    render_report,
)
from .patterns import NUM_MOTIFS, from_name

if TYPE_CHECKING:
    from .graph.csr import CSRGraph

__all__ = ["main", "build_parser"]


def _int_at_least(low: int):
    """argparse ``type=`` for an integer >= ``low``: counts
    (``--workers``, ``--pes``, ``--cases``, ...) take 1, ``--cmap-kb``
    (0 = no c-map) takes 0."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            number = low - 1
        if number < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {value!r}"
            )
        return number

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _split_degree_arg(value: str):
    """``--split-degree`` accepts an integer >= 1 or the literal
    ``auto``."""
    return "auto" if value == "auto" else _positive_int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexminer",
        description="FlexMiner (ISCA 2021) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_p = sub.add_parser(
        "compile", help="print the execution-plan IR for a pattern"
    )
    compile_p.add_argument("pattern", help="pattern name, e.g. 4-cycle")
    compile_p.add_argument(
        "--induced", action="store_true", help="vertex-induced semantics"
    )

    for name, help_text in (
        ("mine", "mine with the software engine"),
        ("sim", "simulate the FlexMiner accelerator"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("pattern")
        p.add_argument("--dataset", default="As", help="suite name (Table I)")
        p.add_argument("--graph", help="edge-list/.mtx file instead")
        p.add_argument("--induced", action="store_true")
        p.add_argument(
            "--trace", metavar="FILE",
            help="write a Chrome trace-event JSON (Perfetto-compatible)",
        )
        p.add_argument(
            "--emit-json", action="store_true",
            help="print a machine-readable run report instead of text",
        )
        if name == "sim":
            p.add_argument("--pes", type=_positive_int, default=64)
            p.add_argument("--cmap-kb", type=_non_negative_int, default=8)
            p.add_argument(
                "--workers", type=_positive_int, default=1,
                help="trace-phase worker processes; the report and the "
                "--trace output are bit-identical at any worker count",
            )
        if name == "mine":
            p.add_argument(
                "--workers", type=_positive_int, default=1,
                help="mining worker processes (a MinerPool over a "
                "shared-memory graph; its calibrated dispatch overhead "
                "is recorded in the report)",
            )
            p.add_argument(
                "--split-degree", type=_split_degree_arg, default=None,
                metavar="N|auto",
                help="chunk roots above this degree into depth-1 slices "
                "(wall-clock option; merged op counters are inflated); "
                "'auto' asks the pool's cost model",
            )

    motifs_p = sub.add_parser("motifs", help="k-motif counting")
    # The sizes a k-MC plan exists for: k=1 has no edges to compile and
    # enumerate_motifs refuses k > 5 (its walk is 2^C(k,2) subsets).
    motifs_p.add_argument(
        "k", type=int, choices=range(2, max(NUM_MOTIFS) + 1), metavar="k"
    )
    motifs_p.add_argument("--dataset", default="As")
    motifs_p.add_argument("--graph")
    motifs_p.add_argument(
        "--emit-json", action="store_true",
        help="print a machine-readable run report instead of text",
    )

    sub.add_parser("datasets", help="print Table I for the suite")

    stats_p = sub.add_parser(
        "stats", help="pretty-print one run report or diff two"
    )
    stats_p.add_argument("report", help="run-report JSON file")
    stats_p.add_argument(
        "baseline_or_new", nargs="?", default=None, metavar="other",
        help="second report: diffs REPORT -> OTHER",
    )
    stats_p.add_argument(
        "--all", action="store_true",
        help="when diffing, show unchanged keys too",
    )

    validate_p = sub.add_parser(
        "validate", help="empirically validate an IR plan file"
    )
    validate_p.add_argument("ir_file", help="path to an IR text file")
    validate_p.add_argument("--trials", type=_positive_int, default=20)

    verify_p = sub.add_parser(
        "verify",
        help="differential verification: fuzz every backend against "
        "the brute-force oracle",
    )
    verify_p.add_argument(
        "--seed", type=int, default=0, help="fuzzer RNG seed"
    )
    verify_p.add_argument(
        "--cases", type=_non_negative_int, default=50,
        help="random cases to generate",
    )
    verify_p.add_argument(
        "--backends", default=None,
        help="comma-separated backend subset (default: full matrix; "
        "see repro.verify.BACKENDS)",
    )
    verify_p.add_argument(
        "--shrink", dest="shrink", action="store_true", default=True,
        help="minimize failing cases to small reproducers (default)",
    )
    verify_p.add_argument(
        "--no-shrink", dest="shrink", action="store_false",
        help="report failures without minimizing them",
    )
    verify_p.add_argument(
        "--corpus", metavar="DIR",
        help="also replay a regression-corpus directory of case JSONs",
    )
    verify_p.add_argument(
        "--report", metavar="FILE",
        help="write a machine-readable mismatch report (flexminer.run/1)",
    )
    verify_p.add_argument(
        "--max-pattern", type=int, default=4,
        help="largest random pattern size the fuzzer draws",
    )

    check_p = sub.add_parser(
        "check-plan",
        help="statically verify execution plans (FM1xx diagnostics)",
    )
    check_p.add_argument(
        "targets", nargs="*",
        help="pattern names and/or IR plan files",
    )
    check_p.add_argument(
        "--induced", action="store_true",
        help="compile named patterns with vertex-induced semantics",
    )
    check_p.add_argument(
        "--corpus", metavar="DIR",
        help="also check the compiled plan of every corpus case",
    )
    check_p.add_argument(
        "--json", action="store_true",
        help="emit a flexminer.run/1 JSON report instead of text",
    )
    check_p.add_argument("--pes", type=_positive_int, default=64)
    check_p.add_argument(
        "--cmap-kb", type=_non_negative_int, default=8,
        help="c-map size the capacity checks assume",
    )
    check_p.add_argument(
        "--frontier-row-limit", type=_positive_int, default=None,
        metavar="ROWS",
        help="frontier row budget the FM173/FM174 obligations assume "
        "(default: the engine's built-in limit)",
    )

    lint_p = sub.add_parser(
        "lint",
        help="determinism lint over python sources (FM2xx diagnostics)",
    )
    lint_p.add_argument(
        "paths", nargs="*",
        help="files or directories (default: the repro package)",
    )
    lint_p.add_argument(
        "--json", action="store_true",
        help="shorthand for --format json",
    )
    lint_p.add_argument(
        "--format", choices=("text", "json", "sarif"), default=None,
        help="output format: human text (default), flexminer.run/1 "
        "JSON, or SARIF 2.1.0 for code-scanning upload",
    )
    lint_p.add_argument(
        "--baseline", metavar="FILE",
        help="subtract the findings recorded in FILE; stale entries "
        "(suppressions that no longer match) fail the gate as FM299",
    )
    lint_p.add_argument(
        "--update-baseline", metavar="FILE",
        help="write the current findings to FILE and exit 0",
    )

    profile_p = sub.add_parser(
        "profile",
        help="run a mine/sim command under the cross-process profiler "
        "(phase table, utilization timeline, merged worker-lane trace)",
    )
    profile_p.add_argument(
        "rest", nargs=argparse.REMAINDER, metavar="command",
        help="the command to profile, e.g. mine 4-clique --workers 4",
    )

    serve_p = sub.add_parser(
        "serve",
        help="resident mining service: JSON-lines requests on stdin, "
        "one JSON response per line on stdout (see docs/serving.md)",
    )
    serve_p.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes per registered graph's pool (1 = "
        "in-process, exact serial parity)",
    )
    serve_p.add_argument(
        "--max-active", type=int, default=8,
        help="admission limit: in-flight requests beyond this are "
        "rejected with a retryable overload response",
    )
    serve_p.add_argument(
        "--no-result-cache", action="store_true",
        help="disable the result/memo cache (every request executes)",
    )
    serve_p.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-request pool timeout in seconds (wedged workers "
        "surface as errors instead of hangs)",
    )
    serve_p.add_argument(
        "--register", action="append", default=[], metavar="NAME=DATASET",
        help="pre-register a suite dataset (repeatable); bare DATASET "
        "registers under its own name",
    )
    serve_p.add_argument(
        "--stats-report", metavar="FILE",
        help="write a final flexminer.run/1 service report on exit "
        "(render with 'flexminer stats FILE')",
    )

    estimate_p = sub.add_parser(
        "estimate", help="per-level search-tree size estimates"
    )
    estimate_p.add_argument("pattern")
    estimate_p.add_argument("--dataset", default="As")
    estimate_p.add_argument("--graph")
    estimate_p.add_argument(
        "--measure", action="store_true",
        help="also measure exact level sizes",
    )
    return parser


def _load(args) -> CSRGraph:
    if getattr(args, "graph", None):
        from .graph.io import load_graph

        return load_graph(args.graph)
    from .graph.datasets import load_dataset

    return load_dataset(args.dataset)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "datasets":
        from .bench.tables import render_table1

        print(render_table1())
        return 0

    if args.command == "stats":
        report = load_report(args.report)
        if args.baseline_or_new is None:
            print(render_report(report))
        else:
            rows = diff_reports(report, load_report(args.baseline_or_new))
            print(render_diff(rows, all_rows=args.all))
        return 0

    if args.command == "compile":
        from .compiler.ir import emit_ir

        plan = compile_pattern(from_name(args.pattern), induced=args.induced)
        print(emit_ir(plan), end="")
        return 0

    if args.command == "validate":
        from .compiler.ir import parse_ir
        from .compiler.validate import validate_plan

        with open(args.ir_file) as f:
            plan = parse_ir(f.read())
        result = validate_plan(plan, trials=args.trials)
        print(result.message())
        return 0 if result else 1

    if args.command == "check-plan":
        import os

        from .analysis import check_multi_plan, check_plan, merge_reports
        from .compiler.ir import parse_ir
        from .compiler.plan import MultiPlan
        from .hw.config import FlexMinerConfig

        if not args.targets and not args.corpus:
            print(
                "check-plan: give pattern names, IR files, or --corpus",
                file=sys.stderr,
            )
            return 2
        config = FlexMinerConfig(
            num_pes=args.pes, cmap_bytes=args.cmap_kb * 1024
        )
        reports = []
        for target in args.targets:
            if os.path.exists(target):
                with open(target) as f:
                    plan = parse_ir(f.read())
            else:
                try:
                    pattern = from_name(target)
                except Exception as exc:
                    print(
                        f"check-plan: {target!r} is neither a file nor "
                        f"a known pattern ({exc})",
                        file=sys.stderr,
                    )
                    return 2
                plan = compile_pattern(pattern, induced=args.induced)
            reports.append(check_plan(
                plan, config=config,
                frontier_row_limit=args.frontier_row_limit,
            ))
        if args.corpus:
            from .verify import load_corpus

            try:
                cases = load_corpus(args.corpus)
            except FileNotFoundError as exc:
                print(f"check-plan: {exc}", file=sys.stderr)
                return 2
            for path, case in cases:
                compiled = case.compile()
                if isinstance(compiled, MultiPlan):
                    rep = check_multi_plan(
                        compiled,
                        frontier_row_limit=args.frontier_row_limit,
                    )
                else:
                    rep = check_plan(
                        compiled,
                        config=config,
                        frontier_row_limit=args.frontier_row_limit,
                    )
                rep.subject = f"{path} ({rep.subject})"
                reports.append(rep)
        merged = merge_reports(reports, subject="check-plan")
        if args.json:
            print(json.dumps(
                merged.to_report(meta={"version": __version__}),
                indent=2, sort_keys=True,
            ))
        else:
            for rep in reports:
                print(rep.render())
                proof = rep.data.get("walker")
                if proof:
                    print(f"  walker: row-limit={proof['row_limit']}")
                    for ob in proof.get("obligations", []):
                        print(
                            f"    {ob['code']} {ob['status']}: "
                            f"{ob['detail']}"
                        )
            print(
                f"check-plan: {len(reports)} plan(s), "
                f"{len(merged.errors)} error(s), "
                f"{len(merged.warnings)} warning(s)"
            )
        return 0 if merged.ok else 1

    if args.command == "lint":
        import os

        from .analysis import lint_paths

        paths = args.paths or []
        if not paths:
            # Default to the live package tree: src/repro when run from
            # a checkout, the installed package directory otherwise.
            default = os.path.join("src", "repro")
            paths = [
                default
                if os.path.isdir(default)
                else os.path.dirname(os.path.abspath(__file__))
            ]
        missing = [p for p in paths if not os.path.exists(p)]
        if missing:
            print(
                f"lint: no such file or directory: {missing}",
                file=sys.stderr,
            )
            return 2
        fmt = args.format or ("json" if args.json else "text")
        rep = lint_paths(paths)
        if args.update_baseline:
            from .analysis import Baseline, baseline_from_report, save_baseline

            base = baseline_from_report(rep)
            base.path = args.update_baseline
            save_baseline(args.update_baseline, base)
            print(
                f"lint: wrote {len(base)} finding(s) to "
                f"{args.update_baseline}"
            )
            return 0
        if args.baseline:
            from .analysis import apply_baseline, load_baseline

            try:
                base = load_baseline(args.baseline)
            except FileNotFoundError:
                print(
                    f"lint: no such baseline file: {args.baseline}",
                    file=sys.stderr,
                )
                return 2
            except ValueError as exc:
                print(f"lint: {exc}", file=sys.stderr)
                return 2
            rep = apply_baseline(rep, base)
        if fmt == "json":
            print(json.dumps(
                rep.to_report(meta={"version": __version__}),
                indent=2, sort_keys=True,
            ))
        elif fmt == "sarif":
            from .analysis import to_sarif

            print(json.dumps(
                to_sarif(rep, tool_version=__version__),
                indent=2, sort_keys=True,
            ))
        else:
            print(rep.render())
        return 0 if rep.ok else 1

    if args.command == "verify":
        from .obs import write_report
        from .verify import case_to_dict, fuzz, mismatch_report, replay_corpus

        backends = (
            tuple(b.strip() for b in args.backends.split(",") if b.strip())
            if args.backends
            else None
        )
        reports = []
        failed = 0

        if args.corpus:
            replayed = replay_corpus(args.corpus, backends=backends)
            for path, rep in replayed:
                reports.append(rep)
                if not rep.ok:
                    failed += 1
                    print(f"corpus FAIL {path}")
                    for mm in rep.mismatches:
                        print(f"  {mm}")
            print(
                f"corpus: {len(replayed)} case(s) replayed, "
                f"{failed} failed"
            )

        fuzz_report = fuzz(
            seed=args.seed,
            cases=args.cases,
            backends=backends,
            shrink=args.shrink,
            max_pattern_vertices=args.max_pattern,
        )
        for failure in fuzz_report.failures:
            reports.append(failure.report)
            print(f"fuzz FAIL {failure.case.describe()}")
            for mm in failure.report.mismatches:
                print(f"  {mm}")
            if failure.shrunk is not None:
                print(f"  shrunk to: {failure.shrunk.describe()}")
                print(
                    "  reproducer: "
                    + json.dumps(case_to_dict(failure.reproducer()))
                )
        print(
            f"fuzz: seed={args.seed} {fuzz_report.cases_run} case(s), "
            f"{len(fuzz_report.failures)} failed, "
            f"{len(fuzz_report.backends)} backend(s)"
        )

        ok = failed == 0 and fuzz_report.ok
        if args.report:
            payload = mismatch_report(
                reports,
                meta={
                    "seed": args.seed,
                    "cases": args.cases,
                    "corpus": args.corpus,
                    "backends": list(fuzz_report.backends),
                    "version": __version__,
                },
            )
            payload["data"]["fuzz"] = fuzz_report.as_dict()
            write_report(args.report, payload)
            print(f"report written to {args.report}", file=sys.stderr)
        print("verify: OK" if ok else "verify: MISMATCHES FOUND")
        return 0 if ok else 1

    if args.command == "estimate":
        from .compiler.estimate import estimate_plan, measure_levels

        graph = _load(args)
        plan = compile_pattern(from_name(args.pattern))
        estimated = estimate_plan(plan, graph)
        measured = (
            measure_levels(plan, graph) if args.measure else None
        )
        print(f"{'depth':>6s}{'estimated':>14s}"
              + (f"{'measured':>14s}" if measured else ""))
        for i, level in enumerate(estimated):
            row = f"{level.depth:>6d}{level.nodes:>14.1f}"
            if measured:
                row += f"{measured[i].nodes:>14.1f}"
            print(row)
        return 0

    if args.command == "motifs":
        from .engine.motifs import count_motifs, motif_count_plan

        graph = _load(args)
        plan = compile_motifs(args.k)

        def mine(run):
            return PatternAwareEngine(graph, run).run()

        counting = motif_count_plan(args.k)
        result = (
            mine(plan) if counting is None
            else count_motifs(graph, counting, mine)
        )
        if args.emit_json:
            run_meta = {
                "command": "motifs",
                "k": args.k,
                "dataset": None if args.graph else args.dataset,
                "graph_file": args.graph,
                "version": __version__,
            }
            print(json.dumps(
                make_report("mine", result.as_dict(), meta=run_meta),
                indent=2, sort_keys=True,
            ))
            return 0
        from .compiler.ir import emit_multi_ir

        print(emit_multi_ir(plan))
        for pattern, count in zip(plan.patterns, result.counts):
            print(f"{pattern.name:<16s}{count:>12d}")
        return 0

    if args.command == "serve":
        return _serve(args)

    if args.command == "profile":
        rest = list(args.rest)
        if rest and rest[0] == "--":
            rest = rest[1:]
        if not rest:
            print(
                "profile: give a command to profile, e.g. "
                "flexminer profile mine 4-clique --workers 4",
                file=sys.stderr,
            )
            return 2
        inner = build_parser().parse_args(rest)
        if inner.command not in ("mine", "sim"):
            print(
                f"profile: cannot profile {inner.command!r}; only mine "
                "and sim are supported",
                file=sys.stderr,
            )
            return 2
        return _mine_or_sim(inner, profile=True)

    return _mine_or_sim(args)


def _mine_or_sim(args, *, profile: bool = False) -> int:
    """Shared body of ``mine``/``sim`` (and ``profile`` wrapping them)."""
    trace_path = getattr(args, "trace", None)
    if profile and trace_path is None:
        trace_path = "profile_trace.json"
    # The run's one observability handle: it carries the trace.
    prof = PhaseProfiler(
        tracer=Tracer() if trace_path else None, enabled=profile
    )
    with prof.phase("load-graph"):
        graph = _load(args)
    with prof.phase("compile", pattern=args.pattern):
        plan = compile_pattern(from_name(args.pattern), induced=args.induced)
    run_meta = {
        "command": args.command,
        "pattern": args.pattern,
        "dataset": None if args.graph else args.dataset,
        "graph_file": args.graph,
        "induced": args.induced,
        "profiled": profile,
        "version": __version__,
    }

    if args.command == "mine":
        from .bench.cpumodel import cpu_time_seconds

        run_meta["workers"] = args.workers
        split_degree = args.split_degree
        if profile or args.workers > 1 or split_degree is not None:
            # Profiling always routes through the pool so the trace
            # carries worker lanes at any worker count (workers=1 runs
            # in-process with identical results).
            from .engine.pool import MinerPool

            with prof.phase("setup", workers=args.workers):
                pool = MinerPool(graph, workers=args.workers, profiler=prof)
            with pool:
                result = pool.mine(plan, split_degree=split_degree)
                # The calibrated constant the cost model prices chunks
                # against; 0.0 for the in-process workers=1 pool.
                run_meta["dispatch_overhead_s"] = pool.dispatch_overhead_s
        else:
            with prof.phase("setup"):
                engine = PatternAwareEngine(graph, plan, profiler=prof)
            result = engine.run()
        seconds = cpu_time_seconds(result.counters)
        profile_payload, profile_text = _freeze_profile(prof, profile)
        if trace_path:
            prof.tracer.write(trace_path)
            print(f"trace written to {trace_path}", file=sys.stderr)
        if args.emit_json:
            payload = dict(result.as_dict(), model_seconds=seconds)
            if profile_payload is not None:
                payload["profile"] = profile_payload
            print(json.dumps(
                make_report("mine", payload, meta=run_meta),
                indent=2, sort_keys=True,
            ))
        else:
            print(f"matches: {result.counts[0]}")
            print(f"CPU-20T model: {seconds * 1e3:.3f} ms")
            print(f"set-op iterations: {result.counters.setop_iterations}")
            if profile_text is not None:
                print()
                print(profile_text)
        return 0

    if args.command == "sim":
        from .hw import FlexMinerConfig, simulate, simulate_parallel

        config = FlexMinerConfig(
            num_pes=args.pes, cmap_bytes=args.cmap_kb * 1024
        )
        run_meta.update(num_pes=args.pes, cmap_bytes=args.cmap_kb * 1024)
        workers = args.workers
        if workers > 1:
            run_meta["workers"] = workers
            report = simulate_parallel(
                graph, plan, config, workers=workers, profiler=prof
            )
        else:
            report = simulate(graph, plan, config, profiler=prof)
        profile_payload, profile_text = _freeze_profile(prof, profile)
        if trace_path:
            prof.tracer.write(trace_path)
            print(f"trace written to {trace_path}", file=sys.stderr)
        if args.emit_json:
            payload = report.as_dict()
            if profile_payload is not None:
                payload = dict(payload, profile=profile_payload)
            print(json.dumps(
                make_report("sim", payload, meta=run_meta),
                indent=2, sort_keys=True,
            ))
        else:
            print(report.summary())
            if profile_text is not None:
                print()
                print(profile_text)
        return 0

    return 1  # pragma: no cover - argparse enforces commands


def _freeze_profile(prof, profile: bool):
    """Snapshot the profile payload/rendering before the trace write.

    Freezing first keeps the coverage figure about the measured run,
    not about trace serialization.
    """
    if not profile:
        return None, None
    payload = prof.as_dict()
    text = prof.timeline() + "\n\n" + prof.table()
    replays = [p.args for p in prof.phases() if p.name == "replay"]
    touches = sum(args.get("touches", 0) for args in replays)
    if touches:
        missed = sum(args["missed_touches"] for args in replays)
        text += (
            f"\nreplay: {sum(args['events'] for args in replays)} events "
            f"in {sum(args['slices'] for args in replays)} slices "
            f"(largest {max(args['largest_slice'] for args in replays)}), "
            f"{touches} touches, {missed} missed "
            f"({100.0 * missed / touches:.1f}%), "
            f"{sum(args['lines_fetched'] for args in replays)} lines fetched"
        )
    return payload, text


def _serve(args) -> int:
    """``flexminer serve``: JSON-lines loop over a resident service."""
    from .graph.datasets import load_dataset
    from .obs import write_report
    from .serve import MiningService, serve_stream

    service = MiningService(
        workers=args.workers,
        max_active=args.max_active,
        result_cache=not args.no_result_cache,
        request_timeout_s=args.timeout,
    )
    try:
        for spec in args.register:
            name, _, dataset = spec.partition("=")
            dataset = dataset or name
            service.register_graph(name, load_dataset(dataset))
            print(
                f"serve: registered {name!r} ({dataset})", file=sys.stderr
            )
        handled = serve_stream(service, sys.stdin, sys.stdout)
        print(f"serve: handled {handled} request(s)", file=sys.stderr)
        if args.stats_report:
            write_report(
                args.stats_report,
                service.stats_report(version=__version__),
            )
            print(
                f"serve: stats written to {args.stats_report}",
                file=sys.stderr,
            )
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
