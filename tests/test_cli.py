"""Tests for the flexminer command-line interface."""

import re
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "flexminer" in capsys.readouterr().out


class TestCompile:
    def test_prints_ir(self, capsys):
        assert main(["compile", "4-cycle"]) == 0
        out = capsys.readouterr().out
        assert "pruneBy" in out
        assert "cmap:" in out

    def test_induced_flag(self, capsys):
        assert main(["compile", "4-cycle", "--induced"]) == 0
        assert "notAdj" in capsys.readouterr().out

    def test_unknown_pattern(self):
        from repro.errors import PatternError

        with pytest.raises(PatternError):
            main(["compile", "octagon-of-doom"])


class TestMineAndSim:
    def test_mine_dataset(self, capsys):
        assert main(["mine", "triangle", "--dataset", "As"]) == 0
        out = capsys.readouterr().out
        assert "matches:" in out

    def test_mine_file(self, tmp_path, capsys):
        path = tmp_path / "g.el"
        path.write_text("0 1\n1 2\n0 2\n")
        assert main(["mine", "triangle", "--graph", str(path)]) == 0
        assert "matches: 1" in capsys.readouterr().out

    def test_sim(self, capsys):
        assert main(
            ["sim", "triangle", "--dataset", "As", "--pes", "4",
             "--cmap-kb", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "PEs          : 4" in out
        assert "NoC requests" in out

    def test_sim_and_mine_agree(self, capsys):
        main(["mine", "triangle", "--dataset", "As"])
        mine_out = capsys.readouterr().out
        main(["sim", "triangle", "--dataset", "As", "--pes", "2"])
        sim_out = capsys.readouterr().out
        mined = int(mine_out.split("matches:")[1].split()[0])
        simmed = int(sim_out.split("matches      :")[1].split()[0])
        assert mined == simmed


class TestMineParallel:
    def test_workers_flag_agrees_with_serial(self, capsys):
        assert main(["mine", "triangle", "--dataset", "As"]) == 0
        serial_out = capsys.readouterr().out
        assert main(
            ["mine", "triangle", "--dataset", "As", "--workers", "2"]
        ) == 0
        parallel_out = capsys.readouterr().out
        serial = int(serial_out.split("matches:")[1].split()[0])
        parallel = int(parallel_out.split("matches:")[1].split()[0])
        assert serial == parallel

    def test_split_degree_routes_to_parallel_miner(self, capsys):
        # --split-degree alone (workers=1) must still take the pool
        # path (in-process at one worker) and keep the counts right.
        assert main(
            ["mine", "triangle", "--dataset", "As", "--split-degree", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "matches:" in out

    @pytest.mark.parametrize("degree", ["0", "-2"])
    def test_split_degree_below_one_rejected(self, degree, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["mine", "triangle", "--dataset", "As", "--workers", "2",
                 "--split-degree", degree]
            )
        assert exc.value.code == 2
        assert "integer >= 1" in capsys.readouterr().err

    def test_workers_json_report_records_workers(self, capsys):
        import json as jsonlib

        assert main(
            ["mine", "triangle", "--dataset", "As", "--workers", "2",
             "--emit-json"]
        ) == 0
        report = jsonlib.loads(capsys.readouterr().out)
        assert report["meta"]["workers"] == 2


class TestNoModeFlag:
    """``mine``, ``profile mine`` and ``motifs`` have one engine: no
    ``--[no-]batch-frontier`` flag and no ``meta.batch_frontier``."""

    CASES = {
        "mine": ["mine", "4-clique", "--dataset", "As"],
        "profile-mine": ["profile", "mine", "4-clique", "--dataset", "As"],
        "motifs": ["motifs", "3", "--dataset", "As"],
    }

    @pytest.mark.parametrize("verb", list(CASES))
    def test_mode_flag_is_gone(self, verb, tmp_path, capsys):
        import json as jsonlib

        argv = self.CASES[verb] + ["--emit-json"]
        if verb == "profile-mine":
            argv += ["--trace", str(tmp_path / "t.json")]
        assert main(argv) == 0
        report = jsonlib.loads(capsys.readouterr().out)
        assert "batch_frontier" not in report["meta"]
        assert report["data"]["counts"]
        for flag in ("--batch-frontier", "--no-batch-frontier"):
            with pytest.raises(SystemExit) as exc:
                main(argv + [flag])
            assert exc.value.code == 2


class TestSimParallel:
    def test_workers_flag_matches_serial(self, capsys):
        assert main(
            ["sim", "triangle", "--dataset", "As", "--pes", "4"]
        ) == 0
        serial_out = capsys.readouterr().out
        assert main(
            ["sim", "triangle", "--dataset", "As", "--pes", "4",
             "--workers", "2"]
        ) == 0
        parallel_out = capsys.readouterr().out
        # Bit-identical contract: the rendered summary (cycles, cache
        # rates, all counters) is byte-for-byte the serial one.
        assert parallel_out == serial_out

    def test_workers_json_report_records_workers(self, capsys):
        import json as jsonlib

        assert main(
            ["sim", "triangle", "--dataset", "As", "--pes", "2",
             "--workers", "2", "--emit-json"]
        ) == 0
        report = jsonlib.loads(capsys.readouterr().out)
        assert report["meta"]["workers"] == 2

    def test_trace_at_two_workers_matches_one(self, tmp_path, capsys):
        # Replay runs in the parent at any worker count, so --trace
        # works with --workers 2: a valid trace, the same cycle-domain
        # events and a report equal to the --workers 1 run's.
        import json as jsonlib

        from repro.obs import SIM_PID, validate_trace

        runs = {}
        for workers in (1, 2):
            trace = tmp_path / f"t{workers}.json"
            assert main(
                ["sim", "triangle", "--dataset", "As", "--pes", "2",
                 "--workers", str(workers), "--trace", str(trace),
                 "--emit-json"]
            ) == 0
            out = capsys.readouterr()
            assert "running serial" not in out.err
            report = jsonlib.loads(out.out)
            with open(trace) as f:
                events = jsonlib.load(f)
            assert validate_trace(events) == []
            cycle_domain = [
                e for e in events["traceEvents"] if e.get("pid") == SIM_PID
            ]
            assert any(e.get("cat") == "task" for e in cycle_domain)
            runs[workers] = (report["data"], cycle_domain)
        assert runs[2] == runs[1]


class TestProfile:
    def test_profile_mine_trace_and_phase_table(self, tmp_path, capsys):
        import json as jsonlib

        from repro.obs import WORKERS_PID, validate_trace

        trace = tmp_path / "prof.json"
        assert main(
            ["profile", "mine", "triangle", "--dataset", "As",
             "--workers", "2", "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "matches:" in out
        assert "% wall" in out  # phase breakdown table
        assert "mine" in out  # timeline + table name the phases
        with open(trace) as f:
            data = jsonlib.load(f)
        assert validate_trace(data) == []
        lanes = {
            e["tid"]
            for e in data["traceEvents"]
            if e.get("pid") == WORKERS_PID and e.get("ph") == "X"
        }
        # coordinator rail plus one lane per worker
        assert lanes == {0, 1, 2}

    def test_profile_default_trace_path(self, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["profile", "mine", "triangle", "--dataset", "As"]
        ) == 0
        assert (tmp_path / "profile_trace.json").exists()

    def test_profile_sim(self, tmp_path, capsys):
        trace = tmp_path / "prof.json"
        assert main(
            ["profile", "sim", "triangle", "--dataset", "As",
             "--pes", "2", "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "% wall" in out
        assert re.search(
            r"replay: \d+ events in \d+ slices \(largest \d+\), "
            r"\d+ touches, \d+ missed",
            out,
        )
        assert trace.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_profile_sim_shows_the_slice_cut(self, tmp_path, capsys,
                                             workers):
        import json as jsonlib

        args = ["profile", "sim", "4-clique", "--dataset", "As",
                "--pes", "2", "--workers", workers,
                "--trace", str(tmp_path / "t.json")]
        assert main(args + ["--emit-json"]) == 0
        phases = jsonlib.loads(capsys.readouterr().out)["data"]["profile"][
            "phases"
        ]
        traced = [p["args"]["events"] for p in phases if p["name"] == "trace"]
        replays = [p["args"] for p in phases if p["name"] == "replay"]
        events = sum(r["events"] for r in replays)
        slices = sum(r["slices"] for r in replays)
        largest = max(r["largest_slice"] for r in replays)
        assert sum(traced) == events
        assert slices >= 1 and events / slices <= largest <= events
        assert main(args) == 0
        assert (
            f"replay: {events} events in {slices} slices (largest {largest})"
            in capsys.readouterr().out
        )

    def test_profile_emit_json_carries_payload(self, tmp_path, capsys):
        import json as jsonlib

        assert main(
            ["profile", "mine", "triangle", "--dataset", "As",
             "--trace", str(tmp_path / "t.json"), "--emit-json"]
        ) == 0
        report = jsonlib.loads(capsys.readouterr().out)
        assert report["meta"]["profiled"] is True
        prof = report["data"]["profile"]
        assert prof["enabled"] is True
        assert prof["coverage"] > 0.0
        assert any(p["name"] == "mine" for p in prof["phases"])

    def test_profile_requires_subcommand(self, capsys):
        assert main(["profile"]) == 2
        assert "give a command" in capsys.readouterr().err

    def test_profile_rejects_other_commands(self, capsys):
        assert main(["profile", "compile", "triangle"]) == 2
        assert "only mine" in capsys.readouterr().err


class TestVerify:
    def test_smoke_ok(self, capsys):
        assert main(
            ["verify", "--seed", "0", "--cases", "3",
             "--backends", "serial,reference"]
        ) == 0
        out = capsys.readouterr().out
        assert "verify: OK" in out
        assert "3 case(s)" in out

    def test_corpus_and_report(self, tmp_path, capsys):
        import json as jsonlib

        from repro.graph import CSRGraph
        from repro.patterns import triangle
        from repro.verify import VerifyCase, save_case

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        save_case(
            str(corpus / "tri.json"),
            VerifyCase(
                graph=CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)]),
                pattern=triangle(),
                expected=(1,),
                name="cli-tri",
            ),
        )
        report_path = tmp_path / "verify.json"
        assert main(
            ["verify", "--seed", "1", "--cases", "2",
             "--backends", "serial,one-row-bands",
             "--corpus", str(corpus), "--report", str(report_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "corpus: 1 case(s) replayed, 0 failed" in out
        payload = jsonlib.loads(report_path.read_text())
        assert payload["kind"] == "verify"
        assert payload["data"]["ok"] is True
        assert payload["data"]["fuzz"]["seed"] == 1

    def test_zero_cases_replays_the_corpus_only(self, capsys):
        from pathlib import Path

        corpus = Path(__file__).parent / "corpus"
        assert main(
            ["verify", "--cases", "0", "--backends", "serial",
             "--corpus", str(corpus)]
        ) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        assert "fuzz: seed=0 0 case(s)" in out
        assert "verify: OK" in out

    def test_bad_corpus_fails(self, tmp_path, capsys):
        import json as jsonlib

        from repro.graph import CSRGraph
        from repro.patterns import triangle
        from repro.verify import VerifyCase, case_to_dict

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        payload = case_to_dict(
            VerifyCase(
                graph=CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)]),
                pattern=triangle(),
                expected=(99,),  # wrong on purpose
                name="cli-bad",
            )
        )
        (corpus / "bad.json").write_text(jsonlib.dumps(payload))
        assert main(
            ["verify", "--seed", "1", "--cases", "1",
             "--backends", "serial", "--no-shrink",
             "--corpus", str(corpus)]
        ) == 1
        out = capsys.readouterr().out
        assert "corpus FAIL" in out
        assert "MISMATCHES FOUND" in out

    def test_unknown_backend_rejected(self):
        import pytest as _pytest

        with _pytest.raises(ValueError, match="unknown backend"):
            main(["verify", "--cases", "1", "--backends", "warp-drive"])


class TestOtherCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("As", "Mi", "Pa", "Yo", "Lj", "Or"):
            assert name in out

    def test_motifs(self, capsys):
        assert main(["motifs", "3", "--dataset", "As"]) == 0
        out = capsys.readouterr().out
        assert "wedge" in out and "triangle" in out


class TestValidateAndEstimate:
    def test_validate_good_plan(self, tmp_path, capsys):
        main(["compile", "4-cycle"])
        ir_text = capsys.readouterr().out
        path = tmp_path / "plan.ir"
        path.write_text(ir_text)
        assert main(["validate", str(path), "--trials", "5"]) == 0
        assert "validated" in capsys.readouterr().out

    def test_validate_broken_plan(self, tmp_path, capsys):
        main(["compile", "4-cycle"])
        ir_text = capsys.readouterr().out
        # Strip every symmetry bound: duplicates appear.
        broken = ir_text.replace("pruneBy(v0", "pruneBy(inf").replace(
            "pruneBy(v1", "pruneBy(inf"
        )
        path = tmp_path / "broken.ir"
        path.write_text(broken)
        assert main(["validate", str(path), "--trials", "20"]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_estimate(self, capsys):
        assert main(["estimate", "triangle", "--dataset", "As"]) == 0
        out = capsys.readouterr().out
        assert "estimated" in out

    def test_estimate_with_measure(self, capsys):
        assert main(
            ["estimate", "triangle", "--dataset", "As", "--measure"]
        ) == 0
        assert "measured" in capsys.readouterr().out


class TestArgumentBounds:
    """Out-of-range sizes and worker counts are usage errors (exit 2),
    rejected before any graph is loaded."""

    @pytest.mark.parametrize("k", ["9", "1", "0", "six"])
    def test_motif_size_outside_2_to_5(self, k, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["motifs", k])
        assert exc.value.code == 2
        assert "argument k: invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_mine_workers_below_one(self, workers, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mine", "triangle", "--workers", workers])
        assert exc.value.code == 2
        assert "integer >= 1" in capsys.readouterr().err

    def test_sim_workers_below_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sim", "triangle", "--workers", "0"])
        assert exc.value.code == 2
        assert "integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,bound",
        [
            (["sim", "triangle", "--pes", "0"], ">= 1"),
            (["check-plan", "triangle", "--pes", "0"], ">= 1"),
            (["sim", "triangle", "--cmap-kb", "-1"], ">= 0"),
            (["check-plan", "triangle", "--cmap-kb", "-1"], ">= 0"),
            (
                ["check-plan", "triangle", "--frontier-row-limit", "0"],
                ">= 1",
            ),
            (["verify", "--cases", "-3"], ">= 0"),
            (["validate", "plan.ir", "--trials", "0"], ">= 1"),
        ],
        ids=lambda x: " ".join(x) if isinstance(x, list) else None,
    )
    def test_numeric_flag_out_of_range(self, argv, bound, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"expected an integer {bound}" in capsys.readouterr().err

    def test_serve_workers_below_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--workers", "0"])
        assert exc.value.code == 2
        assert "integer >= 1" in capsys.readouterr().err

    def test_service_workers_below_one(self):
        from repro.errors import ConfigError
        from repro.serve import MiningService

        with pytest.raises(ConfigError, match="workers"):
            MiningService(workers=0)
