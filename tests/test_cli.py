"""Tests for repro.cli."""

import json

import pytest

from repro.cli import build_mc_parser, build_parser, main
from repro.experiments.registry import available_experiments


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in available_experiments():
            assert experiment_id in out

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_quick_experiment(self, capsys):
        assert main(["fig4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Power dissipation" in out
        assert "PASS" in out

    def test_multiple_experiments(self, capsys):
        assert main(["fig4", "fig7", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "fig7" in out

    def test_parser_quick_flag(self):
        args = build_parser().parse_args(["fig4", "--quick"])
        assert args.quick
        assert args.experiments == ["fig4"]

    def test_parser_workers_default(self):
        args = build_parser().parse_args(["fig4"])
        assert args.workers == 1
        assert args.chunk_size is None

    def test_experiments_through_worker_pool(self, capsys):
        assert main(["fig4", "fig7", "--quick", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "fig7" in out


class TestMcCli:
    def test_mc_parser_defaults(self):
        args = build_mc_parser().parse_args([])
        assert args.dies == 24
        assert args.workers == 1
        assert args.spec_enob == 10.0
        assert args.spec_dnl == 1.5

    def test_mc_run_writes_json(self, capsys, tmp_path):
        out_path = tmp_path / "mc.json"
        code = main(
            [
                "mc",
                "--dies",
                "2",
                "--fft-points",
                "1024",
                "--json",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "yield against" in out
        document = json.loads(out_path.read_text())
        assert document["schema"] == "repro.batch-result/v1"
        assert document["n_tasks"] == 2
        assert document["yield"]["n_dies"] == 2

    def test_mc_die_chunk_flag_parses(self):
        assert build_mc_parser().parse_args(["--die-chunk", "4"]).die_chunk == 4
        assert build_mc_parser().parse_args([]).die_chunk is None

    @pytest.mark.parametrize(
        "argv",
        (
            ["mc"],
            ["campaign"],
            ["campaign-dispatch", "--work-dir", "unused"],
            ["profile", "dynamic-screen"],
        ),
        ids=lambda argv: argv[0],
    )
    def test_engine_flag_rejected(self, argv, capsys):
        """One execution path: --engine is gone from every subcommand."""
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--engine", "vectorized"])
        assert exit_info.value.code == 2
        assert "--engine" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("mc", "campaign"))
    def test_chunk_size_flag_rejected(self, command, capsys):
        """--die-chunk / --cell-chunk is the one batching knob."""
        with pytest.raises(SystemExit):
            main([command, "--chunk-size", "2"])
        assert "--chunk-size" in capsys.readouterr().err

    def test_mc_calibrate_flag_parses(self):
        args = build_mc_parser().parse_args(["--calibrate", "--cal-samples", "6"])
        assert args.calibrate
        assert args.cal_samples == 6
        defaults = build_mc_parser().parse_args([])
        assert not defaults.calibrate
        assert defaults.cal_samples == 8
        assert defaults.spec_inl is None

    def test_mc_calibrated_run(self, capsys, tmp_path):
        out_path = tmp_path / "mc-cal.json"
        code = main(
            [
                "mc",
                "--dies",
                "2",
                "--fft-points",
                "512",
                "--calibrate",
                "--cal-samples",
                "4",
                "--json",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "foreground-calibrated" in out
        import json

        document = json.loads(out_path.read_text())
        assert document["calibrated"] is True
