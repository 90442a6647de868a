"""Tests for the experiment registry and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import (
    EXPERIMENTS,
    experiment_names,
    run_experiment,
)


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        names = set(experiment_names())
        assert {
            "table1", "table2", "fig2", "fig8-edge", "fig8-cloud",
            "fig9-edge", "fig9-cloud", "fig10", "fig11-edge",
            "fig11-cloud", "fig12a", "fig12b",
        } <= names

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")

    def test_fast_experiments_return_reports(self):
        for name in ("table1", "table2", "fig2", "fig10"):
            out = run_experiment(name)
            assert isinstance(out, str) and out

    def test_registry_callables_are_zero_arg(self):
        for fn in EXPERIMENTS.values():
            assert callable(fn)


class TestCLI:
    def test_parser_accepts_experiment(self):
        args = build_parser().parse_args(["table1"])
        assert args.experiment == "table1"

    def test_list_prints_names(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig12b" in out

    def test_run_experiment(self, capsys):
        assert main(["table2", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["fig99"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--jobs", "2"], ["--no-batch"], ["--no-candidates"],
        ["--exhaustive-scaleout"],
    ])
    def test_removed_engine_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["table1", *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["run-all", "cost", "table1"])
    def test_removed_warm_start_flag_is_rejected(self, mode, capsys):
        with pytest.raises(SystemExit) as exc:
            main([mode, "--warm-start"])
        assert exc.value.code == 2
        assert "--warm-start" in capsys.readouterr().err

    def test_removed_sweep_chunk_flag_is_rejected(self, capsys):
        """A sweep is cut into chunks of a fixed 8: ``serve`` takes no
        ``--sweep-chunk``."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--sweep-chunk", "4", "--port", "0"])
        assert exc.value.code == 2
        assert "--sweep-chunk" in capsys.readouterr().err
