import argparse
import dataclasses
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

import kgz.cli
import kgz.harness
from kgz import InitialData, presets
from kgz.cli import main
from kgz.harness import RateTable, SweepSpec, limit_study, read_table


def read_snapshot_csv(path):
    meta = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                if "=" in line:
                    k, v = line[1:].strip().split("=", 1)
                    meta[k] = v
                continue
            if line.startswith("x,"):
                continue
            rows.append([float(c) for c in line.split(",")])
    return meta, np.array(rows)


class TestSolve:
    def test_writes_snapshot(self, tmp_path, capsys):
        out = tmp_path / "sol"
        code = main(
            [
                "solve", "--preset", "gauss_sech", "--case", "II",
                "--eps", "1.0", "--h", "0.5", "--tau", "0.01", "--T", "0.1",
                "--snapshots", "0,0.05,0.1", "--out", str(out),
            ]
        )
        assert code == 0
        for t in ("0", "0.05", "0.1"):
            meta, rows = read_snapshot_csv(f"{out}_t{t}.csv")
            assert rows.shape == (125, 4)
            assert np.all(np.isfinite(rows))
            assert meta["domain"] == "(-31, 31)"

    def test_blow_up_exits_2_and_writes_no_snapshot(self, tmp_path, monkeypatch, capsys):
        # E0 = 5 at x = 0 makes the first step lose diagonal dominance
        def zero(x):
            return np.zeros_like(x)

        def blow_up():
            return InitialData(E0=lambda x: 5.0 * np.exp(-(x**2)), E1=zero, omega0=zero, omega1=zero)

        monkeypatch.setitem(presets._PRESETS, "blow_up", blow_up)
        code = main(
            [
                "solve", "--preset", "blow_up", "--case", "I", "--eps", "0.5", "--h", "0.25",
                "--tau", "0.5", "--T", "2", "--domain=-6,6", "--out", str(tmp_path / "sol"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical failure: StabilityError" in err and "k=1, t=0.5" in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_preset_exits_1(self, capsys):
        code = main(["solve", "--preset", "nope", "--eps", "0.5"])
        assert code == 1
        assert "available presets" in capsys.readouterr().err

    def test_misaligned_snapshot_exits_1(self, tmp_path, capsys):
        code = main(
            [
                "solve", "--eps", "1.0", "--h", "0.5", "--tau", "0.01",
                "--T", "0.1", "--snapshots", "0.015", "--out", str(tmp_path / "s"),
            ]
        )
        assert code == 1
        assert "nearest aligned" in capsys.readouterr().err

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "preset": "gauss_sech",
                    "case": "II",
                    "eps": 1.0,
                    "h": 0.5,
                    "tau": 0.01,
                    "T": 0.1,
                    "out": str(tmp_path / "from_config"),
                }
            )
        )
        code = main(["solve", "--config", str(cfg), "--T", "0.05"])
        assert code == 0
        # T came from the command line, everything else from the file
        meta, _ = read_snapshot_csv(str(tmp_path / "from_config") + "_t0.05.csv")
        assert meta["eps"] == "1"

    def test_explicit_zero_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2.0, "beta": 1.0}))
        code = main(
            [
                "solve", "--config", str(cfg), "--case", "custom",
                "--alpha", "0", "--beta", "0", "--eps", "0.5",
                "--h", "0.5", "--tau", "0.01", "--T", "0.05",
                "--out", str(tmp_path / "zero"),
            ]
        )
        assert code == 0
        meta, _ = read_snapshot_csv(str(tmp_path / "zero") + "_t0.05.csv")
        assert meta["alpha"] == "0"
        assert meta["beta"] == "0"

    @pytest.mark.parametrize(
        "args",
        [
            ["--eps", "nan"], ["--h", "nan"], ["--tau", "nan"], ["--T", "inf"], ["--eps", "inf"],
            ["--case", "custom", "--alpha", "nan", "--beta", "0"], ["--domain=-inf,5"],
        ],
        ids=["eps-nan", "h-nan", "tau-nan", "T-inf", "eps-inf", "alpha-nan", "domain-inf"],
    )
    def test_non_finite_scalar_exits_1(self, tmp_path, capsys, args):
        code = main(["solve", *args, "--out", str(tmp_path / "s")])
        assert code == 1
        err = capsys.readouterr().err
        assert "parameter error" in err and "must be" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "invalid"])
    def test_bad_config_exits_1(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "s")])
        assert code == 1
        assert "parameter error" in capsys.readouterr().err

    def test_domain_override(self, tmp_path):
        code = main(
            [
                "solve", "--eps", "0.5", "--h", "0.5", "--tau", "0.01", "--T", "0.05",
                "--domain=-5,5", "--out", str(tmp_path / "dom"),
            ]
        )
        assert code == 0
        meta, rows = read_snapshot_csv(str(tmp_path / "dom") + "_t0.05.csv")
        assert meta["domain"] == "(-5, 5)"
        assert rows.shape[0] == 21


class TestSweep:
    def test_tiny_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--mode", "spatial", "--preset", "gauss_sech", "--case", "II",
                "--eps-list", "1.0", "--h0", "0.4", "--tau0", "0.0025",
                "--levels", "2", "--T", "0.05", "--out", str(out),
            ]
        )
        assert code == 0
        table = read_table(str(out))
        assert len(table.rows) == 2
        assert table.meta["mode"] == "spatial"

    def test_bad_mode_exits_1(self, capsys):
        code = main(["sweep", "--mode", "sideways"])
        assert code == 1

    @pytest.mark.parametrize("command", [["sweep", "--mode", "temporal"], ["limit-study"]])
    def test_no_workers_exits_1(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        code = main([*command, "--eps-list", "1", "--T", "0.1", "--workers", "0",
                     "--out", str(out)])
        assert code == 1
        assert "workers must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_paper_scale_help_says_no_effect(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        assert "no effect on solve" in " ".join(capsys.readouterr().out.split())


class TestLimitStudy:
    @pytest.mark.parametrize(
        "command",
        [
            ["limit-study", "--h", "0.5", "--tau", "0.05"],
            ["sweep", "--mode", "eps-limit", "--h0", "0.5", "--tau0", "0.05"],
        ],
        ids=["limit-study", "sweep"],
    )
    def test_too_few_levels_exits_1(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        code = main(
            [
                *command, "--preset", "gauss_sech", "--case", "I",
                "--eps-list", "0.25", "--T", "0.1", "--out", str(out),
            ]
        )
        assert code == 1
        assert "time levels" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["limit-study"], ["sweep", "--mode", "eps-limit"]],
                             ids=["limit-study", "sweep"])
    @pytest.mark.parametrize("eps_list", ["2", ","], ids=["above-1", "empty"])
    def test_eps_rule_exits_1(self, tmp_path, capsys, command, eps_list):
        out = tmp_path / "x.csv"
        code = main([*command, "--eps-list", eps_list, "--out", str(out)])
        assert code == 1
        assert "eps" in capsys.readouterr().err
        assert not out.exists()

    def test_blow_up_exits_2_and_writes_no_csv(self, tmp_path, monkeypatch, capsys):
        # E0 = 2 exp(-x^2): the limit model loses diagonal dominance in the
        # step from k = 5, inside the lockstep march of both models
        def zero(x):
            return np.zeros_like(x)

        def blow_up():
            return InitialData(
                E0=lambda x: 2.0 * np.exp(-(x**2)), E1=zero, omega0=zero, omega1=zero
            )

        monkeypatch.setitem(presets._PRESETS, "blow_up", blow_up)
        out = tmp_path / "limit.csv"
        code = main(
            [
                "limit-study", "--preset", "blow_up", "--case", "I", "--eps-list", "0.5",
                "--h", "0.25", "--tau", "0.25", "--T", "2", "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "k=5, t=1.25" in err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_metric_exits_2_and_writes_no_csv(self, tmp_path, monkeypatch, capsys):
        real = kgz.harness._run_tasks

        def nan_metric(tasks, workers):
            results = real(tasks, workers)
            results[0] = dict(results[0], max_eta_e=float("nan"))
            return results

        monkeypatch.setattr(kgz.harness, "_run_tasks", nan_metric)
        code = main(
            [
                "limit-study", "--preset", "gauss_sech", "--case", "I", "--eps-list", "0.25,0.125",
                "--h", "0.5", "--tau", "0.05", "--T", "0.25", "--out", str(tmp_path / "limit.csv"),
            ]
        )
        assert code == 2
        assert "numerical failure: KgzError: limit run failed for eps=0.25" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_zero_metric_exits_2_and_writes_no_csv(self, tmp_path, monkeypatch, capsys):
        real = kgz.harness._run_tasks

        def zero_metric(tasks, workers):
            results = real(tasks, workers)
            results[0] = dict(results[0], max_eta_e=0.0)
            return results

        monkeypatch.setattr(kgz.harness, "_run_tasks", zero_metric)
        code = main(
            [
                "limit-study", "--preset", "gauss_sech", "--case", "I", "--eps-list", "0.25,0.125",
                "--h", "0.5", "--tau", "0.05", "--T", "0.25", "--out", str(tmp_path / "limit.csv"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical failure: KgzError: limit run failed for eps=0.25" in err
        assert "DegenerateProblemError: max_eta_e is 0.0" in err
        assert list(tmp_path.iterdir()) == []

    def test_writes_curves(self, tmp_path):
        out = tmp_path / "limit.csv"
        code = main(
            [
                "limit-study", "--preset", "gauss_sech", "--case", "I",
                "--eps-list", "0.25,0.125", "--h", "0.5", "--tau", "0.05",
                "--T", "0.25", "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "eps,t,eta_2,eta_inf,eta_e" in text
        assert "# eta_slope=" in text


def _fail_if_called(*args, **kwargs):
    raise AssertionError("a run started")


class TestOutDirectory:
    @pytest.mark.parametrize(
        "command, runner",
        [
            (["solve", "--h", "0.5", "--tau", "0.01", "--T", "0.05"], "run"),
            (["sweep", "--eps-list", "1", "--h0", "0.4", "--levels", "2", "--T", "0.05"],
             "run_sweep"),
            (["limit-study", "--eps-list", "0.25", "--h", "0.5", "--tau", "0.05", "--T", "0.25"],
             "limit_study"),
        ],
        ids=["solve", "sweep", "limit-study"],
    )
    def test_missing_directory_exits_1_before_any_run(
        self, tmp_path, monkeypatch, capsys, command, runner
    ):
        monkeypatch.setattr(kgz.cli, runner, _fail_if_called)
        code = main([*command, "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert "parameter error" in captured.err and "missing" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestExactFlags:
    """A command-line flag must be spelled out: no prefix of it selects an option."""

    @pytest.mark.parametrize(
        "command, runner",
        [
            (["sweep", "--tau", "0.01"], "run_sweep"),
            (["limit-study", "--eps", "0.5"], "limit_study"),
        ],
        ids=["sweep-tau", "limit-study-eps"],
    )
    def test_unknown_flag_exits_1(self, tmp_path, monkeypatch, capsys, command, runner):
        monkeypatch.setattr(kgz.cli, runner, _fail_if_called)
        code = main([*command, "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "parameter error" in err and command[1] in err
        assert list(tmp_path.iterdir()) == []


class TestConfigFlags:
    def run_config(self, tmp_path, command, config, *flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        return main([command, "--config", str(cfg), *flags])

    @pytest.mark.parametrize(
        "command, config",
        [
            ("solve", {"h": "abc"}),
            ("sweep", {"workers": "x"}),
            ("solve", {"domain": 5}),
            ("sweep", {"eps_list": [[1, 2]]}),
        ],
        ids=["solve-h-text", "sweep-workers-text", "solve-domain-number", "sweep-nested-list"],
    )
    def test_wrong_type_exits_1(self, tmp_path, capsys, command, config):
        code = self.run_config(tmp_path, command, config, "--out", str(tmp_path / "x"))
        assert code == 1
        err = capsys.readouterr().err
        assert "parameter error" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "command, config",
        [("solve", {"nope": 1}), ("sweep", {"h": 0.1}), ("limit-study", {"mode": "spatial"}),
         ("solve", {"command": "sweep"})],
        ids=["solve-nope", "sweep-h", "limit-study-mode", "solve-command"],
    )
    def test_unknown_key_exits_1(self, tmp_path, capsys, command, config):
        code = self.run_config(tmp_path, command, config, "--out", str(tmp_path / "x"))
        assert code == 1
        err = capsys.readouterr().err
        assert "parameter error" in err and "names no option" in err

    @pytest.mark.parametrize("command", ["sweep", "limit-study"])
    def test_bad_eps_list_text_exits_1(self, tmp_path, capsys, command):
        code = self.run_config(tmp_path, command, {"eps_list": "abc"}, "--out", str(tmp_path / "x"))
        assert code == 1
        assert "expected comma-separated numbers, got 'abc'" in capsys.readouterr().err

    def test_domain_list(self, tmp_path):
        code = self.run_config(
            tmp_path, "solve", {"domain": [-5, 5], "eps": 0.5, "h": 0.5, "tau": 0.01, "T": 0.05},
            "--out", str(tmp_path / "dom"),
        )
        assert code == 0
        meta, rows = read_snapshot_csv(str(tmp_path / "dom") + "_t0.05.csv")
        assert meta["domain"] == "(-5, 5)"
        assert rows.shape[0] == 21

    def test_eps_list(self, tmp_path):
        out = tmp_path / "limit.csv"
        code = self.run_config(
            tmp_path, "limit-study", {"eps_list": [0.25]}, "--preset", "gauss_sech",
            "--case", "I", "--h", "0.5", "--tau", "0.05", "--T", "0.25", "--out", str(out),
        )
        assert code == 0
        data = [l for l in out.read_text().splitlines() if l[0].isdigit()]
        assert len(data) == 6 and all(l.startswith("2.50000E-01,") for l in data)

    @pytest.mark.parametrize(
        "config, paper_scale, eps_list",
        [
            ({"paper_scale": True, "eps_list": [1, 0.5]}, True, (1.0, 0.5)),
            ({"paper_scale": False, "eps_list": None}, False, None),
        ],
        ids=["true-and-list", "false-and-null"],
    )
    def test_switch_and_null(self, tmp_path, monkeypatch, config, paper_scale, eps_list):
        specs = []
        monkeypatch.setattr(kgz.cli, "run_sweep", lambda spec: specs.append(spec) or RateTable())
        assert self.run_config(tmp_path, "sweep", config, "--out", str(tmp_path / "x")) == 0
        assert (specs[0].paper_scale, specs[0].eps_list) == (paper_scale, eps_list)


class TestCheck:
    def test_check_passes(self, capsys):
        code = main(["check"])
        assert code == 0
        out = capsys.readouterr().out
        assert "14/14 checks passed" in out
        assert "FAIL" not in out


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "kgz.cli",
                "solve", "--eps", "1.0", "--h", "1.0", "--tau", "0.02",
                "--T", "0.1", "--out", str(tmp_path / "cli"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "solved eps=1" in proc.stdout


class TestLibraryDefaults:
    """The sweep and limit-study defaults live in SweepSpec and limit_study alone."""

    @staticmethod
    def library_defaults(command):
        if command == "sweep":
            fields = dataclasses.fields(SweepSpec)
            return {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
        parameters = inspect.signature(limit_study).parameters.values()
        return {p.name: p.default for p in parameters if p.default is not p.empty}

    @pytest.mark.parametrize("command", ["sweep", "limit-study"])
    def test_cli_restates_no_library_default(self, command):
        library = self.library_defaults(command)
        for key, value in kgz.cli._DEFAULTS[command].items():
            key = "out_path" if key == "out" else key
            assert key not in library or library[key] != value, key

    @pytest.mark.parametrize("command", ["sweep", "limit-study"])
    def test_every_option_names_a_library_input(self, command):
        if command == "sweep":
            library = {f.name for f in dataclasses.fields(SweepSpec)}
        else:
            library = set(inspect.signature(limit_study).parameters)
        (commands,) = [a for a in kgz.cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        options = {a.dest for a in commands.choices[command]._actions} - {"help", "config"}
        assert {"out_path" if o == "out" else o for o in options} <= library

    def test_sweep_spec_from_out_alone(self, monkeypatch):
        specs = []
        monkeypatch.setattr(kgz.cli, "run_sweep", lambda spec: specs.append(spec) or RateTable())
        assert main(["sweep", "--out", "X"]) == 0
        assert specs == [SweepSpec(mode="spatial", out_path="X")]

    def test_limit_study_gets_only_given_options(self, monkeypatch):
        calls = []
        monkeypatch.setattr(kgz.cli, "limit_study", lambda **kw: calls.append(kw))
        assert main(["limit-study", "--out", "X", "--workers", "2"]) == 0
        assert "T" not in calls[0] and calls[0]["workers"] == 2
