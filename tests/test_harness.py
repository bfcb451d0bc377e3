import math
import os
import stat
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

import kgz.harness
import kgz.solver
from kgz import (
    DegenerateProblemError,
    Grid1D,
    IllConditionedError,
    InitialData,
    KgzError,
    KgzParams,
    ParameterError,
    ShapeError,
    Snapshot,
    SweepSpec,
    aligned_tau,
    convergence_rate,
    error_metrics,
    grid_for,
    limit_study,
    make_params,
    read_table,
    reference_solution,
    run,
    run_sweep,
    write_snapshots,
    write_table,
)
from kgz import presets
from kgz.grid import _RUN_NODE_BYTES
from kgz.harness import ErrorRow, FailedRow, RateTable, _solve_task
from kgz.presets import preset_initial_data

PAPER_EPS = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625)
# (h0, tau0, levels, eps_list) of a SweepSpec that gives none of them, per (mode, paper_scale)
SWEEP_DEFAULTS = {
    ("spatial", False): (0.2, 1e-4, 4, (1.0, 0.25, 0.0625)),
    ("spatial", True): (0.2, 1e-5, 6, PAPER_EPS),
    ("temporal", False): (0.005, 0.05, 6, (1.0, 0.0625)),
    ("temporal", True): (2.5e-4, 0.05, 8, PAPER_EPS),
    ("eps_limit", False): (0.05, 1e-3, None, (0.25, 0.125, 0.0625, 0.03125, 0.015625)),
    ("eps_limit", True): (0.05, 1e-3, None, (0.25, 0.125, 0.0625, 0.03125, 0.015625)),
}


class TestAlignedTau:
    def test_already_aligned(self):
        tau, k, adjusted = aligned_tau(1.0, 1e-3)
        assert (tau, k, adjusted) == (1e-3, 1000, False)

    def test_adjusts_down(self):
        tau, k, adjusted = aligned_tau(0.1, 0.03)
        assert adjusted
        assert k == 4
        assert tau == 0.1 / 4

    def test_round_trip_alignment(self):
        # T/ceil then re-check must be stable for awkward divisors
        for k in (3, 7, 640, 9999):
            tau, k2, adjusted = aligned_tau(1.0, 1.0 / k)
            assert not adjusted
            assert k2 == k


class TestGridFor:
    def test_uses_eps_domain(self):
        g = grid_for(0.25, 0.2)
        assert (g.a, g.b) == (-34.0, 34.0)
        assert g.M == 340

    def test_domain_override(self):
        g = grid_for(1.0, 0.5, domain=(-2.0, 2.0))
        assert g.M == 8

    def test_too_coarse(self):
        with pytest.raises(ParameterError):
            grid_for(1.0, 100.0)


class TestReferenceSolution:
    def test_identity_factors(self):
        data = preset_initial_data("gauss_sech")
        params = make_params(1.0, 0.0, -1.0, 1.0, 0.05, 0.2)
        direct = run(params, data, [0.2])[0]
        ref = reference_solution(params, data, refine_space=1, refine_time=1, times=[0.2])[0]
        assert np.array_equal(direct.E, ref.E)
        assert np.array_equal(direct.F, ref.F)
        assert np.array_equal(direct.N, ref.N)

    def test_injection_indices(self):
        data = preset_initial_data("gauss_sech")
        params = make_params(1.0, 0.0, -1.0, 1.0, 0.05, 0.1)
        rs = 4
        fine_params = make_params(1.0, 0.0, -1.0, 1.0 / rs, 0.05, 0.1)
        fine = run(fine_params, data, [0.1])[0]
        ref = reference_solution(params, data, refine_space=rs, refine_time=1, times=[0.1])[0]
        assert np.array_equal(ref.E, fine.E[::rs])
        assert ref.E.shape == (params.grid.M + 1,)

    def test_rejects_non_power_of_two(self):
        data = preset_initial_data("gauss_sech")
        params = make_params(1.0, 0.0, -1.0, 1.0, 0.05, 0.1)
        with pytest.raises(ParameterError):
            reference_solution(params, data, refine_space=3)

    @pytest.mark.slow
    def test_reference_independence(self):
        # errors measured against 4x and 8x references agree within 10%
        data = preset_initial_data("gauss_sech")
        params = make_params(1.0, 0.0, -1.0, 0.2, 1e-3, 0.5)
        grid = params.grid
        num = run(params, data, [0.5])[0]
        errs = []
        for rs in (4, 8):
            ref = reference_solution(params, data, refine_space=rs, refine_time=1, times=[0.5])[0]
            errs.append(error_metrics(num, ref, grid))
        for e4, e8 in zip(errs[0], errs[1]):
            assert abs(e4 - e8) < 0.10 * e8


class TestErrorMetrics:
    def grid(self):
        return Grid1D(0.0, 1.0, 32)

    def mode(self, grid, l=2):
        u = np.sin(np.arange(grid.M + 1) * l * np.pi / grid.M)
        u[0] = u[-1] = 0.0
        return u

    def test_identity(self):
        g = self.grid()
        u = self.mode(g)
        snap = Snapshot(t=1.0, E=u, F=0.1 * u, N=u)
        assert error_metrics(snap, snap, g) == (0.0, 0.0)

    def test_single_mode_perturbation(self):
        g = self.grid()
        u = self.mode(g)
        ref = Snapshot(t=1.0, E=u, F=np.zeros_like(u), N=u)
        num = Snapshot(t=1.0, E=(1.0 + 1e-3) * u, F=np.zeros_like(u), N=u)
        e_err, n_err = error_metrics(num, ref, g)
        assert abs(e_err - 1e-3) <= 1e-6
        assert n_err == 0.0

    def test_zero_reference_degenerate(self):
        g = self.grid()
        z = g.zeros()
        snap = Snapshot(t=0.0, E=z, F=z, N=z)
        with pytest.raises(DegenerateProblemError):
            error_metrics(snap, snap, g)

    def test_shape_or_missing_density(self):
        g = self.grid()
        u = self.mode(g)
        snap = Snapshot(t=1.0, E=u, F=u, N=u)
        for bad in (Snapshot(t=1.0, E=u, F=u, N=None), Snapshot(t=1.0, E=u[:-1], F=u, N=u)):
            with pytest.raises(ShapeError):
                error_metrics(bad, snap, g)
            with pytest.raises(ShapeError):
                error_metrics(snap, bad, g)

    def test_time_mismatch(self):
        g = self.grid()
        u = self.mode(g)
        a = Snapshot(t=1.0, E=u, F=u, N=u)
        b = Snapshot(t=0.5, E=u, F=u, N=u)
        with pytest.raises(Exception):
            error_metrics(a, b, g)


class TestConvergenceRate:
    def test_exact_ratios(self):
        assert convergence_rate(4e-2, 1e-2) == pytest.approx(2.0, rel=1e-12)
        assert convergence_rate(2e-3, 1e-3) == pytest.approx(1.0, rel=1e-12)

    def test_reported_pair(self):
        # the canonical coarse spatial pair reproduces a 1.95 observed order
        assert convergence_rate(1.57e-2, 4.05e-3) == pytest.approx(1.955, abs=5e-3)

    def test_undefined(self):
        assert convergence_rate(0.0, 1e-3) is None
        assert convergence_rate(1e-3, 0.0) is None
        assert convergence_rate(None, 1e-3) is None


class TestTableSerialization:
    def make_table(self):
        rows = [
            ErrorRow(eps=1.0, h=0.2, tau=1e-4, t=1.0, e_err=1.57e-2, n_err=1.91e-2),
            ErrorRow(
                eps=1.0, h=0.1, tau=1e-4, t=1.0, e_err=4.05e-3, n_err=4.79e-3,
                rate_e=math.log2(1.57e-2 / 4.05e-3), rate_n=math.log2(1.91e-2 / 4.79e-3),
            ),
        ]
        return RateTable(
            meta={"mode": "spatial", "preset": "gauss_sech", "case": "II"},
            rows=rows,
            failures=[FailedRow(eps=0.5, h=0.2, tau=1e-4, message="StabilityError: boom")],
        )

    def test_round_trip(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "table.csv"
        write_table(table, str(path))
        again = read_table(str(path))
        assert again == table

    def test_blank_rate_cells(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "table.csv"
        write_table(table, str(path))
        lines = path.read_text().splitlines()
        first_data = next(l for l in lines if not l.startswith("#") and not l.startswith("eps"))
        assert first_data.endswith(",,")  # undefined rates serialize empty

    def test_atomic_write_leaves_no_droppings(self, tmp_path):
        write_table(self.make_table(), str(tmp_path / "t.csv"))
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_failed_rename_leaves_no_droppings(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(kgz.harness.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_table(self.make_table(), str(tmp_path / "t.csv"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_written_file_takes_the_umask_mode(self, tmp_path, umask):
        path = tmp_path / "t.csv"
        path.write_text("old")
        path.chmod(0o600)
        old = os.umask(umask)
        try:
            write_table(self.make_table(), str(path))
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("kind", ["limit", "snapshot", "other"])
    def test_read_table_rejects_other_csv(self, tmp_path, kind):
        path = tmp_path / "x.csv"
        if kind == "limit":
            limit_study("gauss_sech", "I", (0.25,), 0.5, 0.05, T=0.25, out_path=str(path))
        elif kind == "snapshot":
            path = write_snapshots(str(tmp_path / "s"), [_SNAP], _SNAP_PARAMS)[0]
        else:
            path.write_text("# kgz sweep table\na,b\n1,2\n")
        with pytest.raises(ParameterError, match="not a kgz sweep table") as info:
            read_table(str(path))
        assert str(path) in str(info.value)


    @pytest.mark.parametrize(
        "row, detail",
        [
            ("1,0.2,1E-04,1,0.01", "5 cells"),
            ("1,0.2,1E-04,1,0.01,0.02,,,7", "9 cells"),
            ("1,0.2,x,1,0.01,0.02,,", "could not convert"),
            ("1,0.2,1E-04,1,,0.02,,", "NoneType"),
            ("1,0.2,1E-04,1,-0.01,0.02,,", "e_err must be finite"),
            ("1,y,1E-04,,ERROR,ERROR,,", "could not convert"),
        ],
        ids=["short", "long", "text", "empty-error", "negative-error", "failed-text"],
    )
    def test_read_table_names_malformed_line(self, tmp_path, row, detail):
        path = tmp_path / "t.csv"
        header = "eps,h,tau,t,e_err,n_err,rate_e,rate_n"
        path.write_text(f"# kgz sweep table\n# mode=spatial\n{header}\n{row}\n")
        with pytest.raises(ParameterError, match=detail) as info:
            read_table(str(path))
        assert f"{path}, line 4: " in str(info.value)


_SNAP = Snapshot(
    t=0.05, E=np.array([0.0, 0.5, 0.0]), F=np.array([0.0, -0.25, 0.0]),
    N=np.array([0.0, 1.0 / 3, 0.0]),
)
_SNAP_PARAMS = KgzParams(eps=0.5, alpha=1.0, beta=0.0, grid=Grid1D(0, 1, 2), tau=0.01, T=0.1)


class TestCsvLayout:
    """The exact text of each CSV writer, pinned from hand-built inputs."""

    def test_rate_table(self, tmp_path):
        table = RateTable(
            meta={"mode": "spatial"},
            rows=[ErrorRow(eps=1.0, h=0.2, tau=1e-4, t=1.0, e_err=1.57e-2, n_err=1.91e-2,
                           rate_e=2.0)],
            failures=[FailedRow(eps=0.5, h=0.2, tau=1e-4, message="StabilityError: boom")],
        )
        path = tmp_path / "t.csv"
        write_table(table, str(path))
        assert path.read_text() == (
            "# kgz sweep table\n"
            "# mode=spatial\n"
            "# failed eps=5.00000E-01 h=2.00000E-01 tau=1.00000E-04 StabilityError: boom\n"
            "eps,h,tau,t,e_err,n_err,rate_e,rate_n\n"
            "1.00000E+00,2.00000E-01,1.00000E-04,1.00000E+00,1.57000E-02,1.91000E-02,"
            "2.00000E+00,\n"
            "5.00000E-01,2.00000E-01,1.00000E-04,,ERROR,ERROR,,\n"
        )

    def test_snapshot(self, tmp_path):
        paths = write_snapshots(str(tmp_path / "s"), [_SNAP], _SNAP_PARAMS)
        assert paths == [str(tmp_path / "s_t0.05.csv")]
        with open(paths[0]) as fh:
            assert fh.read() == (
                "# kgz solve snapshot\n"
                "# eps=0.5\n"
                "# alpha=1\n"
                "# beta=0\n"
                "# domain=(0, 1)\n"
                "# h=0.5\n"
                "# tau=0.01\n"
                "# t=0.050000000000000003\n"
                "x,E,F,N\n"
                "0.00000E+00,0.00000E+00,0.00000E+00,0.00000E+00\n"
                "5.00000E-01,5.00000E-01,-2.50000E-01,3.33333E-01\n"
                "1.00000E+00,0.00000E+00,0.00000E+00,0.00000E+00\n"
            )

    def test_snapshot_times_sharing_a_name_write_nothing(self, tmp_path):
        snaps = [_SNAP._replace(t=1.000001), _SNAP._replace(t=1.000002)]
        with pytest.raises(ParameterError) as info:
            write_snapshots(str(tmp_path / "s"), snaps, _SNAP_PARAMS)
        assert "1.000001" in str(info.value) and "1.000002" in str(info.value)
        assert list(tmp_path.iterdir()) == []

    def test_equal_snapshot_times_share_a_file(self, tmp_path):
        paths = write_snapshots(str(tmp_path / "s"), [_SNAP, _SNAP], _SNAP_PARAMS)
        assert paths == [str(tmp_path / "s_t0.05.csv")] * 2

    def test_limit_study_head(self, tmp_path):
        path = tmp_path / "l.csv"
        limit_study("gauss_sech", "I", (0.25, 0.125), 0.5, 0.05, T=0.25, out_path=str(path))
        lines = path.read_text().splitlines()
        assert lines[:10] == [
            "# kgz limit study",
            "# preset=gauss_sech",
            "# case=I",
            "# alpha=1",
            "# beta=0",
            "# h=0.5",
            "# tau=0.050000000000000003",
            "# T=0.25",
            "# eta_slope=0.646244",
            "eps,t,eta_2,eta_inf,eta_e",
        ]
        # one row per eps and time level, largest eps first
        assert len(lines) == 10 + 2 * 6
        assert lines[10].startswith("2.50000E-01,0.00000E+00,")
        assert lines[16].startswith("1.25000E-01,0.00000E+00,")


class TestRunSweep:
    def tiny_spec(self, tmp_path, name="sweep.csv"):
        return SweepSpec(
            mode="spatial",
            preset="gauss_sech",
            case="II",
            eps_list=(1.0,),
            h0=0.4,
            tau0=2.5e-3,
            levels=2,
            T=0.05,
            out_path=str(tmp_path / name),
            refine_space=4,
        )

    def test_minimal_shape(self, tmp_path):
        table = run_sweep(self.tiny_spec(tmp_path))
        assert len(table.rows) == 2
        assert table.rows[0].rate_e is None
        assert table.rows[1].rate_e is not None
        assert table.failures == []

    def test_rows_ordered_and_deterministic(self, tmp_path):
        spec = self.tiny_spec(tmp_path, "a.csv")
        t1 = run_sweep(spec)
        t2 = run_sweep(self.tiny_spec(tmp_path, "b.csv"))
        assert t1 == t2
        a = (tmp_path / "a.csv").read_bytes()
        b = (tmp_path / "b.csv").read_bytes()
        assert a == b
        hs = [r.h for r in t1.rows]
        assert hs == sorted(hs, reverse=True)

    def test_csv_matches_returned_table(self, tmp_path):
        spec = self.tiny_spec(tmp_path)
        table = run_sweep(spec)
        assert read_table(spec.out_path) == table

    def test_eps_limit_mode(self, tmp_path):
        spec = SweepSpec(
            mode="eps_limit",
            preset="gauss_sech",
            case="I",
            eps_list=(0.25, 0.125),
            h0=0.5,
            tau0=0.05,
            levels=2,
            T=0.25,
            out_path=str(tmp_path / "limit.csv"),
        )
        table = run_sweep(spec)
        assert len(table.rows) == 2
        assert all(r.rate_e is None and r.rate_n is None for r in table.rows)
        assert "eta_slope" in table.meta
        assert read_table(spec.out_path) == table

    def test_non_finite_error_records_failed_row(self, tmp_path, monkeypatch):
        real = kgz.harness._run_tasks

        def nan_first_level(tasks, workers):
            results = real(tasks, workers)
            results[0] = dict(results[0], E=np.full_like(results[0]["E"], np.nan))
            return results

        monkeypatch.setattr(kgz.harness, "_run_tasks", nan_first_level)
        table = run_sweep(self.tiny_spec(tmp_path))
        assert len(table.failures) == 1
        assert "must be finite" in table.failures[0].message
        assert len(table.rows) == 1 and table.rows[0].rate_e is None

    def test_eps_limit_non_finite_metric_records_failed_row(self, tmp_path, monkeypatch):
        real = kgz.harness._run_tasks

        def nan_metric(tasks, workers):
            results = real(tasks, workers)
            results[0] = dict(results[0], max_eta_e=float("nan"))
            return results

        monkeypatch.setattr(kgz.harness, "_run_tasks", nan_metric)
        spec = SweepSpec(
            mode="eps_limit", preset="gauss_sech", case="I", eps_list=(0.25, 0.125),
            h0=0.5, tau0=0.05, levels=2, T=0.25,
        )
        table = run_sweep(spec)
        assert [f.eps for f in table.failures] == [0.25]
        assert [r.eps for r in table.rows] == [0.125]

    def test_limit_study_non_finite_metric_raises_and_writes_nothing(self, tmp_path, monkeypatch):
        real = kgz.harness._run_tasks

        def nan_metric(tasks, workers):
            results = real(tasks, workers)
            results[0] = dict(results[0], max_eta_e=float("nan"))
            return results

        monkeypatch.setattr(kgz.harness, "_run_tasks", nan_metric)
        out = tmp_path / "limit.csv"
        with pytest.raises(KgzError, match=r"eps=0\.25: ParameterError: e_err must be finite"):
            limit_study("gauss_sech", "I", (0.25, 0.125), 0.5, 0.05, T=0.25, out_path=str(out))
        assert not out.exists()

    def test_eps_limit_zero_metric_records_failed_row(self, tmp_path, monkeypatch):
        real = kgz.harness._run_tasks

        def zero_metric(tasks, workers):
            results = real(tasks, workers)
            results[0] = dict(results[0], max_eta_e=0.0)
            return results

        monkeypatch.setattr(kgz.harness, "_run_tasks", zero_metric)
        spec = SweepSpec(
            mode="eps_limit", preset="gauss_sech", case="I", eps_list=(0.25, 0.125),
            h0=0.5, tau0=0.05, levels=2, T=0.25,
        )
        table = run_sweep(spec)
        assert [f.eps for f in table.failures] == [0.25]
        assert table.failures[0].message.startswith("DegenerateProblemError: max_eta_e is 0.0")
        assert [r.eps for r in table.rows] == [0.125]
        assert "eta_slope" not in table.meta

    def test_limit_study_zero_metric_raises_and_writes_nothing(self, tmp_path, monkeypatch):
        real = kgz.harness._run_tasks

        def zero_metric(tasks, workers):
            results = real(tasks, workers)
            results[0] = dict(results[0], max_eta_e=0.0)
            return results

        monkeypatch.setattr(kgz.harness, "_run_tasks", zero_metric)
        out = tmp_path / "limit.csv"
        with pytest.raises(KgzError, match=r"eps=0\.25: DegenerateProblemError: max_eta_e is 0\.0"):
            limit_study("gauss_sech", "I", (0.25, 0.125), 0.5, 0.05, T=0.25, out_path=str(out))
        assert not out.exists()

    def test_limit_study_defaults_are_the_sweep_table(self, monkeypatch):
        submitted = []

        class Submitted(Exception):
            pass

        def capture(tasks, workers):
            submitted.extend(tasks)
            raise Submitted

        monkeypatch.setattr(kgz.harness, "_run_tasks", capture)
        with pytest.raises(Submitted):
            limit_study("bump", "custom", alpha=0.0, beta=0.0)
        defaults = kgz.harness._SWEEP_DEFAULTS[("eps_limit", False)]
        base = {"preset": "bump", "alpha": 0.0, "beta": 0.0, "h": defaults["h0"],
                "tau": defaults["tau0"], "T": 1.0, "kind": "limit"}
        eps_list = sorted(defaults["eps_list"], reverse=True)
        assert submitted == [dict(base, eps=eps) for eps in eps_list]

    def test_sweep_slope_is_the_study_slope(self):
        inputs = dict(preset="gauss_sech", case="I", eps_list=(0.25, 0.125, 0.0625), T=0.25)
        slope = limit_study(**inputs, h=0.5, tau=0.05)
        table = run_sweep(SweepSpec(mode="eps_limit", **inputs, h0=0.5, tau0=0.05))
        assert table.meta["eta_slope"] == f"{slope:.5E}"

    @pytest.mark.parametrize("mode, paper_scale", list(SWEEP_DEFAULTS))
    def test_defaults(self, mode, paper_scale):
        spec = SweepSpec(mode=mode, paper_scale=paper_scale).resolved()
        got = (spec.h0, spec.tau0, spec.levels, spec.eps_list)
        assert got == SWEEP_DEFAULTS[mode, paper_scale]

    @pytest.mark.parametrize("mode, paper_scale", list(SWEEP_DEFAULTS))
    @pytest.mark.parametrize("name, value", [("h0", 0.3), ("tau0", 0.02), ("levels", 3),
                                             ("eps_list", (0.5,))])
    def test_explicit_value_wins(self, mode, paper_scale, name, value):
        spec = SweepSpec(mode=mode, paper_scale=paper_scale, **{name: value}).resolved()
        defaults = dict(zip(("h0", "tau0", "levels", "eps_list"), SWEEP_DEFAULTS[mode, paper_scale]))
        assert {key: getattr(spec, key) for key in defaults} == {**defaults, name: value}

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            SweepSpec(mode="bogus").resolved()
        with pytest.raises(ParameterError):
            SweepSpec(mode="spatial", levels=1).resolved()
        with pytest.raises(ParameterError):
            SweepSpec(mode="spatial", eps_list=(2.0,)).resolved()
        with pytest.raises(ParameterError, match="refine_space"):
            SweepSpec(mode="spatial", refine_space=3).resolved()
        # rejected before any task runs, not as one failed row per level
        with pytest.raises(ParameterError, match="refine_time"):
            run_sweep(
                SweepSpec(mode="temporal", case="I", eps_list=(1.0,), h0=0.5, tau0=0.05,
                          levels=2, T=0.1, refine_time=3)
            )

    def test_levels_checked_only_where_levels_run(self):
        assert SweepSpec(mode="eps_limit", levels=1).resolved().levels == 1
        for mode in ("spatial", "temporal"):
            with pytest.raises(ParameterError, match="levels"):
                SweepSpec(mode=mode, levels=1).resolved()

    @pytest.mark.parametrize(
        "change",
        [{"levels": 2.5}, {"refine_space": 2.0}, {"refine_time": 4.5}, {"workers": 0},
         {"workers": -3}, {"workers": 1.5}],
        ids=["levels", "refine_space", "refine_time", "workers-0", "workers-negative",
             "workers-fraction"],
    )
    def test_counts_must_be_integers(self, change):
        (name,) = change
        with pytest.raises(ParameterError, match=name):
            SweepSpec(mode="temporal", **change).resolved()
        spec = SweepSpec(mode="temporal", case="I", eps_list=(1.0,), h0=0.5, tau0=0.05,
                         levels=2, T=0.1)
        with pytest.raises(ParameterError, match=name):
            run_sweep(replace(spec, **change))

    @pytest.mark.parametrize("workers", [0, -3, 1.5])
    def test_limit_study_workers(self, tmp_path, workers):
        out = tmp_path / "x.csv"
        with pytest.raises(ParameterError, match="workers"):
            limit_study("gauss_sech", "I", (0.25,), 0.5, 0.05, T=0.25, out_path=str(out),
                        workers=workers)
        assert not out.exists()

    def test_spatial_levels_refine_the_coarsest_grid(self):
        # h0 = 0.3094 does not divide the domain length 62: the levels must
        # still halve exactly so the reference restricts onto their nodes
        table = run_sweep(
            SweepSpec(mode="spatial", case="II", eps_list=(1.0,), h0=0.3094, tau0=0.02,
                      levels=2, T=0.04)
        )
        assert table.failures == []
        coarse, fine = table.rows
        assert fine.h == coarse.h / 2
        assert 1.5 <= fine.rate_e <= 2.5

    def test_worker_pool_matches_serial(self, tmp_path):
        from dataclasses import replace

        serial = run_sweep(self.tiny_spec(tmp_path, "serial.csv"))
        parallel_spec = replace(self.tiny_spec(tmp_path, "parallel.csv"), workers=2)
        parallel = run_sweep(parallel_spec)
        assert serial.rows == parallel.rows
        assert (tmp_path / "serial.csv").read_text() == (
            tmp_path / "parallel.csv"
        ).read_text()


def _submitted_tasks(monkeypatch, spec):
    """The tasks ``run_sweep(spec)`` hands to ``_run_tasks``, none of them run."""
    submitted = []

    class Submitted(Exception):
        pass

    def capture(tasks, workers):
        submitted.extend(tasks)
        raise Submitted

    monkeypatch.setattr(kgz.harness, "_run_tasks", capture)
    with pytest.raises(Submitted):
        run_sweep(spec)
    return submitted


class TestTaskList:
    """The task list of each sweep mode, pinned literally: per eps, largest first."""

    def test_spatial(self, monkeypatch):
        # h0 = 0.3 divides neither domain: (-31, 31) has 207 cells, (-34, 34) 227
        spec = SweepSpec(mode="spatial", case="I", eps_list=(0.25, 1.0), h0=0.3, tau0=0.05,
                         levels=3, T=0.1)
        base = {"preset": "gauss_sech", "alpha": 1.0, "beta": 0.0, "T": 0.1, "tau": 0.05}
        ref = {"kind": "reference", "refine_space": 8, "refine_time": 1}
        assert _submitted_tasks(monkeypatch, spec) == [
            dict(base, eps=1.0, kind="final", h=0.2995169082125604),
            dict(base, eps=1.0, kind="final", h=0.1497584541062802),
            dict(base, eps=1.0, kind="final", h=0.0748792270531401),
            dict(base, eps=1.0, h=0.0748792270531401, **ref),
            dict(base, eps=0.25, kind="final", h=0.29955947136563876),
            dict(base, eps=0.25, kind="final", h=0.14977973568281938),
            dict(base, eps=0.25, kind="final", h=0.07488986784140969),
            dict(base, eps=0.25, h=0.07488986784140969, **ref),
        ]

    def test_temporal_adjusted_tau(self, monkeypatch):
        # tau0 = 0.03 does not divide T = 0.1: the sweep steps with 0.025
        spec = SweepSpec(mode="temporal", case="II", eps_list=(1.0,), h0=0.3, tau0=0.03,
                         levels=2, T=0.1, refine_time=4)
        base = {"preset": "gauss_sech", "alpha": 0.0, "beta": -1.0, "eps": 1.0, "T": 0.1,
                "h": 0.2995169082125604}
        assert _submitted_tasks(monkeypatch, spec) == [
            dict(base, kind="final", tau=0.025),
            dict(base, kind="final", tau=0.0125),
            dict(base, kind="reference", tau=0.0125, refine_space=1, refine_time=4),
        ]

    def test_eps_limit(self, monkeypatch):
        spec = SweepSpec(mode="eps_limit", case="I", eps_list=(0.125, 0.25), h0=0.5, tau0=0.05,
                         T=0.25)
        base = {"preset": "gauss_sech", "alpha": 1.0, "beta": 0.0, "h": 0.5, "tau": 0.05,
                "T": 0.25, "kind": "limit"}
        assert _submitted_tasks(monkeypatch, spec) == [dict(base, eps=0.25), dict(base, eps=0.125)]


def _no_task_runs(tasks, workers):
    raise AssertionError(f"{len(tasks)} tasks reached the runner")


class TestUnknownPreset:
    """An unknown preset fails the plan, before any task starts."""

    @pytest.mark.parametrize("mode", ["spatial", "temporal", "eps_limit"])
    def test_run_sweep(self, monkeypatch, mode):
        monkeypatch.setattr(kgz.harness, "_run_tasks", _no_task_runs)
        spec = SweepSpec(mode=mode, preset="nope", case="I", eps_list=(1.0,), h0=0.5,
                         tau0=0.05, levels=2, T=0.25, workers=2)
        with pytest.raises(ParameterError, match="unknown preset 'nope'"):
            run_sweep(spec)

    def test_limit_study(self, monkeypatch, tmp_path):
        monkeypatch.setattr(kgz.harness, "_run_tasks", _no_task_runs)
        out = tmp_path / "limit.csv"
        with pytest.raises(ParameterError, match="unknown preset 'nope'"):
            limit_study("nope", "I", eps_list=(0.25,), h=0.5, tau=0.05, T=0.25, out_path=str(out))
        assert not out.exists()


def _zero(x):
    return np.zeros_like(x)


def _limit_blow_up():
    # run alone with eps = 0.5, h = 0.25, tau = 0.25, the limit model loses
    # diagonal dominance in the step from k = 5, the coupled one from k = 7
    return InitialData(E0=lambda x: 2.0 * np.exp(-(x**2)), E1=_zero, omega0=_zero, omega1=_zero)


def _limit_task(preset):
    """The one limit task of eps = 0.5, case I, h = 0.25, tau = 0.25 and T = 2."""
    return {"preset": preset, "alpha": 1.0, "beta": 0.0, "eps": 0.5, "h": 0.25, "tau": 0.25,
            "T": 2.0, "kind": "limit"}


class TestLimitTaskFailure:
    """A blow-up in the lockstep march fails the eps-limit task, whichever model it hits."""

    @pytest.fixture(params=["limit", "coupled"])
    def failing(self, request, monkeypatch):
        """(preset, the step and time the failure must report)."""
        if request.param == "limit":
            monkeypatch.setitem(presets._PRESETS, "blow_up", _limit_blow_up)
            return "blow_up", "k=5, t=1.25"

        def broken_density(*args):
            raise IllConditionedError("injected density failure")

        # only the coupled model solves for the density
        monkeypatch.setattr(kgz.solver, "_solve_density", broken_density)
        return "gauss_sech", "k=1, t=0.25"

    def test_task_reports_step_and_time(self, failing):
        preset, where = failing
        task = _limit_task(preset)
        result = _solve_task(task)
        assert result["ok"] is False
        assert where in result["message"]

    def test_sweep_records_failed_row(self, failing):
        preset, where = failing
        spec = SweepSpec(mode="eps_limit", preset=preset, case="I", eps_list=(0.5,),
                         h0=0.25, tau0=0.25, T=2.0)
        table = run_sweep(spec)
        assert table.rows == []
        assert [f.eps for f in table.failures] == [0.5]
        assert where in table.failures[0].message


@pytest.fixture
def recording_pool(monkeypatch):
    """Stand in for the process pool: run each task when it is submitted, and record it."""
    submitted = []

    class Pool:
        def __init__(self, max_workers):
            assert max_workers == 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            submitted.append((fn, task))
            future = Future()
            future.set_result(fn(task))
            return future

    monkeypatch.setattr(kgz.harness, "ProcessPoolExecutor", Pool)
    return submitted


class TestPoolOrder:
    """With workers > 1 the pool gets the largest task first; results stay in task order."""

    def test_largest_work_first_results_in_task_order(self, recording_pool, monkeypatch):
        def by_id(task):
            return {"ok": True, "id": task["id"]}

        # read from the module at submit time, as a wrapped entry point must be
        monkeypatch.setattr(kgz.harness, "_solve_task", by_id)
        base = {"preset": "gauss_sech", "alpha": 1.0, "beta": 0.0, "eps": 1.0, "T": 0.1}
        # eps = 1 spans (-31, 31): h = 0.5 is M = 124, h = 0.25 is M = 248
        tasks = [
            dict(base, id=0, kind="final", h=0.5, tau=0.05),  # 2 steps x 123 nodes
            dict(base, id=1, kind="final", h=0.5, tau=0.025),  # 4 x 123
            dict(base, id=2, kind="reference", h=0.5, tau=0.025, refine_space=1,
                 refine_time=4),  # 16 x 123
            dict(base, id=3, kind="final", h=0.25, tau=0.05),  # 2 x 247
            dict(base, id=4, kind="reference", h=0.5, tau=0.05, refine_space=2,
                 refine_time=1),  # 2 x 247, a tie kept in task order
        ]
        results = kgz.harness._run_tasks(tasks, 2)
        assert [task["id"] for _, task in recording_pool] == [2, 3, 4, 1, 0]
        assert all(fn is by_id for fn, _ in recording_pool)
        assert [r["id"] for r in results] == [0, 1, 2, 3, 4]

    def test_failed_task_keeps_its_index(self, recording_pool, monkeypatch):
        monkeypatch.setitem(presets._PRESETS, "blow_up", _limit_blow_up)
        base = {"preset": "gauss_sech", "alpha": 1.0, "beta": 0.0, "eps": 0.5, "T": 0.1}
        failing = _limit_task("blow_up")
        tasks = [
            dict(base, kind="final", h=0.5, tau=0.05),
            failing,  # 8 steps x 255 nodes, fails in the step from k = 5
            dict(base, kind="final", h=0.25, tau=0.01),  # 10 x 255, the largest
        ]
        results = kgz.harness._run_tasks(tasks, 2)
        assert [task for _, task in recording_pool] == [tasks[2], tasks[1], tasks[0]]
        assert [r["ok"] for r in results] == [True, False, True]
        assert "k=5, t=1.25" in results[1]["message"]
        serial = kgz.harness._run_tasks(tasks, 1)
        for got, want in zip(results, serial):
            assert got.keys() == want.keys()
            for key in got:
                assert np.array_equal(got[key], want[key])


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stand in for the process pool and record the size of each pool built; no process starts."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            future = Future()
            future.set_result(fn(task))
            return future

    monkeypatch.setattr(kgz.harness, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(kgz.harness, "_solve_task", lambda task: {"ok": True, "id": task["id"]})
    return sizes


class TestPoolSize:
    """One number sizes the pool: ``workers``, but no more processes than tasks."""

    TASK = {"preset": "gauss_sech", "alpha": 1.0, "beta": 0.0, "eps": 1.0, "T": 0.1,
            "kind": "final", "h": 0.5, "tau": 0.05}

    def test_no_larger_than_the_task_list(self, pool_sizes):
        results = kgz.harness._run_tasks([dict(self.TASK, id=i) for i in range(3)], 64)
        assert pool_sizes == [3]
        assert [r["id"] for r in results] == [0, 1, 2]

    def test_one_task_builds_no_pool(self, pool_sizes):
        assert kgz.harness._run_tasks([dict(self.TASK, id=0)], 4) == [{"ok": True, "id": 0}]
        assert pool_sizes == []


class TestPoolMemory:
    """The runs a pool holds at once must fit in physical memory together."""

    MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")

    def spec(self, workers):
        # two levels refined 8x in space: each reference has 16 M0 cells, with
        # M0 = 64 / h0 at eps 1/2 and 62 / h0 at eps 1; h0 sizes the larger run
        # at 0.6 of physical memory, so each fits alone but the two do not
        h0 = 16 * 64 * _RUN_NODE_BYTES / (0.6 * self.MEMORY)
        return SweepSpec(mode="spatial", case="I", eps_list=(1.0, 0.5), h0=h0, tau0=0.05,
                         levels=2, T=0.1, workers=workers)

    def test_two_runs_at_once_beyond_memory_fail_the_plan(self, monkeypatch):
        monkeypatch.setattr(kgz.harness, "_run_tasks", _no_task_runs)
        with pytest.raises(ParameterError,
                           match="workers=2: the 2 largest runs at once need .* physical memory"):
            run_sweep(self.spec(workers=2))

    def test_one_run_at_a_time_reaches_the_runner(self, monkeypatch):
        # two levels and a reference per eps
        assert len(_submitted_tasks(monkeypatch, self.spec(workers=1))) == 6
