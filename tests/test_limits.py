import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kgz import (
    Grid1D,
    InitialData,
    KgzParams,
    KgzState,
    ParameterError,
    ShapeError,
    Trajectory,
    build_layer,
    first_state,
    first_state_kg,
    grid_norms,
    kg_energy,
    limit_metrics,
    step,
    step_back,
    trajectory,
    trajectory_kg,
)
import kgz.limits
from kgz.checks import whole_trajectory_limit
from kgz.harness import _limit_summary, make_params
from kgz.limits import _time_derivatives
from kgz.presets import preset_initial_data


def zero_fn(x):
    return np.zeros_like(x)


ZERO_DATA = InitialData(E0=zero_fn, E1=zero_fn, omega0=zero_fn, omega1=zero_fn)


def toy_params(eps=0.5, M=48, tau=0.01, T=1.0, span=6.0, alpha=1.0, beta=0.0):
    return KgzParams(
        eps=eps, alpha=alpha, beta=beta, grid=Grid1D(-span, span, M), tau=tau, T=T
    )


class TestFirstState:
    def test_zero_data(self):
        params = toy_params()
        layer = build_layer(params, ZERO_DATA)
        state = first_state_kg(params, ZERO_DATA, layer)
        assert np.all(state.E_prev == 0.0)
        assert np.all(state.E_curr == 0.0)

    def test_matches_coupled_field_part(self):
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.3, M=64)
        layer = build_layer(params, data)
        coupled = first_state(params, data, layer)
        limit = first_state_kg(params, data, layer)
        assert np.array_equal(limit.E_prev, coupled.E_prev)
        assert np.array_equal(limit.E_curr, coupled.E_curr)

    def test_potential_shifts_start_by_known_amount(self):
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.25, M=64, tau=0.02, alpha=1.0, beta=0.0)
        layer = build_layer(params, data)
        with_pot = first_state_kg(params, data, layer)
        plain = first_state_kg(params, data, None)
        E0, _, w0, _ = data.sample(params.grid)
        expected = 0.5 * params.tau**2 * params.eps**params.alpha * w0 * E0
        expected[0] = expected[-1] = 0.0
        diff = plain.E_curr - with_pot.E_curr
        assert np.max(np.abs(diff - expected)) <= 1e-15

    @pytest.mark.parametrize("start", [first_state_kg, trajectory_kg])
    @pytest.mark.parametrize(
        "change", [{"grid": Grid1D(-8.0, 8.0, 48)}, {"eps": 0.125}, {"alpha": 0.0}, {"beta": -1.0}],
        ids=["grid", "eps", "alpha", "beta"],
    )
    def test_rejects_layer_built_for_another_run(self, start, change):
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.5, M=48, tau=0.01, T=0.1, alpha=1.0, beta=0.0)
        layer = build_layer(replace(params, **change), data)
        if "grid" in change:
            with pytest.raises(ShapeError, match="different grids"):
                start(params, data, layer)
            return
        (name,) = change
        with pytest.raises(ParameterError) as excinfo:
            start(params, data, layer)
        for value in (getattr(layer, name), getattr(params, name)):
            assert f"{name}={value}" in str(excinfo.value)


class TestStep:
    def test_zero_fixed_point(self):
        params = toy_params()
        layer = build_layer(params, ZERO_DATA)
        state = first_state_kg(params, ZERO_DATA, layer)
        for _ in range(5):
            state = step(state, params, layer)
            assert np.all(state.E_curr == 0.0)

    def test_tiny_amplitude_linear_oracle(self):
        # with a 1e-8 amplitude the cubic term sits far below the checked
        # tolerance, so a dense solve of the linear model must agree
        grid = Grid1D(-2.0, 2.0, 20)
        params = KgzParams(eps=1.0, alpha=0.0, beta=0.0, grid=grid, tau=0.01, T=1.0)
        x = grid.nodes
        amp = 1e-8
        bump = amp * np.exp(-(x**2)) * np.sin(np.pi * x / 2.0)
        bump[0] = bump[-1] = 0.0
        state = KgzState(k=1, t_k=0.01, E_prev=bump.copy(), E_curr=bump.copy())
        out = step(state, params, None)
        n = grid.M - 1
        h, tau = grid.h, params.tau
        A = np.zeros((n, n))
        rhs = np.zeros(n)
        for j in range(1, grid.M):
            i = j - 1
            A[i, i] = 1.0 / tau**2 + 0.5 + 1.0 / h**2
            if i > 0:
                A[i, i - 1] = -0.5 / h**2
            if i < n - 1:
                A[i, i + 1] = -0.5 / h**2
            lap = (bump[j + 1] - 2 * bump[j] + bump[j - 1]) / h**2
            rhs[i] = bump[j] / tau**2 + 0.5 * (lap - bump[j])
        expected = np.linalg.solve(A, rhs)
        assert np.max(np.abs(out.E_curr[1:-1] - expected)) <= 1e-10 * amp

    def test_round_trip(self):
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.4, M=48, tau=0.02)
        layer = build_layer(params, data)
        state = first_state_kg(params, data, layer)
        for _ in range(6):
            state = step(state, params, layer)
        back = step_back(step(state, params, layer), params, layer)
        scale = np.max(np.abs(state.E_prev))
        assert np.max(np.abs(back.E_prev - state.E_prev)) <= 1e-10 * scale

    def test_coupled_step_with_zero_density_is_the_limit_step(self):
        # the limit model is the coupled stencil with F = 0, in both directions
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.3, M=64, tau=0.02)
        layer = build_layer(params, data)
        state = first_state_kg(params, data, layer)
        for _ in range(3):
            state = step(state, params, layer)
        zeros = params.grid.zeros()
        coupled = KgzState(k=state.k, t_k=state.t_k, E_prev=state.E_prev, E_curr=state.E_curr,
                           F_prev=zeros, F_curr=zeros)
        assert np.array_equal(step(coupled, params, layer).E_curr, step(state, params, layer).E_curr)
        back, back_kg = step_back(coupled, params, layer), step_back(state, params, layer)
        assert np.array_equal(back.E_prev, back_kg.E_prev)

    def test_no_incompatibility_matches_plain_kg(self):
        # zero omegas make the potential identically zero
        data = InitialData(
            E0=lambda x: np.exp(-(x**2)) * np.sin(x),
            E1=lambda x: np.exp(-(x**2)) * np.cos(x),
            omega0=zero_fn,
            omega1=zero_fn,
        )
        params = toy_params(eps=0.3, M=40, tau=0.02, T=0.3)
        layer = build_layer(params, data)
        with_pot = trajectory_kg(params, data, layer)
        plain = trajectory_kg(params, data, None)
        assert np.array_equal(with_pot.E, plain.E)


class TestLimitMetrics:
    def test_identical_trajectories(self):
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.5, M=32, tau=0.05, T=0.5)
        layer = build_layer(params, data)
        coupled = trajectory(params, data)
        twin = Trajectory(eps=coupled.eps, times=coupled.times, E=coupled.E.copy())
        metrics = limit_metrics(coupled, twin, params.grid, params.tau)
        assert np.all(metrics.eta_e == 0.0)

    def test_equals_level_by_level_norms(self):
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.25, M=32, tau=0.05, T=0.5)
        coupled = trajectory(params, data)
        limit = trajectory_kg(params, data, build_layer(params, data))
        metrics = limit_metrics(coupled, limit, params.grid, params.tau)
        dF, ddF = _time_derivatives(coupled.F, params.tau)
        for k in range(coupled.F.shape[0]):
            nF, ndF, nddF = (grid_norms(v[k], params.grid) for v in (coupled.F, dF, ddF))
            diff = grid_norms(coupled.E[k] - limit.E[k], params.grid)
            assert metrics.eta_2[k] == nF.l2 / params.eps + ndF.l2 + nddF.l2
            assert metrics.eta_inf[k] == nF.inf / params.eps + ndF.inf + nddF.inf
            assert metrics.eta_e[k] == diff.l2 + diff.h1_semi
        assert np.max(metrics.eta_e) > 0.0 and np.max(metrics.eta_2) > 0.0

    def test_zero_density_component(self):
        params = toy_params(tau=0.05, T=0.5)
        layer = build_layer(params, ZERO_DATA)
        coupled = trajectory(params, ZERO_DATA)
        twin = Trajectory(eps=coupled.eps, times=coupled.times, E=coupled.E.copy())
        metrics = limit_metrics(coupled, twin, params.grid, params.tau)
        assert np.all(metrics.eta_2 == 0.0)
        assert np.all(metrics.eta_inf == 0.0)

    def test_synthetic_closed_form(self):
        # F = eps sin(t) phi(x) gives eta_2 = |sin| ||phi|| + eps(|cos| + |sin|) ||phi||
        grid = Grid1D(0.0, 1.0, 16)
        eps, tau, K = 0.25, 0.01, 60
        x = grid.nodes
        phi = np.sin(np.pi * x)
        phi[0] = phi[-1] = 0.0
        times = np.arange(K + 1) * tau
        F = eps * np.sin(times)[:, None] * phi[None, :]
        E = np.zeros_like(F)
        coupled = Trajectory(eps=eps, times=times, E=E, F=F)
        twin = Trajectory(eps=eps, times=times, E=E.copy())
        metrics = limit_metrics(coupled, twin, grid, tau)
        norms = grid_norms(phi, grid)
        for k in range(2, K - 1):
            t = times[k]
            expected_2 = (
                abs(np.sin(t)) * norms.l2
                + eps * abs(np.cos(t)) * norms.l2
                + eps * abs(np.sin(t)) * norms.l2
            )
            assert abs(metrics.eta_2[k] - expected_2) <= 5e-4 * max(expected_2, 1e-30)
            expected_inf = (
                abs(np.sin(t)) * norms.inf
                + eps * abs(np.cos(t)) * norms.inf
                + eps * abs(np.sin(t)) * norms.inf
            )
            assert abs(metrics.eta_inf[k] - expected_inf) <= 5e-4 * max(expected_inf, 1e-30)

    def test_shape_guards(self):
        grid = Grid1D(0.0, 1.0, 8)
        times = np.arange(5) * 0.1
        traj = Trajectory(eps=0.5, times=times, E=np.zeros((5, 9)), F=np.zeros((5, 9)))
        short = Trajectory(eps=0.5, times=times[:-1], E=np.zeros((4, 9)))
        with pytest.raises(ShapeError):
            limit_metrics(traj, short, grid, 0.1)


def assert_same_curves(got, want):
    for name in ("times", "eta_2", "eta_inf", "eta_e", "f_l2"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestLockstep:
    """The streamed eps-limit task against the whole-trajectory path, bit for bit."""

    def assert_summary_matches(self, params, data, ref):
        summary = _limit_summary(params, data)
        assert_same_curves(summary["curves"], ref)
        k = int(np.argmax(ref.eta_e))
        assert summary["max_eta_e"] == ref.eta_e[k]
        assert summary["t_max"] == ref.times[k]
        assert summary["max_f_over_eps"] == np.max(ref.f_l2) / params.eps

    # K = 3 is the four-level minimum, where the one-sided ends cover every
    # level; K = 37 leaves a partial last block for each block size
    @pytest.mark.parametrize("K", [3, 37])
    @pytest.mark.parametrize("block", [1, 3, kgz.limits._BLOCK])
    def test_any_block_size(self, monkeypatch, K, block):
        monkeypatch.setattr(kgz.limits, "_BLOCK", block)
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.3, M=40, tau=0.01, T=0.01 * K)
        ref = whole_trajectory_limit(params, data)
        self.assert_summary_matches(params, data, ref)
        # limit_metrics is the same reduction fed from whole trajectories
        coupled = trajectory(params, data)
        limit = trajectory_kg(params, data, build_layer(params, data))
        assert_same_curves(limit_metrics(coupled, limit, params.grid, params.tau), ref)

    def test_eps_limit_configuration(self):
        # one task of the eps-limit sweep: eps = 1/16, h = 0.05, tau = 1e-3, T = 1
        params = make_params(0.0625, 1.0, 0.0, 0.05, 1e-3, 1.0)
        data = preset_initial_data("gauss_sech")
        self.assert_summary_matches(params, data, whole_trajectory_limit(params, data))

    def test_peak_memory_does_not_grow_with_steps(self):
        # K = 100 against K = 1000 on one grid (M = 2000); the bound is fixed
        # beforehand, and whole trajectories would make the ratio about 10
        data = preset_initial_data("gauss_sech")
        peaks = []
        for tau in (1e-2, 1e-3):
            params = toy_params(eps=0.5, M=2000, tau=tau, T=1.0, span=20.0)
            tracemalloc.start()
            try:
                _limit_summary(params, data)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]


class TestKgEnergy:
    @pytest.mark.slow
    def test_drift_small_and_shrinks_under_refinement(self):
        # first verified run measured drifts of 7.1e-8 and 1.8e-8; pinned
        # at twice the coarse value under the 1e-2 requirement
        data = preset_initial_data("gauss_sech")
        drifts = []
        for h, tau in ((0.05, 1e-3), (0.025, 5e-4)):
            grid = Grid1D(-31.0, 31.0, round(62.0 / h))
            params = KgzParams(eps=1.0, alpha=1.0, beta=0.0, grid=grid, tau=tau, T=1.0)
            state = first_state_kg(params, data, None)
            e0 = kg_energy(state, grid, tau)
            worst = 0.0
            for _ in range(params.n_steps() - 1):
                state = step(state, params, None)
                worst = max(worst, abs(kg_energy(state, grid, tau) - e0))
            drifts.append(worst / abs(e0))
        assert drifts[0] < 1.5e-7
        assert drifts[0] < 1e-2
        assert drifts[0] / drifts[1] >= 2.0


class TestOneStateType:
    """The limit model is a KgzState or Trajectory with F None, stepped by the solver's steps."""

    def test_solver_steps_on_a_state_without_f_are_the_limit_steps(self):
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.3, M=64, tau=0.02)
        layer = build_layer(params, data)
        state = first_state_kg(params, data, layer)
        assert state.F_prev is None and state.F_curr is None
        for _ in range(3):
            state = step(state, params, layer)
        for solver_step, k in ((step, state.k + 1), (step_back, state.k - 1)):
            got = solver_step(state, params, layer)
            assert (got.k, got.t_k) == (k, k * params.tau)
            assert np.all(np.isfinite(got.E_prev)) and np.all(np.isfinite(got.E_curr))
            assert got.F_prev is None and got.F_curr is None

    def test_trajectory_kg_is_a_trajectory_without_f(self):
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.3, M=40, tau=0.02, T=0.1)
        limit = trajectory_kg(params, data, build_layer(params, data))
        assert isinstance(limit, Trajectory) and limit.F is None
        assert limit.E.shape == (6, 41)
