import multiprocessing
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from kgz import (
    Grid1D,
    InitialData,
    InitialLayer,
    KgzParams,
    KgzState,
    ParameterError,
    ShapeError,
    StabilityError,
    SweepSpec,
    Trajectory,
    build_layer,
    case_exponents,
    density_at,
    energy,
    factor_tridiagonal,
    first_state,
    first_state_kg,
    grid_norms,
    limit_metrics,
    limit_study,
    make_params,
    nondimensionalize,
    recover_density,
    run,
    run_sweep,
    second_difference,
    solve_factored,
    solve_tridiagonal,
    step,
    step_back,
    trajectory,
    trajectory_kg,
)
import kgz.layer
import kgz.limits
import kgz.solver
from kgz.limits import _lockstep_metrics
from kgz.presets import preset_initial_data
from kgz.solver import _stencil, _step, march
from conftest import random_grid_fn


def zero_fn(x):
    return np.zeros_like(x)


ZERO_DATA = InitialData(E0=zero_fn, E1=zero_fn, omega0=zero_fn, omega1=zero_fn)


def toy_params(eps=0.5, M=32, tau=0.01, T=1.0, span=6.0, alpha=1.0, beta=0.0):
    return KgzParams(
        eps=eps, alpha=alpha, beta=beta, grid=Grid1D(-span, span, M), tau=tau, T=T
    )


def naive_step(state, params, layer, w0_samples, w1_samples):
    """Step re-implemented with explicit loops and dense linear algebra."""
    grid, tau, eps = params.grid, params.tau, params.eps
    M, h = grid.M, grid.h
    t_k = state.t_k
    w0_hat = np.array(
        [
            (2.0 / M) * sum(w0_samples[j] * np.sin(j * l * np.pi / M) for j in range(1, M))
            for l in range(1, M)
        ]
    )
    w1_hat = np.array(
        [
            (2.0 / M) * sum(w1_samples[j] * np.sin(j * l * np.pi / M) for j in range(1, M))
            for l in range(1, M)
        ]
    )
    H = np.zeros(M + 1)
    for j in range(1, M):
        total = 0.0
        for l in range(1, M):
            theta = l * np.pi / (eps * grid.length)
            weight = 4.0 / (tau * theta) ** 2 * np.sin(theta * tau / 2.0) ** 2
            amp = eps**params.alpha * w0_hat[l - 1] * np.cos(theta * t_k)
            amp += eps**params.beta * w1_hat[l - 1] / theta * np.sin(theta * t_k)
            total += np.sin(j * l * np.pi / M) * weight * amp
        H[j] = total

    Ek, Em, Fk, Fm = state.E_curr, state.E_prev, state.F_curr, state.F_prev
    c = np.array([1.0 - Ek[j] ** 2 + Fk[j] + H[j] for j in range(M + 1)])
    n = M - 1
    A = np.zeros((n, n))
    rhs = np.zeros(n)
    for j in range(1, M):
        i = j - 1
        A[i, i] = 1.0 / tau**2 + 0.5 * c[j] + 1.0 / h**2
        if i > 0:
            A[i, i - 1] = -0.5 / h**2
        if i < n - 1:
            A[i, i + 1] = -0.5 / h**2
        lap = (Em[j + 1] - 2.0 * Em[j] + Em[j - 1]) / h**2
        rhs[i] = (2.0 * Ek[j] - Em[j]) / tau**2 + 0.5 * (lap - c[j] * Em[j])
    E_next = np.zeros(M + 1)
    E_next[1:-1] = np.linalg.solve(A, rhs)

    B = np.zeros((n, n))
    rhsf = np.zeros(n)
    s = 0.5 / eps**2
    for j in range(1, M):
        i = j - 1
        B[i, i] = 1.0 / tau**2 + 2.0 * s / h**2
        if i > 0:
            B[i, i - 1] = -s / h**2
        if i < n - 1:
            B[i, i + 1] = -s / h**2
        lapf = (Fm[j + 1] - 2.0 * Fm[j] + Fm[j - 1]) / h**2
        dtt = (E_next[j] ** 2 - 2.0 * Ek[j] ** 2 + Em[j] ** 2) / tau**2
        rhsf[i] = (2.0 * Fk[j] - Fm[j]) / tau**2 + s * lapf + dtt
    F_next = np.zeros(M + 1)
    F_next[1:-1] = np.linalg.solve(B, rhsf)
    return E_next, F_next


class TestFirstState:
    def test_zero_data(self):
        params = toy_params()
        layer = build_layer(params, ZERO_DATA)
        state = first_state(params, ZERO_DATA, layer)
        for arr in (state.E_prev, state.E_curr, state.F_prev, state.F_curr):
            assert np.all(arr == 0.0)

    def test_zero_field_ignores_omegas(self):
        # with E0 = E1 = 0 the first level vanishes for any incompatibility
        data = InitialData(
            E0=zero_fn,
            E1=zero_fn,
            omega0=lambda x: np.exp(-(x**2)),
            omega1=lambda x: np.sin(x) * np.exp(-(x**2)),
        )
        params = toy_params(alpha=0.0, beta=-1.0)
        layer = build_layer(params, data)
        state = first_state(params, data, layer)
        assert np.all(state.E_curr == 0.0)
        assert np.all(state.F_curr == 0.0)

    def test_density_start_symbolic(self):
        # E1 = 0 and omega0 = 0 collapse the density start to
        # tau^2 * E0 * (lap E0 - E0 + E0^3)
        data = InitialData(
            E0=lambda x: np.exp(-(x**2)) * np.sin(x),
            E1=zero_fn,
            omega0=zero_fn,
            omega1=lambda x: np.exp(-(x**2)),
        )
        params = toy_params(M=64, tau=0.02)
        layer = build_layer(params, data)
        state = first_state(params, data, layer)
        E0 = data.sample(params.grid)[0]
        lap = second_difference(E0, params.grid)
        expected = params.tau**2 * E0 * (lap - E0 + E0**3)
        expected[0] = expected[-1] = 0.0
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(state.F_curr - expected)) <= 1e-13 * scale

    def test_field_accel_matches_fine_run(self):
        # Richardson-extrapolated second time difference of a fine
        # trajectory reproduces the Taylor-start acceleration
        data = preset_initial_data("gauss_sech")
        tau_ref = 1e-3
        params = KgzParams(
            eps=1.0, alpha=1.0, beta=0.0, grid=Grid1D(-31.0, 31.0, 620),
            tau=tau_ref, T=4 * tau_ref,
        )
        traj = trajectory(params, data)
        d2 = (traj.E[2:] - 2.0 * traj.E[1:-1] + traj.E[:-2]) / tau_ref**2
        extrapolated = 2.0 * d2[0] - d2[1]
        E0, _, w0, _ = data.sample(params.grid)
        from kgz.solver import _field_accel

        expected = _field_accel(E0, w0, params)
        expected[0] = expected[-1] = 0.0
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(extrapolated - expected)) <= 1e-4 * scale

    @pytest.mark.parametrize(
        "change", [{"grid": Grid1D(-8.0, 8.0, 32)}, {"eps": 0.125}, {"alpha": 0.0}, {"beta": -1.0}],
        ids=["grid", "eps", "alpha", "beta"],
    )
    def test_rejects_layer_built_for_another_run(self, change):
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.5, alpha=1.0, beta=0.0)
        layer = build_layer(replace(params, **change), data)
        if "grid" in change:
            with pytest.raises(ShapeError, match="different grids"):
                first_state(params, data, layer)
            return
        (name,) = change
        with pytest.raises(ParameterError) as excinfo:
            first_state(params, data, layer)
        for value in (getattr(layer, name), getattr(params, name)):
            assert f"{name}={value}" in str(excinfo.value)


def formula_step(state, params, layer):
    """(E, F) of one forward step, written out from the public operators.

    Each expression is evaluated in the order the solver documents, so the
    result must equal ``step`` bit for bit; F is None in the limit model.
    """
    grid, tau = params.grid, params.tau
    inv_t2 = 1.0 / tau**2
    E, E_prev, F, F_prev = state.E_curr, state.E_prev, state.F_curr, state.F_prev
    c = 1.0 - E**2
    if F is not None:
        c = c + F
    c = c + layer.averaged_wave(state.t_k, tau)
    diag = inv_t2 + 0.5 * c[1:-1] + 1.0 / grid.h**2
    off = np.full(grid.M - 2, -0.5 * (1.0 / grid.h**2))
    rhs = (2.0 * E[1:-1] - E_prev[1:-1]) * inv_t2 + 0.5 * (
        second_difference(E_prev, grid)[1:-1] - c[1:-1] * E_prev[1:-1]
    )
    E_next = grid.zeros()
    E_next[1:-1] = solve_tridiagonal(off, diag, off, rhs)
    if F is None:
        return E_next, None
    s = 0.5 / params.eps**2
    dt2_E2 = (E_next**2 - 2.0 * E**2 + E_prev**2) / tau**2
    rhs = (
        (2.0 * F[1:-1] - F_prev[1:-1]) * inv_t2
        + s * second_difference(F_prev, grid)[1:-1]
        + dt2_E2[1:-1]
    )
    s_h2 = s / grid.h**2
    factor = factor_tridiagonal(-s_h2, inv_t2 + 2.0 * s_h2, -s_h2, n=grid.M - 1)
    F_next = grid.zeros()
    F_next[1:-1] = solve_factored(factor, rhs)
    return E_next, F_next


class TestStep:
    @pytest.mark.parametrize("case", ["I", "II"])
    def test_matches_the_written_formulas_bit_for_bit(self, case):
        alpha, beta = case_exponents(case)
        params = toy_params(eps=0.25, M=64, tau=0.02, alpha=alpha, beta=beta)
        data = preset_initial_data("gauss_sech")
        layer = build_layer(params, data)
        coupled = first_state(params, data, layer)
        limit = first_state_kg(params, data, layer)
        for _ in range(6):
            coupled = step(coupled, params, layer)
            limit = step(limit, params, layer)
        E, F = formula_step(coupled, params, layer)
        got = step(coupled, params, layer)
        assert np.array_equal(got.E_curr, E) and np.array_equal(got.F_curr, F)
        E, F = formula_step(limit, params, layer)
        got = _step(limit, _stencil(params), layer.averaged_wave(limit.t_k, params.tau))
        assert np.array_equal(got.E_curr, E) and F is None and got.F_curr is None

    def test_zero_fixed_point(self):
        params = toy_params()
        layer = build_layer(params, ZERO_DATA)
        state = first_state(params, ZERO_DATA, layer)
        for _ in range(5):
            state = step(state, params, layer)
            assert np.all(state.E_curr == 0.0)
            assert np.all(state.F_curr == 0.0)

    def test_single_interior_node_scalar_oracle(self):
        grid = Grid1D(0.0, 2.0, 2)  # h = 1, one interior node
        params = KgzParams(eps=1.0, alpha=0.0, beta=0.0, grid=grid, tau=0.1, T=1.0)
        layer = InitialLayer.from_samples(grid, 1.0, 0.0, 0.0, grid.zeros(), grid.zeros())
        e = 1e-3
        E = np.array([0.0, e, 0.0])
        state = KgzState(k=1, t_k=0.1, E_prev=E.copy(), E_curr=E.copy(),
                         F_prev=grid.zeros(), F_curr=grid.zeros())
        out = step(state, params, layer)
        tau, h = 0.1, 1.0
        c = 1.0 - e**2
        x = (e / tau**2 + 0.5 * (-2.0 * e / h**2 - c * e)) / (
            1.0 / tau**2 + 0.5 * c + 1.0 / h**2
        )
        y = ((x**2 - e**2) / tau**2) / (1.0 / tau**2 + 2.0 * 0.5 / h**2)
        assert abs(out.E_curr[1] - x) <= 1e-15
        assert abs(out.F_curr[1] - y) <= 1e-18

    def test_naive_reimplementation_oracle(self, rng):
        grid = Grid1D(-3.0, 3.0, 24)
        params = KgzParams(eps=0.4, alpha=1.0, beta=0.0, grid=grid, tau=0.01, T=1.0)
        x = grid.nodes
        w0 = np.exp(-(x**2)) * np.cos(2 * x)
        w1 = np.exp(-(x**2) / 2) * np.sin(x)
        w0[0] = w0[-1] = w1[0] = w1[-1] = 0.0
        layer = InitialLayer.from_samples(grid, 0.4, 1.0, 0.0, w0, w1)
        bump = np.exp(-(x**2)) * np.sin(1.5 * x)
        bump[0] = bump[-1] = 0.0
        state = KgzState(
            k=30, t_k=0.3,
            E_prev=0.9 * bump, E_curr=bump,
            F_prev=0.05 * np.roll(bump, 0), F_curr=0.06 * bump,
        )
        out = step(state, params, layer)
        E_ref, F_ref = naive_step(state, params, layer, w0, w1)
        escale = np.max(np.abs(E_ref))
        fscale = np.max(np.abs(F_ref))
        assert np.max(np.abs(out.E_curr - E_ref)) <= 1e-12 * escale
        assert np.max(np.abs(out.F_curr - F_ref)) <= 1e-12 * fscale

    def test_dirichlet_zeros_and_time_tracking(self):
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.25, M=48, tau=0.02)
        layer = build_layer(params, data)
        state = first_state(params, data, layer)
        for k in range(2, 12):
            state = step(state, params, layer)
            assert state.k == k
            assert state.t_k == k * params.tau
            assert state.E_curr[0] == 0.0 and state.E_curr[-1] == 0.0
            assert state.F_curr[0] == 0.0 and state.F_curr[-1] == 0.0

    def test_stability_error_reports_node(self):
        grid = Grid1D(0.0, 1.0, 8)
        params = KgzParams(eps=1.0, alpha=0.0, beta=0.0, grid=grid, tau=1.0, T=2.0)
        layer = InitialLayer.from_samples(grid, 1.0, 0.0, 0.0, grid.zeros(), grid.zeros())
        big = grid.zeros()
        big[3] = 10.0  # c = 1 - 100 makes 1/tau^2 + c/2 negative
        state = KgzState(k=1, t_k=1.0, E_prev=big, E_curr=big,
                         F_prev=grid.zeros(), F_curr=grid.zeros())
        with pytest.raises(StabilityError) as excinfo:
            step(state, params, layer)
        assert excinfo.value.j == 3
        assert excinfo.value.tau == 1.0
        assert excinfo.value.coefficient == pytest.approx(-99.0)

    def test_nan_field_raises_stability_error_at_its_node(self):
        params = toy_params(M=16, tau=0.01)
        layer = build_layer(params, ZERO_DATA)
        E = params.grid.zeros()
        E[5] = np.nan
        state = KgzState(k=1, t_k=0.01, E_prev=params.grid.zeros(), E_curr=E,
                         F_prev=params.grid.zeros(), F_curr=params.grid.zeros())
        with pytest.raises(StabilityError) as excinfo:
            step(state, params, layer)
        assert excinfo.value.j == 5

    @pytest.mark.parametrize("drive", [run, trajectory])
    def test_blow_up_in_a_run_reports_step_and_time(self, drive):
        # E0 = 5 at x = 0 puts the first step's field coefficient at c = -214
        data = InitialData(
            E0=lambda x: 5.0 * np.exp(-(x**2)), E1=zero_fn, omega0=zero_fn, omega1=zero_fn
        )
        params = toy_params(eps=0.5, M=48, tau=0.5, T=2.0)
        with pytest.raises(StabilityError) as excinfo:
            drive(params, data)
        err = excinfo.value
        assert (err.j, err.k, err.t) == (24, 1, 0.5)
        assert "node 24" in str(err) and "k=1, t=0.5" in str(err)


class TestReversibility:
    def test_one_step_round_trip(self):
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.3, M=64, tau=0.01)
        layer = build_layer(params, data)
        state = first_state(params, data, layer)
        for _ in range(4):
            state = step(state, params, layer)
        forward = step(state, params, layer)
        back = step_back(forward, params, layer)
        scale = max(np.max(np.abs(state.E_prev)), np.max(np.abs(state.F_prev)), 1e-30)
        assert np.max(np.abs(back.E_prev - state.E_prev)) <= 1e-10 * scale
        assert np.max(np.abs(back.F_prev - state.F_prev)) <= 1e-10 * scale

    def test_hundred_step_round_trip(self):
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.5, M=48, tau=0.01)
        layer = build_layer(params, data)
        state0 = first_state(params, data, layer)
        state = state0
        for _ in range(100):
            state = step(state, params, layer)
        for _ in range(100):
            state = step_back(state, params, layer)
        scale = max(np.max(np.abs(state0.E_curr)), np.max(np.abs(state0.F_curr)))
        for a, b in (
            (state.E_prev, state0.E_prev),
            (state.E_curr, state0.E_curr),
            (state.F_prev, state0.F_prev),
            (state.F_curr, state0.F_curr),
        ):
            assert np.max(np.abs(a - b)) <= 1e-8 * scale


class TestDensity:
    def test_initial_level_matches_data(self):
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.25, M=64, alpha=1.0, beta=0.0)
        layer = build_layer(params, data)
        E0, _, w0, _ = data.sample(params.grid)
        N0 = density_at(E0, params.grid.zeros(), 0.0, layer)
        expected = -(E0**2) + params.eps**params.alpha * w0
        assert np.max(np.abs(N0 - expected)) <= 1e-12 * max(np.max(np.abs(expected)), 1e-30)

    def test_zero_everything(self):
        params = toy_params()
        layer = build_layer(params, ZERO_DATA)
        state = first_state(params, ZERO_DATA, layer)
        assert np.all(recover_density(state, layer) == 0.0)

    def test_rearrangement_identity(self, rng):
        grid = Grid1D(0.0, 1.0, 16)
        layer = InitialLayer.from_samples(grid, 0.5, 0.0, 0.0, grid.zeros(), grid.zeros())
        E = random_grid_fn(rng, grid)
        F = random_grid_fn(rng, grid)
        state = KgzState(k=2, t_k=0.2, E_prev=E, E_curr=E, F_prev=F, F_curr=F)
        N = recover_density(state, layer)
        assert np.max(np.abs((N + E**2) - F)) <= 1e-15 * max(np.max(np.abs(F)), 1e-30)


class TestInitialData:
    @pytest.mark.parametrize("name", ["E0", "E1", "omega0", "omega1"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_sample_is_a_bad_input(self, name, bad):
        def spoiled(x):
            v = np.exp(-(x**2))
            v[len(x) // 2] = bad
            return v

        data = replace(preset_initial_data("gauss_sech"), **{name: spoiled})
        with pytest.raises(ParameterError, match=name):
            run(toy_params(T=0.05), data)

    def test_boundary_values_are_dropped(self):
        # the boundary nodes are zeroed, whatever the sampler gives there
        edge = lambda x: np.where(np.abs(x) == np.max(np.abs(x)), np.nan, np.exp(-(x**2)))
        data = replace(preset_initial_data("gauss_sech"), E0=edge)
        E0, *_ = data.sample(Grid1D(-6.0, 6.0, 32))
        assert E0[0] == E0[-1] == 0.0 and np.isfinite(E0).all()


class TestRun:
    def test_minimal_two_steps(self):
        data = preset_initial_data("gauss_sech")
        tau = 0.01
        params = toy_params(eps=0.5, M=32, tau=tau, T=2 * tau)
        layer = build_layer(params, data)
        snaps = run(params, data, [0.0, tau, 2 * tau])
        state1 = first_state(params, data, layer)
        state2 = step(state1, params, layer)
        assert np.array_equal(snaps[0].E, state1.E_prev)
        assert np.array_equal(snaps[1].E, state1.E_curr)
        assert np.array_equal(snaps[2].E, state2.E_curr)
        assert np.array_equal(snaps[2].F, state2.F_curr)
        traj = trajectory(params, data)
        for snap, E, F in zip(snaps, traj.E, traj.F, strict=True):
            assert np.array_equal(snap.E, E)
            assert np.array_equal(snap.F, F)

    def test_zero_data_trajectory(self):
        params = toy_params(tau=0.1, T=0.5)
        snaps = run(params, ZERO_DATA, [0.5])
        assert np.all(snaps[0].E == 0.0)
        assert np.all(snaps[0].N == 0.0)

    def test_restart_is_bit_identical(self):
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.25, M=48, tau=0.01, T=1.0)
        layer = build_layer(params, data)
        state = first_state(params, data, layer)
        mid = None
        for _ in range(60 - 1):
            state = step(state, params, layer)
            if state.k == 30:
                mid = KgzState(
                    k=state.k, t_k=state.t_k,
                    E_prev=state.E_prev.copy(), E_curr=state.E_curr.copy(),
                    F_prev=state.F_prev.copy(), F_curr=state.F_curr.copy(),
                )
        resumed = mid
        for _ in range(30):
            resumed = step(resumed, params, layer)
        assert resumed.k == state.k
        assert np.array_equal(resumed.E_curr, state.E_curr)
        assert np.array_equal(resumed.F_curr, state.F_curr)

    @pytest.mark.parametrize(
        "change", [{"tau": 0.02}, {"eps": 0.125}, {"grid": Grid1D(-8.0, 8.0, 48)}]
    )
    def test_interleaved_runs_match_solo_runs(self, change):
        # two runs that differ in the density factor, the field
        # off-diagonal or the run constants holding them must never share one
        data = preset_initial_data("gauss_sech")
        base = toy_params(eps=0.25, M=48, tau=0.01)
        runs = [base, replace(base, **change)]
        layers = [build_layer(p, data) for p in runs]

        def start(i):
            return first_state(runs[i], data, layers[i])

        solo = []
        for i in range(2):
            state = start(i)
            for _ in range(20):
                state = step(state, runs[i], layers[i])
            solo.append(state)
        states = [start(0), start(1)]
        for _ in range(20):
            states = [step(states[i], runs[i], layers[i]) for i in range(2)]
        for got, want in zip(states, solo):
            assert np.array_equal(got.E_curr, want.E_curr)
            assert np.array_equal(got.F_curr, want.F_curr)

    def test_field_off_diagonal_is_shared_and_read_only(self):
        grid = Grid1D(-6.0, 6.0, 48)
        off = _stencil(toy_params(M=48)).off
        assert not off.flags.writeable
        assert np.array_equal(off, np.full(grid.M - 2, -0.5 * (1.0 / grid.h**2)))

    def test_determinism(self):
        data = preset_initial_data("bump")
        params = KgzParams(
            eps=0.5, alpha=0.0, beta=0.0, grid=Grid1D(-32.0, 32.0, 128), tau=0.05, T=0.5
        )
        t1 = trajectory(params, data)
        t2 = trajectory(params, data)
        assert np.array_equal(t1.E, t2.E)
        assert np.array_equal(t1.F, t2.F)

    def test_misaligned_snapshot_rejected(self):
        params = toy_params(tau=0.01, T=0.1)
        with pytest.raises(ParameterError, match="nearest aligned"):
            run(params, ZERO_DATA, [0.015])

    def test_partial_final_step_rejected(self):
        with pytest.raises(ParameterError):
            toy_params(tau=0.03, T=0.1)


class TestEnergy:
    def test_zero_state(self):
        params = toy_params()
        layer = build_layer(params, ZERO_DATA)
        state = first_state(params, ZERO_DATA, layer)
        assert energy(state, layer, params) == 0.0

    @pytest.mark.slow
    def test_drift_small_and_shrinks_under_refinement(self):
        # first verified run of this exact setup measured drifts of
        # 2.66e-4 and 6.64e-5; pinned at twice the coarse value, and the
        # 1e-2 bound must hold regardless
        data = preset_initial_data("gauss_sech")
        drifts = []
        for h, tau in ((0.05, 1e-3), (0.025, 5e-4)):
            grid = Grid1D(-31.0, 31.0, round(62.0 / h))
            params = KgzParams(eps=1.0, alpha=1.0, beta=0.0, grid=grid, tau=tau, T=1.0)
            layer = build_layer(params, data)
            state = first_state(params, data, layer)
            e0 = energy(state, layer, params)
            worst = 0.0
            for _ in range(params.n_steps() - 1):
                state = step(state, params, layer)
                worst = max(worst, abs(energy(state, layer, params) - e0))
            drifts.append(worst / abs(e0))
        assert drifts[0] < 6e-4
        assert drifts[0] < 1e-2
        assert drifts[0] / drifts[1] >= 2.0


class TestScaling:
    def test_eps_formula(self):
        s = nondimensionalize(
            v0=1.0 / np.sqrt(3.0), omega_p=1.0, c_s=1.0, n0=1.0, eps0=1.0, m=1.0, N0=1.0
        )
        assert s.eps == pytest.approx(1.0, rel=1e-15)
        s = nondimensionalize(
            v0=1.0 / np.sqrt(3.0), omega_p=1.0, c_s=100.0, n0=1.0, eps0=1.0, m=1.0, N0=1.0
        )
        assert s.eps == pytest.approx(0.01, rel=1e-15)

    def test_time_scale(self):
        s = nondimensionalize(v0=0.1, omega_p=2.0, c_s=1.0, n0=1.0, eps0=1.0, m=1.0, N0=1.0)
        assert s.t_s == 0.5
        assert s.N_s == 1.0
        assert s.x_s == pytest.approx(np.sqrt(3.0) * 0.1 / 2.0, rel=1e-15)
        assert s.E_s == pytest.approx(2.0, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            nondimensionalize(v0=0.0, omega_p=1.0, c_s=1.0, n0=1.0, eps0=1.0, m=1.0, N0=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["v0", "c_s", "N0"])
    def test_rejects_nonfinite(self, name, bad):
        values = dict(v0=0.1, omega_p=1.0, c_s=1.0, n0=1.0, eps0=1.0, m=1.0, N0=1.0)
        values[name] = bad
        with pytest.raises(ParameterError, match=name):
            nondimensionalize(**values)


def stepwise_levels(params, data, limit=False, with_layer=True):
    """Every level of a march by the public one-step functions, each evaluating its own potential.

    ``with_layer=False`` steps with ``layer`` None (plain Klein-Gordon); the built layer is returned.
    """
    layer = build_layer(params, data)
    stepped = layer if with_layer else None
    state = (first_state_kg if limit else first_state)(params, data, stepped)
    states = list(march(state, lambda s: step(s, params, stepped), params.n_steps() - 1))
    E = np.array([states[0].E_prev] + [s.E_curr for s in states])
    F = None if limit else np.array([states[0].F_prev] + [s.F_curr for s in states])
    return layer, Trajectory(eps=params.eps, times=np.arange(len(E)) * params.tau, E=E, F=F)


class TestStreamedPotentials:
    """The forward drivers take their potentials a block at a time; a march step by step is the reference.

    The block budget is patched down to 1, 3 and 4 rows at M = 48 (47
    interior nodes), so blocks of one row occur and the last block of
    K - 1 = 10 potentials is partial; K = 1 takes no potential at all.
    """

    @pytest.fixture(params=[5, 3 * 47, 4 * 47], ids=["1-row", "3-rows", "4-rows"])
    def budget(self, request, monkeypatch):
        monkeypatch.setattr(kgz.layer, "_BLOCK_NODES", request.param)

    @pytest.mark.parametrize("K", [1, 2, 11])
    def test_run_and_trajectory(self, budget, K):
        params = toy_params(M=48, T=0.01 * K)
        data = preset_initial_data("gauss_sech")
        layer, ref = stepwise_levels(params, data)
        (snap,) = run(params, data)
        N = density_at(ref.E[-1], ref.F[-1], params.T, layer)
        assert np.array_equal(snap.E, ref.E[-1]) and np.array_equal(snap.F, ref.F[-1])
        assert np.array_equal(snap.N, N)
        got = trajectory(params, data)
        assert np.array_equal(got.E, ref.E) and np.array_equal(got.F, ref.F)

    @pytest.mark.parametrize("K", [1, 2, 11])
    @pytest.mark.parametrize("with_layer", [True, False])
    def test_trajectory_kg(self, budget, K, with_layer):
        params = toy_params(M=48, T=0.01 * K)
        data = preset_initial_data("gauss_sech")
        layer, ref = stepwise_levels(params, data, limit=True, with_layer=with_layer)
        got = trajectory_kg(params, data, layer if with_layer else None)
        assert np.array_equal(got.E, ref.E) and got.F is None

    @pytest.mark.parametrize("K", [3, 11])
    def test_lockstep_metrics(self, budget, K):
        params = toy_params(M=48, T=0.01 * K)
        data = preset_initial_data("gauss_sech")
        _, coupled = stepwise_levels(params, data)
        _, limit = stepwise_levels(params, data, limit=True)
        want = limit_metrics(coupled, limit, params.grid, params.tau)
        got = _lockstep_metrics(params, data)
        for name in ("times", "eta_2", "eta_inf", "eta_e", "f_l2"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestOneThreadHotPath:
    """A large march makes no BLAS call, and a producer process is joined however it ends."""

    @pytest.fixture
    def produced(self, monkeypatch):
        """The number of streams a producer process served."""
        calls = []
        produce = kgz.layer.InitialLayer._produced

        def counted(layer, *args):
            calls.append(args)
            return produce(layer, *args)

        monkeypatch.setattr(kgz.layer.InitialLayer, "_produced", counted)
        return calls

    def test_march_uses_one_core(self):
        # M - 1 = 2^14: two-row blocks from a producer process, whose CPU
        # time is not the march's; a spinning BLAS helper thread used to
        # take this ratio to about 2
        params = toy_params(M=16385, tau=0.005, T=1.0)
        data = preset_initial_data("gauss_sech")
        run(replace(params, T=0.01), data)  # warm up
        cpu, wall = time.process_time(), time.perf_counter()
        run(params, data)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        assert cpu <= 1.25 * wall

    def test_run_joins_producer(self, two_cpus, produced):
        # M = 16386, 65 steps: a stream of 64 rows of 16385 nodes, past 2^20 node-rows
        params = toy_params(M=16386, tau=0.01, T=0.65)
        data = preset_initial_data("gauss_sech")
        (snap,) = run(params, data)
        assert len(produced) == 1 and multiprocessing.active_children() == []
        _, ref = stepwise_levels(params, data)
        assert np.array_equal(snap.E, ref.E[-1]) and np.array_equal(snap.F, ref.F[-1])

    def test_failed_step_joins_producer(self, two_cpus, produced, monkeypatch):
        def failing(s, params, potential):
            if s.k == 3:
                raise StabilityError("injected")
            return _step(s, params, potential)

        monkeypatch.setattr(kgz.solver, "_step", failing)
        with pytest.raises(StabilityError) as info:
            run(toy_params(M=16386, tau=0.01, T=0.65), preset_initial_data("gauss_sech"))
        assert info.value.k == 3
        assert len(produced) == 1 and multiprocessing.active_children() == []

    def test_lockstep_joins_producer(self, two_cpus, produced, monkeypatch):
        monkeypatch.setattr(kgz.layer, "_PRODUCER_NODES", 1)  # any stream gets a producer
        params = toy_params(M=48, T=0.11)
        data = preset_initial_data("gauss_sech")
        _lockstep_metrics(params, data)
        assert len(produced) == 1 and multiprocessing.active_children() == []

    def test_failed_step_joins_block_producer(self, two_cpus, produced, monkeypatch):
        # M = 620: 52-row blocks, and 1999 rows of 619 nodes above 2^20 node-rows
        def failing(s, params, potential):
            if s.k == 3:
                raise StabilityError("injected")
            return _step(s, params, potential)

        monkeypatch.setattr(kgz.solver, "_step", failing)
        params = toy_params(M=620, tau=0.0005, T=1.0)
        with pytest.raises(StabilityError) as info:
            run(params, preset_initial_data("gauss_sech"))
        assert info.value.k == 3
        assert len(produced) == 1 and produced[0][3] == 52
        assert multiprocessing.active_children() == []

    def test_eps_limit_sweep_joins_producer(self, two_cpus, produced):
        # M = 1360, 999 rows: 1.36e6 node-rows
        run_sweep(SweepSpec(mode="eps_limit", preset="gauss_sech", case="I", eps_list=(0.25,),
                            h0=0.05, tau0=1e-3, T=1.0, workers=1))
        assert len(produced) == 1 and multiprocessing.active_children() == []

    def test_limit_study_joins_producer(self, two_cpus, produced):
        limit_study("gauss_sech", "I", (0.25,), 0.05, 1e-3, T=1.0)
        assert len(produced) == 1 and multiprocessing.active_children() == []


class TestRunSetUpOnce:
    """A run's stencil and averaging weights live in the run: no cache keeps them across runs."""

    def test_no_module_cache(self):
        cached = [
            f"{module.__name__}.{name}"
            for module in (kgz.solver, kgz.limits, kgz.layer)
            for name, value in vars(module).items()
            if hasattr(value, "cache_info")
        ]
        assert cached == []

    def test_run_leaves_only_fields_on_the_layer(self, monkeypatch):
        layers = []
        build = kgz.solver.build_layer

        def recorded(params, data):
            layers.append(build(params, data))
            return layers[-1]

        monkeypatch.setattr(kgz.solver, "build_layer", recorded)
        run(toy_params(M=48, T=0.2), preset_initial_data("gauss_sech"))
        (layer,) = layers
        assert set(vars(layer)) == {f.name for f in fields(InitialLayer)}


@pytest.mark.parametrize("case", ["I", "II"])
@pytest.mark.parametrize("eps", [2.0**-6, 2.0**-8, 2.0**-10])
def test_no_step_restriction_tied_to_eps(case, eps):
    # the paper's third guarantee: tau/eps up to 51.2 finishes without a
    # KgzError, and the peaks at tau = 0.05 stay within 5 % of those at
    # tau = 0.0125 (first measured: max|E| 0.827-0.829, max|N| 0.677-0.687)
    alpha, beta = case_exponents(case)
    data = preset_initial_data("gauss_sech")
    peaks = []
    for tau in (0.05, 0.0125):
        (snap,) = run(make_params(eps, alpha, beta, 0.1, tau, 1.0), data)
        assert all(np.isfinite(v).all() for v in (snap.E, snap.F, snap.N))
        peaks.append(np.array([np.max(np.abs(snap.E)), np.max(np.abs(snap.N))]))
    coarse, fine = peaks
    assert np.all(np.abs(coarse - fine) <= 0.05 * fine), (coarse, fine)
