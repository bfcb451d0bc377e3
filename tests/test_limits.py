import multiprocessing
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from itertools import islice

import numpy as np
import pytest

from kgz import (
    Grid1D,
    InitialData,
    KgzParams,
    KgzState,
    ParameterError,
    ShapeError,
    StabilityError,
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
import kgz.layer
import kgz.limits
from kgz.harness import _limit_summary, make_params
from kgz.limits import _limit_ahead, _lockstep_metrics, _lockstep_step, _Lockstep
from kgz.presets import preset_initial_data
from kgz.solver import _march_forward


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
        F, tau = coupled.F, params.tau
        K = F.shape[0] - 1
        for k in range(K + 1):
            if k == 0:
                dF = (-3.0 * F[0] + 4.0 * F[1] - F[2]) / (2.0 * tau)
                ddF = (2.0 * F[0] - 5.0 * F[1] + 4.0 * F[2] - F[3]) / tau**2
            elif k == K:
                dF = -(-3.0 * F[K] + 4.0 * F[K - 1] - F[K - 2]) / (2.0 * tau)
                ddF = (2.0 * F[K] - 5.0 * F[K - 1] + 4.0 * F[K - 2] - F[K - 3]) / tau**2
            else:
                dF = (F[k + 1] - F[k - 1]) / (2.0 * tau)
                ddF = (F[k + 1] - 2.0 * F[k] + F[k - 1]) / tau**2
            nF, ndF, nddF = (grid_norms(v, params.grid) for v in (F[k], dF, ddF))
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
        twin = Trajectory(eps=0.5, times=times, E=np.zeros((5, 9)))
        with pytest.raises(ShapeError, match="do not live on the given grid"):
            limit_metrics(traj, twin, Grid1D(0.0, 1.0, 16), 0.1)
        late = Trajectory(eps=0.5, times=2.0 * times, E=np.zeros((5, 9)))
        with pytest.raises(ShapeError, match="different time levels"):
            limit_metrics(traj, late, grid, 0.1)

    @pytest.mark.parametrize(
        "F_rows, time_rows",
        [(None, 5), (4, 5), (6, 5), (5, 4)],
        ids=["no-F", "F-short", "F-long", "times-short"],
    )
    def test_one_row_per_level(self, F_rows, time_rows):
        grid = Grid1D(0.0, 1.0, 8)
        times = np.arange(time_rows) * 0.1
        F = None if F_rows is None else np.zeros((F_rows, 9))
        traj = Trajectory(eps=0.5, times=times, E=np.zeros((5, 9)), F=F)
        twin = Trajectory(eps=0.5, times=times, E=np.zeros((5, 9)))
        with pytest.raises(ShapeError):
            limit_metrics(traj, twin, grid, 0.1)

    @pytest.mark.parametrize("tau", [0.2, 0.05, 0.1 * (1.0 + 1e-6), 0.0, float("nan")])
    def test_tau_must_space_the_levels(self, tau):
        grid = Grid1D(0.0, 1.0, 8)
        times = np.arange(5) * 0.1
        traj = Trajectory(eps=0.5, times=times, E=np.zeros((5, 9)), F=np.zeros((5, 9)))
        twin = Trajectory(eps=0.5, times=times, E=np.zeros((5, 9)))
        with pytest.raises(ShapeError, match="not spaced by tau"):
            limit_metrics(traj, twin, grid, tau)
        limit_metrics(traj, twin, grid, 0.1 * (1.0 + 1e-12))

    def test_needs_four_levels(self):
        grid = Grid1D(0.0, 1.0, 8)
        times = np.arange(3) * 0.1
        traj = Trajectory(eps=0.5, times=times, E=np.zeros((3, 9)), F=np.zeros((3, 9)))
        twin = Trajectory(eps=0.5, times=times, E=np.zeros((3, 9)))
        with pytest.raises(ShapeError, match="at least 4 time levels"):
            limit_metrics(traj, twin, grid, 0.1)

    def test_peak_memory_does_not_grow_with_steps(self):
        # K = 100 against K = 1000 on one grid (M = 2000), over given
        # trajectories; the bound is that of the streamed task below
        data = preset_initial_data("gauss_sech")
        peaks = []
        for tau in (1e-2, 1e-3):
            params = toy_params(eps=0.5, M=2000, tau=tau, T=1.0, span=20.0)
            coupled = trajectory(params, data)
            limit = trajectory_kg(params, data, build_layer(params, data))
            tracemalloc.start()
            try:
                limit_metrics(coupled, limit, params.grid, params.tau)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]


def assert_same_curves(got, want):
    for name in ("times", "eta_2", "eta_inf", "eta_e", "f_l2"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def level_by_level(params, data):
    """The reference of the streamed task: ``limit_metrics`` of both models run alone and stored whole."""
    coupled = trajectory(params, data)
    limit = trajectory_kg(params, data, build_layer(params, data))
    return limit_metrics(coupled, limit, params.grid, params.tau)


class TestLockstep:
    """The streamed eps-limit task against the level-by-level ``limit_metrics``, bit for bit."""

    def assert_summary_matches(self, params, data, ref):
        summary = _limit_summary(params, data)
        assert_same_curves(summary["curves"], ref)
        k = int(np.argmax(ref.eta_e))
        assert summary["max_eta_e"] == ref.eta_e[k]
        assert summary["t_max"] == ref.times[k]
        assert summary["max_f_over_eps"] == np.max(ref.f_l2) / params.eps

    # K = 3 is the four-level minimum, where the one-sided ends cover every
    # level; at K = 4 and 5 the two one-sided stencils still overlap
    @pytest.mark.parametrize("K", [3, 4, 5, 37])
    def test_any_level_count(self, K):
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.3, M=40, tau=0.01, T=0.01 * K)
        self.assert_summary_matches(params, data, level_by_level(params, data))

    # the lockstep task takes its averaged potentials in blocks of this many
    # rows (M - 1 = 39 interior nodes); K = 3 takes its 2 potentials in one
    # partial block of 3 or 16 rows, K = 37 its 36 in a partial last block of 16
    @pytest.mark.parametrize("K", [3, 37])
    @pytest.mark.parametrize("block", [1, 3, 16])
    def test_any_block_size(self, monkeypatch, K, block):
        monkeypatch.setattr(kgz.layer, "_BLOCK_NODES", block * 39)
        data = preset_initial_data("gauss_sech")
        params = toy_params(eps=0.3, M=40, tau=0.01, T=0.01 * K)
        self.assert_summary_matches(params, data, level_by_level(params, data))

    def test_eps_limit_configuration(self):
        # one task of the eps-limit sweep: eps = 1/16, h = 0.05, tau = 1e-3, T = 1
        params = make_params(0.0625, 1.0, 0.0, 0.05, 1e-3, 1.0)
        data = preset_initial_data("gauss_sech")
        self.assert_summary_matches(params, data, level_by_level(params, data))

    def test_one_start_for_both_models(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return first_state(*args)

        monkeypatch.setattr(kgz.limits, "first_state", counted)
        data = preset_initial_data("gauss_sech")
        _limit_summary(toy_params(eps=0.3, M=40, tau=0.01, T=0.05), data)
        assert len(calls) == 1

    def test_maxima_take_the_first_tied_level(self):
        times = np.arange(5) * 0.5
        eta_e = np.array([1.0, 3.0, 2.0, 3.0, 0.5])
        f_l2 = np.array([0.0, 0.2, 0.6, 0.6, 0.1])
        metrics = kgz.limits.LimitMetrics(times, eta_e + 1.0, eta_e + 2.0, eta_e, f_l2)
        assert kgz.limits._maxima(metrics, 0.25) == {
            "max_eta_e": 3.0, "t_max": 0.5, "max_f_over_eps": 2.4
        }

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


# M = 40 has 39 interior nodes; K = 38 takes its 37 potentials in 5-row
# blocks, 7 full ones that wrap the 3-slot ring and a partial one of 2
PRODUCER_K, PRODUCER_ROWS = 38, 5


def producer_params():
    return toy_params(eps=0.3, M=40, tau=0.01, T=0.01 * PRODUCER_K)


def limit_steps_here(params, data):
    """The LimitMetrics of the lockstep task, and the limit-model steps this process took."""
    limit_steps = []
    step = kgz.limits._step

    def counted(s, st, potential):
        if s.F_curr is None:
            limit_steps.append(s.k)
        return step(s, st, potential)

    kgz.limits._step = counted
    try:
        return _lockstep_metrics(params, data), limit_steps
    finally:
        kgz.limits._step = step


def lockstep_in_worker():
    """``limit_steps_here`` at the producer size; the count of limit steps, read in a pool worker."""
    return len(limit_steps_here(producer_params(), preset_initial_data("gauss_sech"))[1])


def force_producer(monkeypatch):
    """Any stream gets a producer, in blocks of PRODUCER_ROWS rows."""
    monkeypatch.setattr(kgz.layer, "_PRODUCER_NODES", 1)
    monkeypatch.setattr(kgz.layer, "_BLOCK_NODES", PRODUCER_ROWS * 39)


def fail_at(monkeypatch, k, *models):
    """Make the steps of ``models`` ("coupled", "limit") from level k raise a StabilityError naming the model."""
    step = kgz.limits._step

    def failing(s, st, potential):
        model = "limit" if s.F_curr is None else "coupled"
        if s.k == k and model in models:
            raise StabilityError(f"injected in the {model} step")
        return step(s, st, potential)

    monkeypatch.setattr(kgz.limits, "_step", failing)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no producer")
class TestLimitProducer:
    """A producer process marches the lockstep task's limit model; the in-process lockstep is the reference."""

    @pytest.fixture
    def data(self):
        return preset_initial_data("gauss_sech")

    @pytest.fixture
    def in_process(self, data):
        return _lockstep_metrics(producer_params(), data)

    @pytest.fixture
    def forked(self, monkeypatch, two_cpus):
        force_producer(monkeypatch)

    @pytest.fixture
    def resumed(self, monkeypatch):
        """The first step of every in-process fallback of a produced stream."""
        calls = []
        computed = kgz.layer.InitialLayer._computed

        def spied(self, k_first, *args):
            calls.append(k_first)
            return computed(self, k_first, *args)

        monkeypatch.setattr(kgz.layer.InitialLayer, "_computed", spied)
        return calls

    def test_curves_match_in_process(self, data, in_process, forked, resumed):
        got, limit_steps = limit_steps_here(producer_params(), data)
        assert_same_curves(got, in_process)
        assert limit_steps == [] and resumed == []

    def test_killed_producer_gives_the_same_bits(self, monkeypatch, data, in_process, forked, resumed):
        step = kgz.limits._step

        def killing(s, st, potential):
            if s.F_curr is not None and s.k == 2:
                (producer,) = multiprocessing.active_children()
                producer.kill()
            return step(s, st, potential)

        monkeypatch.setattr(kgz.limits, "_step", killing)
        got, limit_steps = limit_steps_here(producer_params(), data)
        assert_same_curves(got, in_process)
        # the ring holds at most 3 blocks beyond the one in use, so the march
        # resumes at a block start within the 7 full blocks, from the last
        # two limit levels it received
        (k_resumed,) = resumed
        assert 1 < k_resumed <= 1 + 4 * PRODUCER_ROWS and (k_resumed - 1) % PRODUCER_ROWS == 0
        assert limit_steps == list(range(k_resumed, PRODUCER_K))

    @pytest.mark.parametrize(
        "models, message",
        [(("limit",), "limit"), (("limit", "coupled"), "coupled")],
        ids=["limit", "both-coupled-first"],
    )
    @pytest.mark.parametrize("k", [2, 13])
    def test_limit_step_error_surfaces_as_in_process(
        self, monkeypatch, capfd, data, two_cpus, resumed, models, message, k
    ):
        fail_at(monkeypatch, k, *models)
        with pytest.raises(StabilityError) as here:
            _lockstep_metrics(producer_params(), data)
        force_producer(monkeypatch)
        resumed.clear()
        with pytest.raises(StabilityError) as there:
            _lockstep_metrics(producer_params(), data)
        assert f"injected in the {message} step" in str(there.value)
        assert str(there.value) == str(here.value)
        assert (there.value.k, there.value.t) == (here.value.k, here.value.t) == (k, k * 0.01)
        # the producer stopped at the block of step k and the march went on here
        assert resumed == [1 + (k - 1) // PRODUCER_ROWS * PRODUCER_ROWS]
        assert capfd.readouterr().err == ""

    def test_limit_step_error_is_seen_at_once(self, monkeypatch, data, two_cpus):
        fail_at(monkeypatch, 13, "limit")
        with pytest.raises(StabilityError) as here:
            _lockstep_metrics(producer_params(), data)
        force_producer(monkeypatch)
        start = time.monotonic()
        with pytest.raises(StabilityError) as there:
            _lockstep_metrics(producer_params(), data)
        assert time.monotonic() - start < 0.5
        assert (str(there.value), there.value.k) == (str(here.value), 13)

    def test_coupled_failure_joins_the_producer(self, monkeypatch, data, forked):
        fail_at(monkeypatch, 13, "coupled")
        with pytest.raises(StabilityError, match="coupled"):
            _lockstep_metrics(producer_params(), data)
        assert multiprocessing.active_children() == []

    def test_closed_early_ends_the_producer(self, data, forked):
        params = producer_params()
        layer = build_layer(params, data)
        start = _Lockstep(1, params.tau, first_state(params, data, layer), first_state_kg(params, data, layer))
        states = _march_forward(start, params, layer, _lockstep_step, partial(_limit_ahead, start.limit))
        assert len(list(islice(states, 3))) == 3
        assert len(multiprocessing.active_children()) == 1
        states.close()
        assert multiprocessing.active_children() == []

    def test_one_cpu_stays_in_process(self, monkeypatch, data, in_process, forked):
        monkeypatch.setattr(kgz.layer.os, "sched_getaffinity", lambda pid: {0})
        got, limit_steps = limit_steps_here(producer_params(), data)
        assert_same_curves(got, in_process)
        assert limit_steps == list(range(1, PRODUCER_K))

    def test_pool_worker_stays_in_process(self, forked):
        # a forked worker inherits the patched rule, so only being a child keeps it in process
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            assert pool.submit(lockstep_in_worker).result() == PRODUCER_K - 1


def test_failed_fork_marches_the_limit_model_here(monkeypatch, two_cpus, failing_fork):
    """With no producer to be had, the lockstep task steps the limit model itself, to the same bits."""
    data = preset_initial_data("gauss_sech")
    in_process = _lockstep_metrics(producer_params(), data)
    force_producer(monkeypatch)
    got, limit_steps = limit_steps_here(producer_params(), data)
    assert len(failing_fork) == 1
    assert_same_curves(got, in_process)
    assert limit_steps == list(range(1, PRODUCER_K))
    assert multiprocessing.active_children() == []


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
