"""Self-contained property suite behind the `kgz check` command.

Every check pits an implementation against an independent route: dense
linear algebra, brute-force summation, quadrature, whole stored
trajectories, or an exact algebraic identity. All of them run on
desk-scale grids in well under a minute.
"""

import multiprocessing
from collections import deque
from typing import NamedTuple

import numpy as np

from .grid import (
    Grid1D,
    forward_difference,
    grid_norms,
    factor_tridiagonal,
    inner_product,
    second_difference,
    solve_factored,
    solve_poisson_dirichlet,
    solve_tridiagonal,
    staggered_inner_product,
)
from .harness import _limit_summary
from .layer import InitialLayer
from .limits import (
    LimitMetrics,
    _time_derivatives,
    first_state_kg,
    trajectory_kg,
)
from .presets import preset_initial_data
from .solver import (
    InitialData,
    KgzParams,
    build_layer,
    first_state,
    march,
    step,
    step_back,
    trajectory,
)
from .transforms import dst_forward, dst_inverse


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _result(name, worst, tol):
    return CheckResult(name, bool(worst <= tol), f"worst {worst:.3e} vs tol {tol:.1e}")


def _random_grid_fn(rng, grid):
    u = rng.standard_normal(grid.M + 1)
    u[0] = u[-1] = 0.0
    return u


def check_summation_by_parts(seed=0):
    """(-d2 u, v) equals the staggered product of the forward differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for M in (2, 3, 5, 8, 16, 33, 64, 128):
        grid = Grid1D(-1.3, 2.1, M)
        for _ in range(5):
            u = _random_grid_fn(rng, grid)
            v = _random_grid_fn(rng, grid)
            lhs = inner_product(-second_difference(u, grid), v, grid)
            rhs = staggered_inner_product(
                forward_difference(u, grid), forward_difference(v, grid), grid
            )
            scale = max(
                grid_norms(u, grid).h1_semi * grid_norms(v, grid).h1_semi, 1e-30
            )
            worst = max(worst, abs(lhs - rhs) / scale)
    return _result("summation_by_parts", worst, 1e-13)


def check_dst_round_trip(seed=1):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for M in (2, 3, 4, 8, 16, 64, 128):
        grid = Grid1D(0.0, 1.0, M)
        u = _random_grid_fn(rng, grid)
        for method in ("naive", "fast"):
            back = dst_inverse(dst_forward(u, grid, method), grid, method)
            worst = max(worst, np.max(np.abs(back - u)) / max(np.max(np.abs(u)), 1e-30))
        gap = np.max(np.abs(dst_forward(u, grid, "fast") - dst_forward(u, grid, "naive")))
        worst = max(worst, gap / max(np.max(np.abs(u)), 1e-30))
    return _result("dst_round_trip", worst, 1e-12)


def check_dst_parseval(seed=2):
    """h sum u_j^2 must equal (b - a)/2 times the squared spectrum."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for M in (4, 16, 64):
        grid = Grid1D(-2.0, 3.0, M)
        u = _random_grid_fn(rng, grid)
        lhs = grid.h * np.sum(u**2)
        rhs = 0.5 * grid.length * np.sum(dst_forward(u, grid) ** 2)
        worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-30))
    return _result("dst_parseval", worst, 1e-12)


def triangular_average_quadrature(layer, t, tau, panels_per_period=10):
    """Composite Gauss quadrature of the kernel average of the layer wave.

    Resolves the fastest mode with at least the requested panels per
    oscillation period; the kernel kink at s = 0 splits the interval.
    """
    theta_max = float(layer.theta[-1])
    periods = theta_max * tau / (2.0 * np.pi)
    n_panels = max(16, int(np.ceil(panels_per_period * periods)) + 4)
    xg, wg = np.polynomial.legendre.leggauss(8)
    total = np.zeros(layer.grid.M + 1)
    for a, b in ((-1.0, 0.0), (0.0, 1.0)):
        edges = np.linspace(a, b, n_panels + 1)
        for left, right in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (left + right)
            half = 0.5 * (right - left)
            for x, w in zip(xg, wg):
                s = mid + half * x
                total += w * half * (1.0 - abs(s)) * layer.wave(t + s * tau)
    return total


def check_averaged_wave(seed=3):
    rng = np.random.default_rng(seed)
    grid = Grid1D(0.0, 1.0, 16)
    worst = 0.0
    for eps in (1.0, 0.1, 0.01):
        w0 = _random_grid_fn(rng, grid)
        w1 = _random_grid_fn(rng, grid)
        layer = InitialLayer.from_samples(grid, eps, 0.5, 0.0, w0, w1)
        for tau in (0.1, 0.01):
            t = 3.0 * tau
            exact = layer.averaged_wave(t, tau)
            quad = triangular_average_quadrature(layer, t, tau)
            worst = max(worst, float(np.max(np.abs(exact - quad))))
    return _result("averaged_wave_quadrature", worst, 1e-9)


def check_potential_blocks(n_steps=1500):
    """The streamed potentials of a forward march against ``averaged_wave``, bit for bit.

    At M = 48 a block holds 697 steps, so 1500 steps span three blocks
    and end in a partial one. Step k takes its potential at t_k = k tau.
    """
    params, _, layer = _toy_setup(tau=1.0 / n_steps)
    tau = params.tau
    differ = [
        k
        for k, potential in zip(range(1, n_steps + 1), layer._potentials(1, n_steps + 1, tau))
        if not np.array_equal(potential, layer.averaged_wave(k * tau, tau))
    ]
    if differ:
        detail = f"{len(differ)} steps differ, the first at k={differ[0]}"
        return CheckResult("potential_blocks", False, detail)
    return CheckResult("potential_blocks", True, f"bit for bit over {n_steps} steps")


def check_potential_producer(n_steps=10):
    """The producer process's stream of potentials against the in-process stream, bit for bit.

    At M = 16386 every block is one row, so the producer may serve the
    stream; 10 rows wrap its 3-slot ring three times.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return CheckResult("potential_producer", True, "no fork start method: streams run in process")
    params, _, layer = _toy_setup(M=16386, tau=1.0 / n_steps)
    tau = params.tau
    # read whole before comparing: a row must not change when its slot is reused
    produced = list(layer._produced(1, n_steps + 1, tau))
    here = layer._computed(1, n_steps + 1, tau, 1)
    differ = [
        k for k, a, b in zip(range(1, n_steps + 1), produced, here) if not np.array_equal(a, b)
    ]
    if differ:
        detail = f"{len(differ)} rows differ, the first at k={differ[0]}"
        return CheckResult("potential_producer", False, detail)
    return CheckResult("potential_producer", True, f"bit for bit over {n_steps} rows")


def _toy_setup(eps=0.5, M=48, tau=0.01):
    grid = Grid1D(-6.0, 6.0, M)
    data = preset_initial_data("gauss_sech")
    params = KgzParams(eps=eps, alpha=1.0, beta=0.0, grid=grid, tau=tau, T=1.0)
    return params, data, build_layer(params, data)


def _round_trip(name, state0, params, layer, n_steps):
    """March forward, march back, land on the initial state; ``step`` serves either model.

    Compares both stored levels of each unknown the state carries (E, and F
    unless it is None), relative to the largest curr level among them.
    """
    state = deque(march(state0, lambda s: step(s, params, layer), n_steps), maxlen=1).pop()
    state = deque(march(state, lambda s: step_back(s, params, layer), n_steps), maxlen=1).pop()
    fields = "E" if state0.F_curr is None else "EF"
    scale = max(*(np.max(np.abs(getattr(state0, f + "_curr"))) for f in fields), 1e-30)
    worst = max(
        np.max(np.abs(getattr(state, f + lvl) - getattr(state0, f + lvl)))
        for f in fields
        for lvl in ("_prev", "_curr")
    )
    return _result(name, worst / scale, 1e-8)


def check_reversibility_coupled(n_steps=100):
    params, data, layer = _toy_setup()
    state0 = first_state(params, data, layer)
    return _round_trip("reversibility_coupled", state0, params, layer, n_steps)


def check_reversibility_limit(n_steps=100):
    params, data, layer = _toy_setup()
    state0 = first_state_kg(params, data, layer)
    return _round_trip("reversibility_limit", state0, params, layer, n_steps)


def whole_trajectory_limit(params, data):
    """The limit metrics of one eps from whole trajectories, each quantity normed as one stack.

    The reference of the streamed eps-limit task: both models run alone
    and are stored whole, and no level is reduced before the last exists.
    """
    coupled = trajectory(params, data)
    limit = trajectory_kg(params, data, build_layer(params, data))
    dF, ddF = _time_derivatives(coupled.F, params.tau)
    nF, ndF, nddF = (grid_norms(v, params.grid) for v in (coupled.F, dF, ddF))
    diff = grid_norms(coupled.E - limit.E, params.grid)
    return LimitMetrics(
        times=coupled.times,
        eta_2=nF.l2 / params.eps + ndF.l2 + nddF.l2,
        eta_inf=nF.inf / params.eps + ndF.inf + nddF.inf,
        eta_e=diff.l2 + diff.h1_semi,
        f_l2=nF.l2,
    )


def check_limit_lockstep():
    """The streamed eps-limit task against whole trajectories, bit for bit.

    K = 100 levels span several reduction blocks and end in a partial one.
    """
    params, data, _ = _toy_setup(eps=0.25)
    summary = _limit_summary(params, data)
    ref = whole_trajectory_limit(params, data)
    k = int(np.argmax(ref.eta_e))
    expected = {
        "max_eta_e": float(ref.eta_e[k]),
        "t_max": float(ref.times[k]),
        "max_f_over_eps": float(np.max(ref.f_l2) / params.eps),
    }
    differ = [key for key, value in expected.items() if summary[key] != value]
    differ += [
        name
        for name in ("times", "eta_2", "eta_inf", "eta_e", "f_l2")
        if not np.array_equal(getattr(summary["curves"], name), getattr(ref, name))
    ]
    if differ:
        return CheckResult("limit_lockstep", False, "differs in " + ", ".join(differ))
    return CheckResult("limit_lockstep", True, f"bit for bit over {len(ref.times)} levels")


def check_zero_fixed_point():
    """All-zero data must produce the exact zero trajectory."""
    grid = Grid1D(-4.0, 4.0, 32)
    zero = lambda x: np.zeros_like(x)
    data = InitialData(E0=zero, E1=zero, omega0=zero, omega1=zero)
    params = KgzParams(eps=0.25, alpha=0.0, beta=-1.0, grid=grid, tau=0.05, T=1.0)
    layer = build_layer(params, data)
    worst = 0.0
    for state in march(first_state(params, data, layer), lambda s: step(s, params, layer), 10):
        worst = max(worst, np.max(np.abs(state.E_curr)), np.max(np.abs(state.F_curr)))
    passed = worst == 0.0
    return CheckResult("zero_fixed_point", passed, f"max |state| = {worst:.3e}")


def check_dirichlet_boundary(n_steps=25):
    params, data, layer = _toy_setup(eps=0.2, M=64, tau=0.02)
    worst = 0.0
    start = first_state(params, data, layer)
    for state in march(start, lambda s: step(s, params, layer), n_steps):
        for v in (state.E_curr, state.F_curr):
            worst = max(worst, abs(v[0]), abs(v[-1]))
    passed = worst == 0.0
    return CheckResult("dirichlet_boundary", passed, f"max boundary value = {worst:.3e}")


def check_tridiagonal_dense(seed=4):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (1, 2, 3, 10, 50):
        lower = rng.standard_normal(max(n - 1, 0))
        upper = rng.standard_normal(max(n - 1, 0))
        neighbor = np.zeros(n)
        if n > 1:
            neighbor[1:] += np.abs(lower)
            neighbor[:-1] += np.abs(upper)
        diag = neighbor + 1.0 + rng.random(n)
        rhs = rng.standard_normal(n)
        dense = np.diag(diag)
        if n > 1:
            dense += np.diag(lower, -1) + np.diag(upper, 1)
        expected = np.linalg.solve(dense, rhs)
        got = solve_tridiagonal(lower, diag, upper, rhs)
        worst = max(
            worst, np.max(np.abs(got - expected)) / max(np.max(np.abs(expected)), 1e-30)
        )
    return _result("tridiagonal_vs_dense", worst, 1e-12)


def check_tridiagonal_factored(seed=6):
    """A factor reused across right-hand sides against gtsv and a dense solve.

    Density-type systems are a constant SPD Toeplitz matrix given by its
    scalars, as the time stepper factors it; field-type systems have a
    diagonal that varies from row to row.
    """
    rng = np.random.default_rng(seed)
    inv_t2, inv_h2 = 1e4, 1.0 / 0.05**2
    worst = 0.0
    for n in (1, 2, 3, 50, 1000):
        off = np.full(n - 1, -0.5 * inv_h2)
        density = (-0.5 * inv_h2, inv_t2 + inv_h2, -0.5 * inv_h2)
        field = (off, inv_t2 + inv_h2 + 0.5 * rng.uniform(-1.0, 2.0, n), off)
        for case in (density, field):
            factor = factor_tridiagonal(*case, n=n)
            lower, diag, upper = (
                np.broadcast_to(v, (m,)) for v, m in zip(case, (n - 1, n, n - 1))
            )
            dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
            for _ in range(3):
                rhs = rng.standard_normal(n)
                got = solve_factored(factor, rhs)
                scale = max(np.max(np.abs(got)), 1e-30)
                for expected in (
                    solve_tridiagonal(lower, diag, upper, rhs),
                    np.linalg.solve(dense, rhs),
                ):
                    worst = max(worst, np.max(np.abs(got - expected)) / scale)
    return _result("tridiagonal_factored", worst, 1e-12)


def check_poisson_dense(seed=5):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for M in (4, 16, 64):
        grid = Grid1D(-1.0, 2.0, M)
        f = _random_grid_fn(rng, grid)
        n = M - 1
        dense = (
            np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
        ) / grid.h**2
        expected = np.linalg.solve(dense, f[1:-1])
        got = solve_poisson_dirichlet(f, grid)
        worst = max(
            worst,
            np.max(np.abs(got[1:-1] - expected)) / max(np.max(np.abs(expected)), 1e-30),
        )
    return _result("poisson_vs_dense", worst, 1e-12)


ALL_CHECKS = (
    check_summation_by_parts,
    check_dst_round_trip,
    check_dst_parseval,
    check_averaged_wave,
    check_potential_blocks,
    check_potential_producer,
    check_reversibility_coupled,
    check_reversibility_limit,
    check_limit_lockstep,
    check_zero_fixed_point,
    check_dirichlet_boundary,
    check_tridiagonal_dense,
    check_tridiagonal_factored,
    check_poisson_dense,
)


def run_all():
    return [chk() for chk in ALL_CHECKS]
