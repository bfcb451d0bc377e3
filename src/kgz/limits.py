"""Limiting Klein-Gordon solvers and the vanishing-eps diagnostics.

The limit model drops the density coupling; optionally it keeps the
oscillatory layer as a potential. It is not a second scheme: its start and
step are those of :mod:`kgz.solver` with F = 0 and no density solve, so
differences between the two trajectories measure the coupling effect
rather than scheme differences.

:func:`limit_metrics` compares whole trajectories of at least four time
levels (the span of the one-sided time differences at either end), with one
stacked :func:`kgz.grid.grid_norms` call per quantity over all levels.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .grid import grid_norms, inner_product
from .solver import _advance, _taylor_start, march
from .solver import _solve_field  # noqa: F401  perfbench/tracer.py wraps this name here


@dataclass(frozen=True)
class KgState:
    k: int
    t_k: float
    E_prev: np.ndarray
    E_curr: np.ndarray


@dataclass(frozen=True)
class KgTrajectory:
    eps: float
    times: np.ndarray
    E: np.ndarray


def first_state_kg(params, data, layer, use_potential=True):
    """Taylor start for the limit model; matches the coupled start exactly.

    With the potential on, the initial field acceleration is the same as in
    the coupled system; plain Klein-Gordon drops the incompatibility term.
    """
    E0, E1, _ = _taylor_start(params, data, layer, use_potential)
    return KgState(k=1, t_k=params.tau, E_prev=E0, E_curr=E1)


def step_kg(state, params, layer, use_potential=True):
    """One forward step of the limit model."""
    potential = layer if use_potential else None
    E, _ = _advance(state.E_curr, state.E_prev, None, None, state.t_k, params, potential)
    k = state.k + 1
    return KgState(k=k, t_k=k * params.tau, E_prev=state.E_curr, E_curr=E)


def step_kg_back(state, params, layer, use_potential=True):
    """One backward step, centered at the prev level (see solver.step_back)."""
    tau, potential = params.tau, (layer if use_potential else None)
    E, _ = _advance(state.E_prev, state.E_curr, None, None, state.t_k - tau, params, potential)
    k = state.k - 1
    return KgState(k=k, t_k=k * tau, E_prev=E, E_curr=state.E_prev)


def trajectory_kg(params, data, layer, use_potential=True):
    K = params.n_steps()
    state = first_state_kg(params, data, layer, use_potential)
    E = np.empty((K + 1, params.grid.M + 1))
    E[0] = state.E_prev
    for state in march(state, lambda s: step_kg(s, params, layer, use_potential), K - 1):
        E[state.k] = state.E_curr
    return KgTrajectory(eps=params.eps, times=np.arange(K + 1) * params.tau, E=E)


def _time_derivatives(F, tau):
    """Centered first and second time differences with one-sided ends."""
    K = F.shape[0] - 1
    if K < 3:
        raise ShapeError("need at least 4 time levels for the time derivatives")
    dF = np.empty_like(F)
    dF[1:-1] = (F[2:] - F[:-2]) / (2.0 * tau)
    dF[0] = (-3.0 * F[0] + 4.0 * F[1] - F[2]) / (2.0 * tau)
    dF[-1] = (3.0 * F[-1] - 4.0 * F[-2] + F[-3]) / (2.0 * tau)
    ddF = np.empty_like(F)
    ddF[1:-1] = (F[2:] - 2.0 * F[1:-1] + F[:-2]) / tau**2
    ddF[0] = (2.0 * F[0] - 5.0 * F[1] + 4.0 * F[2] - F[3]) / tau**2
    ddF[-1] = (2.0 * F[-1] - 5.0 * F[-2] + 4.0 * F[-3] - F[-4]) / tau**2
    return dF, ddF


@dataclass(frozen=True)
class LimitMetrics:
    times: np.ndarray
    eta_2: np.ndarray
    eta_inf: np.ndarray
    eta_e: np.ndarray


def limit_metrics(kgz_traj, kg_traj, grid, tau):
    """Convergence diagnostics between the coupled run and its limit model.

    eta_2 and eta_inf weigh the corrected density and its first two time
    derivatives (the density part scaled by 1/eps); eta_e is the discrete
    H1 distance between the two fields, taken as the L2 norm plus the
    seminorm to match the error metric used elsewhere.
    """
    if kgz_traj.E.shape != kg_traj.E.shape:
        raise ShapeError("trajectories have different shapes")
    if kgz_traj.E.shape[1] != grid.M + 1:
        raise ShapeError("trajectories do not live on the given grid")
    if not np.array_equal(kgz_traj.times, kg_traj.times):
        raise ShapeError("trajectories use different time levels")
    eps = kgz_traj.eps
    dF, ddF = _time_derivatives(kgz_traj.F, tau)
    nF, ndF, nddF = grid_norms(kgz_traj.F, grid), grid_norms(dF, grid), grid_norms(ddF, grid)
    # the derivative stacks go before the field difference is formed, so no
    # more whole-trajectory arrays are alive at once than the derivatives need
    del dF, ddF
    eta_2 = nF.l2 / eps + ndF.l2 + nddF.l2
    eta_inf = nF.inf / eps + ndF.inf + nddF.inf
    diff = grid_norms(kgz_traj.E - kg_traj.E, grid)
    eta_e = diff.l2 + diff.h1_semi
    return LimitMetrics(times=kgz_traj.times.copy(), eta_2=eta_2, eta_inf=eta_inf, eta_e=eta_e)


def kg_energy(state, grid, tau):
    """Conserved-energy diagnostic of the plain Klein-Gordon model."""
    dtE = (state.E_curr - state.E_prev) / tau
    total = grid_norms(dtE, grid).l2 ** 2
    for E in (state.E_prev, state.E_curr):
        n = grid_norms(E, grid)
        quartic = inner_product(E**2, E**2, grid)
        total += 0.5 * (n.h1_semi**2 + n.l2**2 - 0.5 * quartic)
    return float(total)
