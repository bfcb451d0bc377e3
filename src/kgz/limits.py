"""Limiting Klein-Gordon solvers and the vanishing-eps diagnostics.

The limit model drops the density coupling; it keeps the oscillatory
layer as a potential, or with ``layer`` None it is plain Klein-Gordon. It
is not a second scheme and has no types or steps of its own: its states
and trajectories are those of :mod:`kgz.solver` with F None, its start is
:func:`kgz.solver.first_state` with F dropped, and ``step`` and
``step_back`` step it with F = 0 and no density solve, so differences
between the two trajectories measure the coupling effect rather than
scheme differences.

The diagnostics (:class:`LimitMetrics`) are reduced level by level as the
levels are produced, in blocks of ``_BLOCK`` levels: the norms of a level
need only that level, its centered time differences the levels on either
side, and the one-sided differences at either end the first or the last
four levels (so a run needs at least four). The eps-limit task marches the
coupled scheme and its limit model in lockstep, one averaged potential per
step for both, and holds O(M) arrays plus the O(K) curves whatever the
number of steps K. :func:`limit_metrics` is the same reduction fed from
whole trajectories, which :func:`kgz.solver.trajectory` and
:func:`trajectory_kg` still record. Every norm is taken row by row, as
:func:`kgz.grid.grid_norms` takes a stack, so neither the block size nor
the route changes a bit of the result.
"""

from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .grid import GridNorms, _h1, _inf, _l2, grid_norms, inner_product
from .solver import KgzState, _march_forward, _record, _step, build_layer, first_state
from .solver import _solve_field  # noqa: F401  perfbench/tracer.py wraps this name here
from .solver import step as step_kg  # noqa: F401  perfbench/tracer.py wraps this name here

# time levels per reduced block; any size gives the same bits, it only
# trades the block's memory against numpy calls per level
_BLOCK = 16


def first_state_kg(params, data, layer):
    """The limit model's start: ``first_state`` with F dropped, so its E levels are the coupled ones."""
    return replace(first_state(params, data, layer), F_prev=None, F_curr=None)


def trajectory_kg(params, data, layer):
    """Every time level of the limit model to T, as a Trajectory with F None."""
    return _record(first_state_kg(params, data, layer), params, layer)


def _centered(F, tau):
    """Centered first and second time differences at the inner levels of a stack of levels."""
    return (F[2:] - F[:-2]) / (2.0 * tau), (F[2:] - 2.0 * F[1:-1] + F[:-2]) / tau**2


def _one_sided(F, tau):
    """First and second time differences at the end level F[0], from F[0..3] ordered inward.

    The first difference is taken in the inward direction: at the last
    level its sign must be flipped.
    """
    dF = (-3.0 * F[0] + 4.0 * F[1] - F[2]) / (2.0 * tau)
    ddF = (2.0 * F[0] - 5.0 * F[1] + 4.0 * F[2] - F[3]) / tau**2
    return dF, ddF


def _time_derivatives(F, tau):
    """Centered first and second time differences with one-sided ends, over a whole stack."""
    K = F.shape[0] - 1
    if K < 3:
        raise ShapeError("need at least 4 time levels for the time derivatives")
    dF = np.empty_like(F)
    ddF = np.empty_like(F)
    dF[1:-1], ddF[1:-1] = _centered(F, tau)
    dF[0], ddF[0] = _one_sided(F[:4], tau)
    d_end, ddF[-1] = _one_sided(F[:-5:-1], tau)
    dF[-1] = -d_end
    return dF, ddF


@dataclass(frozen=True)
class LimitMetrics:
    """Per-level limit diagnostics; ``f_l2`` is the L2 norm of the corrected density F."""

    times: np.ndarray
    eta_2: np.ndarray
    eta_inf: np.ndarray
    eta_e: np.ndarray
    f_l2: np.ndarray


def _put(curves, k0, stack, grid):
    """Write the norms of a stack of levels k0, k0 + 1, ... into the GridNorms of curves.

    A norm whose curve is None is not read, and is not computed.
    """
    for curve, norm in zip(curves, (_l2, _h1, _inf)):
        if curve is not None:
            values = norm(stack, grid)
            curve[k0 : k0 + len(values)] = values


class _LimitReducer:
    """The limit metrics reduced level by level: ``push`` levels 0..K in order, then ``finish``.

    F is copied into one block of ``_BLOCK`` levels after the two levels
    before it, which the centered differences of the block reach back into.
    The one-sided ends keep the first four and the latest four levels by
    reference, so a pushed level must not change afterwards.
    """

    def __init__(self, times, grid, tau, eps):
        K = len(times) - 1
        if K < 3:
            raise ShapeError("need at least 4 time levels for the time derivatives")
        self.times, self.grid, self.tau, self.eps = times, grid, tau, eps
        self.F = np.empty((_BLOCK + 2, grid.M + 1))
        self.diff = np.empty((_BLOCK, grid.M + 1))
        self.rows = 2  # rows 0 and 1 hold the two levels before the block
        self.n = 0
        self.first, self.last = [], deque(maxlen=4)
        # the norms per level that finish reads: l2 and inf of F and its
        # two time differences, l2 and h1 of E - E_kg
        self.nF, self.ndF, self.nddF = (
            GridNorms(np.empty(K + 1), None, np.empty(K + 1)) for _ in range(3)
        )
        self.ndiff = GridNorms(np.empty(K + 1), np.empty(K + 1), None)

    def push(self, F, E, E_kg):
        """Take the next level: the coupled F and E, and the limit model's E."""
        self.F[self.rows] = F
        np.subtract(E, E_kg, out=self.diff[self.rows - 2])
        if self.n < 4:
            self.first.append(F)
        self.last.append(F)
        self.rows += 1
        self.n += 1
        if self.rows == _BLOCK + 2:
            self._flush()

    def _flush(self):
        """Reduce the levels of the block, and the centered differences they complete."""
        rows, grid = self.rows, self.grid
        k0 = self.n - (rows - 2)  # the level in row 2; row r holds level k0 - 2 + r
        _put(self.nF, k0, self.F[2:rows], grid)
        _put(self.ndiff, k0, self.diff[: rows - 2], grid)
        # every row with both neighbours in the buffer, from level 1 on
        lo = max(1, 3 - k0)
        dF, ddF = _centered(self.F[lo - 1 : rows], self.tau)
        _put(self.ndF, k0 - 2 + lo, dF, grid)
        _put(self.nddF, k0 - 2 + lo, ddF, grid)
        self.F[:2] = self.F[rows - 2 : rows]
        self.rows = 2

    def finish(self):
        """The LimitMetrics over every level; all K + 1 of them must have been pushed."""
        K = len(self.times) - 1
        if self.n != K + 1:
            raise ShapeError(f"{self.n} of the {K + 1} time levels were pushed")
        if self.rows > 2:
            self._flush()
        d, dd = _one_sided(self.first, self.tau)
        _put(self.ndF, 0, d[None], self.grid)
        _put(self.nddF, 0, dd[None], self.grid)
        d, dd = _one_sided(list(reversed(self.last)), self.tau)
        _put(self.ndF, K, -d[None], self.grid)
        _put(self.nddF, K, dd[None], self.grid)
        nF, ndF, nddF, eps = self.nF, self.ndF, self.nddF, self.eps
        return LimitMetrics(
            times=self.times,
            eta_2=nF.l2 / eps + ndF.l2 + nddF.l2,
            eta_inf=nF.inf / eps + ndF.inf + nddF.inf,
            eta_e=self.ndiff.l2 + self.ndiff.h1_semi,
            f_l2=nF.l2,
        )


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
    reducer = _LimitReducer(kgz_traj.times.copy(), grid, tau, kgz_traj.eps)
    for F, E, E_kg in zip(kgz_traj.F, kgz_traj.E, kg_traj.E):
        reducer.push(F, E, E_kg)
    return reducer.finish()


class _Lockstep(NamedTuple):
    """The coupled state and its limit-model state, both at level k."""

    k: int
    t_k: float
    coupled: KgzState
    limit: KgzState


def _lockstep_step(s, st, potential):
    """One step of both models, with the one stencil and averaged potential they share."""
    coupled = _step(s.coupled, st, potential)
    return _Lockstep(coupled.k, coupled.t_k, coupled, _step(s.limit, st, potential))


def _lockstep_metrics(params, data):
    """The LimitMetrics of one eps, with both models marched in lockstep from one layer.

    Each step takes one streamed averaged potential for both models. A
    KgzError of either model leaves through ``march`` with its ``k`` and ``t``.
    """
    K, tau = params.n_steps(), params.tau
    layer = build_layer(params, data)
    state = _Lockstep(1, tau, first_state(params, data, layer), first_state_kg(params, data, layer))
    reducer = _LimitReducer(np.arange(K + 1) * tau, params.grid, tau, params.eps)
    reducer.push(state.coupled.F_prev, state.coupled.E_prev, state.limit.E_prev)
    for state in _march_forward(state, params, layer, _lockstep_step):
        reducer.push(state.coupled.F_curr, state.coupled.E_curr, state.limit.E_curr)
    return reducer.finish()


def kg_energy(state, grid, tau):
    """Conserved-energy diagnostic of the plain Klein-Gordon model."""
    dtE = (state.E_curr - state.E_prev) / tau
    total = grid_norms(dtE, grid).l2 ** 2
    for E in (state.E_prev, state.E_curr):
        n = grid_norms(E, grid)
        quartic = inner_product(E**2, E**2, grid)
        total += 0.5 * (n.h1_semi**2 + n.l2**2 - 0.5 * quartic)
    return float(total)
