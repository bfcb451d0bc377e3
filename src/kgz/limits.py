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
levels are produced, by one reduction for every route: the norms of a
level need only that level, its centered time differences the levels on
either side, and the one-sided differences at either end the first or the
last four levels (so a run needs at least four). The eps-limit task
marches the coupled scheme and its limit model in lockstep, one averaged
potential per step for both, and holds O(M) arrays plus the O(K) curves
whatever the number of steps K. The limit model's levels depend on the
time alone, like the potentials, so where a producer process serves the
potential stream (:mod:`kgz.layer`) it marches the limit model too and
streams its levels beside the potentials; where the stream runs in
process (pool workers, one CPU, no ``fork``, short runs), or from the
point where the producer stops, both models step in process, with the
same bits. :func:`limit_metrics` feeds the same
reduction from whole trajectories, which :func:`kgz.solver.trajectory` and
:func:`trajectory_kg` still record; its independent reference is the closed
form of a synthetic density in ``kgz check``.
"""

from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .grid import _h1, _inf, _l2, grid_norms, inner_product
from .solver import ALIGN_RTOL, KgzState, _march_forward, _record, _step, build_layer, first_state
from .solver import _solve_field  # noqa: F401  perfbench/tracer.py wraps this name here
from .solver import step as step_kg  # noqa: F401  perfbench/tracer.py wraps this name here


def first_state_kg(params, data, layer):
    """The limit model's start: ``first_state`` with F dropped, so its E levels are the coupled ones."""
    return replace(first_state(params, data, layer), F_prev=None, F_curr=None)


def trajectory_kg(params, data, layer):
    """Every time level of the limit model to T, as a Trajectory with F None."""
    return _record(first_state_kg(params, data, layer), params, layer)


def _centered(F_prev, F, F_next, tau):
    """Centered first and second time differences at the level F between F_prev and F_next."""
    return (F_next - F_prev) / (2.0 * tau), (F_next - 2.0 * F + F_prev) / tau**2


def _one_sided(F, tau):
    """First and second time differences at the end level F[0], from F[0..3] ordered inward.

    The first difference is taken in the inward direction: at the last
    level its sign must be flipped.
    """
    dF = (-3.0 * F[0] + 4.0 * F[1] - F[2]) / (2.0 * tau)
    ddF = (2.0 * F[0] - 5.0 * F[1] + 4.0 * F[2] - F[3]) / tau**2
    return dF, ddF


@dataclass(frozen=True)
class LimitMetrics:
    """Per-level limit diagnostics; ``f_l2`` is the L2 norm of the corrected density F."""

    times: np.ndarray
    eta_2: np.ndarray
    eta_inf: np.ndarray
    eta_e: np.ndarray
    f_l2: np.ndarray


def _reduce(levels, times, grid, tau, eps):
    """The LimitMetrics of levels 0..K, taken in order as ``(F, E, E_kg)``.

    eta_e of a level is taken as the level arrives, an inner level's
    density terms once the next level is in, and the one-sided ends once
    level 3 is in and at the end. Only the last four F levels are held, by
    reference, so a level must not change after it is given.
    """
    K = len(times) - 1
    if K < 3:
        raise ShapeError("need at least 4 time levels for the time derivatives")
    eta_2, eta_inf, eta_e, f_l2 = np.empty((4, K + 1))

    def density(k, F, dF, ddF):
        f_l2[k] = _l2(F, grid)
        eta_2[k] = f_l2[k] / eps + _l2(dF, grid) + _l2(ddF, grid)
        eta_inf[k] = _inf(F, grid) / eps + _inf(dF, grid) + _inf(ddF, grid)

    last = deque(maxlen=4)
    for k, (F, E, E_kg) in enumerate(levels):
        diff = E - E_kg
        eta_e[k] = _l2(diff, grid) + _h1(diff, grid)
        last.append(F)
        if k >= 2:
            density(k - 1, last[-2], *_centered(last[-3], last[-2], last[-1], tau))
        if k == 3:
            density(0, last[0], *_one_sided(last, tau))
    dF, ddF = _one_sided(list(reversed(last)), tau)
    density(K, last[-1], -dF, ddF)
    return LimitMetrics(times, eta_2, eta_inf, eta_e, f_l2)


def limit_metrics(kgz_traj, kg_traj, grid, tau):
    """Convergence diagnostics between the coupled run and its limit model.

    eta_2 and eta_inf weigh the corrected density and its first two time
    derivatives (the density part scaled by 1/eps); eta_e is the discrete
    H1 distance between the two fields, taken as the L2 norm plus the
    seminorm to match the error metric used elsewhere. Time differences are
    centered, and one-sided at levels 0 and K, so K >= 3. The stored
    trajectories go through the reduction of the streamed eps-limit task,
    in O(M) memory beyond the inputs.
    """
    F, times = kgz_traj.F, kgz_traj.times
    if F is None:
        raise ShapeError("the coupled trajectory has no density F")
    if not F.shape == kgz_traj.E.shape == kg_traj.E.shape:
        raise ShapeError("trajectories have different shapes")
    if F.shape[1:] != (grid.M + 1,):
        raise ShapeError("trajectories do not live on the given grid")
    if times.shape != (len(F),):
        raise ShapeError(f"{len(times)} times for {len(F)} time levels")
    if not np.array_equal(times, kg_traj.times):
        raise ShapeError("trajectories use different time levels")
    steps = np.arange(len(F))
    spaced = 0 < tau < np.inf and np.all(
        np.abs(times - steps * tau) <= ALIGN_RTOL * tau * np.maximum(1, steps)
    )
    if not spaced:
        raise ShapeError(f"the time levels are not spaced by tau = {tau!r}")
    levels = zip(F, kgz_traj.E, kg_traj.E)
    return _reduce(levels, times.copy(), grid, tau, kgz_traj.eps)


class _Lockstep(NamedTuple):
    """The coupled state and its limit-model state, both at level k."""

    k: int
    t_k: float
    coupled: KgzState
    limit: KgzState


def _limit_ahead(limit, st):
    """The lockstep's stream follower: from ``limit`` on, the potential at t_k in, the limit E at k + 1 out."""

    def follow(potential):
        nonlocal limit
        limit = _step(limit, st, potential)
        return limit.E_curr

    return follow


def _lockstep_step(s, st, streamed):
    """One step of both models, with the one stencil and averaged potential they share.

    ``streamed`` is the potential and the limit model's E at the next level
    as the producer marched it ahead, or None in its place where the
    stream runs in process; the limit model then steps here, after the
    coupled model.
    """
    potential, E_kg = streamed
    coupled = _step(s.coupled, st, potential)
    if E_kg is None:
        limit = _step(s.limit, st, potential)
    else:
        limit = KgzState(coupled.k, coupled.t_k, s.limit.E_curr, E_kg)
    return _Lockstep(coupled.k, coupled.t_k, coupled, limit)


def _lockstep_metrics(params, data, layer=None):
    """The LimitMetrics of one eps, with both models marched in lockstep from one layer.

    Each step takes one streamed averaged potential for both models. Where
    a producer process serves the stream, it also marches the limit model
    ahead (``_limit_ahead``), and this process steps the coupled model
    alone; should the producer stop, both models step here from the first
    block it did not deliver. A KgzError of either model leaves through
    ``march`` with its ``k`` and ``t``, the coupled model's first within a
    step. ``layer`` is built from ``data`` if None; ``kgz check`` passes
    one whose stream always forks.
    """
    K, tau = params.n_steps(), params.tau
    layer = build_layer(params, data) if layer is None else layer
    coupled = first_state(params, data, layer)
    # no step writes a state's arrays in place, so the two starts share them
    state = _Lockstep(1, tau, coupled, replace(coupled, F_prev=None, F_curr=None))
    states = _march_forward(
        state, params, layer, _lockstep_step, partial(_limit_ahead, state.limit)
    )
    levels = chain(
        [(state.coupled.F_prev, state.coupled.E_prev, state.limit.E_prev)],
        ((s.coupled.F_curr, s.coupled.E_curr, s.limit.E_curr) for s in states),
    )
    return _reduce(levels, np.arange(K + 1) * tau, params.grid, tau, params.eps)


def _maxima(metrics, eps):
    """The maxima of an eps-limit row: the first maximum of eta_e, its time, and max f_l2 / eps."""
    k = int(np.argmax(metrics.eta_e))
    return {
        "max_eta_e": float(metrics.eta_e[k]),
        "t_max": float(metrics.times[k]),
        "max_f_over_eps": float(np.max(metrics.f_l2) / eps),
    }


def kg_energy(state, grid, tau):
    """Conserved-energy diagnostic of the plain Klein-Gordon model."""
    dtE = (state.E_curr - state.E_prev) / tau
    total = grid_norms(dtE, grid).l2 ** 2
    for E in (state.E_prev, state.E_curr):
        n = grid_norms(E, grid)
        quartic = inner_product(E**2, E**2, grid)
        total += 0.5 * (n.h1_semi**2 + n.l2**2 - 0.5 * quartic)
    return float(total)
