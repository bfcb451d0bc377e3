"""Two-step semi-implicit finite difference scheme for the KGZ system.

The density is evolved through the corrected unknown F = N + E^2 - G, where
G is the oscillatory initial layer handled exactly by :mod:`kgz.layer`. Each
step solves two strictly diagonally dominant tridiagonal systems: first the
field E (its system needs the averaged layer potential at the current time),
then F, whose source term consumes the freshly computed field level.

The scheme is one symmetric three-level stencil, written once in
``_advance``; backward steps swap its outer levels. The eps -> 0+ limit
model of :mod:`kgz.limits` is the same stencil with F = 0 and no density
solve, and one state type, :class:`KgzState` with F None, so
``first_state``, ``step``, ``step_back``, ``_step`` and ``_record`` serve
both models. Wherever a layer is taken, ``layer`` None means no potential
(plain Klein-Gordon). One generator, ``march``, owns the time loop of
every driver, and ``_march_forward`` sets every forward run up once: it
builds the run's ``_Stencil`` and opens the layer's stream of averaged
potentials, which depend on the time alone and are evaluated a block of
steps ahead (for long streams in a producer process beside the march). A
step is a pure function of (state, stencil, potential), and no cache
outlives a run. ``step`` and ``step_back`` build the stencil and the
layer's averaging weights per call, with the same bits: under 1 ms more
per call at M = 29440 and about 0.04 ms at M = 920. No driver calls them.

The field matrix depends on the current level and is solved afresh each
step. The density matrix depends only on (M, h, tau, eps), so the stencil
holds its LU factors, which every step reuses; on these dominant systems
that repeats the one-shot elimination exactly, bit for bit. The stencil
also holds the rest a run keeps fixed: 1/tau^2, h^2, 1/h^2,
s = 1/(2 eps^2) and the field matrix's off-diagonal.
A step assembles its arrays in place, in the operation order of the
formulas written in ``_advance``, so it gives the formulas' bits. Both
solves are held to the residual gate of :mod:`kgz.grid`: a double-precision
residual must satisfy ``||Ax - b|| <= 1e-12 ||b||``, and only when it does
not is the solution refined once in extended precision.
"""

import warnings
from contextlib import closing, nullcontext
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from .errors import KgzError, ParameterError, ShapeError, StabilityError
from .errors import countable, inverse_square_finite, positive_finite
from .grid import (
    Grid1D,
    TridiagonalFactor,
    _in_memory,
    _second_difference,
    _solve_factored,
    _solve_tridiagonal,
    factor_tridiagonal,
    grid_norms,
    inner_product,
    second_difference,
    solve_poisson_dirichlet,
)
from .grid import solve_tridiagonal  # noqa: F401  perfbench/tracer.py wraps this name here
from .layer import InitialLayer, _data_scales, decay_order

# relative slack when testing whether a time is a whole number of steps;
# a strict half-ulp test rejects tau = T / K after the float round trip
ALIGN_RTOL = 1e-9


def whole_steps(t, tau):
    """k when t is k whole steps of tau within ALIGN_RTOL, else None; k may be 0 or negative."""
    q = countable(t / tau, "steps", f"t={t} and tau={tau}")
    k = round(q)
    return int(k) if abs(q - k) <= ALIGN_RTOL * max(1.0, abs(q)) else None


@dataclass(frozen=True)
class KgzParams:
    eps: float
    alpha: float
    beta: float
    grid: Grid1D
    tau: float
    T: float

    def __post_init__(self):
        for name in ("eps", "tau", "T"):
            positive_finite(name, getattr(self, name))
        for name in ("eps", "tau"):  # the stencil divides by their squares
            inverse_square_finite(name, getattr(self, name))
        decay_order(self.alpha, self.beta)
        _data_scales(self.eps, self.alpha, self.beta)
        self.n_steps()  # reject a partial final step early

    def n_steps(self):
        k = whole_steps(self.T, self.tau)
        if k is None or k < 1:
            q = self.T / self.tau
            raise ParameterError(
                f"T={self.T} is not a whole number of steps of tau={self.tau}; "
                f"nearest divisors give tau={self.T / max(round(q), 1)} or "
                f"tau={self.T / (int(q) + 1)}"
            )
        return k


@dataclass(frozen=True)
class InitialData:
    """Samplers for the field data and the density incompatibility profiles."""

    E0: Callable
    E1: Callable
    omega0: Callable
    omega1: Callable

    def sample(self, grid):
        """The four samples on the grid, boundary values zeroed; each must be finite inside."""
        out = []
        for name in ("E0", "E1", "omega0", "omega1"):
            v = np.asarray(getattr(self, name)(grid.nodes), dtype=float).copy()
            if v.shape != grid.nodes.shape:
                raise ShapeError("initial data sampler returned a wrong shape")
            v[0] = 0.0
            v[-1] = 0.0
            if not np.isfinite(v).all():
                j = int(np.argmin(np.isfinite(v)))
                raise ParameterError(f"initial data {name} is {v[j]} at node {j}")
            out.append(v)
        return tuple(out)


@dataclass(frozen=True)
class KgzState:
    """Levels prev and curr of (E, F), F None in the limit model; curr sits at t_k = k*tau."""

    k: int
    t_k: float
    E_prev: np.ndarray
    E_curr: np.ndarray
    F_prev: np.ndarray = None
    F_curr: np.ndarray = None


class Snapshot(NamedTuple):
    t: float
    E: np.ndarray
    F: np.ndarray
    N: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Every time level of a run; E and F (None in the limit model) have shape (K + 1, M + 1)."""

    eps: float
    times: np.ndarray
    E: np.ndarray
    F: np.ndarray = None


def build_layer(params, data):
    """Initial layer for a run, seeded by the sampled incompatibility data."""
    _, _, w0, w1 = data.sample(params.grid)
    return InitialLayer.from_samples(
        params.grid, params.eps, params.alpha, params.beta, w0, w1
    )


def _field_accel(E0, w0, params):
    """Second time derivative of the field at t = 0.

    Uses the discrete Laplacian of the sampled data, keeping the initial
    data purely sample based at the cost of nothing beyond O(h^2).
    """
    grid = params.grid
    n0 = -(E0**2) + params.eps**params.alpha * w0
    return second_difference(E0, grid) - E0 - n0 * E0


def first_state(params, data, layer):
    """State at k = 1 from a Taylor step; level 0 carries the raw data and F = 0.

    ``layer`` None (plain Klein-Gordon) drops w0 from the field acceleration;
    any other layer must have been built for the run's grid, eps, alpha and beta.
    """
    if layer is not None:
        if layer.grid != params.grid:
            raise ShapeError("layer and params use different grids")
        for name in ("eps", "alpha", "beta"):
            built, wanted = getattr(layer, name), getattr(params, name)
            if built != wanted:
                raise ParameterError(f"layer was built for {name}={built}, the run has {name}={wanted}")
    E0, E1, w0, _ = data.sample(params.grid)
    tau = params.tau
    ddE = _field_accel(E0, np.zeros_like(w0) if layer is None else w0, params)
    ddF = 2.0 * E1**2 + 2.0 * E0 * ddE
    E1_level = E0 + tau * E1 + 0.5 * tau**2 * ddE
    F1_level = 0.5 * tau**2 * ddF
    for v in (E1_level, F1_level):
        v[0] = 0.0
        v[-1] = 0.0
    return KgzState(
        k=1, t_k=tau, E_prev=E0, E_curr=E1_level, F_prev=params.grid.zeros(), F_curr=F1_level
    )


class _Stencil(NamedTuple):
    """The constants of a run's two systems, built by :func:`_stencil`."""

    tau: float
    tau2: float
    inv_t2: float
    h2: float
    inv_h2: float
    s: float  # 1/(2 eps^2), the density coupling
    off: np.ndarray  # the field matrix's off-diagonal, read-only
    density: TridiagonalFactor  # LU factors of the density matrix 1/tau^2 + s (-d2)


def _stencil(params):
    """The run's _Stencil; the density matrix is kept as its two Toeplitz scalars."""
    M, h, tau = params.grid.M, params.grid.h, params.tau
    inv_t2, s = 1.0 / tau**2, 0.5 / params.eps**2
    off = np.full(M - 2, -0.5 * (1.0 / h**2))
    off.setflags(write=False)
    s_h2 = s / h**2
    density = factor_tridiagonal(-s_h2, inv_t2 + 2.0 * s_h2, -s_h2, n=M - 1)
    return _Stencil(tau, tau**2, inv_t2, h**2, 1.0 / h**2, s, off, density)


def _solve_field(E_curr, E_prev, c, st):
    """Advance the field through its implicit tridiagonal system; ``st`` is the run's _Stencil."""
    c_in, E_prev_in = c[1:-1], E_prev[1:-1]
    margin = 0.5 * c_in
    margin += st.inv_t2
    j = int(np.argmin(margin))
    if not margin[j] > 0.0:  # also catches NaN, which argmin reports first
        raise StabilityError(
            f"field system lost diagonal dominance at node {j + 1}: "
            f"1/tau^2 + c/2 = {margin[j]:.3e} with c = {c[j + 1]:.3e}, tau = {st.tau}",
            j=j + 1,
            coefficient=float(c[j + 1]),
            tau=st.tau,
        )
    # a positive margin leaves diag >= inv_h2 = the off-diagonal mass of
    # every row even after rounding, so the solver's own dominance scan
    # could never fire and is skipped; the arrays are built here with the
    # right shapes, so they go to the residual-checked solve unvalidated
    diag = margin
    diag += st.inv_h2
    # rhs = (2 E_curr - E_prev) (1/tau^2) + 0.5 (d2 E_prev - c E_prev)
    coupling = _second_difference(E_prev, st.h2)
    coupling -= c_in * E_prev_in
    coupling *= 0.5
    rhs = 2.0 * E_curr[1:-1]
    rhs -= E_prev_in
    rhs *= st.inv_t2
    rhs += coupling
    E_next = np.zeros(len(E_curr))
    E_next[1:-1] = _solve_tridiagonal(st.off, diag, st.off, rhs)
    return E_next


def _solve_density(F_curr, F_prev, dt2_E2, st):
    """Advance the corrected density through its implicit system; ``st`` is the run's _Stencil."""
    # rhs = (2 F_curr - F_prev) (1/tau^2) + s d2 F_prev + dt2_E2
    coupling = _second_difference(F_prev, st.h2)
    coupling *= st.s
    rhs = 2.0 * F_curr[1:-1]
    rhs -= F_prev[1:-1]
    rhs *= st.inv_t2
    rhs += coupling
    rhs += dt2_E2[1:-1]
    F_next = np.zeros(len(F_curr))
    F_next[1:-1] = _solve_factored(st.density, rhs)
    return F_next


def _advance(E_mid, E_out, F_mid, F_out, potential, st):
    """The symmetric three-level stencil: (E, F) at the outer level not given.

    A forward step passes (curr, prev), a backward step (prev, curr), and
    ``potential`` is the averaged layer potential at the mid level. The
    limit model is this stencil with F = 0: ``F_mid = None`` drops F from
    the field coefficient and skips the density solve (F comes back None).
    Plain Klein-Gordon also passes ``potential = None``. ``st`` is the
    run's :class:`_Stencil`.

    With m the mid level, o the outer one and d2 the centered second
    difference, each line evaluated left to right as written:

    - ``c = 1 - E_m^2 + F_m + potential``;
    - field: diagonal ``1/tau^2 + 0.5 c + 1/h^2``, off-diagonal
      ``-0.5 (1/h^2)``, right-hand side
      ``(2 E_m - E_o) (1/tau^2) + 0.5 (d2 E_o - c E_o)``;
    - ``dt2_E2 = (E_new^2 - 2 E_m^2 + E_o^2) / tau^2``;
    - density: right-hand side
      ``(2 F_m - F_o) (1/tau^2) + s d2 F_o + dt2_E2``.

    Each array is assembled in place in that order, so the bits are those
    of the formulas themselves.
    """
    Ek2 = np.square(E_mid)
    c = 1.0 - Ek2
    if F_mid is not None:
        c += F_mid
    if potential is not None:
        c += potential
    E_new = _solve_field(E_mid, E_out, c, st)
    if F_mid is None:
        return E_new, None
    # dt2_E2 = (E_new^2 - 2 E_mid^2 + E_out^2) / tau^2; c is spent
    dt2_E2 = np.square(E_new)
    Ek2 *= 2.0
    dt2_E2 -= Ek2
    dt2_E2 += np.square(E_out, out=c)
    dt2_E2 /= st.tau2
    return E_new, _solve_density(F_mid, F_out, dt2_E2, st)


def step(state, params, layer):
    """One forward step, centered at the curr level; ``layer`` None takes no potential."""
    potential = None if layer is None else layer.averaged_wave(state.t_k, params.tau)
    return _step(state, _stencil(params), potential)


def _step(s, st, potential):
    """``step`` with the run's _Stencil and the potential at the curr level given; either model."""
    E, F = _advance(s.E_curr, s.E_prev, s.F_curr, s.F_prev, potential, st)
    k = s.k + 1
    return KgzState(k=k, t_k=k * st.tau, E_prev=s.E_curr, E_curr=E, F_prev=s.F_curr, F_curr=F)


def step_back(state, params, layer):
    """One backward step, centered at the prev level: ``_advance`` with the outer levels swapped.

    The averaged potential is taken at the time of the prev level, the same
    value the matching forward step used; ``layer`` None takes none.
    """
    tau = params.tau
    potential = None if layer is None else layer.averaged_wave(state.t_k - tau, tau)
    E, F = _advance(
        state.E_prev, state.E_curr, state.F_prev, state.F_curr, potential, _stencil(params)
    )
    k = state.k - 1
    return KgzState(k=k, t_k=k * tau, E_prev=E, E_curr=state.E_prev, F_prev=F, F_curr=state.F_prev)


def march(state, advance, n_steps):
    """The one time loop: yield ``state``, then ``n_steps`` states, each ``advance`` of the last.

    A KgzError raised in a step leaves with ``k`` and ``t`` set to the level
    and time the step started from, both also appended to its message.
    """
    yield state
    for _ in range(n_steps):
        try:
            state = advance(state)
        except KgzError as exc:
            exc.k, exc.t = state.k, state.t_k
            exc.args = (f"{exc} (in the step from k={state.k}, t={state.t_k:g})", *exc.args[1:])
            raise
        yield state


def density_at(E, F, t, layer):
    """Physical density N = F - E^2 + G(t)."""
    return F - E**2 + layer.wave(t)


def recover_density(state, layer):
    """Density at the state's current level."""
    return density_at(state.E_curr, state.F_curr, state.t_k, layer)


def _snapshot_indices(params, snapshot_times):
    K = params.n_steps()
    idx = []
    for t in snapshot_times:
        # 0, the start, is the one snapshot time that is not positive
        k = whole_steps(t and positive_finite("snapshot time", t), params.tau)
        if k is None or not 0 <= k <= K:
            q = t / params.tau
            near = sorted({max(0, min(K, int(q))), max(0, min(K, int(q) + 1))})
            aligned = ", ".join(f"{m * params.tau:g}" for m in near)
            raise ParameterError(
                f"snapshot time {t} is not a step multiple within [0, {params.T}]; "
                f"nearest aligned times: {aligned}"
            )
        idx.append(k)
    return idx


def run(params, data, snapshot_times=None):
    """Drive the scheme to T and return snapshots of (E, F, N).

    Snapshot times must be whole multiples of tau inside [0, T]; by default
    only the final time is recorded. The levels kept, E and F of each
    snapshot level and N of each snapshot time, must fit in physical memory.
    """
    if snapshot_times is None:
        snapshot_times = [params.T]
    idx = _snapshot_indices(params, snapshot_times)
    M, kept = params.grid.M, len(set(idx))
    _in_memory(8 * (M + 1) * (2 * kept + len(idx)),
               f"{len(idx)} snapshot times ({kept} levels) on {M} cells: the kept snapshots need")
    layer = build_layer(params, data)
    state = first_state(params, data, layer)
    levels = {0: (state.E_prev, state.F_prev)} if 0 in idx else {}
    for state in _march_forward(state, params, layer):
        if state.k in idx:
            levels[state.k] = (state.E_curr, state.F_curr)
    snaps = []
    for k in idx:
        E, F = levels[k]
        snaps.append(Snapshot(t=k * params.tau, E=E, F=F, N=density_at(E, F, k * params.tau, layer)))
    return snaps


def trajectory(params, data):
    """Run to T recording every time level (for limit diagnostics)."""
    layer = build_layer(params, data)
    return _record(first_state(params, data, layer), params, layer)


def _march_forward(state, params, layer, step=None, follow=None):
    """``march`` a k = 1 state to T; the one place that sets a forward run up.

    It builds the run's _Stencil and opens the stream of potentials from
    ``layer`` once, and advances by ``step(state, stencil, potential)``,
    ``_step`` (looked up when the march starts) if None. ``layer`` None
    steps without a potential (plain Klein-Gordon). ``follow(stencil)``,
    if given, makes the stream's follower (``InitialLayer._potentials``),
    and ``step`` then takes the stream's ``(potential, followed)`` pairs.
    The stream is closed however the march ends, a KgzError included.
    """
    K = params.n_steps()
    st = _stencil(params)
    step = _step if step is None else step
    if layer is None:
        stream = nullcontext(repeat(None))
    else:
        follower = None if follow is None else follow(st)
        stream = closing(layer._potentials(1, K, params.tau, follower))
    with stream as potentials:
        yield from march(state, lambda s: step(s, st, next(potentials)), K - 1)


def _record(state, params, layer):
    """``_march_forward`` storing every level; F only when the state carries it."""
    K, M = params.n_steps(), params.grid.M
    stored = 1 if state.F_curr is None else 2
    _in_memory(8 * stored * (K + 1) * (M + 1),
               f"{K + 1} time levels on {M} cells: the stored trajectory needs")
    E = np.empty((K + 1, M + 1))
    F = None if stored == 1 else np.empty_like(E)
    E[0] = state.E_prev
    if F is not None:
        F[0] = state.F_prev
    for state in _march_forward(state, params, layer):
        E[state.k] = state.E_curr
        if F is not None:
            F[state.k] = state.F_curr
    return Trajectory(eps=params.eps, times=np.arange(K + 1) * params.tau, E=E, F=F)


def energy(state, layer, params):
    """Monitored total-energy diagnostic of the coupled system.

    Built from the forward time difference across the stored half step and
    level averages of the spatial terms; the potential term solves a
    discrete Poisson problem for the time derivative of the density. This
    quantity drifts at the discretization order, it is not conserved
    exactly by the scheme.
    """
    grid, tau, eps = params.grid, params.tau, params.eps
    dtE = (state.E_curr - state.E_prev) / tau
    t_prev = state.t_k - tau
    N_prev = density_at(state.E_prev, state.F_prev, t_prev, layer)
    N_curr = recover_density(state, layer)
    phi = solve_poisson_dirichlet(-(N_curr - N_prev) / tau, grid)

    def _avg(f):
        return 0.5 * (f(state.E_prev, N_prev) + f(state.E_curr, N_curr))

    n_dt = grid_norms(dtE, grid)
    n_phi = grid_norms(phi, grid)
    total = (
        n_dt.l2**2
        + _avg(lambda E, N: grid_norms(E, grid).h1_semi ** 2)
        + _avg(lambda E, N: grid_norms(E, grid).l2 ** 2)
        + 0.5 * eps**2 * n_phi.h1_semi**2
        + 0.5 * _avg(lambda E, N: grid_norms(N, grid).l2 ** 2)
        + _avg(lambda E, N: inner_product(N, E**2, grid))
    )
    return float(total)


class Scaling(NamedTuple):
    eps: float
    t_s: float
    x_s: float
    E_s: float
    N_s: float


def nondimensionalize(v0, omega_p, c_s, n0, eps0, m, N0):
    """Scaling constants mapping the physical system to dimensionless form."""
    for name, val in (
        ("v0", v0),
        ("omega_p", omega_p),
        ("c_s", c_s),
        ("n0", n0),
        ("eps0", eps0),
        ("m", m),
        ("N0", N0),
    ):
        positive_finite(name, val)
    eps = np.sqrt(3.0) * v0 / c_s
    if eps > 1:
        warnings.warn(
            f"derived eps={eps} exceeds the analysis range (0, 1]", stacklevel=2
        )
    return Scaling(
        eps=float(eps),
        t_s=1.0 / omega_p,
        x_s=float(np.sqrt(3.0) * v0 / omega_p),
        E_s=float(2.0 * c_s * np.sqrt(m * N0 / (n0 * eps0))),
        N_s=1.0,
    )
