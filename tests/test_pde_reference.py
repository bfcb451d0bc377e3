"""Spatial order of ``run`` against an independent solve of the KGZ PDE itself.

The reference is a sine-pseudospectral method of lines on the finest grid:
d_xx is diagonal in the type-I sine basis of the interior nodes, and
DOP853 integrates

    E_tt = E_xx - E - N E,    eps^2 N_tt = N_xx + (E^2)_xx

from N(0) = -E0^2 + eps^alpha w0 and N_t(0) = -2 E0 E1 + eps^beta w1. It
shares no code with the scheme beyond the sampled initial data: no layer,
no corrected density F, no finite difference. Its values are injected onto
the nested coarser grids, and the field and density errors of ``run``
must halve twice per halving of h.
"""

import numpy as np
import pytest
from scipy.fft import dst
from scipy.integrate import solve_ivp

from kgz import Grid1D, KgzParams, Snapshot, convergence_rate, error_metrics, grid_for, run
from kgz.presets import CASE_EXPONENTS, preset_initial_data

T = 0.5
TAU = 2.5e-4
H0 = 0.2
LEVELS = 3  # h = 0.2, 0.1, 0.05
MIN_RATE = 1.9


def pde_reference(grid, eps, alpha, beta, data):
    """(E, N) at T on ``grid`` from the sine-pseudospectral method of lines."""
    E0, E1, w0, w1 = (v[1:-1] for v in data.sample(grid))
    n = grid.M - 1
    k2 = (np.arange(1, n + 1) * np.pi / grid.length) ** 2

    def dxx(u):
        # the orthonormal type-I DST is its own inverse
        return dst(-k2 * dst(u, type=1, norm="ortho"), type=1, norm="ortho")

    def rhs(t, y):
        E, Et, N, Nt = y.reshape(4, n)
        return np.concatenate([Et, dxx(E) - E - N * E, Nt, (dxx(N) + dxx(E * E)) / eps**2])

    y0 = np.concatenate([E0, E1, -E0**2 + eps**alpha * w0, -2.0 * E0 * E1 + eps**beta * w1])
    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    E, _, N, _ = sol.y[:, -1].reshape(4, n)
    return np.pad(E, 1), np.pad(N, 1)


# at eps = 1 both cases take the same data
@pytest.mark.parametrize(
    "case, eps", [("I", 1.0), ("I", 0.25), ("II", 0.25), ("I", 0.0625), ("II", 0.0625)]
)
def test_run_is_second_order_in_space(case, eps):
    data = preset_initial_data("gauss_sech")
    alpha, beta = CASE_EXPONENTS[case]
    coarse = grid_for(eps, H0)
    grids = [Grid1D(coarse.a, coarse.b, coarse.M * 2**i) for i in range(LEVELS)]
    E_ref, N_ref = pde_reference(grids[-1], eps, alpha, beta, data)
    errors = []
    for i, grid in enumerate(grids):
        params = KgzParams(eps=eps, alpha=alpha, beta=beta, grid=grid, tau=TAU, T=T)
        (snap,) = run(params, data)
        s = 2 ** (LEVELS - 1 - i)
        reference = Snapshot(t=T, E=E_ref[::s], F=None, N=N_ref[::s])
        errors.append(error_metrics(snap, reference, grid))
    for (e_c, n_c), (e_f, n_f) in zip(errors, errors[1:]):
        rates = convergence_rate(e_c, e_f), convergence_rate(n_c, n_f)
        assert min(rates) >= MIN_RATE, (errors, rates)
