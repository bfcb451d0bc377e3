"""Type-I discrete sine transform pair on the interior nodes.

Forward coefficients use the (2/M) factor and the inverse uses a unit
factor, so ``u_j = sum_l coeffs[l] sin(j l pi / M)``. The quadratic-cost
path below is the reference implementation; the scipy FFT path must agree
with it to 1e-12 and is the default because sweeps call these transforms
every time step.
"""

import numpy as np
from scipy.fft import dst as _scipy_dst

from .errors import ParameterError, ShapeError
from .grid import _require_grid_fn


def _sine_matrix(M):
    j = np.arange(1, M)
    return np.sin(np.outer(j, j) * (np.pi / M))


def _require_spectrum(coeffs, grid):
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != grid.M - 1:
        raise ShapeError(
            f"spectrum (or stack) of shape {coeffs.shape}, grid wants rows of {grid.M - 1}"
        )
    return coeffs


def dst_forward(u, grid, method="fast"):
    """Sine coefficients of a grid function, length M - 1."""
    u = _require_grid_fn(u, grid)
    if method == "naive":
        return (2.0 / grid.M) * (_sine_matrix(grid.M) @ u[1:-1])
    if method == "fast":
        return _scipy_dst(u[1:-1], type=1) / grid.M
    raise ParameterError(f"unknown method {method!r}")


def dst_inverse(coeffs, grid, method="fast"):
    """Grid function synthesized from sine coefficients; boundary zeros.

    ``coeffs`` may also be a stack of spectra, one per row; the grid
    functions then come back as the rows of one array, those of the row by
    row calls (bit for bit on the fast path).
    """
    coeffs = _require_spectrum(coeffs, grid)
    u = np.zeros(coeffs.shape[:-1] + (grid.M + 1,))
    if method == "naive":
        u[..., 1:-1] = (_sine_matrix(grid.M) @ coeffs.T).T
    elif method == "fast":
        np.divide(_scipy_dst(coeffs, type=1, axis=-1), 2.0, out=u[..., 1:-1])
    else:
        raise ParameterError(f"unknown method {method!r}")
    return u
