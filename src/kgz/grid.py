"""Uniform 1D mesh, finite difference operators and tridiagonal solves.

Grid functions are plain float64 arrays of length ``M + 1`` whose first and
last entries are zero (homogeneous Dirichlet). Operators only ever read and
write interior values; boundary entries of returned arrays are exact zeros.

The tridiagonal solves make no BLAS call: LAPACK gtsv and gttrs do not
use one, and the residual gate measures its norms with numpy's pairwise
sum instead of BLAS ``ddot``. A solve thus runs on one thread and decides
whether to refine the same way whatever the BLAS build and thread count.
"""

import math
import numbers
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .errors import IllConditionedError, ParameterError, ShapeError, SingularSystemError
from .errors import countable, inverse_square_finite

RESIDUAL_TOL = 1e-12
_TINY = np.finfo(float).tiny


def _interval(a, b):
    """``(a, b)`` if it is a finite nonempty interval, else a ParameterError; NaN fails too."""
    if not -math.inf < a < b < math.inf:
        raise ParameterError(f"the interval must be finite and nonempty, got ({a}, {b})")
    return a, b


# the peak resident bytes a run holds per grid node, the producer process not
# counted: the slope of the peak RSS of ``run`` between M = 29440 and 620000
_RUN_NODE_BYTES = 300


def _in_memory(nbytes, needs):
    """A ParameterError, ``needs`` followed by the sizes, if ``nbytes`` exceed physical memory."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > memory:
        raise ParameterError(f"{needs} {nbytes / 2**30:.3g} GiB, more than the "
                             f"{memory / 2**30:.3g} GiB of physical memory")


def _cells(count, inputs):
    """``count`` cells if numpy can index them and a run on them fits in physical memory."""
    countable(count, "cells", inputs)
    _in_memory(_RUN_NODE_BYTES * (count + 1), f"{inputs}: {count:g} cells, whose run needs")
    return count


@dataclass(frozen=True)
class Grid1D:
    """Uniform mesh with M cells on [a, b]; nodes x_j = a + j*h, j = 0..M."""

    a: float
    b: float
    M: int
    # both follow from (a, b, M), so equality and hashing use those alone
    h: float = field(init=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.M, numbers.Integral) or self.M < 2:
            raise ParameterError(f"need an integer M >= 2 cells, got M={self.M!r}")
        _cells(self.M, "a Grid1D")
        _interval(self.a, self.b)
        object.__setattr__(self, "h", inverse_square_finite("h", (self.b - self.a) / self.M))
        # linspace pins both endpoints exactly
        object.__setattr__(self, "nodes", np.linspace(self.a, self.b, self.M + 1))

    @property
    def length(self):
        return self.b - self.a

    def zeros(self):
        return np.zeros(self.M + 1)


class GridNorms(NamedTuple):
    l2: float
    h1_semi: float
    inf: float


def _require_grid_fn(u, grid):
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.M + 1,):
        raise ShapeError(f"grid function has length {u.shape}, grid wants {grid.M + 1}")
    return u


def second_difference(u, grid):
    """Centered second difference; boundary rows of the result are zero."""
    u = _require_grid_fn(u, grid)
    v = np.zeros_like(u)
    v[1:-1] = _second_difference(u, grid.h**2)
    return v


def _second_difference(u, h2):
    """``(u[2:] - 2 u[1:-1] + u[:-2]) / h2`` in that order, in one new array; ``u`` is not checked."""
    v = np.multiply(u[1:-1], 2.0)
    np.subtract(u[2:], v, out=v)
    v += u[:-2]
    v /= h2
    return v


def forward_difference(u, grid):
    """One-sided first difference, (u_{j+1} - u_j)/h for j = 0..M-1."""
    u = _require_grid_fn(u, grid)
    return (u[1:] - u[:-1]) / grid.h


def grid_norms(u, grid):
    """Discrete L2, H1 seminorm and max norm of a grid function."""
    u = _require_grid_fn(u, grid)
    # a list, not a map: a star-call builds a map's tuple by resizing, and
    # every 3-tuple it frees then stays on CPython's tuple free list
    return GridNorms(*[float(n) for n in (_l2(u, grid), _h1(u, grid), _inf(u, grid))])


# ufunc reductions, not np.sum and np.max: the same bits without the
# wrappers' Python overhead, which a limit reduction pays on every level
def _l2(u, grid):
    """The ``l2`` of :func:`grid_norms`; ``u`` is not checked."""
    return np.sqrt(grid.h * np.add.reduce(u[1:-1] ** 2))


def _h1(u, grid):
    """The ``h1_semi`` of :func:`grid_norms`; ``u`` is not checked."""
    return np.sqrt(grid.h * np.add.reduce(((u[1:] - u[:-1]) / grid.h) ** 2))


def _inf(u, grid):
    """The ``inf`` of :func:`grid_norms`; ``u`` is not checked."""
    return np.maximum.reduce(np.abs(u))


def inner_product(u, v, grid):
    """h-weighted inner product over interior nodes."""
    u = _require_grid_fn(u, grid)
    v = _require_grid_fn(v, grid)
    return float(grid.h * np.sum(u[1:-1] * v[1:-1]))


def staggered_inner_product(w1, w2, grid):
    """h-weighted inner product of cell-based vectors of length M."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if w1.shape != (grid.M,) or w2.shape != (grid.M,):
        raise ShapeError(
            f"cell vectors have lengths {w1.shape} and {w2.shape}, grid wants {grid.M}"
        )
    return float(grid.h * np.sum(w1 * w2))


def _diagonals(lower, diag, upper, n=None):
    """(n, lower, diag, upper) as validated float arrays.

    Without ``n`` the order is the length of ``diag``; with it, each
    diagonal may also be a scalar repeated along it.
    """
    lower = np.asarray(lower, dtype=float)
    diag = np.asarray(diag, dtype=float)
    upper = np.asarray(upper, dtype=float)
    scalars_ok = n is not None
    if n is None:
        n = diag.shape[0] if diag.ndim == 1 else 0
    if n < 1:
        raise ShapeError("empty system")
    for v, length in ((lower, n - 1), (diag, n), (upper, n - 1)):
        if v.shape != (length,) and not (scalars_ok and v.ndim == 0):
            raise ShapeError(
                f"diagonals have lengths {lower.shape}/{diag.shape}/{upper.shape}, "
                f"expected {n - 1}/{n}/{n - 1}"
            )
    return n, lower, diag, upper


def _require_rhs(rhs, n):
    # one contiguous float array, the form that the solves and the residual take
    rhs = np.ascontiguousarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise ShapeError(f"rhs has length {rhs.shape}, expected {n}")
    return rhs


def solve_tridiagonal(lower, diag, upper, rhs):
    """Solve a tridiagonal system by pivoting-free style elimination.

    ``lower`` and ``upper`` hold the n-1 off-diagonal entries, ``diag`` and
    ``rhs`` the n diagonal/right-hand-side entries. The solve is delegated to
    LAPACK gtsv; on the strictly dominant systems this package produces, no
    row interchange ever fires, so the result matches plain forward
    elimination with back substitution to roundoff. Rows may be weakly
    dominant (margin zero, as in the discrete Laplacian); a row whose
    off-diagonal mass exceeds the diagonal is rejected.

    This is the one-shot path, for a matrix that changes with every
    solve, such as the field system of the time stepper. A matrix that
    stays fixed across many right-hand sides, such as the density system,
    is factored once with :func:`factor_tridiagonal` and solved with
    :func:`solve_factored`, which gives the same result bit for bit when no
    row interchange fires.

    The returned solution satisfies ``||Ax - rhs|| <= 1e-12 ||rhs||``
    whenever a double-precision vector with that property exists; very
    stiff systems whose representation floor sits above that bound are
    refined in mixed precision and held to the equivalent backward-error
    criterion ``||Ax - rhs|| <= 1e-12 (||A|| ||x|| + ||rhs||)`` instead.
    A solution that is not finite fails the check and raises
    :class:`IllConditionedError`.
    """
    n, lower, diag, upper = _diagonals(lower, diag, upper)
    rhs = _require_rhs(rhs, n)

    margin = np.abs(diag).copy()
    if n > 1:
        margin[:-1] -= np.abs(upper)
        margin[1:] -= np.abs(lower)
    worst = int(np.argmin(margin))
    if margin[worst] < 0.0:
        raise IllConditionedError(
            f"diagonal dominance lost at row {worst} (margin {margin[worst]:.3e})"
        )

    return _solve_tridiagonal(lower, diag, upper, rhs)


def _solve_tridiagonal(lower, diag, upper, rhs):
    """:func:`solve_tridiagonal` of arrays that are already valid, with no dominance scan.

    The diagonals are float arrays of lengths n - 1, n and n - 1, and
    ``rhs`` is a contiguous float array of length n. The residual check
    and its refinement still hold the result.
    """

    def _solve(b):
        if len(b) == 1:
            if diag[0] == 0.0:
                raise SingularSystemError("zero pivot at row 0")
            return b / diag
        _, _, _, x, info = lapack.dgtsv(lower, diag, upper, b)
        if info > 0:
            raise SingularSystemError(f"zero pivot at row {info - 1}")
        if info < 0:
            raise ShapeError(f"illegal argument {-info} passed to gtsv")
        return x

    return _checked_solve(_solve, lower, diag, upper, rhs)


class TridiagonalFactor(NamedTuple):
    """A tridiagonal matrix with its LAPACK gttrf factors, for repeated solves.

    ``lower``, ``diag`` and ``upper`` keep the matrix itself for the
    residual check; each is an array or a 0-d array repeated along its
    diagonal. ``lu`` holds the read-only ``(dl, d, du, du2, ipiv)`` of
    gttrf, padded to at least three rows.
    """

    n: int
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    lu: tuple


def factor_tridiagonal(lower, diag, upper, n=None):
    """LU-factor a tridiagonal matrix once (LAPACK gttrf) for :func:`solve_factored`.

    The diagonals are given as in :func:`solve_tridiagonal`, except that
    each may also be a scalar repeated along its diagonal; ``n``, the order
    of the system, is then required when ``diag`` is a scalar. gttrf runs
    the same partial-pivoting elimination as gtsv, so on the dominant
    systems of this package, where no row interchange fires, a factored
    solve reproduces the one-shot solve bit for bit. A zero pivot raises
    :class:`SingularSystemError` here, before any solve.
    """
    n, *tri = _diagonals(lower, diag, upper, n)
    # private read-only copies: the factor may be shared between callers
    lower, diag, upper = (v.copy() for v in tri)
    # the gttrf wrapper rejects n < 3; trailing identity rows with zero
    # coupling leave the elimination of the leading rows unchanged
    m = max(n, 3)
    d = np.ones(m)
    d[:n] = diag
    dl = np.zeros(m - 1)
    dl[: n - 1] = lower
    du = np.zeros(m - 1)
    du[: n - 1] = upper
    *lu, info = lapack.dgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info > 0:
        raise SingularSystemError(f"zero pivot at row {info - 1}")
    if info < 0:
        raise ShapeError(f"illegal argument {-info} passed to gttrf")
    for a in (*lu, lower, diag, upper):
        a.setflags(write=False)
    return TridiagonalFactor(n=n, lower=lower, diag=diag, upper=upper, lu=tuple(lu))


def solve_factored(factor, rhs):
    """Solve with the factors of :func:`factor_tridiagonal` (LAPACK gttrs).

    Carries the residual guarantee of :func:`solve_tridiagonal`.
    """
    return _solve_factored(factor, _require_rhs(rhs, factor.n))


def _solve_factored(factor, rhs):
    """:func:`solve_factored` of a contiguous float ``rhs`` of length ``factor.n``, not re-validated."""
    n = factor.n
    pad = factor.lu[1].shape[0] - n

    def _solve(b):
        if pad:
            b = np.concatenate((b, np.zeros(pad)))
        x, info = lapack.dgttrs(*factor.lu, b)
        if info < 0:
            raise ShapeError(f"illegal argument {-info} passed to gttrs")
        return x[:n]

    return _checked_solve(_solve, factor.lower, factor.diag, factor.upper, rhs)


def _norm(v):
    """The 2-norm of a float vector from numpy's pairwise sum of its squares.

    No BLAS call: ``np.linalg.norm`` and ``v.dot(v)`` go through BLAS
    ``ddot``, which runs on a second thread from n ~ 10 000, leaves that
    thread spinning between calls, and gives other bits on another thread
    count. This sum has the same bits whatever the BLAS build or its threads.
    """
    return math.sqrt(np.add.reduce(np.square(v)))


def _residual(lower, diag, upper, x, rhs):
    """``rhs - A x`` in the precision of its arguments; each diagonal may be a 0-d array."""
    r = diag * x
    r[:-1] += upper * x[1:]
    r[1:] += lower * x[:-1]
    return np.subtract(rhs, r, out=r)


def _checked_solve(solve, lower, diag, upper, rhs):
    """Run ``solve`` on rhs and hold the result to the residual guarantee.

    The comparisons are written so that a NaN residual fails them.
    """
    n = rhs.shape[0]
    denom = max(_norm(rhs), _TINY)
    x = solve(rhs)
    rnorm = _norm(_residual(lower, diag, upper, x, rhs))
    if not rnorm <= RESIDUAL_TOL * denom:
        # refine once with an extended-precision residual, then re-measure;
        # for stiff systems (||A|| ||x|| >> ||rhs||) no double-precision
        # vector can push the plain residual below eps_mach * ||A|| ||x||,
        # so past that representation floor the scale-aware backward-error
        # criterion is the one that decides
        ext = [np.asarray(v, dtype=np.longdouble) for v in (lower, diag, upper)]
        rhs_ext = rhs.astype(np.longdouble)
        r_ext = _residual(*ext, x.astype(np.longdouble), rhs_ext)
        x = x + solve(r_ext.astype(float))
        r_ext = _residual(*ext, x.astype(np.longdouble), rhs_ext)
        rnorm = float(np.sqrt(np.sum(r_ext * r_ext)))
        if not rnorm <= RESIDUAL_TOL * denom:
            row_mass = np.broadcast_to(np.abs(diag), (n,)).copy()
            row_mass[:-1] += np.abs(upper)
            row_mass[1:] += np.abs(lower)
            backward_scale = float(np.max(row_mass)) * _norm(x) + denom
            if not rnorm <= RESIDUAL_TOL * backward_scale:
                raise IllConditionedError(
                    f"tridiagonal solve residual {rnorm / denom:.3e} exceeds "
                    f"{RESIDUAL_TOL:.1e} even against the backward-error scale",
                    residual=rnorm / denom,
                )
    return x


def solve_poisson_dirichlet(f, grid):
    """Solve -d2(phi) = f on the interior with zero boundary values.

    The matrix is only weakly dominant: an interior row's margin
    2/h^2 - 1/h^2 - 1/h^2 is exactly 0.0, which :func:`solve_tridiagonal` accepts.
    """
    f = _require_grid_fn(f, grid)
    n = grid.M - 1
    inv_h2 = 1.0 / grid.h**2
    diag = np.full(n, 2.0 * inv_h2)
    off = np.full(n - 1, -inv_h2)
    phi = grid.zeros()
    phi[1:-1] = solve_tridiagonal(off, diag, off, f[1:-1])
    return phi
