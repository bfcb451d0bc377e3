import math
import os
import subprocess
import sys

import numpy as np
import pytest

import kgz.grid
from kgz import (
    Grid1D,
    IllConditionedError,
    ParameterError,
    ShapeError,
    SingularSystemError,
    factor_tridiagonal,
    forward_difference,
    grid_norms,
    inner_product,
    second_difference,
    solve_factored,
    solve_poisson_dirichlet,
    solve_tridiagonal,
    staggered_inner_product,
)
from conftest import random_grid_fn


def dense_second_difference(M, h):
    A = np.zeros((M + 1, M + 1))
    for j in range(1, M):
        A[j, j - 1] = 1.0 / h**2
        A[j, j] = -2.0 / h**2
        A[j, j + 1] = 1.0 / h**2
    return A


class TestGrid1D:
    def test_endpoints_exact(self):
        g = Grid1D(-31.0, 31.0, 310)
        assert g.nodes[0] == -31.0
        assert g.nodes[-1] == 31.0
        assert g.M == 310

    def test_uniform_spacing(self):
        g = Grid1D(-2.5, 7.5, 64)
        gaps = np.diff(g.nodes)
        assert np.all(gaps > 0)
        assert np.max(np.abs(gaps - g.h)) <= 2 * np.spacing(g.h)

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterError):
            Grid1D(0.0, 1.0, 1)
        with pytest.raises(ParameterError):
            Grid1D(1.0, 1.0, 4)

    def test_equality_from_a_b_M(self):
        g = Grid1D(0.0, 1.0, 8)
        assert g == Grid1D(0.0, 1.0, 8)
        assert hash(g) == hash(Grid1D(0.0, 1.0, 8))
        assert g != Grid1D(0.0, 1.0, 9)
        assert (g == 3) is False


class TestDifferences:
    def test_zero(self):
        g = Grid1D(0.0, 1.0, 8)
        assert np.all(second_difference(g.zeros(), g) == 0.0)
        assert np.all(forward_difference(g.zeros(), g) == 0.0)

    def test_single_point_stencil(self):
        g = Grid1D(0.0, 2.0, 2)  # h = 1
        v = second_difference(np.array([0.0, 1.0, 0.0]), g)
        assert v[1] == -2.0

    def test_forward_two_point(self):
        g = Grid1D(0.0, 1.0, 2)  # h = 0.5
        w = forward_difference(np.array([0.0, 1.0, 0.0]), g)
        assert np.allclose(w, [2.0, -2.0], rtol=0, atol=0)

    def test_second_difference_dense_oracle(self, rng):
        g = Grid1D(-1.0, 3.0, 16)
        u = random_grid_fn(rng, g)
        expected = dense_second_difference(g.M, g.h) @ u
        got = second_difference(u, g)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_forward_difference_elementwise_oracle(self, rng):
        g = Grid1D(0.0, 2.0, 16)
        u = random_grid_fn(rng, g)
        expected = np.array([(u[j + 1] - u[j]) / g.h for j in range(g.M)])
        assert np.array_equal(forward_difference(u, g), expected)

    def test_quadratic_curvature_exact(self):
        g = Grid1D(-1.0, 2.0, 30)
        a, b, c = 0.7, -1.3, 2.4
        u = a + b * g.nodes + c * g.nodes**2
        v = second_difference(u, g)
        # rows next to the boundary see the nonzero boundary samples and are fine too
        assert np.max(np.abs(v[1:-1] - 2 * c)) <= 1e-10

    def test_length_mismatch(self):
        g = Grid1D(0.0, 1.0, 8)
        with pytest.raises(ShapeError):
            second_difference(np.zeros(7), g)
        with pytest.raises(ShapeError):
            forward_difference(np.zeros(10), g)


class TestNormsInner:
    def test_zero(self):
        g = Grid1D(0.0, 1.0, 8)
        n = grid_norms(g.zeros(), g)
        assert n == (0.0, 0.0, 0.0)

    def test_one_term_sum(self):
        g = Grid1D(0.0, 1.0, 2)  # h = 0.5
        n = grid_norms(np.array([0.0, 2.0, 0.0]), g)
        assert np.isclose(n.l2, np.sqrt(2.0), rtol=1e-15)
        assert n.inf == 2.0

    def test_brute_force_oracle(self, rng):
        g = Grid1D(-2.0, 1.0, 32)
        u = random_grid_fn(rng, g)
        l2 = np.sqrt(g.h * sum(u[j] ** 2 for j in range(1, g.M)))
        h1 = np.sqrt(g.h * sum(((u[j + 1] - u[j]) / g.h) ** 2 for j in range(g.M)))
        inf = max(abs(u[j]) for j in range(g.M + 1))
        n = grid_norms(u, g)
        assert abs(n.l2 - l2) <= 1e-14 * l2
        assert abs(n.h1_semi - h1) <= 1e-14 * h1
        assert n.inf == inf

    @pytest.mark.parametrize("M", [8, 3760])
    def test_stack_equals_rows(self, rng, M):
        g = Grid1D(-2.0, 1.0, M)
        stack = np.stack([random_grid_fn(rng, g) for _ in range(5)])
        got = grid_norms(stack, g)
        rows = [grid_norms(u, g) for u in stack]
        for i, name in enumerate(got._fields):
            assert got[i].shape == (5,)
            assert np.array_equal(got[i], [r[i] for r in rows]), name

    def test_stack_shape_guard(self):
        g = Grid1D(0.0, 1.0, 8)
        with pytest.raises(ShapeError):
            grid_norms(np.zeros((2, 3, 9)), g)
        with pytest.raises(ShapeError):
            grid_norms(np.zeros((4, 10)), g)

    def test_homogeneous(self, rng):
        g = Grid1D(0.0, 1.0, 16)
        u = random_grid_fn(rng, g)
        n1 = grid_norms(u, g)
        n2 = grid_norms(-3.5 * u, g)
        for a, b in zip(n2, n1):
            assert abs(a - 3.5 * b) <= 1e-14 * abs(a)

    def test_inner_zero_and_consistency(self, rng):
        g = Grid1D(0.0, 4.0, 24)
        u = random_grid_fn(rng, g)
        assert inner_product(u, g.zeros(), g) == 0.0
        n = grid_norms(u, g)
        assert abs(inner_product(u, u, g) - n.l2**2) <= 1e-14 * n.l2**2

    @pytest.mark.parametrize("M", [2, 3, 4, 8, 16, 32, 64, 128])
    def test_summation_by_parts(self, rng, M):
        g = Grid1D(-1.0, 2.5, M)
        u = random_grid_fn(rng, g)
        v = random_grid_fn(rng, g)
        lhs = inner_product(-second_difference(u, g), v, g)
        rhs = staggered_inner_product(
            forward_difference(u, g), forward_difference(v, g), g
        )
        # both sides are bounded by the product of the seminorms, which is
        # the right scale when the inner products nearly cancel
        nu = grid_norms(u, g).h1_semi
        nv = grid_norms(v, g).h1_semi
        assert abs(lhs - rhs) <= 1e-13 * max(nu * nv, 1e-30)


class TestTridiagonal:
    def test_identity(self, rng):
        r = rng.standard_normal(6)
        x = solve_tridiagonal(np.zeros(5), np.ones(6), np.zeros(5), r)
        assert np.array_equal(x, r)

    def test_known_size3(self):
        # dense elimination of the same system gives (1, 1, 1)
        x = solve_tridiagonal(
            np.array([-1.0, -1.0]),
            np.array([2.0, 2.0, 2.0]),
            np.array([-1.0, -1.0]),
            np.array([1.0, 0.0, 1.0]),
        )
        assert np.allclose(x, 1.0, rtol=1e-13, atol=0)

    def test_random_dominant_dense_oracle(self, rng):
        n = 50
        lower = rng.standard_normal(n - 1)
        upper = rng.standard_normal(n - 1)
        diag = 3.0 + rng.random(n)
        diag[1:] += np.abs(lower)
        diag[:-1] += np.abs(upper)
        rhs = rng.standard_normal(n)
        A = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        expected = np.linalg.solve(A, rhs)
        got = solve_tridiagonal(lower, diag, upper, rhs)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_round_trip_residual(self, rng):
        n = 40
        lower = rng.standard_normal(n - 1)
        upper = rng.standard_normal(n - 1)
        diag = 2.0 + rng.random(n)
        diag[1:] += np.abs(lower)
        diag[:-1] += np.abs(upper)
        rhs = rng.standard_normal(n)
        x = solve_tridiagonal(lower, diag, upper, rhs)
        res = diag * x
        res[:-1] += upper * x[1:]
        res[1:] += lower * x[:-1]
        assert np.linalg.norm(res - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_zero_pivot(self):
        with pytest.raises(SingularSystemError):
            solve_tridiagonal(
                np.zeros(1), np.zeros(2), np.zeros(1), np.ones(2), require_dominant=False
            )

    def test_dominance_guard(self):
        with pytest.raises(IllConditionedError):
            solve_tridiagonal(
                np.array([5.0]), np.array([1.0, 1.0]), np.array([5.0]), np.ones(2)
            )

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            solve_tridiagonal(np.zeros(3), np.ones(3), np.zeros(2), np.ones(3))

    def test_nan_rhs_raises(self):
        rhs = np.ones(5)
        rhs[2] = np.nan
        with pytest.raises(IllConditionedError):
            solve_tridiagonal(-np.ones(4), np.full(5, 3.0), -np.ones(4), rhs)


def dominant_system(rng, n):
    lower = rng.standard_normal(max(n - 1, 0))
    upper = rng.standard_normal(max(n - 1, 0))
    diag = 2.0 + rng.random(n)
    diag[1:] += np.abs(lower)
    diag[:-1] += np.abs(upper)
    return lower, diag, upper


def residual(lower, diag, upper, x, rhs):
    res = diag * x
    res[:-1] += upper * x[1:]
    res[1:] += lower * x[:-1]
    return np.linalg.norm(res - rhs)


def residual_formula(lower, diag, upper, x, rhs, dtype=float):
    """The residual the solve gate measures, each operand converted to dtype first."""
    ax = diag.astype(dtype, copy=False) * x.astype(dtype, copy=False)
    ax[:-1] += upper.astype(dtype, copy=False) * x[1:]
    ax[1:] += lower.astype(dtype, copy=False) * x[:-1]
    return rhs.astype(dtype, copy=False) - ax


def pairwise_sum(a, lo=0, n=None):
    """numpy's pairwise summation of ``a[lo:lo + n]`` as its add loop writes it.

    Under 8 terms a plain loop; up to 128, eight running sums combined as a
    tree, then the remainder; above, two halves, the first a multiple of 8.
    """
    n = len(a) if n is None else n
    if n < 8:
        res = 0.0
        for x in a[lo : lo + n]:
            res += x
        return res
    if n <= 128:
        r = a[lo : lo + 8]
        i = 8
        while i < n - n % 8:
            r = [r[j] + a[lo + i + j] for j in range(8)]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in a[lo + i : lo + n]:
            res += x
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return pairwise_sum(a, lo, n2) + pairwise_sum(a, lo + n2, n - n2)


class TestResidualGate:
    """The gate's residual and norms repeat the written formulas bit for bit."""

    @pytest.mark.parametrize("kind", ["field", "density"])
    @pytest.mark.parametrize("dtype", [float, np.longdouble])
    def test_residual_matches_formula(self, rng, kind, dtype):
        n = 679
        x, rhs = rng.standard_normal(n), rng.standard_normal(n)
        if kind == "field":  # constant off-diagonal arrays, a diagonal that varies
            off = np.full(n - 1, -0.5 * 400.0)
            system = (off, 2500.0 + 400.0 + rng.random(n), off)
        else:  # the 0-d diagonals of a factored Toeplitz matrix
            f = factor_tridiagonal(-1.25e3, 2500.0 + 2.5e3, -1.25e3, n=n)
            system = (f.lower, f.diag, f.upper)
        want = residual_formula(*system, x, rhs, dtype)
        ext = [np.asarray(v, dtype=dtype) for v in (*system, x, rhs)]
        got = kgz.grid._residual(*ext)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, 679, 29439])
    def test_norm_matches_numpy(self, rng, n):
        # numpy's pairwise sum of the squares, from its identity 0.0
        for scale in (1e-300, 1.0, 1e300):
            v = scale * rng.standard_normal(n)
            squares = [x * x for x in v.tolist()]
            with np.errstate(over="ignore"):
                assert kgz.grid._norm(v) == math.sqrt(0.0 + pairwise_sum(squares))

    def test_norm_bits_do_not_depend_on_blas_threads(self):
        # under BLAS ddot, seeds 0 and 6 gave other bits on 2 threads than on 1
        script = (
            "import numpy as np, kgz.grid\n"
            "for seed in range(8):\n"
            "    v = np.random.default_rng(seed).standard_normal(29439)\n"
            "    print(kgz.grid._norm(v).hex())"
        )
        src = os.path.dirname(os.path.dirname(kgz.grid.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        bits = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            bits.add(out.stdout.strip())
        assert len(bits) == 1, bits


class TestFactoredTridiagonal:
    @pytest.mark.parametrize("n", [1, 2, 3, 40])
    def test_reused_factor_matches_one_shot(self, rng, n):
        lower, diag, upper = dominant_system(rng, n)
        factor = factor_tridiagonal(lower, diag, upper)
        for _ in range(20):
            rhs = rng.standard_normal(n)
            x = solve_factored(factor, rhs)
            # no row interchange fires, so gttrf/gttrs repeat gtsv's arithmetic
            assert np.array_equal(x, solve_tridiagonal(lower, diag, upper, rhs))
            assert residual(lower, diag, upper, x, rhs) <= 1e-12 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("n", [1, 2, 3, 25])
    def test_scalar_diagonals(self, rng, n):
        factor = factor_tridiagonal(-1.0, 4.0, -1.5, n=n)
        rhs = rng.standard_normal(n)
        full = (np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.5))
        assert np.array_equal(solve_factored(factor, rhs), solve_tridiagonal(*full, rhs))

    def test_stiff_system_refines_identically(self, rng):
        # the discrete Laplacian at this size sits above the plain residual
        # floor, so both paths run the extended-precision refinement and
        # are held to the backward-error criterion
        n = 20000
        rhs = rng.standard_normal(n)
        full = (-np.ones(n - 1), np.full(n, 2.0), -np.ones(n - 1))
        x = solve_factored(factor_tridiagonal(-1.0, 2.0, -1.0, n=n), rhs)
        assert np.array_equal(x, solve_tridiagonal(*full, rhs))
        bound = 1e-12 * (4.0 * np.linalg.norm(x) + np.linalg.norm(rhs))
        assert residual(*full, x, rhs) <= bound

    def test_factor_is_read_only_and_private(self, rng):
        lower, diag, upper = dominant_system(rng, 6)
        factor = factor_tridiagonal(lower, diag, upper)
        assert diag.flags.writeable
        assert not any(a.flags.writeable for a in (factor.diag, *factor.lu))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_zero_pivot(self, n):
        with pytest.raises(SingularSystemError):
            factor_tridiagonal(np.zeros(n - 1), np.zeros(n), np.zeros(n - 1))

    def test_nan_rhs_raises(self, rng):
        factor = factor_tridiagonal(*dominant_system(rng, 8))
        rhs = rng.standard_normal(8)
        rhs[3] = np.nan
        with pytest.raises(IllConditionedError):
            solve_factored(factor, rhs)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            factor_tridiagonal(np.zeros(2), np.ones(3), np.zeros(1))
        with pytest.raises(ShapeError):
            factor_tridiagonal(0.0, 1.0, 0.0)
        factor = factor_tridiagonal(0.0, 1.0, 0.0, n=3)
        with pytest.raises(ShapeError):
            solve_factored(factor, np.ones(4))


class TestPoisson:
    def test_zero(self):
        g = Grid1D(0.0, 1.0, 8)
        assert np.all(solve_poisson_dirichlet(g.zeros(), g) == 0.0)

    def test_sine_mode_eigenrelation(self):
        g = Grid1D(0.0, 1.0, 32)
        j = np.arange(g.M + 1)
        f = np.sin(np.pi * j / g.M)
        lam1 = 4.0 / g.h**2 * np.sin(np.pi / (2 * g.M)) ** 2
        phi = solve_poisson_dirichlet(f, g)
        assert np.max(np.abs(phi - f / lam1)) <= 1e-12 * np.max(np.abs(f / lam1))
        # applying the operator must return the data
        back = -second_difference(phi, g)
        assert np.max(np.abs(back[1:-1] - f[1:-1])) <= 1e-10 * np.max(np.abs(f))

    def test_random_dense_oracle(self, rng):
        g = Grid1D(-1.0, 1.0, 20)
        f = random_grid_fn(rng, g)
        n = g.M - 1
        A = (
            np.diag(np.full(n, 2.0))
            - np.diag(np.ones(n - 1), 1)
            - np.diag(np.ones(n - 1), -1)
        ) / g.h**2
        expected = np.linalg.solve(A, f[1:-1])
        phi = solve_poisson_dirichlet(f, g)
        assert np.max(np.abs(phi[1:-1] - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert phi[0] == 0.0 and phi[-1] == 0.0
