import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgz import Grid1D, ParameterError, ShapeError, dst_forward, dst_inverse
from conftest import random_grid_fn


def naive_forward(u, grid):
    M = grid.M
    out = np.zeros(M - 1)
    for l in range(1, M):
        out[l - 1] = (2.0 / M) * sum(
            u[j] * np.sin(j * l * np.pi / M) for j in range(1, M)
        )
    return out


def naive_inverse(coeffs, grid):
    M = grid.M
    u = np.zeros(M + 1)
    for j in range(1, M):
        u[j] = sum(coeffs[l - 1] * np.sin(j * l * np.pi / M) for l in range(1, M))
    return u


@pytest.mark.parametrize("method", ["naive", "fast"])
class TestForward:
    def test_zero(self, method):
        g = Grid1D(0.0, 1.0, 8)
        assert np.all(dst_forward(g.zeros(), g, method) == 0.0)

    def test_orthogonality(self, method):
        g = Grid1D(0.0, 1.0, 16)
        l0 = 3
        u = np.sin(np.arange(g.M + 1) * l0 * np.pi / g.M)
        u[0] = u[-1] = 0.0
        coeffs = dst_forward(u, g, method)
        expected = np.zeros(g.M - 1)
        expected[l0 - 1] = 1.0
        assert np.max(np.abs(coeffs - expected)) <= 1e-13

    def test_double_sum_oracle(self, method, rng):
        g = Grid1D(-1.0, 2.0, 16)
        u = random_grid_fn(rng, g)
        expected = naive_forward(u, g)
        got = dst_forward(u, g, method)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("method", ["naive", "fast"])
class TestInverse:
    def test_zero(self, method):
        g = Grid1D(0.0, 1.0, 8)
        assert np.all(dst_inverse(np.zeros(g.M - 1), g, method) == 0.0)

    def test_single_mode(self, method):
        g = Grid1D(0.0, 1.0, 12)
        coeffs = np.zeros(g.M - 1)
        coeffs[4] = 1.0
        u = dst_inverse(coeffs, g, method)
        expected = np.sin(np.arange(g.M + 1) * 5 * np.pi / g.M)
        expected[0] = expected[-1] = 0.0
        assert np.max(np.abs(u - expected)) <= 1e-13
        assert u[0] == 0.0 and u[-1] == 0.0

    def test_double_sum_oracle(self, method, rng):
        g = Grid1D(0.0, 3.0, 16)
        coeffs = rng.standard_normal(g.M - 1)
        expected = naive_inverse(coeffs, g)
        got = dst_inverse(coeffs, g, method)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestPairProperties:
    @pytest.mark.parametrize("M", [2, 3, 4, 8, 16, 64, 128])
    def test_round_trip(self, rng, M):
        g = Grid1D(0.0, 1.0, M)
        u = random_grid_fn(rng, g)
        back = dst_inverse(dst_forward(u, g), g)
        assert np.max(np.abs(back - u)) <= 1e-12 * max(np.max(np.abs(u)), 1e-30)

    def test_linearity(self, rng):
        g = Grid1D(0.0, 1.0, 32)
        u = random_grid_fn(rng, g)
        v = random_grid_fn(rng, g)
        combo = dst_forward(2.0 * u - 0.5 * v, g)
        parts = 2.0 * dst_forward(u, g) - 0.5 * dst_forward(v, g)
        assert np.max(np.abs(combo - parts)) <= 1e-13 * np.max(np.abs(parts))

    def test_parseval(self, rng):
        g = Grid1D(-2.0, 5.0, 64)
        u = random_grid_fn(rng, g)
        lhs = g.h * np.sum(u**2)
        rhs = 0.5 * g.length * np.sum(dst_forward(u, g) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * lhs

    def test_fast_matches_naive(self, rng):
        # the quadratic-cost path is the oracle for the FFT path
        for M in (2, 5, 16, 97, 128):
            g = Grid1D(0.0, 1.0, M)
            u = random_grid_fn(rng, g)
            f_fast = dst_forward(u, g, "fast")
            f_naive = dst_forward(u, g, "naive")
            scale = max(np.max(np.abs(f_naive)), 1e-30)
            assert np.max(np.abs(f_fast - f_naive)) <= 1e-12 * scale
            c = rng.standard_normal(g.M - 1)
            i_fast = dst_inverse(c, g, "fast")
            i_naive = dst_inverse(c, g, "naive")
            scale = max(np.max(np.abs(i_naive)), 1e-30)
            assert np.max(np.abs(i_fast - i_naive)) <= 1e-12 * scale

    def test_shape_errors(self):
        g = Grid1D(0.0, 1.0, 8)
        with pytest.raises(ShapeError):
            dst_forward(np.zeros(4), g)
        with pytest.raises(ShapeError):
            dst_inverse(np.zeros(8), g)

    @pytest.mark.parametrize("transform", [dst_forward, dst_inverse])
    def test_unknown_method_is_a_parameter_error(self, transform):
        g = Grid1D(0.0, 1.0, 8)
        arg = g.zeros() if transform is dst_forward else np.zeros(g.M - 1)
        with pytest.raises(ParameterError, match="unknown method 'slow'"):
            transform(arg, g, "slow")


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), rows=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(n=1, rows=3, seed=0)
@example(n=2, rows=3, seed=0)
@example(n=2, rows=1, seed=1)
def test_inverse_of_a_stack_is_the_row_by_row_inverse(n, rows, seed):
    g = Grid1D(0.0, 1.0, n + 1)
    stack = np.random.default_rng(seed).standard_normal((rows, n))
    fast = dst_inverse(stack, g, "fast")
    assert fast.shape == (rows, n + 2)
    assert np.array_equal(fast, [dst_inverse(c, g, "fast") for c in stack])
    naive = dst_inverse(stack, g, "naive")
    by_row = np.array([dst_inverse(c, g, "naive") for c in stack])
    assert np.all(naive[:, [0, -1]] == 0.0)
    assert np.max(np.abs(naive - by_row)) <= 1e-12 * max(np.max(np.abs(by_row)), 1e-30)


def test_inverse_rejects_a_stack_of_the_wrong_rows():
    g = Grid1D(0.0, 1.0, 8)
    for shape in ((3, 8), (2, 3, 7)):
        with pytest.raises(ShapeError):
            dst_inverse(np.zeros(shape), g)
