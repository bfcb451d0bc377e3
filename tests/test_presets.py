import numpy as np
import pytest

from kgz import (
    Grid1D, InitialData, ParameterError, ShapeError, case_exponents, domain_for_eps, smooth_step,
)
from kgz.presets import preset_initial_data, preset_names


class TestGaussSech:
    def test_values_at_origin(self):
        data = preset_initial_data("gauss_sech")
        x = np.array([0.0])
        assert data.E0(x)[0] == 0.0
        assert data.E1(x)[0] == pytest.approx(1.0, rel=1e-15)
        assert data.omega0(x)[0] == pytest.approx(1.0, rel=1e-15)
        assert data.omega1(x)[0] == 0.0

    def test_sample_zeroes_endpoints(self):
        data = preset_initial_data("gauss_sech")
        grid = Grid1D(-31.0, 31.0, 62)
        for v in data.sample(grid):
            assert v[0] == 0.0 and v[-1] == 0.0
            assert np.all(np.isfinite(v))

    def test_sample_rejects_a_wrong_shape(self):
        good = preset_initial_data("gauss_sech")
        data = InitialData(E0=good.E0, E1=lambda x: good.E1(x)[:-1], omega0=good.omega0,
                           omega1=good.omega1)
        with pytest.raises(ShapeError, match="wrong shape"):
            data.sample(Grid1D(-31.0, 31.0, 62))

    def test_decays_before_boundary(self):
        data = preset_initial_data("gauss_sech")
        x = np.array([-31.0, 31.0])
        for f in (data.E0, data.E1, data.omega0, data.omega1):
            assert np.max(np.abs(f(x))) < 1e-12


class TestBump:
    def test_partition_identity(self):
        x = np.linspace(1e-3, 1.0 - 1e-3, 211)
        total = smooth_step(x) + smooth_step(1.0 - x)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_step_limits(self):
        assert np.all(smooth_step(np.array([-2.0, -1e-9, 0.0])) == 0.0)
        assert np.all(smooth_step(np.array([1.0, 1.5, 10.0])) == 1.0)
        x = np.linspace(-0.5, 1.5, 101)
        assert np.all(np.diff(smooth_step(x)) >= 0.0)

    def test_omega0_vanishes_outside_support(self):
        data = preset_initial_data("bump")
        x = np.array([-25.0, 25.0])
        assert np.all(data.omega0(x) == 0.0)

    def test_field_support(self):
        data = preset_initial_data("bump")
        x = np.array([-16.0, 16.0])
        assert np.all(data.E0(x) == 0.0)
        inside = np.array([0.0, 3.0])
        assert np.any(data.E0(inside) != 0.0)


class TestRegistry:
    def test_unknown_name_lists_presets(self):
        with pytest.raises(ParameterError) as excinfo:
            preset_initial_data("nope")
        for name in preset_names():
            assert name in str(excinfo.value)

    def test_case_exponents(self):
        assert case_exponents("I") == (1.0, 0.0)
        assert case_exponents("II") == (0.0, -1.0)
        assert case_exponents("custom", 2.0, 1.0) == (2.0, 1.0)
        with pytest.raises(ParameterError):
            case_exponents("custom")
        with pytest.raises(ParameterError):
            case_exponents("III")


class TestDomain:
    @pytest.mark.parametrize(
        "eps,expected",
        [(1.0, (-31.0, 31.0)), (0.25, (-34.0, 34.0)), (0.0625, (-46.0, 46.0))],
    )
    def test_values(self, eps, expected):
        assert domain_for_eps(eps) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            domain_for_eps(0.0)
        with pytest.raises(ParameterError):
            domain_for_eps(-1.0)
