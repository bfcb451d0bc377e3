"""Initial-data presets and the eps-dependent computational domain."""

import numpy as np

from .errors import ParameterError, positive_finite
from .solver import InitialData


def smooth_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, monotone in between."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[x >= 1.0] = 1.0
    mid = (x > 0.0) & (x < 1.0)
    xm = x[mid]
    with np.errstate(over="ignore"):
        lo = np.exp(-1.0 / xm)
        hi = np.exp(-1.0 / (1.0 - xm))
    out[mid] = lo / (lo + hi)
    return out


def _sech(z):
    # 1/cosh without the overflow of cosh at large arguments
    e = np.exp(-np.abs(z))
    return 2.0 * e / (1.0 + e * e)


def _gauss_sech():
    return InitialData(
        E0=lambda x: np.exp(-(x**2)) * np.sin(x),
        E1=lambda x: _sech(x**2 / 2.0) * np.cos(x),
        omega0=lambda x: _sech(x**2) * np.cos(3.0 * x),
        omega1=lambda x: _sech(x**2) * np.sin(4.0 * x),
    )


def _bump():
    def E0(x):
        return 0.5 * smooth_step((x + 15.0) / 8.0) * smooth_step((15.0 - x) / 7.0) * np.cos(x / 2.0)

    def E1(x):
        return 0.5 * smooth_step((x + 10.0) / 5.0) * smooth_step((10.0 - x) / 5.0) * np.sin(x / 2.0)

    def omega0(x):
        return (
            smooth_step((x + 18.0) / 10.0)
            * smooth_step((18.0 - x) / 9.0)
            * np.sin(2.0 * x + np.pi / 6.0)
        )

    def omega1(x):
        return np.exp(-(x**2) / 3.0) * np.sin(2.0 * x)

    return InitialData(E0=E0, E1=E1, omega0=omega0, omega1=omega1)


_PRESETS = {"gauss_sech": _gauss_sech, "bump": _bump}

CASE_EXPONENTS = {"I": (1.0, 0.0), "II": (0.0, -1.0)}


def preset_names():
    return sorted(_PRESETS)


def preset_initial_data(name):
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ParameterError(
            f"unknown preset {name!r}; available presets: {', '.join(preset_names())}"
        ) from None


def case_exponents(case, alpha=None, beta=None):
    """Incompatibility exponents for a named case, or the custom pair."""
    if case in CASE_EXPONENTS:
        return CASE_EXPONENTS[case]
    if case == "custom":
        if alpha is None or beta is None:
            raise ParameterError("case 'custom' needs both alpha and beta")
        return float(alpha), float(beta)
    raise ParameterError(f"unknown case {case!r}; use I, II or custom")


def domain_for_eps(eps):
    """Truncated interval wide enough for the outgoing layer up to t ~ 1."""
    half = 30.0 + 1.0 / positive_finite("eps", eps)
    return -half, half
