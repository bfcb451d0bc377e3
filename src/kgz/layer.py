"""Exact evaluation of the oscillatory initial layer.

The layer is the solution of the free wave equation with speed 1/eps seeded
by the incompatibility data (eps^alpha * w0, eps^beta * w1). On the sine
basis every mode is a harmonic oscillator with frequency theta_l, so the
wave and its triangular-kernel time average evaluate exactly at any time;
no second time discretization enters the solver through this term.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .grid import Grid1D
from .transforms import dst_forward, dst_inverse


def decay_order(alpha, beta):
    """Effective decay order of the layer, min(alpha, 1 + beta)."""
    if not alpha >= 0:  # NaN fails too
        raise ParameterError(f"alpha must be >= 0, got {alpha}")
    if not beta >= -1:
        raise ParameterError(f"beta must be >= -1, got {beta}")
    return min(alpha, 1.0 + beta)


def _check_eps(eps):
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if eps > 1:
        warnings.warn(
            f"eps={eps} exceeds the analysis range (0, 1]; proceeding",
            stacklevel=3,
        )


@dataclass(frozen=True, eq=False)
class InitialLayer:
    """Sine spectra of the incompatibility data plus mode frequencies.

    ``amp0[l]`` and ``amp1[l]`` are the cosine and sine amplitudes of mode l,
    already scaled by eps^alpha and eps^beta / theta_l.
    """

    eps: float
    alpha: float
    beta: float
    grid: Grid1D
    w0_hat: np.ndarray
    w1_hat: np.ndarray
    theta: np.ndarray = field(init=False, repr=False)
    amp0: np.ndarray = field(init=False, repr=False)
    amp1: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # theta_l from l and the interval length directly, not via h
        l = np.arange(1, self.grid.M)
        theta = l * (np.pi / (self.eps * self.grid.length))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "amp0", self.eps**self.alpha * self.w0_hat)
        object.__setattr__(self, "amp1", self.eps**self.beta * self.w1_hat / theta)

    @classmethod
    def from_samples(cls, grid, eps, alpha, beta, w0_samples, w1_samples):
        _check_eps(eps)
        decay_order(alpha, beta)
        return cls(
            eps=float(eps),
            alpha=float(alpha),
            beta=float(beta),
            grid=grid,
            w0_hat=dst_forward(w0_samples, grid),
            w1_hat=dst_forward(w1_samples, grid),
        )

    def wave(self, t):
        """Layer wave at time t >= 0 as a grid function."""
        phase = self.theta * t
        modes = self.amp0 * np.cos(phase) + self.amp1 * np.sin(phase)
        return dst_inverse(modes, self.grid)

    def averaged_wave(self, t, tau):
        """Triangular-kernel average of the wave over [t - tau, t + tau].

        Exact per mode: averaging cos/sin(theta*s) against (1 - |s|/tau)
        multiplies the amplitude by 4 sin^2(theta tau / 2) / (theta tau)^2.
        """
        if tau <= 0:
            raise ParameterError(f"tau must be positive, got {tau}")
        weight = self._average_weights(tau)
        phase = self.theta * t
        modes = weight * (self.amp0 * np.cos(phase) + self.amp1 * np.sin(phase))
        return dst_inverse(modes, self.grid)

    def _average_weights(self, tau):
        # one run evaluates this every step with the same tau
        cached = getattr(self, "_weights_cache", None)
        if cached is not None and cached[0] == tau:
            return cached[1]
        half = 0.5 * self.theta * tau
        weight = (np.sin(half) / half) ** 2
        object.__setattr__(self, "_weights_cache", (tau, weight))
        return weight

    def amplitude_bound(self):
        """Triangle-inequality bound on the max norm of the wave, any t."""
        return float(np.sum(np.abs(self.amp0) + np.abs(self.amp1)))
