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

# nodes per block of streamed potentials: 52 rows at M = 620, and one row
# from M = 16386 on, so a large run holds no more scratch than one row
_BLOCK_NODES = 2**15


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
        rows = np.empty((2, 1, self.grid.M - 1))
        return self._averaged_block(np.array([t]), tau, *rows)[0]

    def _averaged_block(self, times, tau, phase, modes):
        """``averaged_wave`` at each of ``times``, one row each, from one DST call.

        ``phase`` and ``modes`` are scratch of shape (len(times), M - 1).
        Each element goes through the products and sums of
        ``weight * (amp0 cos(theta t) + amp1 sin(theta t))`` whatever the
        number of rows, so a row has the bits of ``averaged_wave`` at its time.
        """
        if tau <= 0:
            raise ParameterError(f"tau must be positive, got {tau}")
        np.multiply(times[:, None], self.theta, out=phase)
        np.cos(phase, out=modes)
        modes *= self.amp0
        np.sin(phase, out=phase)
        phase *= self.amp1
        modes += phase
        modes *= self._average_weights(tau)
        return dst_inverse(modes, self.grid)

    def _potentials(self, k_first, k_stop, tau):
        """Yield ``averaged_wave(k tau, tau)`` for k = k_first .. k_stop - 1, in order.

        The potentials depend on t_k alone, never on the solution, so a
        forward march takes them from here, computed ``_BLOCK_NODES // (M - 1)``
        rows (at least one) at a time into scratch reused across blocks.
        """
        n = self.grid.M - 1
        rows = max(1, _BLOCK_NODES // n)
        phase, modes = np.empty((2, rows, n))
        for k0 in range(k_first, k_stop, rows):
            ks = np.arange(k0, min(k0 + rows, k_stop))
            yield from self._averaged_block(ks * tau, tau, phase[: len(ks)], modes[: len(ks)])

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
