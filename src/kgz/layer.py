"""Exact evaluation of the oscillatory initial layer.

The layer is the solution of the free wave equation with speed 1/eps seeded
by the incompatibility data (eps^alpha * w0, eps^beta * w1). On the sine
basis every mode is a harmonic oscillator with frequency theta_l, so the
wave and its triangular-kernel time average evaluate exactly at any time;
no second time discretization enters the solver through this term.

A forward march takes the averaged potential of every step from one
stream, ``InitialLayer._potentials``. The potential depends on the time
alone, so the stream computes it ahead: a block of rows per DST call on
small grids, and on grids where a block is a single row (M - 1 > 2^14) a
forked producer process computes the rows beside the march and hands them
over through a ring of shared slots. The producer serves a stream only in
a process that is not itself a ``multiprocessing`` child (pool workers
already share the cores), with at least 2 CPUs in its affinity mask and
the ``fork`` start method; otherwise the stream runs in process. Either
way every row has the bits of ``averaged_wave`` at its time.
"""

import multiprocessing
import os
import signal
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, positive_finite
from .grid import Grid1D
from .transforms import dst_forward, dst_inverse

# nodes per block of streamed potentials: 52 rows at M = 620, and one row
# from M = 16386 on, so a large run holds no more scratch than one row
_BLOCK_NODES = 2**15
# rows the producer process may run ahead of the march, one shared slot each
_RING_SLOTS = 3
# seconds a side waits for the other before it checks that the other is alive
_POLL_S = 1.0


def _use_producer(rows):
    """Whether a stream of ``rows``-row blocks is served by a producer process."""
    return (
        rows == 1
        and multiprocessing.parent_process() is None
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and "fork" in multiprocessing.get_all_start_methods()
    )


def _acquire(sem, alive):
    """Acquire ``sem``; False when it is still taken once ``alive()`` turns false."""
    while not sem.acquire(timeout=_POLL_S):
        if not alive():
            return sem.acquire(block=False)
    return True


def decay_order(alpha, beta):
    """Effective decay order of the layer, min(alpha, 1 + beta)."""
    if not alpha >= 0:  # NaN fails too
        raise ParameterError(f"alpha must be >= 0, got {alpha}")
    if not beta >= -1:
        raise ParameterError(f"beta must be >= -1, got {beta}")
    return min(alpha, 1.0 + beta)


def _check_eps(eps):
    if positive_finite("eps", eps) > 1:
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
        """Layer wave at time t >= 0 as a grid function: one row of unit weight."""
        rows = np.empty((2, 1, self.grid.M - 1))
        return self._averaged_block(np.array([t]), 1.0, *rows)[0]

    def averaged_wave(self, t, tau):
        """Triangular-kernel average of the wave over [t - tau, t + tau].

        Exact per mode: averaging cos/sin(theta*s) against (1 - |s|/tau)
        multiplies the amplitude by 4 sin^2(theta tau / 2) / (theta tau)^2.
        """
        rows = np.empty((2, 1, self.grid.M - 1))
        return self._averaged_block(np.array([t]), self._average_weights(tau), *rows)[0]

    def _averaged_block(self, times, weights, phase, modes):
        """``averaged_wave`` at each of ``times``, one row each, from one DST call.

        ``weights`` are ``_average_weights(tau)``, or 1.0 for ``wave``, and
        ``phase`` and ``modes`` scratch of shape (len(times), M - 1). Each
        element goes through the products and sums of
        ``weight * (amp0 cos(theta t) + amp1 sin(theta t))`` whatever the
        number of rows, so a row has the bits of ``averaged_wave`` at its time.
        """
        np.multiply(times[:, None], self.theta, out=phase)
        np.cos(phase, out=modes)
        modes *= self.amp0
        np.sin(phase, out=phase)
        phase *= self.amp1
        modes += phase
        modes *= weights
        return dst_inverse(modes, self.grid)

    def _potentials(self, k_first, k_stop, tau):
        """Yield ``averaged_wave(k tau, tau)`` for k = k_first .. k_stop - 1, in order.

        The potentials depend on t_k alone, never on the solution, so a
        forward march takes them from here, computed ahead: in process
        ``_BLOCK_NODES // (M - 1)`` rows (at least one) at a time, or one
        row at a time by a producer process when ``_use_producer`` allows
        it. A caller closes the stream when it stops early or fails
        (``contextlib.closing``), which ends the producer.
        """
        rows = max(1, _BLOCK_NODES // (self.grid.M - 1))
        if _use_producer(rows):
            return self._produced(k_first, k_stop, tau)
        return self._computed(k_first, k_stop, tau, rows)

    def _computed(self, k_first, k_stop, tau, rows):
        """The in-process stream of ``_potentials``, ``rows`` rows per block; one set of weights."""
        weights = self._average_weights(tau)
        phase, modes = np.empty((2, rows, self.grid.M - 1))
        for k0 in range(k_first, k_stop, rows):
            ks = np.arange(k0, min(k0 + rows, k_stop))
            yield from self._averaged_block(ks * tau, weights, phase[: len(ks)], modes[: len(ks)])

    def _produced(self, k_first, k_stop, tau):
        """The stream of ``_potentials`` with its rows computed by a forked producer process.

        The producer writes row i of the stream into slot i mod
        ``_RING_SLOTS`` of a shared ring. ``free`` counts the slots it may
        write and ``full`` the rows the march may read. Each row is copied
        out of its slot before the slot goes back, so it keeps its bits.
        The producer is joined on every exit of the stream, terminated
        first if it still runs; should it die early, the stream goes on in
        process from the first row it did not deliver.
        """
        positive_finite("tau", tau)  # here, as the producer has no way to raise into the march
        ctx = multiprocessing.get_context("fork")
        width = self.grid.M + 1
        ring = np.frombuffer(ctx.RawArray("d", _RING_SLOTS * width)).reshape(_RING_SLOTS, width)
        free, full = ctx.Semaphore(_RING_SLOTS), ctx.Semaphore(0)
        producer = ctx.Process(
            target=self._produce,
            args=(k_first, k_stop, tau, ring, free, full),
            daemon=True,
        )
        producer.start()
        try:
            for i, k in enumerate(range(k_first, k_stop)):
                if not _acquire(full, producer.is_alive):
                    yield from self._computed(k, k_stop, tau, 1)
                    return
                row = ring[i % _RING_SLOTS].copy()
                free.release()
                yield row
        finally:
            producer.terminate()
            producer.join()

    def _produce(self, k_first, k_stop, tau, ring, free, full):
        """The producer's loop: each row of the in-process stream into its slot once it is free."""
        # an interrupt from the terminal is the march's to handle; it ends the producer
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        parent = multiprocessing.parent_process()
        for i, row in enumerate(self._computed(k_first, k_stop, tau, 1)):
            if not _acquire(free, parent.is_alive):
                return
            ring[i % _RING_SLOTS] = row
            full.release()

    def _average_weights(self, tau):
        """The per-mode average factors (sin(theta tau / 2) / (theta tau / 2))^2; checks tau."""
        half = 0.5 * self.theta * positive_finite("tau", tau)
        return (np.sin(half) / half) ** 2

    def amplitude_bound(self):
        """Triangle-inequality bound on the max norm of the wave, any t."""
        return float(np.sum(np.abs(self.amp0) + np.abs(self.amp1)))
