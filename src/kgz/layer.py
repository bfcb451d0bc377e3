"""Exact evaluation of the oscillatory initial layer.

The layer is the solution of the free wave equation with speed 1/eps seeded
by the incompatibility data (eps^alpha * w0, eps^beta * w1). On the sine
basis every mode is a harmonic oscillator with frequency theta_l, so the
wave and its triangular-kernel time average evaluate exactly at any time;
no second time discretization enters the solver through this term.

A forward march takes the averaged potential of every step from one
stream, ``InitialLayer._potentials``. The potential depends on the time
alone, so the stream computes it ahead, a block of ``_BLOCK_NODES // (M - 1)``
rows (at least one) per DST call. A forked producer process computes the
blocks beside the march and hands them over through a ring of shared
slots when the stream is long enough to pay for the fork: 2^20 node-rows
or more, whatever its block size. One socket pair carries a one-byte
token per block each way, and its end is the other side's end, so a
stopped producer or march is seen at once. The producer serves a stream
only in a process that is not itself a ``multiprocessing`` child (pool
workers already share the cores), with at least 2 CPUs in its affinity
mask and the ``fork`` start method; otherwise the stream runs in
process. Either way every row has the bits of ``averaged_wave``.

A stream may also carry a follower: a march that depends on the
potentials alone, such as the eps-limit task's limit model. The producer
runs it ahead beside the march and streams its row of each step beside
the potential; where the stream runs in process, the caller steps it.
"""

import math
import multiprocessing
import os
import signal
import socket
import warnings
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import KgzError, ParameterError, positive_finite
from .grid import Grid1D
from .transforms import dst_forward, dst_inverse

# nodes per block of streamed potentials: 52 rows at M = 620, and one row
# from M = 16386 on, so a large run holds no more scratch than one row
_BLOCK_NODES = 2**15
# blocks the producer process may run ahead of the march, one shared slot each
_RING_SLOTS = 3
# node-rows from which a stream pays for its producer: on 2 vCPUs a fork
# and join took 5-8 ms, 2^20 node-rows of potential 25-55 ms
_PRODUCER_NODES = 2**20
# a token to a producer that has exited raises BrokenPipeError, not SIGPIPE,
# also in a program that restored SIGPIPE's default action (Linux)
_NOSIGNAL = getattr(socket, "MSG_NOSIGNAL", 0)


def _use_producer(nodes):
    """Whether a stream of ``nodes`` node-rows is served by a producer process.

    A stream qualifies from ``_PRODUCER_NODES`` node-rows on, whatever its
    block size, and only where a producer can run beside the march.
    """
    return (
        nodes >= _PRODUCER_NODES
        and multiprocessing.parent_process() is None
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and "fork" in multiprocessing.get_all_start_methods()
    )


def decay_order(alpha, beta):
    """Effective decay order of the layer, min(alpha, 1 + beta)."""
    if not alpha >= 0:  # NaN fails too
        raise ParameterError(f"alpha must be >= 0, got {alpha}")
    if not beta >= -1:
        raise ParameterError(f"beta must be >= -1, got {beta}")
    return min(alpha, 1.0 + beta)


def _data_scales(eps, alpha, beta):
    """eps^alpha and eps^beta, which scale the incompatibility data; a ParameterError unless finite."""
    scales = []
    for name, power in (("alpha", alpha), ("beta", beta)):
        try:
            scale = eps**power
        except OverflowError:
            scale = math.inf
        if not math.isfinite(scale):
            raise ParameterError(f"eps**{name} is not finite for eps={eps} and {name}={power}")
        scales.append(scale)
    return tuple(scales)


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
        if positive_finite("eps", self.eps) > 1:
            warnings.warn(
                f"eps={self.eps} exceeds the analysis range (0, 1]; proceeding",
                stacklevel=3,
            )
        decay_order(self.alpha, self.beta)
        scale0, scale1 = _data_scales(self.eps, self.alpha, self.beta)
        # theta_l from l and the interval length directly, not via h
        l = np.arange(1, self.grid.M)
        theta = l * (np.pi / (self.eps * self.grid.length))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "amp0", scale0 * self.w0_hat)
        object.__setattr__(self, "amp1", scale1 * self.w1_hat / theta)

    @classmethod
    def from_samples(cls, grid, eps, alpha, beta, w0_samples, w1_samples):
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

    def _potentials(self, k_first, k_stop, tau, follow=None):
        """Yield ``averaged_wave(k tau, tau)`` for k = k_first .. k_stop - 1, in order.

        The potentials depend on t_k alone, never on the solution, so a
        forward march takes them from here, computed ahead in blocks of
        ``_BLOCK_NODES // (M - 1)`` rows (at least one): by a producer
        process when ``_use_producer`` allows it for the stream's node-rows,
        in process otherwise. A caller closes the stream when it stops early
        or fails (``contextlib.closing``), which ends the producer.

        ``follow``, a follower (a function of each potential in turn that
        returns a row of M + 1 values), makes the stream yield
        ``(potential, followed)`` pairs: the producer's follower row, or
        None where the stream runs in process and the caller steps it.
        """
        rows = max(1, _BLOCK_NODES // (self.grid.M - 1))
        if _use_producer((k_stop - k_first) * (self.grid.M - 1)):
            return self._produced(k_first, k_stop, tau, rows, follow)
        return self._computed(k_first, k_stop, tau, rows, follow)

    def _blocks(self, k_first, k_stop, tau, rows):
        """The potentials of ``_potentials``, ``rows`` rows per block (fewer in the last); one set of weights."""
        weights = self._average_weights(tau)
        phase, modes = np.empty((2, rows, self.grid.M - 1))
        for k0 in range(k_first, k_stop, rows):
            ks = np.arange(k0, min(k0 + rows, k_stop))
            yield self._averaged_block(ks * tau, weights, phase[: len(ks)], modes[: len(ks)])

    def _computed(self, k_first, k_stop, tau, rows, follow=None):
        """The in-process stream of ``_potentials``, ``rows`` rows per block; no follower runs here."""
        for block in self._blocks(k_first, k_stop, tau, rows):
            yield from block if follow is None else zip(block, repeat(None))

    def _produced(self, k_first, k_stop, tau, rows, follow=None):
        """The stream of ``_potentials`` with its ``rows``-row blocks computed by a forked producer process.

        ``_potentials`` takes this path for a stream that ``_use_producer``
        grants by its node-rows alone; called directly it serves a stream of
        any length. The producer writes block i of the stream into slot i
        mod ``_RING_SLOTS`` of a shared ring, the follower's rows beside the
        potentials when there is a follower, and sends a token on the
        socket pair; the march copies the block out, so its rows keep their
        bits, and sends one back. Each side closes its copy of the other's
        end, so a read that gets no byte, or a reset (tokens left unread),
        means the producer stopped before this block: it died, or the
        follower raised a KgzError. The stream then goes on in process from
        that block, its followed rows None, so the caller steps the
        follower from there and meets any error itself. The producer is
        joined on every exit of the stream, terminated first if it still
        runs. A row's bits do not depend on the block size, so either way
        every row has the bits of ``averaged_wave``.
        """
        positive_finite("tau", tau)  # here, as the producer has no way to raise into the march
        ctx = multiprocessing.get_context("fork")
        parts = 1 if follow is None else 2
        width = self.grid.M + 1
        ring = np.frombuffer(ctx.RawArray("d", _RING_SLOTS * rows * parts * width))
        ring = ring.reshape(_RING_SLOTS, rows, parts, width)
        march, tokens = socket.socketpair()
        producer = ctx.Process(
            target=self._produce,
            args=(k_first, k_stop, tau, rows, ring, tokens, march, follow),
            daemon=True,
        )
        with march:
            with tokens:
                producer.start()
            try:
                for i, k0 in enumerate(range(k_first, k_stop, rows)):
                    delivered = b""
                    with suppress(OSError):
                        delivered = march.recv(1)
                    if not delivered:
                        yield from self._computed(k0, k_stop, tau, rows, follow)
                        return
                    block = ring[i % _RING_SLOTS, : min(rows, k_stop - k0)].copy()
                    with suppress(OSError):  # a stopped producer: the next read sees its end
                        march.send(b"\0", _NOSIGNAL)
                    yield from block[:, 0] if follow is None else block
            finally:
                producer.terminate()
                producer.join()

    def _produce(self, k_first, k_stop, tau, rows, ring, tokens, march, follow):
        """The producer's loop: each block of the stream, followed rows beside, into its slot once free.

        The first ``_RING_SLOTS`` blocks find their slots free, and each
        later one waits for the march's token. A read that gets no byte, or
        an OSError, means the march is gone, and a KgzError of the follower
        is the march's to meet in process, in its own order: either ends the
        producer quietly.
        """
        march.close()  # the fork's copy: while it is open, the march's end never comes
        # an interrupt from the terminal is the march's to handle; it ends the producer
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with suppress(KgzError, OSError):
            for i, block in enumerate(self._blocks(k_first, k_stop, tau, rows)):
                followed = None if follow is None else [follow(row) for row in block]
                if i >= _RING_SLOTS and not tokens.recv(1):
                    return
                slot = ring[i % _RING_SLOTS, : len(block)]
                slot[:, 0] = block
                if followed is not None:
                    slot[:, 1] = followed
                tokens.send(b"\0")

    def _average_weights(self, tau):
        """The per-mode average factors (sin(theta tau / 2) / (theta tau / 2))^2; checks tau."""
        half = 0.5 * self.theta * positive_finite("tau", tau)
        return (np.sin(half) / half) ** 2

    def amplitude_bound(self):
        """Triangle-inequality bound on the max norm of the wave, any t."""
        return float(np.sum(np.abs(self.amp0) + np.abs(self.amp1)))
