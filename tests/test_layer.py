import multiprocessing
import os
import signal
import socket
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import kgz.layer
from kgz import Grid1D, InitialLayer, ParameterError, decay_order, grid_norms
from kgz.checks import triangular_average_quadrature
from conftest import random_grid_fn


def make_layer(rng, grid, eps, alpha=0.5, beta=0.0):
    w0 = random_grid_fn(rng, grid)
    w1 = random_grid_fn(rng, grid)
    return InitialLayer.from_samples(grid, eps, alpha, beta, w0, w1)


def open_and_report(layer, conn):
    """Open a produced one-row stream, read a row, send the producer's pid on ``conn``, then wait."""
    stream = layer._produced(1, 10_000, 0.01, 1)
    next(stream)
    (producer,) = multiprocessing.active_children()
    conn.send(producer.pid)
    conn.recv()


def consume_slowly(layer):
    """March slowly through a produced stream where SIGPIPE kills, as in a program that restored its default."""
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    for _ in layer._produced(1, 9, 0.01, 1):
        time.sleep(0.02)


def running(pid):
    """Whether process ``pid`` still runs; a zombie has ended."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestConstruction:
    def test_theta_formula(self):
        g = Grid1D(0.0, 4.0, 8)
        layer = InitialLayer.from_samples(g, 0.5, 0.0, 0.0, g.zeros(), g.zeros())
        # l = 2 on an interval of length 4 with eps = 1/2
        assert np.isclose(layer.theta[1], np.pi, rtol=1e-14)
        assert np.all(np.diff(layer.theta) > 0)
        assert np.max(np.abs(layer.theta * 0.5 * g.length - np.arange(1, g.M) * np.pi)) <= 1e-12 * np.pi

    def test_zero_samples(self):
        g = Grid1D(0.0, 1.0, 8)
        layer = InitialLayer.from_samples(g, 0.3, 1.0, 0.0, g.zeros(), g.zeros())
        assert np.all(layer.w0_hat == 0.0)
        assert np.all(layer.w1_hat == 0.0)

    def test_single_mode_spectrum(self):
        g = Grid1D(0.0, 1.0, 16)
        w0 = np.sin(np.arange(g.M + 1) * np.pi / g.M)
        w0[0] = w0[-1] = 0.0
        layer = InitialLayer.from_samples(g, 1.0, 0.0, 0.0, w0, g.zeros())
        expected = np.zeros(g.M - 1)
        expected[0] = 1.0
        assert np.max(np.abs(layer.w0_hat - expected)) <= 1e-13

    def test_eps_validation(self):
        g = Grid1D(0.0, 1.0, 4)
        with pytest.raises(ParameterError):
            InitialLayer.from_samples(g, 0.0, 0.0, 0.0, g.zeros(), g.zeros())
        with pytest.warns(UserWarning):
            InitialLayer.from_samples(g, 1.5, 0.0, 0.0, g.zeros(), g.zeros())

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, eps):
        g = Grid1D(0.0, 1.0, 4)
        with pytest.raises(ParameterError, match="finite"):
            InitialLayer.from_samples(g, eps, 0.0, 0.0, g.zeros(), g.zeros())

    @pytest.mark.parametrize(
        "eps, alpha, match",
        [(-1.0, 0.5, "eps must be"), (0.0, 0.0, "eps must be"), (0.5, -1.0, "alpha must be")],
    )
    def test_direct_construction_checks_its_inputs(self, eps, alpha, match):
        g = Grid1D(0.0, 1.0, 4)
        spectrum = np.ones(g.M - 1)
        with pytest.raises(ParameterError, match=match):
            InitialLayer(eps=eps, alpha=alpha, beta=0.0, grid=g, w0_hat=spectrum, w1_hat=spectrum)

    def test_direct_construction_warns_above_the_analysis_range(self):
        g = Grid1D(0.0, 1.0, 4)
        spectrum = np.ones(g.M - 1)
        with pytest.warns(UserWarning, match="exceeds the analysis range"):
            InitialLayer(eps=1.5, alpha=0.0, beta=0.0, grid=g, w0_hat=spectrum, w1_hat=spectrum)


class TestDecayOrder:
    @pytest.mark.parametrize("alpha,beta,expected", [(1, 0, 1), (0, -1, 0), (2, 1, 2)])
    def test_values(self, alpha, beta, expected):
        assert decay_order(alpha, beta) == expected

    def test_range(self):
        with pytest.raises(ParameterError):
            decay_order(-0.1, 0.0)
        with pytest.raises(ParameterError):
            decay_order(0.0, -1.5)


class TestWave:
    def test_zero_spectra(self, rng):
        g = Grid1D(0.0, 1.0, 8)
        layer = InitialLayer.from_samples(g, 0.1, 0.0, 0.0, g.zeros(), g.zeros())
        for t in (0.0, 0.3, 7.0):
            assert np.all(layer.wave(t) == 0.0)

    def test_initial_condition(self, rng):
        g = Grid1D(-1.0, 1.0, 32)
        w0 = random_grid_fn(rng, g)
        eps, alpha = 0.25, 1.5
        layer = InitialLayer.from_samples(g, eps, alpha, 0.0, w0, random_grid_fn(rng, g))
        got = layer.wave(0.0)
        assert np.max(np.abs(got - eps**alpha * w0)) <= 1e-12 * np.max(np.abs(w0))

    def test_single_mode_periodicity(self):
        g = Grid1D(0.0, 1.0, 16)
        w0 = np.sin(np.arange(g.M + 1) * 2 * np.pi / g.M)
        w0[0] = w0[-1] = 0.0
        layer = InitialLayer.from_samples(g, 0.5, 0.0, 0.0, w0, g.zeros())
        period = 2 * np.pi / layer.theta[1]
        gap = np.max(np.abs(layer.wave(period) - layer.wave(0.0)))
        assert gap <= 1e-11

    def test_amplitude_bound(self, rng):
        g = Grid1D(0.0, 2.0, 24)
        layer = make_layer(rng, g, eps=0.2)
        bound = layer.amplitude_bound()
        for t in np.linspace(0.0, 3.0, 40):
            assert grid_norms(layer.wave(t), g).inf <= bound

    def test_mode_oscillator_residual(self, rng):
        # each sine coefficient of the wave obeys x'' + theta^2 x = 0
        g = Grid1D(0.0, 1.0, 8)
        layer = make_layer(rng, g, eps=0.3)
        from kgz import dst_forward

        for l in (1, 4, 7):
            theta = layer.theta[l - 1]
            dt = 1e-4 * (2 * np.pi / theta)
            t0 = 0.37
            vals = [dst_forward(layer.wave(t0 + m * dt), g)[l - 1] for m in (-1, 0, 1)]
            second = (vals[2] - 2 * vals[1] + vals[0]) / dt**2
            scale = theta**2 * max(abs(vals[1]), 1e-30)
            assert abs(second + theta**2 * vals[1]) <= 1e-6 * scale


class TestAveragedWave:
    def test_zero_spectra(self):
        g = Grid1D(0.0, 1.0, 8)
        layer = InitialLayer.from_samples(g, 0.1, 0.0, 0.0, g.zeros(), g.zeros())
        assert np.all(layer.averaged_wave(0.5, 0.1) == 0.0)

    def test_tau_validation(self, rng):
        g = Grid1D(0.0, 1.0, 8)
        layer = make_layer(rng, g, eps=0.5)
        with pytest.raises(ParameterError):
            layer.averaged_wave(0.5, 0.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_tau_rejected(self, rng, tau):
        layer = make_layer(rng, Grid1D(0.0, 1.0, 8), eps=0.5)
        with pytest.raises(ParameterError, match="finite"):
            layer.averaged_wave(0.5, tau)
        with pytest.raises(ParameterError, match="finite"):
            next(layer._potentials(1, 5, tau))

    def test_single_mode_closed_form(self):
        # on (0, pi) with eps = 1 the first frequency is exactly 1, and with
        # tau = pi the averaging weight becomes 4/pi^2
        g = Grid1D(0.0, np.pi, 16)
        w0 = np.sin(np.arange(g.M + 1) * np.pi / g.M)
        w0[0] = w0[-1] = 0.0
        layer = InitialLayer.from_samples(g, 1.0, 0.0, 0.0, w0, g.zeros())
        assert np.isclose(layer.theta[0], 1.0, rtol=1e-14)
        tau = np.pi
        for t_k in (tau, 2.0, 5.5):
            expected = 4.0 / np.pi**2 * np.cos(t_k) * w0
            got = layer.averaged_wave(t_k, tau)
            assert np.max(np.abs(got - expected)) <= 1e-12
            quad = triangular_average_quadrature(layer, t_k, tau)
            assert np.max(np.abs(got - quad)) <= 1e-10

    @pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize("tau", [0.1, 0.01])
    def test_quadrature_oracle(self, rng, eps, tau):
        g = Grid1D(0.0, 1.0, 16)
        layer = make_layer(rng, g, eps=eps)
        t_k = 3 * tau
        exact = layer.averaged_wave(t_k, tau)
        quad = triangular_average_quadrature(layer, t_k, tau)
        assert np.max(np.abs(exact - quad)) <= 1e-9

    def test_approaches_wave_quadratically(self, rng):
        # before the averaging saturates, halving tau shrinks the gap 4x
        g = Grid1D(0.0, 1.0, 6)
        layer = make_layer(rng, g, eps=1.0)
        t_k = 1.0
        theta_max = layer.theta[-1]
        tau0 = 0.02 / theta_max  # keeps theta*tau well below 1
        gaps = []
        for tau in (tau0, tau0 / 2):
            gap = np.max(np.abs(layer.averaged_wave(t_k, tau) - layer.wave(t_k)))
            gaps.append(gap)
        ratio = gaps[0] / gaps[1]
        assert 4.0 * 0.9 <= ratio <= 4.0 * 1.1


class TestPotentialProducer:
    """At M - 1 > 2^14 every block is one row; a forked process computes a long stream's rows."""

    @pytest.fixture
    def layer(self, rng):
        return make_layer(rng, Grid1D(-6.0, 6.0, 16386), eps=0.25)

    def test_rule(self, two_cpus):
        assert kgz.layer._use_producer(2**20)
        assert not kgz.layer._use_producer(2**20 - 1)

    def test_one_cpu_stays_in_process(self, layer, monkeypatch):
        monkeypatch.setattr(kgz.layer.os, "sched_getaffinity", lambda pid: {0})
        assert not kgz.layer._use_producer(2**20)
        # 64 rows of 16385 nodes are past 2^20 node-rows
        stream = layer._potentials(1, 1 + 64, 0.01)
        next(stream)
        assert multiprocessing.active_children() == []

    def test_pool_worker_stays_in_process(self, two_cpus):
        with ProcessPoolExecutor(max_workers=1) as pool:
            assert not pool.submit(kgz.layer._use_producer, 2**20).result()

    def test_small_grid_stays_in_process(self, rng, two_cpus):
        layer = make_layer(rng, Grid1D(-6.0, 6.0, 920), eps=0.25)
        next(layer._potentials(1, 5, 0.01))
        assert multiprocessing.active_children() == []

    def test_rows_match_in_process_stream(self, layer):
        # 8 rows wrap the 3-slot ring twice
        want = list(layer._computed(3, 11, 0.01, 1))
        got = list(layer._produced(3, 11, 0.01, 1))
        assert len(got) == len(want) == 8
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert multiprocessing.active_children() == []

    def test_closed_early_ends_producer(self, layer):
        stream = layer._produced(1, 50, 0.01, 1)
        first = next(stream)
        assert len(multiprocessing.active_children()) == 1
        stream.close()
        assert multiprocessing.active_children() == []
        assert np.array_equal(first, layer.averaged_wave(0.01, 0.01))

    def test_dead_producer_falls_back_in_process(self, layer, monkeypatch):
        stream = layer._produced(1, 9, 0.01, 1)
        got = [next(stream)]
        (producer,) = multiprocessing.active_children()
        producer.kill()
        got += list(stream)
        want = list(layer._computed(1, 9, 0.01, 1))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
    def test_orphaned_producer_ends_at_once(self, layer):
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe()
        helper = ctx.Process(target=open_and_report, args=(layer, theirs))
        helper.start()
        assert ours.poll(30)
        pid = ours.recv()
        start = time.monotonic()
        os.kill(helper.pid, signal.SIGKILL)
        helper.join(30)
        while running(pid) and time.monotonic() - start < 0.5:
            time.sleep(0.005)
        assert not running(pid)

    @pytest.mark.skipif(not hasattr(socket, "MSG_NOSIGNAL"), reason="no MSG_NOSIGNAL")
    def test_token_to_exited_producer_raises_no_sigpipe(self, layer):
        # the producer exits after its last block, while the march still
        # copies three blocks out and sends their tokens back
        helper = multiprocessing.get_context("fork").Process(target=consume_slowly, args=(layer,))
        helper.start()
        helper.join(30)
        assert helper.exitcode == 0

    def test_tau_validation(self, layer):
        with pytest.raises(ParameterError):
            next(layer._produced(1, 5, 0.0, 1))

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_tau_rejected(self, layer, tau):
        with pytest.raises(ParameterError, match="finite"):
            next(layer._produced(1, 5, tau, 1))


class TestBlockProducer:
    """From 2^20 node-rows on, a producer process serves multi-row blocks too."""

    @pytest.fixture
    def layer(self, rng):
        return make_layer(rng, Grid1D(-6.0, 6.0, 620), eps=0.25)

    def test_rows_match_in_process_blocks(self, layer):
        # 52-row blocks: 5 full blocks wrap the 3-slot ring, and 17 rows end in a partial one
        rows, k_stop = 52, 3 + 5 * 52 + 17
        want = list(layer._computed(3, k_stop, 0.01, rows))
        got = list(layer._produced(3, k_stop, 0.01, rows))
        assert len(got) == len(want) == k_stop - 3
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert multiprocessing.active_children() == []

    def test_killed_producer_falls_back_from_first_missing_block(self, layer, monkeypatch):
        rows, k_stop = 52, 1 + 10 * 52 + 5
        want = list(layer._computed(1, k_stop, 0.01, rows))
        resumed = []
        computed = kgz.layer.InitialLayer._computed

        def spied(self, k_first, *args):
            resumed.append(k_first)
            return computed(self, k_first, *args)

        monkeypatch.setattr(kgz.layer.InitialLayer, "_computed", spied)
        stream = layer._produced(1, k_stop, 0.01, rows)
        got = [next(stream)]
        (producer,) = multiprocessing.active_children()
        producer.kill()
        got += list(stream)
        # the ring holds at most 3 blocks, so the march resumes within the 10 full ones
        (k_resumed,) = resumed
        assert 1 < k_resumed <= 1 + 4 * rows and (k_resumed - 1) % rows == 0
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_killed_producer_is_seen_at_once(self, layer):
        rows, k_stop = 52, 1 + 10 * 52 + 5
        stream = layer._produced(1, k_stop, 0.01, rows)
        got = [next(stream)]
        (producer,) = multiprocessing.active_children()
        start = time.monotonic()
        producer.kill()
        got += list(stream)
        assert time.monotonic() - start < 0.5
        assert len(got) == k_stop - 1

    def test_rule(self, two_cpus):
        assert not kgz.layer._use_producer(2**20 - 1)
        assert kgz.layer._use_producer(2**20)
        assert kgz.layer._use_producer(2**22)

    def test_below_threshold_stays_in_process(self, layer, two_cpus):
        # 1693 rows of 619 nodes are just under 2^20 node-rows
        stream = layer._potentials(1, 1 + 1693, 0.01)
        next(stream)
        assert multiprocessing.active_children() == []

    def test_at_threshold_gets_producer(self, layer, two_cpus):
        stream = layer._potentials(1, 1 + 1694, 0.01)
        first = next(stream)
        assert len(multiprocessing.active_children()) == 1
        stream.close()
        assert multiprocessing.active_children() == []
        assert np.array_equal(first, layer.averaged_wave(0.01, 0.01))

    def test_pool_worker_stays_in_process(self, two_cpus):
        with ProcessPoolExecutor(max_workers=1) as pool:
            assert not pool.submit(kgz.layer._use_producer, 2**22).result()

    def test_one_cpu_stays_in_process(self, layer, monkeypatch):
        monkeypatch.setattr(kgz.layer.os, "sched_getaffinity", lambda pid: {0})
        assert not kgz.layer._use_producer(2**22)
        stream = layer._potentials(1, 1 + 4096, 0.01)
        next(stream)
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("M, rows", [(16386, 1), (620, 52)], ids=["one-row", "52-row"])
def test_producer_rule_is_node_rows_alone(rng, two_cpus, M, rows):
    """Either block size: in process below 2^20 node-rows, a producer from there on."""
    assert not kgz.layer._use_producer(2**20 - 1)
    assert kgz.layer._use_producer(2**20)
    layer = make_layer(rng, Grid1D(-6.0, 6.0, M), eps=0.25)
    nodes = M - 1
    assert max(1, kgz.layer._BLOCK_NODES // nodes) == rows
    # the longest stream below 2^20 node-rows, and one row more
    below = (2**20 - 1) // nodes
    stream = layer._potentials(1, 1 + below, 0.01)
    next(stream)
    assert multiprocessing.active_children() == []
    stream = layer._potentials(1, 2 + below, 0.01)
    first = next(stream)
    assert len(multiprocessing.active_children()) == 1
    stream.close()
    assert multiprocessing.active_children() == []
    assert np.array_equal(first, layer.averaged_wave(0.01, 0.01))
