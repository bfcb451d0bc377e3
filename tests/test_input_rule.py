"""The positive-finite input rule, fuzzed at every entry point that takes such an input.

Each case feeds NaN, +-inf, zero, negative values and one valid control
(None below) into one input and holds the others valid. A value that
breaks the rule must raise ParameterError, and the control must return.
Snapshot times are the one input where 0 (the start) is legal. Sizes
beyond double precision close the file: a cell or step count no array can
index, or an inverse square that is not finite, is a ParameterError too,
and so is a grid whose nodes would not fit in physical memory.
"""

import math
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kgz import (
    Grid1D,
    InitialLayer,
    KgzParams,
    ParameterError,
    aligned_tau,
    domain_for_eps,
    grid_for,
    make_params,
    nondimensionalize,
    preset_initial_data,
    run,
)
from kgz.cli import main
from kgz.solver import whole_steps

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# None stands for the input's valid control
FIXED = (None, math.nan, math.inf, -math.inf, 0.0, -0.0)
values = st.sampled_from(FIXED) | st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)


def fixed_examples(test):
    """Each of FIXED on every run, ahead of the random values."""
    for value in FIXED:
        test = example(value=value)(test)
    return test


GRID = Grid1D(-4.0, 4.0, 16)
PARAMS = dict(eps=0.5, alpha=0.0, beta=0.0, grid=GRID, tau=0.05, T=0.1)
MAKE = dict(eps=0.5, alpha=0.0, beta=0.0, h=1.0, tau=0.05, T=0.1)
SCALES = dict(v0=0.1, omega_p=2.0, c_s=1.0, n0=1.0, eps0=1.0, m=1.0, N0=1.0)
ZEROS = np.zeros(GRID.M + 1)
LAYER = InitialLayer.from_samples(GRID, 0.5, 0.0, 0.0, ZEROS, ZEROS)
DATA = preset_initial_data("gauss_sech")

# name: (the call with the value under test, its valid control)
CASES = {
    **{f"KgzParams.{k}": (lambda v, k=k: KgzParams(**{**PARAMS, k: v}), PARAMS[k])
       for k in ("eps", "tau", "T")},
    **{f"make_params.{k}": (lambda v, k=k: make_params(**{**MAKE, k: v}), MAKE[k])
       for k in ("eps", "h", "tau", "T")},
    "Grid1D.b": (lambda v: Grid1D(0.0, v, 8), 1.0),
    "Grid1D.M": (lambda v: Grid1D(0.0, 1.0, v), 8),
    "aligned_tau.T": (lambda v: aligned_tau(v, 0.05), 0.1),
    "aligned_tau.tau": (lambda v: aligned_tau(0.1, v), 0.05),
    "grid_for.eps": (lambda v: grid_for(v, 1.0), 0.5),
    "grid_for.h": (lambda v: grid_for(0.5, v, (-4.0, 4.0)), 1.0),
    "grid_for.domain": (lambda v: grid_for(0.5, 1.0, (0.0, v)), 4.0),
    "domain_for_eps": (domain_for_eps, 0.5),
    **{f"nondimensionalize.{k}": (lambda v, k=k: nondimensionalize(**{**SCALES, k: v}), SCALES[k])
       for k in SCALES},
    "InitialLayer.from_samples.eps": (
        lambda v: InitialLayer.from_samples(GRID, v, 0.0, 0.0, ZEROS, ZEROS), 0.5
    ),
    "averaged_wave.tau": (lambda v: LAYER.averaged_wave(0.1, v), 0.05),
    "run.snapshot_times": (lambda v: run(KgzParams(**PARAMS), DATA, [v]), 0.05),
}

# the solve flags that take a positive finite value, and a valid value of each
SOLVE_FLAGS = {"eps": 1.0, "h": 1.0, "tau": 0.05, "T": 0.1, "snapshots": 0.1}


def _breaks_rule(name, value):
    """Whether ``value`` breaks the rule of input ``name``: snapshot times may also be 0."""
    if name.endswith("snapshot_times") or name == "snapshots":
        return not 0 <= value < math.inf
    return not 0 < value < math.inf


@pytest.mark.parametrize("name", CASES)
@SETTINGS
@fixed_examples
@given(value=values)
def test_library_entry_point(name, value):
    call, valid = CASES[name]
    value = valid if value is None else value
    if _breaks_rule(name, value):
        with pytest.raises(ParameterError, match="must be|interval|need an integer"):
            call(value)
    else:
        call(value)


@pytest.mark.parametrize("flag", SOLVE_FLAGS)
@SETTINGS
@fixed_examples
@given(value=values)
def test_cli_solve(tmp_path, capsys, flag, value):
    value = SOLVE_FLAGS[flag] if value is None else value
    argv = ["solve", "--eps=1", "--h=1", "--tau=0.05", "--T=0.1", f"--out={tmp_path / 's'}"]
    code = main([*argv, f"--{flag}={value!r}"])
    err = capsys.readouterr().err
    assert code == (1 if _breaks_rule(flag, value) else 0), err
    assert "Traceback" not in err


class TestGrid1D:
    def test_rejects_infinite_interval(self):
        with pytest.raises(ParameterError, match="finite"):
            Grid1D(0.0, math.inf, 10)

    def test_rejects_fractional_cell_count(self):
        with pytest.raises(ParameterError, match="integer"):
            Grid1D(0.0, 1.0, 2.5)

    def test_accepts_numpy_integer_cell_count(self):
        assert Grid1D(0.0, 1.0, np.int64(4)).h == 0.25


@pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
def test_non_finite_snapshot_exits_1(tmp_path, capsys, time):
    argv = ["solve", "--h=1", "--tau=0.05", "--T=0.1", f"--snapshots={time}"]
    assert main([*argv, f"--out={tmp_path / 's'}"]) == 1
    assert "snapshot time must be positive and finite" in capsys.readouterr().err


# sizes beyond double precision: a cell or step count that numpy cannot index,
# or a 1/h^2, 1/tau^2 or 1/eps^2 that is not finite, is a bad input named in
# the message; each value beside its flags is the input the message names
BEYOND_DOUBLE = {
    "--h=1e-320": "h=1e-320",
    "--h=1e-200": "h=1e-200",
    "--eps=1e-300": "eps=1e-300",
    "--tau=1e-320 --T=1": "tau=1e-320",
    "--T=1e-170 --tau=1e-170": "tau=1e-170",
    "--domain=0,1e-170 --h=1e-171": "h=1e-171",
    "--T=2e-160 --tau=1e-160": "tau=1e-160",
    "--eps=1e-170 --domain=-1,1": "eps=1e-170",
}


@pytest.mark.parametrize("flags", BEYOND_DOUBLE)
def test_cli_size_beyond_double_exits_1(tmp_path, capsys, flags):
    assert main(["solve", *flags.split(), f"--out={tmp_path / 's'}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parameter error: ") and BEYOND_DOUBLE[flags] in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "call",
    [
        lambda: Grid1D(0.0, 1.0, 2**62),
        lambda: Grid1D(0.0, 1e-170, 10),
        lambda: whole_steps(1e300, 1e-3),
        lambda: aligned_tau(1.0, 1e-320),
        lambda: KgzParams(**{**PARAMS, "tau": 1e-160, "T": 2e-160}),
        lambda: KgzParams(**{**PARAMS, "eps": 1e-170}),
    ],
    ids=["Grid1D.M", "Grid1D.h", "whole_steps", "aligned_tau", "KgzParams.tau", "KgzParams.eps"],
)
def test_size_beyond_double_is_a_parameter_error(call):
    with pytest.raises(ParameterError, match="numpy array can index|is not finite"):
        call()


def test_grid_beyond_memory_is_a_parameter_error():
    with pytest.raises(ParameterError, match="a Grid1D: .* GiB of physical memory"):
        Grid1D(0.0, 1.0, 2**50)
    with pytest.raises(ParameterError, match=r"h=1e-12 on \(-31, 31\) at eps=1: .* physical memory"):
        grid_for(1, 1e-12)


def _two_gib_address_space():
    # a run that ignored the rule would fail here, not exhaust the machine
    resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))


@pytest.mark.parametrize(
    "flags, named",
    [(["solve", "--h=1e-12"], "h=1e-12"), (["sweep", "--levels=40", "--eps-list=1"], "levels=40")],
    ids=["solve-h", "sweep-levels"],
)
def test_cli_size_beyond_memory_exits_1(tmp_path, flags, named):
    proc = subprocess.run(
        [sys.executable, "-m", "kgz.cli", *flags, f"--out={tmp_path / 'x'}"],
        capture_output=True, text=True, preexec_fn=_two_gib_address_space, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("parameter error: ") and named in proc.stderr, proc.stderr
    assert "physical memory" in proc.stderr and "Traceback" not in proc.stderr
