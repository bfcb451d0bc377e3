"""The names the benchmark in ``perfbench/`` reaches into kgz for, checked with the unit tests.

The benchmark's tracer wraps module attributes of kgz by name and its
workloads call kgz's public API, so a refactor that drops or renames one
of them breaks ``perfbench/run.py`` without failing any other unit test.
The benchmark's modules are loaded here by path; nothing of them is run
beyond the cheap set-up of each workload.
"""

import importlib.util
from pathlib import Path

import pytest

import kgz

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("module,path", [w[:2] for w in tracer.WRAPPED],
                         ids=[f"{w[0]}.{w[1]}" for w in tracer.WRAPPED])
def test_every_wrapped_name_resolves(module, path):
    owner, attr = tracer._resolve(kgz, module, path)
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("name", ["_solve_task", "_run_tasks"])
def test_harness_hooks_exist(name):
    assert callable(getattr(kgz.harness, name))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_setup_runs(name):
    workloads.WORKLOADS[name].setup(kgz)
