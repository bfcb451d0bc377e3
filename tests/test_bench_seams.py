"""The names the benchmark in ``perfbench/`` reaches into kgz for, checked with the unit tests.

The benchmark's tracer wraps module attributes of kgz by name and its
workloads call kgz's public API, so a refactor that drops or renames one
of them breaks ``perfbench/run.py`` without failing any other unit test.
The benchmark's modules are loaded here by path; nothing of them is run
beyond the cheap set-up of each workload.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import kgz

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(kgz.__file__).resolve().parent
TRACER_ONLY = "# noqa: F401  perfbench/tracer.py wraps"


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


def _tracer_only_imports():
    """(module, name) of every name a kgz module imports only for the tracer to wrap there."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and TRACER_ONLY in lines[node.end_lineno - 1]:
                found += [(path.stem, alias.asname or alias.name) for alias in node.names]
    return found


TRACER_ONLY_IMPORTS = _tracer_only_imports()


@pytest.mark.parametrize("module,name", TRACER_ONLY_IMPORTS,
                         ids=[f"{m}.{n}" for m, n in TRACER_ONLY_IMPORTS])
def test_every_tracer_only_import_is_wrapped(module, name):
    # the other direction: an import kept for the tracer alone goes stale
    # when the tracer stops wrapping it there
    assert (module, name) in {w[:2] for w in tracer.WRAPPED}


@pytest.mark.parametrize("name", ["_solve_task", "_run_tasks"])
def test_harness_hooks_exist(name):
    assert callable(getattr(kgz.harness, name))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_setup_runs(name):
    workloads.WORKLOADS[name].setup(kgz)


@pytest.mark.parametrize("name", ["sweep_temporal_small", "eps_limit"])
def test_sweep_submits_the_workload_tasks(name, monkeypatch):
    # the benchmark matches each result to the task it restates by (kind, eps, tau)
    class Submitted(Exception):
        pass

    submitted = []

    def capture(tasks, workers):
        submitted.extend(tasks)
        raise Submitted

    monkeypatch.setattr(kgz.harness, "_run_tasks", capture)
    workload = workloads.WORKLOADS[name]
    with pytest.raises(Submitted):
        kgz.run_sweep(workload.spec(kgz))
    assert [(t["kind"], t["eps"], t["tau"]) for t in submitted] == workload.tasks()
