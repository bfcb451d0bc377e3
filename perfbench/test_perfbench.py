"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They check that the command prints exactly the metrics BENCHMARK.json
names, and that a recorded value that does not match the output is
counted as a failed operation rather than passed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import kgz  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, check_table, load_expected  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_command(root, workload, trace):
    out = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_declared_names_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert dict(run.END_TO_END) == _declared("end_to_end")
    assert {name: unit for name, unit, _ in tracer.PER_LAYER} == _declared("per_layer")


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    result = _run_command(ROOT, "run_large", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(section)


def _recorded_csv(name):
    expected = load_expected(name)
    return expected, "\n".join(expected["lines"]) + "\n"


def test_recorded_csv_passes():
    wl = WORKLOADS["sweep_temporal_small"]
    expected, text = _recorded_csv(wl.name)
    assert check_table(text, expected, wl.tasks(), None) == set()


def test_mismatched_csv_row_fails_its_task():
    wl = WORKLOADS["sweep_temporal_small"]
    expected, text = _recorded_csv(wl.name)
    lines = text.splitlines()
    row = next(i for i, ln in enumerate(lines) if ln[:1].isdigit())
    cells = lines[row].split(",")
    cells[4] = "1.00000E+09"  # e_err of the first level of the first eps
    lines[row] = ",".join(cells)
    failed = check_table("\n".join(lines) + "\n", expected, wl.tasks(), None)
    assert failed == {0}


def test_mismatched_slope_fails_every_task():
    wl = WORKLOADS["eps_limit"]
    expected, text = _recorded_csv(wl.name)
    tampered = text.replace("eta_slope=8.72361E-01", "eta_slope=8.72362E-01")
    assert tampered != text
    assert check_table(tampered, expected, wl.tasks(), None) == set(range(len(wl.tasks())))


def test_failed_task_result_counts():
    wl = WORKLOADS["eps_limit"]
    expected, text = _recorded_csv(wl.name)
    results = {key: {"ok": True, "max_eta_e": 1.0} for key in wl.tasks()}
    results[wl.tasks()[2]] = {"ok": True, "max_eta_e": float("nan")}
    assert check_table(text, expected, wl.tasks(), results) == {2}


def test_run_large_mismatched_sample_fails():
    wl = WORKLOADS["run_large"]
    expected = load_expected(wl.name)
    snap = wl.prepare(kgz, None)()
    assert wl.check(snap, None, expected, None) == (1, 0)
    samples = list(expected["samples"]["N"])
    samples[len(samples) // 2] *= 1 + 1e-9
    tampered = dict(expected, samples=dict(expected["samples"], N=samples))
    assert wl.check(snap, None, tampered, None) == (1, 1)


def test_command_counts_a_mismatched_recorded_value(tmp_path):
    shutil.copytree(ROOT / "src" / "kgz", tmp_path / "src" / "kgz",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "perfbench" / "expected" / "eps_limit.json"
    expected = json.loads(path.read_text())
    expected["eta_slope"] = "9.00000E-01"
    path.write_text(json.dumps(expected))
    result = _run_command(tmp_path, "eps_limit", 0)
    assert result["attempted"] >= 5
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_command_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
