"""The kgz benchmark: one workload, timed in fresh processes, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``. Every repeat runs
``worker.py`` in a fresh interpreter, so ``setup_s`` (``import kgz`` plus
everything before the first time step) and ``peak_rss_mb`` are those of a
new process. With ``--trace 0`` the command repeats the workload's public
call and adds set-up-only probes until ``--seconds`` are spent, then
reports medians of the end-to-end metrics. With ``--trace 1`` it makes one
traced repeat among untraced ones and reports the per-layer metrics from
the traced repeat; ``trace.overhead_frac`` compares its wall time with the
untraced median.

The seed orders the repeats (full runs against set-up probes, and where
the traced repeat falls); it does not change any input, because every
output is checked against values recorded for the fixed inputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts
the operations (a solver task and its output check) that failed, so
``failed / attempted`` is the workload's failed fraction. Each run also
writes a result file with the machine fingerprint under ``.perfbench_out/``.
"""

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from fingerprint import fingerprint
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = (
    ("wall_s", "s"),
    ("ns_per_node_step", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# the whole command must end within 180 s
DEADLINE_S = 165.0


class BenchError(Exception):
    pass


def run_worker(workload, mode, deadline, spans=None):
    """One repeat in a fresh interpreter; returns its JSON record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--mode", mode, "--out", str(OUT_DIR)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out, err = None, "timed out"
    finally:
        # the worker's pool children share its session; none may outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None or proc.returncode != 0:
        raise BenchError(f"{mode} repeat of {workload} failed:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


class Schedule:
    """Seeded order of repeats within a time budget.

    Each kind runs at least its minimum number of times; past that, a
    repeat starts only while the median duration of its kind still fits in
    the budget. Kinds are drawn in seeded order from shuffled rounds.
    """

    def __init__(self, seed, seconds, minimum, maximum=None):
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.minimum = minimum
        self.maximum = maximum or {}
        self.durations = {kind: [] for kind in minimum}
        self.start = time.monotonic()

    def _may_start(self, kind):
        done = self.durations[kind]
        if len(done) >= self.maximum.get(kind, float("inf")):
            return False
        if len(done) < self.minimum[kind]:
            return True
        elapsed = time.monotonic() - self.start
        return elapsed + statistics.median(done) <= self.seconds

    def __iter__(self):
        while True:
            kinds = list(self.durations)
            self.rng.shuffle(kinds)
            started = False
            for kind in kinds:
                if self._may_start(kind):
                    started = True
                    t = time.monotonic()
                    yield kind
                    self.durations[kind].append(time.monotonic() - t)
            if not started:
                return


def measure(workload, seed, seconds, trace, deadline):
    """Run the repeats; returns (records by kind, metrics)."""
    if trace:
        schedule = Schedule(seed, seconds, {"full": 2, "trace": 1}, {"trace": 1})
    else:
        schedule = Schedule(seed, seconds, {"full": 1, "setup": 1})
    records = {kind: [] for kind in schedule.durations}
    for kind in schedule:
        spans = OUT_DIR / f"spans-{workload}-seed{seed}.json" if kind == "trace" else None
        records[kind].append(run_worker(workload, kind, deadline, spans))

    full = records["full"]
    walls = [r["wall_s"] for r in full]
    if trace:
        traced = records["trace"][0]
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = (
            traced["wall_s"] / statistics.median(walls) - 1.0, "ratio"
        )
        return records, layers
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "ns_per_node_step": wall / full[0]["node_steps"] * 1e9,
        "setup_s": statistics.median(r["setup_s"] for r in full + records["setup"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
    }
    return records, {name: (values[name], unit) for name, unit in END_TO_END}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "kgz" / "__init__.py").is_file():
        print(f"no kgz source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        records, metrics = measure(args.workload, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    executed = [r for kind in ("full", "trace") for r in records.get(kind, [])]
    attempted = sum(r["attempted"] for r in executed)
    failed = sum(r["failed"] for r in executed)
    missing = sorted({m for r in executed for m in r["missing"]})
    samples = {kind: len(rs) for kind, rs in records.items()}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        dict(result, args=vars(args), samples=samples, missing=missing,
             fingerprint=fingerprint(), records=records), indent=1))

    print(f"workload {args.workload}: {samples} repeats, "
          f"{failed}/{attempted} operations failed")
    if missing:
        print(f"missing wrapped names (their metrics are left out): {', '.join(missing)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
