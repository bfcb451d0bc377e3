"""The benchmark's workloads: fixed inputs, one public call, output checks.

The inputs of every workload are fixed presets, not drawn from the seed:
each output is pinned to values recorded in ``expected/``, so a different
input would have nothing to be checked against. The seed only orders the
repeats (see ``run.py``).

An operation is one solver task together with its output check. A task
fails on a ``KgzError``, on a non-finite field or when its recorded output
does not match. ``run_large`` is a single task; a sweep has one per task
it submits (``plan``).
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
RUN_RTOL = 1e-12
SAMPLE_STRIDE = 16


def _before_first_step(kgz, params, preset):
    """What a run does before its first step: sampling, layer, Taylor start."""
    data = kgz.preset_initial_data(preset)
    layer = kgz.build_layer(params, data)
    kgz.first_state(params, data, layer)
    return data, layer


def load_expected(name):
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text())


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _finite_result(res):
    """Whether a task result dict holds only finite numbers."""
    for key in ("E", "F", "N"):
        if key in res and not np.all(np.isfinite(res[key])):
            return False
    for key in ("max_eta_e", "t_max", "max_f_over_eps"):
        if key in res and not math.isfinite(res[key]):
            return False
    return True


def _row_key(eps, tau):
    # the CSV prints eps and tau with 6 significant digits
    return f"{eps:.5E}", f"{tau:.5E}"


def check_table(csv_text, expected, tasks, results):
    """Indices of the failed tasks of one sweep.

    ``tasks`` lists the (kind, eps, tau) of every task the sweep submits;
    ``results`` maps those keys to the task results the sweep received, or
    is None when they could not be captured. A task fails on its own error
    or non-finite output, or when the CSV row it produced differs from the
    recorded row. A difference in the metadata, the header or the set of
    rows fails every task, and so does any byte difference that no row
    explains: a mismatch is never passed silently.
    """
    failed = set()
    if results is not None:
        for i, key in enumerate(tasks):
            res = results.get(key)
            if res is None or not res.get("ok") or not _finite_result(res):
                failed.add(i)
    if _sha256(csv_text) == expected["sha256"]:
        return failed

    def split(lines):
        meta = [ln for ln in lines if not ln[:1].isdigit()]
        rows = {}
        for ln in lines:
            if ln[:1].isdigit():
                cells = ln.split(",")
                rows[(cells[0], cells[2])] = ln
        return meta, rows

    got_meta, got_rows = split(csv_text.splitlines())
    want_meta, want_rows = split(expected["lines"])
    everything = set(range(len(tasks)))
    if got_meta != want_meta or got_rows.keys() != want_rows.keys():
        return everything
    bad_rows = {key for key in want_rows if got_rows[key] != want_rows[key]}
    for i, (kind, eps, tau) in enumerate(tasks):
        # a reference task has no row of its own
        if kind != "reference" and _row_key(eps, tau) in bad_rows:
            failed.add(i)
    return failed or everything


class RunLarge:
    """One long run at the resolution of the criterion-1 reference."""

    name = "run_large"
    workers = 1
    eps, case, h, tau, T = 1.0 / 16.0, "II", 0.003125, 1e-4, 0.1

    def params(self, kgz):
        alpha, beta = kgz.case_exponents(self.case)
        return kgz.make_params(self.eps, alpha, beta, self.h, self.tau, self.T)

    def setup(self, kgz):
        _before_first_step(kgz, self.params(kgz), "gauss_sech")

    def node_steps(self, kgz):
        params = self.params(kgz)
        return params.n_steps() * (params.grid.M - 1)

    def prepare(self, kgz, out_dir):
        """The public call, as a callable, with its inputs built."""
        params = self.params(kgz)
        data = kgz.preset_initial_data("gauss_sech")
        return lambda: kgz.run(params, data, [self.T])[0]

    def record(self, snap, out_dir):
        """The values ``check`` compares against, from a trusted output."""
        return {
            "stride": SAMPLE_STRIDE,
            "l2": {k: float(np.linalg.norm(getattr(snap, k))) for k in "EFN"},
            "samples": {k: getattr(snap, k)[::SAMPLE_STRIDE].tolist() for k in "EFN"},
        }

    def check(self, snap, captured, expected, out_dir):
        """(attempted, failed) for one execution; ``snap`` is None on error.

        Each field must match the recorded samples within RUN_RTOL relative
        in the discrete L2 norm, and its full-grid L2 norm must match the
        recorded norm to the same tolerance.
        """
        if snap is None:
            return 1, 1
        stride = expected["stride"]
        for key in "EFN":
            field = getattr(snap, key)
            if not np.all(np.isfinite(field)):
                return 1, 1
            want = np.asarray(expected["samples"][key])
            got = field[::stride]
            if got.shape != want.shape:
                return 1, 1
            if np.linalg.norm(got - want) > RUN_RTOL * np.linalg.norm(want):
                return 1, 1
            norm = expected["l2"][key]
            if abs(float(np.linalg.norm(field)) - norm) > RUN_RTOL * norm:
                return 1, 1
        return 1, 0


class _Sweep:
    """A ``run_sweep`` whose CSV is pinned to a recorded SHA-256."""

    preset, case, T = "gauss_sech", "I", 1.0

    def spec(self, kgz, out_path=None):
        raise NotImplementedError

    def plan(self):
        """(kind, eps, tau, run_tau, n) per task in submission order.

        ``run_tau`` is the step of the task's runs (refined for a
        reference) and ``n`` how many runs of it the task performs.
        """
        raise NotImplementedError

    def tasks(self):
        return [(kind, eps, tau) for kind, eps, tau, _, _ in self.plan()]

    def run_params(self, kgz):
        """(params, n) of every run the sweep performs, references included."""
        alpha, beta = kgz.case_exponents(self.case)
        return [
            (kgz.make_params(eps, alpha, beta, self.h0, run_tau, self.T), n)
            for _, eps, _, run_tau, n in self.plan()
        ]

    def setup(self, kgz):
        # everything before the first step of the sweep's largest run
        self.spec(kgz).resolved()
        params = max((p for p, _ in self.run_params(kgz)), key=lambda p: p.grid.M * p.n_steps())
        return (params, *_before_first_step(kgz, params, self.preset))

    def node_steps(self, kgz):
        return sum(n * p.n_steps() * (p.grid.M - 1) for p, n in self.run_params(kgz))

    def _csv_path(self, out_dir):
        return Path(out_dir) / f"{self.name}.csv"

    def prepare(self, kgz, out_dir):
        spec = self.spec(kgz, str(self._csv_path(out_dir)))
        return lambda: kgz.run_sweep(spec)

    def record(self, table, out_dir):
        csv_text = self._csv_path(out_dir).read_bytes().decode()
        return {"sha256": _sha256(csv_text), "lines": csv_text.splitlines()}

    def check(self, table, captured, expected, out_dir):
        """(attempted, failed) over the tasks of one execution.

        ``captured`` holds the (tasks, results) pairs the sweep ran, or None
        when they could not be captured; a sweep that raised leaves
        ``table`` None and fails every task.
        """
        tasks = self.tasks()
        if table is None:
            return len(tasks), len(tasks)
        results = None
        if captured is not None:
            results = {
                (t["kind"], t["eps"], t["tau"]): r
                for ts, rs in captured for t, r in zip(ts, rs)
            }
        csv_text = self._csv_path(out_dir).read_bytes().decode()
        return len(tasks), len(check_table(csv_text, expected, tasks, results))


class SweepTemporalSmall(_Sweep):
    """Many short runs at small M through a two-worker process pool."""

    name = "sweep_temporal_small"
    workers = 2
    eps_list, h0, tau0, levels, refine_time = (1.0, 0.25, 0.0625), 0.1, 0.05, 6, 16

    def spec(self, kgz, out_path=None):
        return kgz.SweepSpec(
            mode="temporal", preset=self.preset, case=self.case, eps_list=self.eps_list,
            h0=self.h0, tau0=self.tau0, levels=self.levels,
            refine_time=self.refine_time, T=self.T, workers=self.workers, out_path=out_path,
        )

    def plan(self):
        taus = [self.tau0 / 2**i for i in range(self.levels)]
        out = []
        for eps in sorted(self.eps_list, reverse=True):
            out.extend(("final", eps, tau, tau, 1) for tau in taus)
            out.append(("reference", eps, taus[-1], taus[-1] / self.refine_time, 1))
        return out


class EpsLimit(_Sweep):
    """Coupled and Klein-Gordon trajectories per eps, then the limit metrics."""

    name = "eps_limit"
    workers = 1
    eps_list, h0, tau = tuple(0.5**i for i in range(2, 7)), 0.05, 1e-3

    def spec(self, kgz, out_path=None):
        return kgz.SweepSpec(
            mode="eps_limit", preset=self.preset, case=self.case, eps_list=self.eps_list,
            h0=self.h0, tau0=self.tau, T=self.T, workers=self.workers, out_path=out_path,
        )

    def plan(self):
        # each task runs the coupled system and its limit model
        return [("limit", eps, self.tau, self.tau, 2) for eps in sorted(self.eps_list, reverse=True)]

    def setup(self, kgz):
        params, data, layer = super().setup(kgz)
        kgz.first_state_kg(params, data, layer)

    def record(self, table, out_dir):
        return dict(super().record(table, out_dir), eta_slope=table.meta.get("eta_slope"))

    def check(self, table, captured, expected, out_dir):
        attempted, failed = super().check(table, captured, expected, out_dir)
        if table is not None and table.meta.get("eta_slope") != expected["eta_slope"]:
            failed = attempted
        return attempted, failed


WORKLOADS = {w.name: w for w in (RunLarge(), SweepTemporalSmall(), EpsLimit())}
