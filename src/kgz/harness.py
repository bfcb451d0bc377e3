"""Experiment driver: reference runs, error tables, convergence sweeps.

Self-reference convention: the "exact" solution of a study is the same
scheme run on a grid refined by a power of two in the studied direction and
restricted back by injection at the shared nodes. Reference factors of 8x
(space) and 16x (time) leave the reference error far below the measured one;
a reference-independence check lives in the test suite.

Every file the harness writes (rate table, limit-study curves, solve
snapshot) has one CSV layout, written by ``_write_csv``.

With ``workers > 1`` the tasks of a sweep or limit study run in a process
pool, which is handed the largest task first (by node-steps, a reference's
refine factors included); the results still come back in task order, so
every table and CSV is the serial one.
"""

import math
import numbers
import os
import re
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateProblemError, KgzError, ParameterError, ShapeError, describe
from .errors import countable, positive_finite
from .grid import Grid1D, _interval, grid_norms
from .limits import _lockstep_metrics
from .limits import limit_metrics, trajectory_kg  # noqa: F401  perfbench/tracer.py wraps these here
from .presets import case_exponents, domain_for_eps, preset_initial_data
from .solver import ALIGN_RTOL, KgzParams, Snapshot, run, whole_steps
from .solver import trajectory  # noqa: F401  perfbench/tracer.py wraps this name here


def _f6(x):
    """Normalize a float to the 6-significant-digit CSV representation."""
    if x is None:
        return None
    return float(f"{x:.5E}")


def _fmt(x):
    return "" if x is None else f"{x:.5E}"


def aligned_tau(T, tau):
    """Largest step <= tau that divides T; flags whether it was adjusted."""
    k = whole_steps(positive_finite("T", T), positive_finite("tau", tau))
    if k is not None and k >= 1:
        return tau, k, False
    k = math.ceil(T / tau)
    return T / k, int(k), True


def grid_for(eps, h, domain=None):
    """Grid covering the eps-dependent domain with spacing closest to h."""
    a, b = _interval(*(domain_for_eps(eps) if domain is None else domain))
    inputs = f"h={h} on ({a:g}, {b:g}) at eps={eps}"
    return Grid1D(a, b, round(countable((b - a) / positive_finite("h", h), "cells", inputs)))


def make_params(eps, alpha, beta, h, tau, T, domain=None):
    return KgzParams(
        eps=eps, alpha=alpha, beta=beta, grid=grid_for(eps, h, domain), tau=tau, T=T
    )


def _check_eps_list(eps_list):
    """The eps rule of every sweep and limit study: at least one eps, each in (0, 1]."""
    if not eps_list:
        raise ParameterError("the eps list is empty")
    for eps in eps_list:
        if not 0 < eps <= 1:  # NaN fails too
            raise ParameterError(f"eps values must lie in (0, 1], got {eps}")


def _check_count(value, name, least):
    if not isinstance(value, numbers.Integral) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_refine(factor, name):
    if not isinstance(factor, numbers.Integral) or factor < 1 or factor & (factor - 1):
        raise ParameterError(f"{name} must be a power of two >= 1, got {factor!r}")


def reference_solution(params, data, refine_space=8, refine_time=1, times=None):
    """Refined self-run restricted to the coarse grid by injection."""
    _check_refine(refine_space, "refine_space")
    _check_refine(refine_time, "refine_time")
    grid = params.grid
    fine_grid = Grid1D(grid.a, grid.b, grid.M * refine_space)
    fine = replace(params, grid=fine_grid, tau=params.tau / refine_time)
    snaps = run(fine, data, times)
    s = refine_space
    return [Snapshot(t=sn.t, E=sn.E[::s], F=sn.F[::s], N=sn.N[::s]) for sn in snaps]


def error_metrics(numeric, reference, grid):
    """Relative field and density errors of a snapshot against a reference.

    The field error uses the composite discrete H1 norm (L2 plus seminorm)
    in both numerator and denominator; the density error is relative L2.
    Both snapshots must carry their density N.
    """
    for snap in (numeric, reference):
        if snap.E.shape != (grid.M + 1,) or snap.N is None:
            raise ShapeError("snapshots do not match the grid or lack a density field")
    if abs(numeric.t - reference.t) > ALIGN_RTOL * max(1.0, abs(reference.t)):
        raise ShapeError(
            f"snapshots taken at different times: {numeric.t} vs {reference.t}"
        )

    e = reference.E - numeric.E
    ne = grid_norms(e, grid)
    nE = grid_norms(reference.E, grid)
    denom_e = nE.l2 + nE.h1_semi
    n = reference.N - numeric.N
    denom_n = grid_norms(reference.N, grid).l2
    if denom_e <= 0 or denom_n <= 0:
        raise DegenerateProblemError("reference solution is identically zero")
    return (ne.l2 + ne.h1_semi) / denom_e, grid_norms(n, grid).l2 / denom_n


def convergence_rate(coarse_err, fine_err):
    """Observed order log2(coarse/fine); None when undefined."""
    if coarse_err is None or fine_err is None or coarse_err <= 0 or fine_err <= 0:
        return None
    return math.log2(coarse_err / fine_err)


@dataclass(frozen=True)
class ErrorRow:
    eps: float
    h: float
    tau: float
    t: float
    e_err: float
    n_err: float
    rate_e: float = None
    rate_n: float = None

    def __post_init__(self):
        for name in ("e_err", "n_err"):
            v = getattr(self, name)
            if not (v >= 0 and math.isfinite(v)):
                raise ParameterError(f"{name} must be finite and >= 0, got {v}")
        for name in ("eps", "h", "tau", "t", "e_err", "n_err", "rate_e", "rate_n"):
            object.__setattr__(self, name, _f6(getattr(self, name)))


@dataclass(frozen=True)
class FailedRow:
    eps: float
    h: float
    tau: float
    message: str

    def __post_init__(self):
        for name in ("eps", "h", "tau"):
            object.__setattr__(self, name, _f6(getattr(self, name)))


@dataclass
class RateTable:
    meta: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)


# the CSV columns are the ErrorRow fields, in order
_COLUMNS = ("eps", "h", "tau", "t", "e_err", "n_err", "rate_e", "rate_n")
_HEADER = ",".join(_COLUMNS)
_TABLE_TITLE = "kgz sweep table"


# a meta value or note is written with backslash, newline and carriage
# return escaped, so that it stays on its line whatever its text
_ESCAPES = str.maketrans({"\\": "\\\\", "\n": "\\n", "\r": "\\r"})
_UNESCAPES = {"n": "\n", "r": "\r"}


def _unescape(text):
    """The text that ``str(text).translate(_ESCAPES)`` wrote."""
    return re.sub(r"\\(.)", lambda m: _UNESCAPES.get(m[1], m[1]), text)


def _write_csv(path, title, meta, header, rows, notes=()):
    """Atomically write kgz's one CSV layout.

    ``# title``, one ``# key=value`` line per meta item, one ``# note`` line
    per note, the header, then one line per row. A meta value and a note
    are escaped (``_ESCAPES``), a string cell is written as it is, a number
    in 6 significant digits and None as an empty cell.
    """
    lines = [f"# {title}", *(f"# {k}={str(v).translate(_ESCAPES)}" for k, v in meta.items())]
    lines += [f"# {n.translate(_ESCAPES)}" for n in notes]
    lines.append(header)
    lines.extend(",".join(c if isinstance(c, str) else _fmt(c) for c in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def write_table(table, path):
    """Atomically write a rate table; byte layout is fully deterministic."""
    notes = [
        f"failed eps={_fmt(fr.eps)} h={_fmt(fr.h)} tau={_fmt(fr.tau)} {fr.message}"
        for fr in table.failures
    ]
    rows = [[getattr(r, name) for name in _COLUMNS] for r in table.rows]
    rows += [[fr.eps, fr.h, fr.tau, None, "ERROR", "ERROR", None, None] for fr in table.failures]
    _write_csv(path, _TABLE_TITLE, table.meta, _HEADER, rows, notes)


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_table(path):
    """Parse a sweep CSV back into a RateTable; a malformed line names its path and number."""
    try:
        with open(path, "r", newline="") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path} is not a kgz sweep table: {exc}") from None
    if not lines or lines[0] != f"# {_TABLE_TITLE}" or _HEADER not in lines:
        raise ParameterError(f"{path} is not a kgz sweep table")
    table = RateTable()
    fail_msgs = {}  # the failure notes come before the rows
    for number, line in enumerate(lines, 1):
        try:
            if not line or line == _HEADER:
                continue
            if line.startswith("#"):
                body = _unescape(line[1:].removeprefix(" "))
                if body.startswith("failed "):
                    parts = body[len("failed ") :].split(" ", 3)
                    key = tuple(p.split("=", 1)[1] for p in parts[:3])
                    fail_msgs[key] = parts[3] if len(parts) > 3 else ""
                elif "=" in body:
                    key, value = body.split("=", 1)
                    table.meta[key] = value
                continue
            cells = line.split(",")
            if len(cells) != len(_COLUMNS):
                raise ValueError(f"{len(cells)} cells, a row has {len(_COLUMNS)}")
            if "ERROR" in cells:
                key = tuple(cells[:3])  # eps, h, tau
                table.failures.append(FailedRow(*map(float, key), message=fail_msgs.get(key, "")))
            else:
                vals = (float(c) if c else None for c in cells)
                table.rows.append(ErrorRow(**dict(zip(_COLUMNS, vals))))
        except (ParameterError, TypeError, ValueError, IndexError) as exc:
            raise ParameterError(f"{path}, line {number}: {exc}") from None
    return table


_PAPER_EPS = tuple(0.5**i for i in range(9))
_LIMIT_DEFAULTS = dict(h0=0.05, tau0=1e-3, levels=2, eps_list=tuple(0.5**i for i in range(2, 7)))
# the defaults of a sweep by (mode, paper_scale); eps_limit has no paper scale
_SWEEP_DEFAULTS = {
    ("spatial", False): dict(h0=0.2, tau0=1e-4, levels=4, eps_list=(1.0, 0.25, 0.0625)),
    ("spatial", True): dict(h0=0.2, tau0=1e-5, levels=6, eps_list=_PAPER_EPS),
    ("temporal", False): dict(h0=0.005, tau0=0.05, levels=6, eps_list=(1.0, 0.0625)),
    ("temporal", True): dict(h0=2.5e-4, tau0=0.05, levels=8, eps_list=_PAPER_EPS),
    ("eps_limit", False): _LIMIT_DEFAULTS,
    ("eps_limit", True): _LIMIT_DEFAULTS,
}


@dataclass(frozen=True)
class SweepSpec:
    mode: str
    preset: str = "gauss_sech"
    case: str = "II"
    alpha: float = None
    beta: float = None
    eps_list: tuple = None
    h0: float = None
    tau0: float = None
    levels: int = None
    T: float = 1.0
    out_path: str = None
    refine_space: int = 8
    refine_time: int = 16
    workers: int = 1
    paper_scale: bool = False

    def resolved(self):
        """Fill the defaults of ``_SWEEP_DEFAULTS``; an explicit value always wins."""
        defaults = _SWEEP_DEFAULTS.get((self.mode, bool(self.paper_scale)))
        if defaults is None:
            raise ParameterError(f"unknown sweep mode {self.mode!r}")
        given = {name: getattr(self, name) for name in defaults if getattr(self, name) is not None}
        out = replace(self, **{**defaults, **given})
        out = replace(out, eps_list=tuple(out.eps_list))
        _check_count(out.levels, "levels", 2)
        _check_count(out.workers, "workers", 1)
        _check_refine(out.refine_space, "refine_space")
        _check_refine(out.refine_time, "refine_time")
        _check_eps_list(out.eps_list)
        return out

    def exponents(self):
        return case_exponents(self.case, self.alpha, self.beta)


def _solve_task(task):
    """Run one (eps, h, tau) case; executed in a worker process."""
    data = preset_initial_data(task["preset"])
    params = make_params(
        task["eps"], task["alpha"], task["beta"], task["h"], task["tau"], task["T"]
    )
    try:
        if task["kind"] == "limit":
            return dict(_limit_summary(params, data), ok=True)
        if task["kind"] == "final":
            snap = run(params, data, [task["T"]])[0]
        elif task["kind"] == "reference":
            snap = reference_solution(
                params, data, task["refine_space"], task["refine_time"], [task["T"]]
            )[0]
        else:
            raise ValueError(f"unknown task kind {task['kind']!r}")
        return {"ok": True, "E": snap.E, "F": snap.F, "N": snap.N, "t": snap.t}
    except KgzError as exc:
        return {"ok": False, "message": describe(exc)}


def _limit_summary(params, data):
    """The limit metrics of one eps: their maxima, and the curves as a LimitMetrics."""
    metrics = _lockstep_metrics(params, data)
    k_star = int(np.argmax(metrics.eta_e))
    return {
        "max_eta_e": float(metrics.eta_e[k_star]),
        "t_max": float(metrics.times[k_star]),
        "max_f_over_eps": float(np.max(metrics.f_l2) / params.eps),
        "curves": metrics,
    }


def _task_work(task):
    """The node-steps K (M - 1) of a task's run, a reference's refine factors applied to K and M."""
    M = grid_for(task["eps"], task["h"]).M * task.get("refine_space", 1)
    return task["T"] / task["tau"] * task.get("refine_time", 1) * (M - 1)


def _run_tasks(tasks, workers):
    """The results of ``_solve_task`` on each task, in task order.

    A pool of ``workers > 1`` processes is handed the largest task first,
    so the longest run (a sweep's finest reference) does not start last
    and set the makespan alone.
    """
    if workers > 1 and len(tasks) > 1:
        order = sorted(range(len(tasks)), key=lambda i: _task_work(tasks[i]), reverse=True)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(_solve_task, tasks[i]) for i in order}
            return [futures[i].result() for i in range(len(tasks))]
    return [_solve_task(t) for t in tasks]


def run_sweep(spec):
    """Execute a convergence sweep and return its rate table.

    Spatial and temporal modes refine one direction by halvings and compare
    final-time snapshots against a refined self-reference shared per eps
    (refined from the finest level, which makes it at least the requested
    factor for every level). The eps-limit mode runs the coupled system
    and its limit model per eps and reports the limit metrics; rate columns
    stay empty there and the fitted slope lands in the table metadata.
    """
    spec = spec.resolved()
    alpha, beta = spec.exponents()
    tau, _, adjusted = aligned_tau(spec.T, spec.tau0)
    meta = {
        "mode": spec.mode,
        "preset": spec.preset,
        "case": spec.case,
        "alpha": f"{alpha:g}",
        "beta": f"{beta:g}",
        "T": f"{spec.T:g}",
        "refine_space": str(spec.refine_space),
        "refine_time": str(spec.refine_time),
    }
    if adjusted:
        meta["tau_adjusted"] = f"{tau:.17g}"

    if spec.mode == "eps_limit":
        return _run_eps_limit(spec, alpha, beta, tau, meta)

    spatial = spec.mode == "spatial"
    # a reference refines the direction the sweep studies
    ref_kw = {"refine_space": spec.refine_space if spatial else 1,
              "refine_time": 1 if spatial else spec.refine_time}
    factors = [2**i for i in range(spec.levels)]
    tasks = []
    groups = []  # (eps, the (grid, tau) of each level, coarsest first) per eps
    for eps in sorted(spec.eps_list, reverse=True):
        coarse = grid_for(eps, spec.h0)
        # a spatial level multiplies the cells of the coarsest grid, so the
        # reference restricts onto its nodes whether or not h0 divides the domain
        if spatial:
            levels = [(Grid1D(coarse.a, coarse.b, coarse.M * f), tau) for f in factors]
        else:
            levels = [(coarse, tau / f) for f in factors]
        groups.append((eps, levels))
        base = {"preset": spec.preset, "alpha": alpha, "beta": beta, "eps": eps, "T": spec.T}
        tasks.extend(dict(base, kind="final", h=grid.h, tau=tt) for grid, tt in levels)
        # the reference is refined from the finest level
        grid, tt = levels[-1]
        tasks.append(dict(base, kind="reference", h=grid.h, tau=tt, **ref_kw))

    results = iter(_run_tasks(tasks, spec.workers))
    table = RateTable(meta=meta)
    for eps, levels in groups:
        level_results = [next(results) for _ in levels]
        ref = next(results)
        prev_errs = None
        for lvl, ((grid, tt), res) in enumerate(zip(levels, level_results)):
            if not res["ok"] or not ref["ok"]:
                msg = res.get("message") or ref.get("message", "reference failed")
                table.failures.append(FailedRow(eps=eps, h=grid.h, tau=tt, message=msg))
                prev_errs = None
                continue
            stride = 2 ** (spec.levels - 1 - lvl) if spatial else 1
            ref_snap = Snapshot(
                t=ref["t"], E=ref["E"][::stride], F=ref["F"][::stride], N=ref["N"][::stride]
            )
            num_snap = Snapshot(t=res["t"], E=res["E"], F=res["F"], N=res["N"])
            try:
                e_err, n_err = error_metrics(num_snap, ref_snap, grid)
                rate_e = rate_n = None
                if prev_errs is not None:
                    rate_e = convergence_rate(prev_errs[0], e_err)
                    rate_n = convergence_rate(prev_errs[1], n_err)
                # the row rejects a non-finite error, which must land in
                # the failures rather than abort the sweep
                row = ErrorRow(
                    eps=eps, h=grid.h, tau=tt, t=spec.T,
                    e_err=e_err, n_err=n_err, rate_e=rate_e, rate_n=rate_n,
                )
            except KgzError as exc:
                table.failures.append(FailedRow(eps=eps, h=grid.h, tau=tt, message=describe(exc)))
                prev_errs = None
                continue
            table.rows.append(row)
            prev_errs = (e_err, n_err)

    if spec.out_path:
        write_table(table, spec.out_path)
    return table


def _limit_tasks(preset, alpha, beta, eps_list, h, tau, T):
    """One ``kind="limit"`` task per eps, largest eps first; ``tau`` must divide ``T``."""
    if whole_steps(T, tau) < 3:  # the one check of both front ends, before any task runs
        raise ParameterError(
            "limit metrics need at least 4 time levels; decrease tau or increase T"
        )
    return [
        dict(preset=preset, alpha=alpha, beta=beta, eps=eps, h=h, tau=tau, T=T, kind="limit")
        for eps in sorted(eps_list, reverse=True)
    ]


def _eta_slope(points):
    """Slope of log2 max_eta_e against log2 eps; None below two (eps, max_eta_e) points."""
    if len(points) < 2:
        return None
    xs, ys = ([math.log2(v) for v in column] for column in zip(*points))
    return float(np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0])


def _run_eps_limit(spec, alpha, beta, tau, meta):
    tasks = _limit_tasks(spec.preset, alpha, beta, spec.eps_list, spec.h0, tau, spec.T)
    results = _run_tasks(tasks, spec.workers)
    table = RateTable(meta=meta)
    meta["eps_limit_columns"] = "e_err:max_eta_e,n_err:max_f_l2_over_eps"
    points = []
    for task, res in zip(tasks, results):
        eps = task["eps"]
        grid = grid_for(eps, spec.h0)
        if not res["ok"]:
            table.failures.append(FailedRow(eps=eps, h=grid.h, tau=tau, message=res["message"]))
            continue
        try:
            row = ErrorRow(
                eps=eps, h=grid.h, tau=tau, t=res["t_max"],
                e_err=res["max_eta_e"], n_err=res["max_f_over_eps"],
            )
        except ParameterError as exc:  # a non-finite metric
            table.failures.append(FailedRow(eps=eps, h=grid.h, tau=tau, message=describe(exc)))
            continue
        table.rows.append(row)
        points.append((eps, res["max_eta_e"]))
    slope = _eta_slope(points)
    if slope is not None:
        meta["eta_slope"] = f"{_f6(slope):.5E}"
    if spec.out_path:
        write_table(table, spec.out_path)
    return table


def limit_study(preset, case, eps_list, h, tau, T=1.0, alpha=None, beta=None, out_path=None, workers=1):
    """Full limit-metric curves per eps, written as a long-format CSV.

    Returns the slope of log2 max eta_e against log2 eps (None below two eps).
    """
    _check_eps_list(eps_list)
    _check_count(workers, "workers", 1)
    alpha, beta = case_exponents(case, alpha, beta)
    tau, _, _ = aligned_tau(T, tau)
    tasks = _limit_tasks(preset, alpha, beta, eps_list, h, tau, T)
    results = _run_tasks(tasks, workers)
    points = []
    rows = []
    for task, res in zip(tasks, results):
        eps = task["eps"]
        if not res["ok"]:
            raise KgzError(f"limit run failed for eps={eps}: {res['message']}")
        curves = res["curves"]
        points.append((eps, res["max_eta_e"]))
        columns = (curves.times, curves.eta_2, curves.eta_inf, curves.eta_e)
        rows.extend((eps, *row) for row in zip(*columns))
    slope = _eta_slope(points)
    meta = {"preset": preset, "case": case, "alpha": f"{alpha:g}", "beta": f"{beta:g}",
            "h": f"{h:g}", "tau": f"{tau:.17g}", "T": f"{T:g}"}
    if slope is not None:
        meta["eta_slope"] = f"{slope:.6f}"
    if out_path:
        _write_csv(out_path, "kgz limit study", meta, "eps,t,eta_2,eta_inf,eta_e", rows)
    return slope


def write_snapshots(out_prefix, snaps, params):
    """One CSV per snapshot time with node coordinates and all fields."""
    grid = params.grid
    paths = []
    for snap in snaps:
        path = f"{out_prefix}_t{snap.t:g}.csv"
        meta = {
            "eps": f"{params.eps:g}",
            "alpha": f"{params.alpha:g}",
            "beta": f"{params.beta:g}",
            "domain": f"({grid.a:g}, {grid.b:g})",
            "h": f"{grid.h:.17g}",
            "tau": f"{params.tau:.17g}",
            "t": f"{snap.t:.17g}",
        }
        rows = zip(grid.nodes, snap.E, snap.F, snap.N)
        _write_csv(path, "kgz solve snapshot", meta, "x,E,F,N", rows)
        paths.append(path)
    return paths
