"""Experiment driver: reference runs, error tables, convergence sweeps.

Self-reference convention: the "exact" solution of a study is the same
scheme run on a grid refined by a power of two in the studied direction and
restricted back by injection at the shared nodes. Reference factors of 8x
(space) and 16x (time) leave the reference error far below the measured one;
a reference-independence check lives in the test suite.

Every file the harness writes (rate table, limit-study curves, solve
snapshot) has one CSV layout, written by ``_write_csv``. It is written
atomically, and takes the mode of a new file under the umask.

With ``workers > 1`` the tasks of a sweep or limit study run in a process
pool of ``min(workers, tasks)`` processes, which is handed the largest task
first (by node-steps, a reference's refine factors included); the results
still come back in task order, so every table and CSV is the serial one.
"""

import math
import numbers
import os
import re
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import groupby

import numpy as np

from .errors import DegenerateProblemError, KgzError, ParameterError, ShapeError, describe
from .errors import countable, positive_finite
from .grid import _RUN_NODE_BYTES, Grid1D, _cells, _in_memory, _interval, grid_norms
from .limits import _lockstep_metrics, _maxima
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
    return Grid1D(a, b, round(_cells((b - a) / positive_finite("h", h), inputs)))


def make_params(eps, alpha, beta, h, tau, T, domain=None):
    return KgzParams(
        eps=eps, alpha=alpha, beta=beta, grid=grid_for(eps, h, domain), tau=tau, T=T
    )


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
    """Write ``text`` to a temp file beside ``path``, then rename it onto ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            umask = os.umask(0)  # the umask is read by setting it
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)  # the mode open gives, not mkstemp's 0o600
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
_LIMIT_DEFAULTS = dict(h0=0.05, tau0=1e-3, eps_list=tuple(0.5**i for i in range(2, 7)))
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
        if out.mode != "eps_limit":  # the one mode that runs no levels
            _check_count(out.levels, "levels", 2)
        _check_count(out.workers, "workers", 1)
        _check_refine(out.refine_space, "refine_space")
        _check_refine(out.refine_time, "refine_time")
        if not out.eps_list:
            raise ParameterError("the eps list is empty")
        for eps in out.eps_list:
            if not 0 < eps <= 1:  # NaN fails too
                raise ParameterError(f"eps values must lie in (0, 1], got {eps}")
            if out.eps_list.count(eps) > 1:  # a sweep reads its results by eps
                raise ParameterError(f"eps values must be distinct, got {eps} more than once")
        return out


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
    return dict(_maxima(metrics, params.eps), curves=metrics)


def _task_nodes(task):
    """The nodes M + 1 of a task's run, a reference's refine_space applied to M."""
    return grid_for(task["eps"], task["h"]).M * task.get("refine_space", 1) + 1


def _task_work(task):
    """The node-steps K (M - 1) of a task's run, a reference's refine factors applied to K and M."""
    return task["T"] / task["tau"] * task.get("refine_time", 1) * (_task_nodes(task) - 2)


def _pool_size(tasks, workers):
    """The processes of a sweep's pool, ``workers`` but no more than its tasks; below 2 none runs.

    A ``fork`` pool starts all its processes at the first submit, so a
    larger one would start processes that never get a task.
    """
    return min(workers, len(tasks))


def _run_tasks(tasks, workers):
    """The results of ``_solve_task`` on each task, in task order.

    A pool of ``_pool_size`` processes is handed the largest task first,
    so the longest run (a sweep's finest reference) does not start last
    and set the makespan alone.
    """
    pool_size = _pool_size(tasks, workers)
    if pool_size < 2:
        return [_solve_task(t) for t in tasks]
    order = sorted(range(len(tasks)), key=lambda i: _task_work(tasks[i]), reverse=True)
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        futures = {i: pool.submit(_solve_task, tasks[i]) for i in order}
        return [futures[i].result() for i in range(len(tasks))]


def _plan(spec):
    """The resolved spec, the table meta and the task list of a sweep, every size checked.

    The tasks come in the order the table reads them: per eps, largest
    first, each level's ``final`` task (coarsest first) and then the
    ``reference``, refined from the finest level; or one ``limit`` task.
    The runs a pool holds at once, its ``_pool_size`` tasks with the most
    nodes, must fit in physical memory together at ``_RUN_NODE_BYTES`` a
    node (pool workers start no producer process).
    """
    spec = spec.resolved()
    alpha, beta = case_exponents(spec.case, spec.alpha, spec.beta)
    preset_initial_data(spec.preset)  # an unknown preset fails before any task runs
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
    base = {"preset": spec.preset, "alpha": alpha, "beta": beta, "T": spec.T}
    eps_list = sorted(spec.eps_list, reverse=True)
    if spec.mode == "eps_limit":
        if whole_steps(spec.T, tau) < 3:
            raise ParameterError("limit metrics need at least 4 time levels; "
                                 "decrease tau or increase T")
        meta["eps_limit_columns"] = "e_err:max_eta_e,n_err:max_f_l2_over_eps"
        tasks = [dict(base, eps=eps, h=spec.h0, tau=tau, kind="limit") for eps in eps_list]
    else:
        spatial = spec.mode == "spatial"
        # a reference refines the direction the sweep studies
        ref_kw = {"refine_space": spec.refine_space if spatial else 1,
                  "refine_time": 1 if spatial else spec.refine_time}
        finest = 2.0 ** min(spec.levels - 1, 1023)  # inf past 2^1023
        tasks = []
        for eps in eps_list:
            coarse = grid_for(eps, spec.h0)
            # the finest reference must fit before its levels are built
            if spatial:
                _cells(coarse.M * spec.refine_space * finest,
                       f"the finest reference of h0={spec.h0}, levels={spec.levels} and "
                       f"refine_space={spec.refine_space} at eps={eps}")
            else:
                countable(spec.T / tau * spec.refine_time * finest, "steps",
                          f"the finest reference of tau0={spec.tau0}, levels={spec.levels} and "
                          f"refine_time={spec.refine_time}")
            level = dict(base, eps=eps, kind="final", h=coarse.h, tau=tau)
            # a spatial level multiplies the cells of the coarsest grid, so the
            # reference restricts onto its nodes whether or not h0 divides the domain
            levels = [dict(level, h=coarse.length / (coarse.M * 2**i)) if spatial
                      else dict(level, tau=tau / 2**i) for i in range(spec.levels)]
            tasks += [*levels, dict(levels[-1], kind="reference", **ref_kw)]
    pool_size = _pool_size(tasks, spec.workers)
    if pool_size > 1:
        nodes = sorted(map(_task_nodes, tasks), reverse=True)[:pool_size]
        _in_memory(_RUN_NODE_BYTES * sum(nodes),
                   f"workers={spec.workers}: the {pool_size} largest runs at once need")
    return spec, meta, tasks


def run_sweep(spec):
    """Execute a convergence sweep and return its rate table.

    Spatial and temporal modes refine one direction by halvings and compare
    final-time snapshots against a refined self-reference shared per eps
    (refined from the finest level, which makes it at least the requested
    factor for every level). The eps-limit mode runs the coupled system
    and its limit model per eps and reports the limit metrics; rate columns
    stay empty there and the fitted slope lands in the table metadata.
    """
    spec, meta, tasks = _plan(spec)
    if spec.mode == "eps_limit":
        return _run_eps_limit(spec, meta, tasks)[0]

    table = RateTable(meta=meta)
    results = _run_tasks(tasks, spec.workers)
    for eps, pairs in groupby(zip(tasks, results), key=lambda pair: pair[0]["eps"]):
        *levels, (_, ref) = pairs
        prev_errs = None
        for task, res in levels:
            message = next((r["message"] for r in (res, ref) if not r["ok"]), None)
            if message is None:
                # the results were run on this grid; the reference is restricted
                # onto the finest level, which its length gives
                grid = grid_for(eps, task["h"])
                stride = (len(ref["E"]) - 1) // grid.M
                ref_snap = Snapshot(t=ref["t"], **{k: ref[k][::stride] for k in "EFN"})
                num_snap = Snapshot(t=res["t"], E=res["E"], F=res["F"], N=res["N"])
                try:
                    errs = error_metrics(num_snap, ref_snap, grid)
                    rates = map(convergence_rate, prev_errs or (None, None), errs)
                    # the row rejects a non-finite error, which must land in
                    # the failures rather than abort the sweep
                    row = ErrorRow(eps, task["h"], task["tau"], spec.T, *errs, *rates)
                except KgzError as exc:
                    message = describe(exc)
            if message is None:
                table.rows.append(row)
                prev_errs = errs
            else:
                table.failures.append(FailedRow(eps, task["h"], task["tau"], message))
                prev_errs = None

    if spec.out_path:
        write_table(table, spec.out_path)
    return table


def _run_eps_limit(spec, meta, tasks):
    """The table (written to ``spec.out_path``), the (eps, result) pairs and the eta_e slope.

    A failed task, a maximum that is not finite, or a max_eta_e that is not
    positive (the slope takes its log2) fails its eps: a ``FailedRow`` in
    the table, and a result ``ok=False`` with its message.
    """
    table = RateTable(meta=meta)
    outcomes = []
    for task, res in zip(tasks, _run_tasks(tasks, spec.workers)):
        eps, tau = task["eps"], task["tau"]
        h = grid_for(eps, task["h"]).h
        if res["ok"]:
            try:
                row = ErrorRow(eps=eps, h=h, tau=tau, t=res["t_max"],
                               e_err=res["max_eta_e"], n_err=res["max_f_over_eps"])
                if not res["max_eta_e"] > 0:
                    raise DegenerateProblemError(
                        f"max_eta_e is {res['max_eta_e']}: the two models never differ"
                    )
                table.rows.append(row)
            except KgzError as exc:
                res = {"ok": False, "message": describe(exc)}
        if not res["ok"]:
            table.failures.append(FailedRow(eps=eps, h=h, tau=tau, message=res["message"]))
        outcomes.append((eps, res))
    # the slope of log2 max_eta_e against log2 eps, fitted from two good eps on
    points = [(math.log2(eps), math.log2(res["max_eta_e"])) for eps, res in outcomes if res["ok"]]
    slope = float(np.polyfit(*np.array(points).T, 1)[0]) if len(points) > 1 else None
    if slope is not None:
        meta["eta_slope"] = f"{_f6(slope):.5E}"
    if spec.out_path:
        write_table(table, spec.out_path)
    return table, outcomes, slope


def limit_study(preset, case, eps_list=None, h=None, tau=None, T=1.0, alpha=None, beta=None,
                out_path=None, workers=1):
    """The eps-limit sweep of ``SweepSpec(mode="eps_limit", h0=h, tau0=tau, ...)``, as curves.

    Writes the limit-metric curves of every eps to ``out_path``, all or
    nothing: the first failed eps raises a KgzError naming it, and no CSV is
    written. Returns the slope of log2 max eta_e against log2 eps (None below two eps).
    """
    spec, sweep_meta, tasks = _plan(SweepSpec(
        mode="eps_limit", preset=preset, case=case, alpha=alpha, beta=beta,
        eps_list=eps_list, h0=h, tau0=tau, T=T, workers=workers))
    _, outcomes, slope = _run_eps_limit(spec, sweep_meta, tasks)
    rows = []
    for eps, res in outcomes:
        if not res["ok"]:
            raise KgzError(f"limit run failed for eps={eps}: {res['message']}")
        curves = res["curves"]
        columns = (curves.times, curves.eta_2, curves.eta_inf, curves.eta_e)
        rows.extend((eps, *row) for row in zip(*columns))
    meta = {"preset": preset, "case": case, "alpha": sweep_meta["alpha"],
            "beta": sweep_meta["beta"], "h": f"{spec.h0:g}", "tau": f"{tasks[0]['tau']:.17g}",
            "T": f"{T:g}"}
    if slope is not None:
        meta["eta_slope"] = f"{slope:.6f}"
    if out_path:
        _write_csv(out_path, "kgz limit study", meta, "eps,t,eta_2,eta_inf,eta_e", rows)
    return slope


def write_snapshots(out_prefix, snaps, params):
    """One CSV per snapshot time with node coordinates and all fields.

    A file is named by its time to 6 significant digits; two times on one
    name are a ParameterError before any file is written.
    """
    grid = params.grid
    paths = [f"{out_prefix}_t{snap.t:g}.csv" for snap in snaps]
    named = {}
    for path, snap in zip(paths, snaps):
        if named.setdefault(path, snap.t) != snap.t:
            raise ParameterError(f"snapshot times {named[path]!r} and {snap.t!r} both write {path}")
    for path, snap in zip(paths, snaps):
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
    return paths
