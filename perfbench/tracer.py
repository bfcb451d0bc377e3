"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files: ``Tracer.install`` wraps
the module attributes that kgz looks up at call time (listed in WRAPPED),
so the package itself carries no tracing code. Each span has a name, a
start and an end in ns, and a parent: the index of the span it was called
from (-1 for none). Spans stay in memory and are written out as JSON only
when the run ends; self time is derived from them afterwards.

Sweep tasks may run in pool workers. ``traced_task`` replaces
``kgz.harness._solve_task`` there, records the task's spans in the worker
and ships them back inside the task result, where the ``_run_tasks`` hook
of the owning process merges them.
"""

import functools
import json
import os
import time
from array import array
from collections import defaultdict

# (kgz module, attribute path, span name, why it is wrapped there)
WRAPPED = (
    ("layer", "dst_inverse", "transforms.dst_inverse",
     "the sine synthesis of the initial layer; kgz.layer resolves it per call"),
    ("layer", "InitialLayer.averaged_wave", "layer.averaged_wave",
     "the exact triangular-kernel layer average taken once per step"),
    ("solver", "solve_tridiagonal", "grid.solve_tridiagonal",
     "the LAPACK gtsv solve plus its dominance scan and residual check, as the solver resolves it"),
    ("solver", "_solve_field", "solver.field_solve",
     "assembly of the field system, called by the coupled step"),
    ("limits", "_solve_field", "solver.field_solve",
     "the same field solve as bound in kgz.limits, called by the limit-model step"),
    ("solver", "_solve_density", "solver.density_solve",
     "assembly of the density system, called by the coupled step"),
    ("solver", "step", "solver.step",
     "one coupled time step as run() and trajectory() resolve it"),
    ("harness", "trajectory", "solver.trajectory",
     "the whole-trajectory coupled run of the eps-limit task; its arrays drive peak memory"),
    ("harness", "trajectory_kg", "limits.trajectory_kg",
     "the whole-trajectory limit-model run of the eps-limit task"),
    ("limits", "step_kg", "limits.step_kg",
     "one limit-model step: field solve with no density solve"),
    ("harness", "limit_metrics", "limits.limit_metrics",
     "the eta diagnostics over whole trajectories, as the harness resolves them"),
    ("harness", "reference_solution", "harness.reference_solution",
     "the refined self-reference run of each sweep eps"),
    ("harness", "write_table", "harness.write_table",
     "the atomic CSV write at the end of a sweep"),
)

TASK_SPAN = "harness.task"


def _resolve(kgz, module, path):
    """(owner, attribute name) of a dotted attribute path inside a kgz module."""
    owner = getattr(kgz, module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)  # raise AttributeError when it is gone
    return owner, attr


def _trajectory_bytes(traj):
    return sum(getattr(traj, k).nbytes for k in ("times", "E", "F") if hasattr(traj, k))


BYTE_COUNTERS = {
    "solver.trajectory": _trajectory_bytes,
    "limits.trajectory_kg": _trajectory_bytes,
}

# the tracer whose wrappers are installed in this process; pool workers
# reach it through the module because tasks are pickled by name
_ACTIVE = None


def _intern(names, name):
    if name not in names:
        names.append(name)
    return names.index(name)


class Spans:
    """Columns of recorded spans: name id, start, end and parent index.

    Flat arrays rather than one object per span, so that a run with
    hundreds of thousands of spans gives the garbage collector nothing to
    traverse and the timed code stays close to its untraced speed.
    """

    def __init__(self, names):
        self.names = names  # shared with the tracer, which interns them
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")

    def __len__(self):
        return len(self.start)

    def extend(self, other):
        """Append another process's spans, re-basing their parent indices."""
        offset = len(self)
        ids = [_intern(self.names, name) for name in other.names]
        self.name_id.extend(ids[i] for i in other.name_id)
        self.start.extend(other.start)
        self.end.extend(other.end)
        self.parent.extend(p + offset if p >= 0 else -1 for p in other.parent)

    def rows(self):
        """(name, start_ns, end_ns, parent) per span."""
        names = self.names
        return [
            (names[n], s, e, p)
            for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
        ]


class Tracer:
    def __init__(self, owner=True):
        self.names = []
        self.spans = Spans(self.names)
        self.bytes = defaultdict(int)
        self.missing = []
        self._stack = []
        self._task = None
        self.owner_pid = os.getpid() if owner else None

    def wrap(self, fn, name):
        count = BYTE_COUNTERS.get(name)
        clock = time.perf_counter_ns
        nid = _intern(self.names, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans.start)
            spans.name_id.append(nid)
            spans.parent.append(stack[-1] if stack else -1)
            spans.end.append(0)
            stack.append(idx)
            spans.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                spans.end[idx] = clock()
                stack.pop()
            if count is not None:
                self.bytes[name] += count(out)
            return out

        return traced

    def install(self, kgz):
        """Wrap every WRAPPED attribute and the sweep task entry point.

        A name that no longer exists is recorded in ``missing``; the metrics
        built on it are then left out, never reported as zero.
        """
        global _ACTIVE
        for module, path, name, _ in WRAPPED:
            try:
                owner, attr = _resolve(kgz, module, path)
            except AttributeError:
                self.missing.append(f"kgz.{module}.{path}")
                continue
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))
        try:
            self._task = self.wrap(kgz.harness._solve_task, TASK_SPAN)
            kgz.harness._solve_task = traced_task
        except AttributeError:
            self.missing.append("kgz.harness._solve_task")
        _ACTIVE = self

    def is_owner(self):
        return self.owner_pid == os.getpid()

    def reset(self):
        self.spans, self._stack, self.bytes = Spans(self.names), [], defaultdict(int)

    def absorb(self, result):
        """Merge the spans a pool worker shipped inside a task result."""
        shipped = result.pop("_trace", None)
        if shipped is not None:
            spans, counted = shipped
            self.spans.extend(spans)
            for name, n in counted.items():
                self.bytes[name] += n
        return result

    def write(self, path, meta):
        with open(path, "w") as fh:
            json.dump(dict(meta, fields=["name", "start_ns", "end_ns", "parent"],
                           spans=self.spans.rows(), bytes=dict(self.bytes)), fh)


def traced_task(task):
    """Pool entry point that runs one sweep task under the tracer."""
    global _ACTIVE
    if _ACTIVE is None:  # a spawned worker starts from a fresh import
        import kgz

        Tracer(owner=False).install(kgz)
    tracer = _ACTIVE
    if tracer.is_owner():
        return tracer._task(task)
    # a forked worker inherits the owner's spans: start its own
    tracer.reset()
    result = tracer._task(task)
    return dict(result, _trace=(tracer.spans, dict(tracer.bytes)))


def capture_tasks(kgz, tracer=None):
    """Keep the (tasks, results) of every ``_run_tasks`` call for the output checks.

    Returns the list the pairs land in, or None when the hook point is gone.
    With a tracer, the spans that pool workers shipped back are merged.
    """
    original = getattr(kgz.harness, "_run_tasks", None)
    if original is None:
        return None
    captured = []

    @functools.wraps(original)
    def run_tasks(tasks, workers):
        results = original(tasks, workers)
        if tracer is not None:
            results = [tracer.absorb(r) for r in results]
        captured.append((tasks, results))
        return results

    kgz.harness._run_tasks = run_tasks
    return captured


class SpanStats:
    """Calls, total and self time, and durations of each span name."""

    def __init__(self, spans):
        rows = spans.rows()
        child_ns = [0] * len(rows)
        for _, start, end, parent in rows:
            if parent >= 0:
                child_ns[parent] += end - start
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.durations = defaultdict(list)
        for i, (name, start, end, _) in enumerate(rows):
            self.calls[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += end - start - child_ns[i]
            self.durations[name].append(end - start)


def _percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# per-layer metric: (name, unit, the span or counter it needs)
PER_LAYER = (
    ("transforms.dst_inverse.calls", "count", "transforms.dst_inverse"),
    ("transforms.dst_inverse.ns_per_node", "ns", "transforms.dst_inverse"),
    ("layer.averaged_wave.calls", "count", "layer.averaged_wave"),
    ("layer.averaged_wave.self_ns_per_node", "ns", "layer.averaged_wave"),
    ("grid.solve_tridiagonal.calls", "count", "grid.solve_tridiagonal"),
    ("grid.solve_tridiagonal.ns_per_node", "ns", "grid.solve_tridiagonal"),
    ("solver.field_solve.self_ns_per_node", "ns", "solver.field_solve"),
    ("solver.density_solve.self_ns_per_node", "ns", "solver.density_solve"),
    ("solver.assembly.self_ns_per_node", "ns", "solver.step"),
    ("solver.step.calls", "count", "solver.step"),
    ("solver.step.p50_us", "us", "solver.step"),
    ("solver.step.p99_us", "us", "solver.step"),
    ("solver.trajectory.bytes_computed", "bytes", "solver.trajectory"),
    ("limits.trajectory_kg.bytes_computed", "bytes", "limits.trajectory_kg"),
    ("limits.step_kg.calls", "count", "limits.step_kg"),
    ("limits.step_kg.self_ns_per_node", "ns", "limits.step_kg"),
    ("limits.limit_metrics.s", "s", "limits.limit_metrics"),
    ("harness.task_s.max", "s", TASK_SPAN),
    ("harness.task_s.sum", "s", TASK_SPAN),
    ("harness.pool_efficiency", "ratio", TASK_SPAN),
    ("harness.reference_solution.s", "s", "harness.reference_solution"),
    ("harness.write_table.s", "s", "harness.write_table"),
    ("trace.overhead_frac", "ratio", None),
)


def layer_metrics(tracer, node_steps, wall_s, workers):
    """Per-layer values of one traced execution, by PER_LAYER name.

    Times per node are divided by the workload's node-steps, so the layers
    of one workload add up against its ``ns_per_node_step``. A span that
    ran zero times reads zero; a span whose wrapped name is missing is
    left out. ``trace.overhead_frac`` is filled in by the caller.
    """
    stats = SpanStats(tracer.spans)
    missing_spans = {name for module, path, name, _ in WRAPPED
                     if f"kgz.{module}.{path}" in tracer.missing}
    if "kgz.harness._solve_task" in tracer.missing:
        missing_spans.add(TASK_SPAN)
    step_us = [d / 1e3 for d in stats.durations["solver.step"]]
    task_s = [d / 1e9 for d in stats.durations[TASK_SPAN]]
    values = {
        "transforms.dst_inverse.calls": stats.calls["transforms.dst_inverse"],
        "transforms.dst_inverse.ns_per_node": stats.total_ns["transforms.dst_inverse"] / node_steps,
        "layer.averaged_wave.calls": stats.calls["layer.averaged_wave"],
        "layer.averaged_wave.self_ns_per_node": stats.self_ns["layer.averaged_wave"] / node_steps,
        "grid.solve_tridiagonal.calls": stats.calls["grid.solve_tridiagonal"],
        "grid.solve_tridiagonal.ns_per_node": stats.total_ns["grid.solve_tridiagonal"] / node_steps,
        "solver.field_solve.self_ns_per_node": stats.self_ns["solver.field_solve"] / node_steps,
        "solver.density_solve.self_ns_per_node": stats.self_ns["solver.density_solve"] / node_steps,
        "solver.assembly.self_ns_per_node": stats.self_ns["solver.step"] / node_steps,
        "solver.step.calls": stats.calls["solver.step"],
        "solver.step.p50_us": _percentile(step_us, 50) if step_us else 0.0,
        "solver.step.p99_us": _percentile(step_us, 99) if step_us else 0.0,
        "solver.trajectory.bytes_computed": tracer.bytes["solver.trajectory"],
        "limits.trajectory_kg.bytes_computed": tracer.bytes["limits.trajectory_kg"],
        "limits.step_kg.calls": stats.calls["limits.step_kg"],
        "limits.step_kg.self_ns_per_node": stats.self_ns["limits.step_kg"] / node_steps,
        "limits.limit_metrics.s": stats.total_ns["limits.limit_metrics"] / 1e9,
        "harness.task_s.max": max(task_s, default=0.0),
        "harness.task_s.sum": sum(task_s),
        "harness.pool_efficiency": sum(task_s) / (workers * wall_s),
        "harness.reference_solution.s": stats.total_ns["harness.reference_solution"] / 1e9,
        "harness.write_table.s": stats.total_ns["harness.write_table"] / 1e9,
    }
    return {
        name: (values[name], unit)
        for name, unit, span in PER_LAYER
        if name in values and span not in missing_spans
    }
