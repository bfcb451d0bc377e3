"""One repeat of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --mode full|setup|trace --out DIR [--spans PATH]

Times ``import kgz`` plus the workload's set-up (``setup_s``), then, unless
the mode is ``setup``, the workload's public call (``wall_s``), checks its
outputs and prints one JSON record as the last line of standard output.
``trace`` mode wraps the package's layers first and writes the spans to
PATH when the call has ended. kgz is imported from ``src/`` of the checkout
this file sits in, never from an installed copy.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux; children counts pool workers once reaped
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("full", "setup", "trace"), required=True)
    parser.add_argument("--out", required=True, help="directory for the sweep CSVs")
    parser.add_argument("--spans", help="where trace mode writes its spans")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import kgz

    if Path(kgz.__file__).resolve().parent != SRC / "kgz":
        raise SystemExit(f"kgz was imported from {kgz.__file__}, not from {SRC}")
    import tracer
    from fingerprint import fingerprint
    from workloads import WORKLOADS, load_expected

    wl = WORKLOADS[args.workload]
    wl.setup(kgz)
    setup_s = time.perf_counter() - t0
    record = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(record))
        return

    out_dir = Path(args.out)
    call = wl.prepare(kgz, out_dir)
    trace = tracer.Tracer() if args.mode == "trace" else None
    if trace is not None:
        trace.install(kgz)
    captured = tracer.capture_tasks(kgz, trace)
    error = None
    start = time.perf_counter()
    try:
        output = call()
    except kgz.KgzError as exc:
        output, error = None, f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start

    attempted, failed = wl.check(output, captured, load_expected(wl.name), out_dir)
    node_steps = wl.node_steps(kgz)
    record.update(
        wall_s=wall_s,
        node_steps=node_steps,
        peak_rss_mb=_peak_rss_mb(),
        attempted=attempted,
        failed=failed,
        error=error,
        missing=[] if trace is None else trace.missing,
    )
    if captured is None:
        record["missing"].append("kgz.harness._run_tasks")
    if trace is not None:
        record["layers"] = tracer.layer_metrics(trace, node_steps, wall_s, wl.workers)
        trace.write(
            args.spans,
            {"workload": wl.name, "wall_s": wall_s, "node_steps": node_steps,
             "missing": trace.missing, "fingerprint": fingerprint()},
        )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
