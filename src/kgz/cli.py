"""Command line interface: solve, sweep, limit-study, check.

Every option of a subcommand can also come from a JSON object passed via
``--config``. Each key names an option, with ``_`` for ``-`` (``eps_list``),
and its value is read exactly as that flag's value: a list is a comma list,
``true`` sets a switch, ``null`` and ``false`` leave the option unset, and
a key that names no option of the subcommand is an error. The config's
flags go before the command line's own, so values given on the command
line win. A flag must be spelled out in full; a prefix of it is an error.
``sweep`` and ``limit-study`` hand on only the options given (not None),
so the rest take the defaults of ``SweepSpec`` and ``limit_study``;
``_DEFAULTS`` holds only what the command line adds to them.
Exit codes: 0 success, 1 parameter problem, 2 numerical failure.
"""

import argparse
import json
import os
import sys

from .errors import KgzError, ParameterError, describe
from .harness import (
    SweepSpec,
    aligned_tau,
    limit_study,
    make_params,
    run_sweep,
    write_snapshots,
)
from .presets import case_exponents, preset_initial_data
from .solver import run


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with 2 by default; map usage problems to 1
        self.print_usage(sys.stderr)
        raise ParameterError(message)


def _floats(text):
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _add_common(p):
    p.add_argument("--config", help="JSON file with defaults for this subcommand")
    p.add_argument("--preset", help="initial data preset (gauss_sech, bump)")
    p.add_argument("--case", help="incompatibility case: I, II or custom")
    p.add_argument("--alpha", type=float, help="custom case exponent alpha")
    p.add_argument("--beta", type=float, help="custom case exponent beta")
    p.add_argument("--T", type=float, dest="T", help="final time")


def build_parser():
    parser = _Parser(prog="kgz", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="single run with field snapshots", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--eps", type=float, help="acoustic parameter in (0, 1]")
    p.add_argument("--h", type=float, help="target mesh size")
    p.add_argument("--tau", type=float, help="time step")
    p.add_argument("--snapshots", type=_floats, help="comma-separated snapshot times")
    p.add_argument("--domain", type=_floats, help="override domain, written as --domain=a,b")
    p.add_argument("--out", help="output path prefix")
    p.add_argument("--paper-scale", action="store_true", dest="paper_scale",
                   help="accepted like sweep's flag; it has no effect on solve")

    p = sub.add_parser("sweep", help="convergence sweep producing a rate table", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--mode", choices=["spatial", "temporal", "eps-limit"])
    p.add_argument("--eps-list", type=_floats, dest="eps_list", help="comma-separated eps values")
    p.add_argument("--h0", type=float, help="coarsest mesh size")
    p.add_argument("--tau0", type=float, help="coarsest time step")
    p.add_argument("--levels", type=int, help="number of halving levels")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--paper-scale", action="store_true", dest="paper_scale")
    p.add_argument("--workers", type=int, help="parallel worker processes")

    p = sub.add_parser("limit-study", help="limit-metric curves per eps", allow_abbrev=False)
    _add_common(p)
    p.add_argument("--eps-list", type=_floats, dest="eps_list", help="comma-separated eps values")
    p.add_argument("--h", type=float, help="mesh size")
    p.add_argument("--tau", type=float, help="time step")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--workers", type=int, help="parallel worker processes")

    sub.add_parser("check", help="run the property suite", allow_abbrev=False)
    for name, defaults in _DEFAULTS.items():
        sub.choices[name].set_defaults(**defaults)
    return parser


_DEFAULTS = {
    "solve": {
        "preset": "gauss_sech",
        "case": "II",
        "eps": 1.0,
        "h": 0.1,
        "tau": 1e-3,
        "T": 1.0,
        "out": "kgz_solve",
    },
    "sweep": {"mode": "spatial", "out": "kgz_sweep.csv"},
    "limit-study": {
        "preset": "bump",
        "case": "custom",
        "alpha": 0.0,
        "beta": 0.0,
        "out": "kgz_limit.csv",
    },
}


def _config_flags(path, options):
    """The ``--key=value`` flags a JSON config object stands for."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read --config {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParameterError(f"--config {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ParameterError("--config must hold a JSON object")
    flags = []
    for key, value in config.items():
        if key not in options:
            raise ParameterError(f"--config key {key!r} names no option of this subcommand")
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        if value is True:
            flags.append(flag)
        elif value is not None and value is not False:
            flags.append(f"{flag}={value}")
    return flags


def _cmd_solve(opt):
    alpha, beta = case_exponents(opt.case, opt.alpha, opt.beta)
    if opt.domain and len(opt.domain) != 2:
        raise ParameterError("--domain wants exactly two numbers 'a,b'")
    tau, _, adjusted = aligned_tau(opt.T, opt.tau)
    params = make_params(opt.eps, alpha, beta, opt.h, tau, opt.T, opt.domain or None)
    data = preset_initial_data(opt.preset)
    if adjusted:
        print(f"adjusted tau to {tau:.17g} to divide T", file=sys.stderr)
    snaps = run(params, data, opt.snapshots or None)
    paths = write_snapshots(opt.out, snaps, params)
    a, b = params.grid.a, params.grid.b
    print(
        f"solved eps={params.eps:g} on ({a:g}, {b:g}) with M={params.grid.M}, "
        f"tau={params.tau:g}; wrote {', '.join(paths)}"
    )
    return 0


def _given(opt):
    """Keyword arguments of the given (not None) parsed options; out is out_path."""
    given = {k: v for k, v in vars(opt).items() if v is not None and k not in ("command", "config")}
    if "out" in given:
        given["out_path"] = given.pop("out")
    return given


def _cmd_sweep(opt):
    spec = SweepSpec(**dict(_given(opt), mode=opt.mode.replace("-", "_")))
    table = run_sweep(spec)
    print(f"wrote {opt.out} with {len(table.rows)} rows", end="")
    if table.failures:
        print(f" and {len(table.failures)} failed runs", end="")
    if "eta_slope" in table.meta:
        print(f"; eta_e slope {table.meta['eta_slope']}", end="")
    print()
    return 0 if not table.failures else 2


def _cmd_limit_study(opt):
    slope = limit_study(**_given(opt))
    print(f"wrote {opt.out}; eta_e slope vs eps: {slope if slope is None else f'{slope:.3f}'}")
    return 0


def _cmd_check(opt):
    from .checks import run_all

    results = run_all()
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 2


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        opt = parser.parse_args(argv)
        if getattr(opt, "config", None):
            options = vars(opt).keys() - {"command"}
            at = argv.index(opt.command) + 1
            opt = parser.parse_args(argv[:at] + _config_flags(opt.config, options) + argv[at:])
        out = getattr(opt, "out", None)
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            raise ParameterError(f"--out {out}: its directory does not exist")
        handler = {
            "solve": _cmd_solve,
            "sweep": _cmd_sweep,
            "limit-study": _cmd_limit_study,
            "check": _cmd_check,
        }[opt.command]
        return handler(opt)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 1
    except KgzError as exc:
        print(f"numerical failure: {describe(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
