"""Command-line entry point: generate | solve | verify | norms | convergence.

Configuration comes from an INI-style file (one section per command, flat
key = value pairs) with every key overridable on the command line.  Exit
codes are a stable contract: 0 success, 2 configuration error, 3 solver
breakdown (solve writes breakdown.json), 4 verification failure, 5 I/O
error.
"""

import argparse
import configparser
import os
import sys

from . import container, diagnostics, geodesic, solver
from .errors import (BreakdownError, ConfigurationError, DatasetError,
                     NullfoliateError)
from .reports import _fmt, write_csv, write_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BREAKDOWN = 3
EXIT_VERIFY = 4
EXIT_IO = 5


def _load_config_section(path, section):
    """The raw key = value pairs of one section of the INI file at path
    ({} with no file or no such section)."""
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    try:
        found = parser.read(path)
    except configparser.Error as err:  # e.g. one key twice in a section
        raise ConfigurationError(str(err))
    if not found:
        raise DatasetError(f"cannot read config file {path!r}")
    return dict(parser[section]) if section in parser else {}


def boolean(raw):
    """An INI truth value: 1/yes/true/on or 0/no/false/off."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


def _deprecated_threads(args):
    """Check the deprecated thread count and warn that it is ignored.

    --threads, NULLFOLIATE_THREADS and the config key `threads` are still
    accepted; a count below 1 or not an integer is a configuration error.
    """
    threads = args.threads
    if threads is None:
        env = os.environ.get("NULLFOLIATE_THREADS")
        if not env:
            return
        try:
            threads = int(env)
        except ValueError:
            raise ConfigurationError(
                f"NULLFOLIATE_THREADS = {env!r} is not an integer")
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    print("warning: --threads / NULLFOLIATE_THREADS is deprecated and has "
          "no effect; the solver runs on one thread", file=sys.stderr)


def _solver_config(args, dv):
    _deprecated_threads(args)
    return solver.SolverConfig(
        delta=args.delta, dv=dv, tol=args.tol, max_iter=args.max_iter)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_generate(args):
    model = args.model
    if model == "minkowski":
        data = geodesic.gen_minkowski(s_star=args.s_star, Lmax=args.lmax,
                                      n_s=args.n_s)
    elif model == "schwarzschild":
        data = geodesic.gen_schwarzschild(args.mass, s_star=args.s_star,
                                          Lmax=args.lmax, n_s=args.n_s)
    elif model == "mms":
        spec = geodesic.MmsSpec(epsilon=args.epsilon, Lmax=args.lmax,
                                n_s=args.n_s, s_star=args.s_star)
        data, _ = geodesic.gen_manufactured(spec)
    else:
        raise ConfigurationError(f"unknown model {model!r}")
    report = geodesic.validate(data)
    if not report.all_pass():
        raise ConfigurationError(
            f"generated dataset fails validation: worst {report.worst():.3e}")
    geodesic.save(data, args.out)
    print(f"dataset '{model}' written to {args.out} "
          f"(Lmax={data.grid.Lmax}, s* = {data.s_star})")
    return EXIT_OK


def cmd_solve(args):
    data = geodesic.load(args.data)
    cfg = _solver_config(args, args.dv)
    os.makedirs(args.out, exist_ok=True)
    # whatever this solve ends in, no earlier run's foliation, trace or
    # breakdown report may stay behind to be read as its result
    container.discard(args.out)
    for name in ("trace.csv", "breakdown.json"):
        if os.path.exists(os.path.join(args.out, name)):
            os.remove(os.path.join(args.out, name))
    try:
        fol = solver.continue_foliation(data, cfg, v_end=args.v_end)
    except BreakdownError as err:
        write_json(os.path.join(args.out, "breakdown.json"),
                   {"status": "breakdown",
                    "last_good_v": _fmt(err.last_good_v),
                    "reason": str(err)})
        print(f"solver breakdown: last good v = {err.last_good_v:.6f}",
              file=sys.stderr)
        return EXIT_BREAKDOWN
    fol.save(args.out)
    fol.write_trace_csv(os.path.join(args.out, "trace.csv"))
    dev = fol.max_omega_dev()
    print(f"foliation covers v in [1, {args.v_end}] with {fol.n_levels} "
          f"levels; max|Omega-1| = {dev:.3e}")
    if data.exact is not None:
        err = data.exact.max_error(fol.v_nodes, fol.s)
        print(f"error against the exact sidecar: {err:.3e}")
    return EXIT_OK


def cmd_verify(args):
    for key in ("tol_constraint", "tol_transport"):
        tol = getattr(args, key)
        if not 0.0 < tol < float("inf"):  # NaN fails it too
            raise ConfigurationError(
                f"{key} must be positive and finite, got {tol}")
    data = geodesic.load(args.data)
    fol = solver.Foliation.load(args.foliation, data)
    os.makedirs(args.out, exist_ok=True)
    co = diagnostics.canonical(fol)
    crep = diagnostics.constraint_residuals(data, co,
                                            tolerance=args.tol_constraint)
    trep = diagnostics.transport_residuals(co, tolerance=args.tol_transport)
    crep.to_csv(os.path.join(args.out, "constraint_residuals.csv"))
    trep.to_csv(os.path.join(args.out, "transport_residuals.csv"))
    write_json(os.path.join(args.out, "verify_summary.json"),
               {"constraint": crep.summary(), "transport": trep.summary()})
    ok = crep.all_pass() and trep.all_pass()
    print(f"verification {'PASS' if ok else 'FAIL'}: "
          f"constraint worst {crep.worst():.3e}, "
          f"transport worst {trep.worst():.3e}")
    if args.strict and not ok:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_norms(args):
    data = geodesic.load(args.data)
    fol = solver.Foliation.load(args.foliation, data)
    os.makedirs(args.out, exist_ok=True)
    rep = diagnostics.norm_suite(fol)
    rep.to_csv(os.path.join(args.out, "norms.csv"))
    rep.to_json(os.path.join(args.out, "norms.json"))
    print(f"norm suite written: O = {rep.get('O'):.6e}, "
          f"R = {rep.get('R'):.6e}")
    return EXIT_OK


def cmd_convergence(args):
    data = geodesic.load(args.data)
    base = _solver_config(args, args.dv0)
    dvs = [args.dv0 / 2 ** i for i in range(args.levels)]
    rows, orders, slope = diagnostics.convergence_study(
        data, base, dvs, v_end=args.v_end)
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "convergence.csv"),
              ("dv", "error", "order"),
              [(*row, order) for row, order in zip(rows, ["", *orders])])
    print("convergence study (dv, error, observed order):")
    for i, (dv, err) in enumerate(rows):
        extra = "" if i == 0 else f"  order {orders[i - 1]:.3f}"
        print(f"  dv = {dv:.6f}: error {err:.4e}{extra}")
    print(f"least-squares v-order: {slope:.3f}")
    return EXIT_OK


# --------------------------------------------------------------------------
# argument plumbing
# --------------------------------------------------------------------------

_SOLVER = solver.SolverConfig

# command -> (handler, help, {option: (type, default[, help])}).  Option
# n_s is the flag --n-s and the key n_s or n-s of the command's config
# section; a False default makes a bare flag.
COMMANDS = {
    "generate": (cmd_generate, "write a geodesic dataset", {
        "model": (str, "minkowski", "minkowski, schwarzschild or mms"),
        "lmax": (int, 15), "n_s": (int, 32),
        "s_star": (float, 2.5), "mass": (float, 0.1),
        "epsilon": (float, 1e-2), "out": (str, "dataset")}),
    "solve": (cmd_solve, "solve the canonical foliation", {
        "data": (str, "dataset"), "out": (str, "foliation"),
        "delta": (float, _SOLVER.delta), "dv": (float, _SOLVER.dv),
        "tol": (float, _SOLVER.tol), "max_iter": (int, _SOLVER.max_iter),
        "v_end": (float, 2.0),
        "threads": (int, None, "deprecated; has no effect")}),
    "verify": (cmd_verify, "run the residual suites", {
        "data": (str, "dataset"), "foliation": (str, "foliation"),
        "out": (str, "reports"), "strict": (boolean, False),
        "tol_constraint": (float, 1e-10), "tol_transport": (float, 1e-8)}),
    "norms": (cmd_norms, "evaluate the norm hierarchy", {
        "data": (str, "dataset"), "foliation": (str, "foliation"),
        "out": (str, "reports")}),
    "convergence": (cmd_convergence, "manufactured-solution order study", {
        "data": (str, "dataset"), "levels": (int, 4),
        "dv0": (float, 1.0 / 8.0), "delta": (float, 0.5),
        "tol": (float, 1e-13), "max_iter": (int, _SOLVER.max_iter),
        "v_end": (float, 2.0),
        "threads": (int, None, "deprecated; has no effect"),
        "out": (str, "reports")}),
}


def _build_parser():
    top = argparse.ArgumentParser(
        prog="nullfoliate",
        description="Canonical-foliation solver and verification suite")
    top.add_argument("--config", default=None,
                     help="INI config file with one section per command")
    sub = top.add_subparsers(dest="command", required=True)
    for command, (_, help_, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for key, (cast, default, *option_help) in options.items():
            flag = "--" + key.replace("_", "-")
            if default is False:
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, type=cast, default=None,
                               help=option_help[0] if option_help else None)
    return top


def _resolve(args, config):
    """Give each option of args.command its value: the flag wins, else the
    config value cast by the option's type, else the default."""
    options = COMMANDS[args.command][2]
    values = {}
    for name, raw in config.items():
        key = name.replace("-", "_")
        if key not in options:
            raise ConfigurationError(
                f"unknown key {name!r} in config section [{args.command}]")
        if key in values:
            raise ConfigurationError(
                f"config keys {values[key][0]!r} and {name!r} in section "
                f"[{args.command}] name the same option")
        values[key] = name, raw
    for key, (cast, default, *_) in options.items():
        if getattr(args, key) is not None:
            continue
        if key in values:
            name, raw = values[key]
            try:
                default = cast(raw)
            except ValueError:
                raise ConfigurationError(
                    f"config value {name} = {raw!r} is not a valid "
                    f"{cast.__name__}")
        setattr(args, key, default)
    return args


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config_section(args.config, args.command)
        return COMMANDS[args.command][0](_resolve(args, config))
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except BreakdownError as err:  # a convergence study's march
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_BREAKDOWN
    except (DatasetError, OSError) as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    except NullfoliateError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
