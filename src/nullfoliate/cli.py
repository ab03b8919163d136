"""Command-line entry point: generate | solve | verify | norms | convergence.

Configuration comes from an INI-style file (one section per command, flat
key = value pairs) with every key overridable on the command line.  Exit
codes are a stable contract: 0 success, 2 configuration error, 3 solver
breakdown, 4 verification failure, 5 I/O error.
"""

import argparse
import configparser
import json
import os
import sys

from . import container, diagnostics, geodesic, solver
from .errors import (BreakdownError, ConfigurationError, DatasetError,
                     NonConvergenceError, NonFiniteIterateError,
                     NullfoliateError)
from .reports import _fmt

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BREAKDOWN = 3
EXIT_VERIFY = 4
EXIT_IO = 5


def _load_config_section(path, section, known_keys):
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise DatasetError(f"cannot read config file {path!r}")
    if section not in parser:
        return {}
    out = {}
    for key, value in parser[section].items():
        norm = key.replace("-", "_")
        if norm not in known_keys:
            raise ConfigurationError(
                f"unknown key {key!r} in config section [{section}]")
        out[norm] = value
    return out


def _merge(args, config, casts):
    """Fill argparse Namespace holes from the config section, with casts."""
    for key, cast in casts.items():
        if getattr(args, key, None) is None and key in config:
            raw = config[key]
            try:
                setattr(args, key, cast(raw))
            except ValueError:
                raise ConfigurationError(
                    f"config value {key} = {raw!r} is not a valid "
                    f"{cast.__name__}")
    return args


def _deprecated_threads(args):
    """Check the deprecated thread count and warn that it is ignored.

    --threads, NULLFOLIATE_THREADS and the config key `threads` are still
    accepted; a count below 1 or not an integer is a configuration error.
    """
    threads = getattr(args, "threads", None)
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


def _solver_config(args):
    _deprecated_threads(args)
    return solver.SolverConfig(
        delta=args.delta, dv=args.dv, tol=args.tol, max_iter=args.max_iter)


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
    if not report.all_pass(1e-8):
        raise ConfigurationError(
            f"generated dataset fails validation: worst {report.worst():.3e}")
    geodesic.save(data, args.out)
    print(f"dataset '{model}' written to {args.out} "
          f"(Lmax={data.grid.Lmax}, s* = {data.s_star})")
    return EXIT_OK


def cmd_solve(args):
    data = geodesic.load(args.data)
    cfg = _solver_config(args)
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
        payload = {"status": "breakdown",
                   "last_good_v": _fmt(err.last_good_v),
                   "reason": str(err)}
        with open(os.path.join(args.out, "breakdown.json"), "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
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
    data = geodesic.load(args.data)
    fol = solver.Foliation.load(args.foliation, data)
    os.makedirs(args.out, exist_ok=True)
    co = diagnostics.canonical(fol)
    crep = diagnostics.constraint_residuals(data, co,
                                            tolerance=args.tol_constraint)
    trep = diagnostics.transport_residuals(data, co,
                                           tolerance=args.tol_transport)
    crep.to_csv(os.path.join(args.out, "constraint_residuals.csv"))
    trep.to_csv(os.path.join(args.out, "transport_residuals.csv"))
    merged = {
        "constraint": {"worst": {k: _fmt(v) for k, v in crep.summary().items()},
                       "pass": crep.pass_flags()},
        "transport": {"worst": {k: _fmt(v) for k, v in trep.summary().items()},
                      "pass": trep.pass_flags()},
    }
    with open(os.path.join(args.out, "verify_summary.json"), "w") as fh:
        json.dump(merged, fh, indent=1, sort_keys=True)
        fh.write("\n")
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
    rep = diagnostics.norm_suite(data, diagnostics.canonical(fol))
    rep.to_csv(os.path.join(args.out, "norms.csv"))
    rep.to_json(os.path.join(args.out, "norms.json"))
    print(f"norm suite written: O = {rep.get('O'):.6e}, "
          f"R = {rep.get('R'):.6e}")
    return EXIT_OK


def cmd_convergence(args):
    _deprecated_threads(args)
    spec = geodesic.MmsSpec(epsilon=args.epsilon, Lmax=args.lmax, n_s=args.n_s)
    data, exact = geodesic.gen_manufactured(spec)
    base = solver.SolverConfig(delta=args.delta, dv=args.dv0, tol=args.tol,
                               max_iter=args.max_iter)
    dvs = [args.dv0 / 2 ** i for i in range(args.levels)]
    rows, orders, slope = diagnostics.convergence_study(
        data, exact, base, dvs, v_end=args.v_end)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "convergence.csv"), "w") as fh:
        fh.write("dv,error,order\n")
        for i, (dv, err) in enumerate(rows):
            order = "" if i == 0 else _fmt(orders[i - 1])
            fh.write(f"{_fmt(dv)},{_fmt(err)},{order}\n")
    print("convergence study (dv, error, observed order):")
    for i, (dv, err) in enumerate(rows):
        extra = "" if i == 0 else f"  order {orders[i - 1]:.3f}"
        print(f"  dv = {dv:.6f}: error {err:.4e}{extra}")
    print(f"least-squares v-order: {slope:.3f}")
    return EXIT_OK


# --------------------------------------------------------------------------
# argument plumbing
# --------------------------------------------------------------------------

def _build_parser():
    top = argparse.ArgumentParser(
        prog="nullfoliate",
        description="Canonical-foliation solver and verification suite")
    top.add_argument("--config", default=None,
                     help="INI config file with one section per command")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a geodesic dataset")
    g.add_argument("--model", default=None,
                   choices=["minkowski", "schwarzschild", "mms"])
    g.add_argument("--lmax", type=int, default=None)
    g.add_argument("--n-s", dest="n_s", type=int, default=None)
    g.add_argument("--s-star", dest="s_star", type=float, default=None)
    g.add_argument("--mass", type=float, default=None)
    g.add_argument("--epsilon", type=float, default=None)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_generate, casts={
        "model": str, "lmax": int, "n_s": int, "s_star": float,
        "mass": float, "epsilon": float, "out": str,
    }, fallbacks={"model": "minkowski", "lmax": 15, "n_s": 32,
                  "s_star": 2.5, "mass": 0.1, "epsilon": 1e-2,
                  "out": "dataset"})

    s = sub.add_parser("solve", help="solve the canonical foliation")
    s.add_argument("--data", default=None)
    s.add_argument("--out", default=None)
    s.add_argument("--delta", type=float, default=None)
    s.add_argument("--dv", type=float, default=None)
    s.add_argument("--tol", type=float, default=None)
    s.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    s.add_argument("--v-end", dest="v_end", type=float, default=None)
    s.add_argument("--threads", type=int, default=None,
                   help="deprecated; has no effect")
    s.set_defaults(func=cmd_solve, casts={
        "data": str, "out": str, "delta": float, "dv": float, "tol": float,
        "max_iter": int, "v_end": float, "threads": int,
    }, fallbacks={"data": "dataset", "out": "foliation", "delta": 0.25,
                  "dv": 1.0 / 64.0, "tol": 1e-12, "max_iter": 30,
                  "v_end": 2.0})

    v = sub.add_parser("verify", help="run the residual suites")
    v.add_argument("--data", default=None)
    v.add_argument("--foliation", default=None)
    v.add_argument("--out", default=None)
    v.add_argument("--strict", action="store_true", default=None)
    v.add_argument("--tol-constraint", dest="tol_constraint", type=float,
                   default=None)
    v.add_argument("--tol-transport", dest="tol_transport", type=float,
                   default=None)
    v.set_defaults(func=cmd_verify, casts={
        "data": str, "foliation": str, "out": str,
        "tol_constraint": float, "tol_transport": float,
        "strict": lambda x: x.lower() in ("1", "true", "yes"),
    }, fallbacks={"data": "dataset", "foliation": "foliation",
                  "out": "reports", "tol_constraint": 1e-10,
                  "tol_transport": 1e-8, "strict": False})

    n = sub.add_parser("norms", help="evaluate the norm hierarchy")
    n.add_argument("--data", default=None)
    n.add_argument("--foliation", default=None)
    n.add_argument("--out", default=None)
    n.set_defaults(func=cmd_norms, casts={
        "data": str, "foliation": str, "out": str,
    }, fallbacks={"data": "dataset", "foliation": "foliation",
                  "out": "reports"})

    c = sub.add_parser("convergence", help="manufactured-solution order study")
    c.add_argument("--levels", type=int, default=None)
    c.add_argument("--epsilon", type=float, default=None)
    c.add_argument("--lmax", type=int, default=None)
    c.add_argument("--n-s", dest="n_s", type=int, default=None)
    c.add_argument("--dv0", type=float, default=None)
    c.add_argument("--delta", type=float, default=None)
    c.add_argument("--tol", type=float, default=None)
    c.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    c.add_argument("--v-end", dest="v_end", type=float, default=None)
    c.add_argument("--threads", type=int, default=None,
                   help="deprecated; has no effect")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_convergence, casts={
        "levels": int, "epsilon": float, "lmax": int, "n_s": int,
        "dv0": float, "delta": float, "tol": float, "max_iter": int,
        "v_end": float, "threads": int, "out": str,
    }, fallbacks={"levels": 4, "epsilon": 1e-2, "lmax": 23, "n_s": 40,
                  "dv0": 1.0 / 8.0, "delta": 0.5, "tol": 1e-13,
                  "max_iter": 30, "v_end": 2.0, "out": "reports"})
    return top


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config_section(args.config, args.command,
                                      set(args.casts))
        args = _merge(args, config, args.casts)
        for key, val in args.fallbacks.items():
            if getattr(args, key, None) is None:
                setattr(args, key, val)
        return args.func(args)
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergenceError, NonFiniteIterateError,
            BreakdownError) as err:
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
