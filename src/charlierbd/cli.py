"""Command-line front end.

Exit codes: 0 success, 1 numerical failure (divergence, rate-bound
violation, boundary-mass overflow), out of memory, a failed write or
standard output closed early (as by `| head -1`), 2 bad input: a config
that is no readable UTF-8 JSON file or fails its schema, arguments, an
`-o` that is empty, a directory, in a missing one or a name the system
refuses (checked before any solve), or a CHARLIER_LOG other than debug
(verbose progress), info (the default), warning or error, in any case.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import warnings

# One BLAS thread unless the caller set a count: the CLI's matrices are
# small, and with two threads basis tuning stalled for over a second in
# some processes. OpenBLAS reads this once, when numpy first loads it, so
# it is set before the first import that loads numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import __version__, harness  # noqa: E402
from .harness import ConfigError, ExperimentConfig  # noqa: E402
from .solve import (IntegrationError, RateBoundError,  # noqa: E402
                    SolverError, TimeGrid, solve_closure)

log = logging.getLogger("charlierbd")

_NUMERICAL = (SolverError, IntegrationError, RateBoundError,
              FloatingPointError)
_LOG_LEVELS = ("debug", "info", "warning", "error")


def _load_config(path) -> ExperimentConfig:
    try:
        return ExperimentConfig.from_file(path)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc.reason}")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}")


def _check_output(path) -> None:
    """ConfigError if `path` is empty, a directory or in a missing one, or
    a name the system refuses (too long, or through a regular file)."""
    if not path:
        raise ConfigError("output path is empty")
    if os.path.isdir(path):
        raise ConfigError(f"output path {path} is a directory")
    try:
        os.stat(path)
    except FileNotFoundError:
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"output path {path} is in a missing "
                              "directory")
    except OSError as exc:
        raise ConfigError(f"output path {path} cannot be written: "
                          f"{exc.strerror}")


def _write_traj_csv(traj, path, cols=("mean", "variance", "cum3", "cum4")):
    harness.write_series_csv(
        {"t": traj.times, **{c: getattr(traj, c) for c in cols}}, path)


def cmd_solve_reference(args, cfg):
    traj = harness.run_reference(cfg)
    _write_traj_csv(traj, args.output)
    log.info("reference run written to %s (mass residual %.3e)",
             args.output, traj.meta["mass_residual"])
    return 0


def cmd_solve_galerkin(args, cfg):
    # the same rule as the config's orders
    cfg.check_order(harness._number("order -N", args.order, 1, count=True))
    traj = harness.run_galerkin(cfg, args.order)
    _write_traj_csv(traj, args.output)
    log.info("order-%d spectral run written to %s (basis a=%.6g)",
             args.order, args.output, traj.meta["a"])
    return 0


def cmd_solve_closure(args, cfg):
    traj = solve_closure(cfg.kind, cfg.params(), args.order,
                         cfg.initial_state(), cfg.grid())
    _write_traj_csv(traj, args.output, cols=("mean", "variance"))
    log.info("%s-order closure run written to %s", args.order, args.output)
    return 0


def cmd_simulate(args, cfg):
    if args.paths is not None and not 2 <= args.paths < 2**63:
        raise ConfigError(f"--paths {args.paths} is not in [2, 2**63)")
    try:
        grid = TimeGrid(cfg.t0, cfg.T, args.dt_out, args.dt_out)
    except ValueError as exc:
        raise ConfigError(f"--dt-out {args.dt_out:g}: {exc}") from None
    if args.paths is not None:
        cfg.n_paths = args.paths
    traj = harness.run_simulation(cfg, grid)
    _write_traj_csv(traj, args.output, cols=("mean", "variance", "se_mean"))
    log.info("%d simulated paths written to %s", cfg.n_paths, args.output)
    return 0


def cmd_table(args, cfg):
    table = harness.run_table(cfg)
    harness.write_table_csv(table, args.output)
    # two arguments: a record with one tests it against
    # collections.abc.Mapping, which costs about 0.08 ms the first time in
    # a process
    log.info("error table written to %s (basis a=%.6g)", args.output,
             table.provenance["basis_a"])
    return 0


def cmd_figures(args, cfg):
    series, closure_meta = harness.run_figures(cfg)
    harness.write_series_csv(series, args.output)
    # one record for the file and both closures: each record costs
    # about 0.1 ms
    log.info("figure series written to %s; over_dispersed_fraction "
             "(right-hand-side evaluations that saw variance > mean and "
             "used the zeroth-order surrogate): %s", args.output,
             ", ".join("%s-order closure %.6g (%d of %d)" % (
                 order, m["over_dispersed_fraction"],
                 round(m["over_dispersed_fraction"] * m["n_rhs"]),
                 m["n_rhs"]) for order, m in closure_meta.items()))
    return 0


def _oracle_suites():
    """Quick numeric self-checks: orthonormality, isometry, Chen-Stein,
    and a sample of the closure closed forms against brute-force sums.
    Yields (name, passed) pairs."""
    from .basis import CharlierBasis
    from .closure import (SurrogateParams, expected_indicator_below,
                          expected_min, expected_overflow, surrogate_pmf)
    from .sobolev import isometry_residual
    from .special import chen_stein_gap, poisson_pmf

    worst = 0.0
    for a, xm in ((1.0, 60), (5.0, 90), (100.0, 400)):
        basis = CharlierBasis(a=a, N=10, X_max=xm)
        G = (basis.table * basis.weights) @ basis.table.T
        worst = max(worst, float(np.max(np.abs(G - np.eye(11)))))
    yield "orthonormality", worst < 1e-10

    res = max(isometry_residual(poisson_pmf(2.0, 60), 3.0, m)
              for m in range(5))
    yield "isometry", res < 1e-10

    gap = max(abs(chen_stein_gap(f, q))
              for q in (1.0, 5.0, 20.0)
              for f in (lambda x: 1.0, lambda x: float(x),
                        lambda x: float(x) ** 2, lambda x: float(x) ** 3))
    yield "chen-stein", gap < 1e-10

    err = 0.0
    for q in (0.8, 5.0, 30.0):
        for a1 in (0.0, 0.3):
            s = SurrogateParams(q=q, a1=a1,
                                order="zeroth" if a1 == 0.0 else "first")
            p = surrogate_pmf(s, 600)
            xs = np.arange(601)
            for c in (0, 2, 9):
                err = max(err,
                          abs(expected_overflow(s, c)
                              - float(np.maximum(xs - c, 0) @ p)),
                          abs(expected_min(s, c)
                              - float(np.minimum(xs, c) @ p)),
                          abs(expected_indicator_below(s, c)
                              - float((xs < c) @ p)))
    yield "closure closed forms", err < 1e-9


def cmd_validate(args, cfg):
    if cfg is not None:
        # the solvers' initial pmf: ConfigError if there is none
        cfg.initial_pmf()
        print(json.dumps({"config_ok": True, "hash": cfg.hash(),
                          "kind": cfg.kind, "X_max": cfg.x_max()}))
    failures = 0
    for name, ok in _oracle_suites():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="charlierbd",
        description="Birth-death moment dynamics via Charlier expansions")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("config", help="experiment config (JSON)")
        sp.add_argument("-o", "--output", default=f"{name}.csv",
                        help="output CSV path")
        sp.set_defaults(fn=fn)
        return sp

    add("solve-reference", cmd_solve_reference,
        "truncated master-equation reference run")
    sg = add("solve-galerkin", cmd_solve_galerkin,
             "spectral coefficient run at one expansion order")
    sg.add_argument("-N", "--order", type=int, required=True)
    sc = add("solve-closure", cmd_solve_closure, "moment-closure run")
    sc.add_argument("--order", choices=("zeroth", "first"), default="first")
    sim = add("simulate", cmd_simulate, "thinning path simulation")
    sim.add_argument("--paths", type=int, default=None)
    sim.add_argument("--dt-out", type=float, default=0.01)
    add("table", cmd_table, "error table over expansion orders")
    add("figures", cmd_figures, "closure-vs-reference figure series")
    v = sub.add_parser("validate",
                       help="run the numeric oracle suites; optionally "
                            "schema-check a config first")
    v.add_argument("config", nargs="?", default=None)
    v.set_defaults(fn=cmd_validate)
    return p


# a blow-up is reported by the one `numerical failure` line, not by
# numpy's overflow warnings on the way to it; filtered once at import, so
# no command spends time on it and numpy's error state stays as it is
warnings.filterwarnings("ignore", r"(overflow|invalid value) encountered",
                        RuntimeWarning)

# built once per process: every main() call parses with the same parser.
# argparse matches arguments with regular expressions that it compiles on
# first use (about 0.3 ms); one parse here compiles them, so no main()
# call spends time on it
_PARSER = build_parser()
_PARSER.parse_args(["table", "config.json", "-o", "table.csv"])

# the stderr handler main() gives the root logger, also built once per
# process (about 0.08 ms), as the parser is
_HANDLER = logging.StreamHandler()
_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def main(argv=None) -> int:
    level = os.environ.get("CHARLIER_LOG") or "info"
    if level.lower() not in _LOG_LEVELS:
        print(f"ERROR charlierbd: CHARLIER_LOG={level!r} is not one of "
              f"{', '.join(_LOG_LEVELS)}", file=sys.stderr)
        return 2
    logging.basicConfig(level=level.upper(), handlers=[_HANDLER])
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = None if args.config is None else _load_config(args.config)
        if "output" in args:
            _check_output(args.output)
        code = args.fn(args, cfg)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    except _NUMERICAL as exc:
        log.error("numerical failure: %s", exc)
        return 1
    except MemoryError as exc:
        log.error("out of memory: %s", exc)
        return 1
    except OSError as exc:
        log.error("I/O failure: %s", exc)
        return 1
    except ValueError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
