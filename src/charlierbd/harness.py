"""Experiment harness: declarative run configs, the time-averaged relative
error metric, error tables over expansion orders, figure-ready series, and
CSV/JSON emission.

Configs are versioned JSON documents; arrival-rate functions are restricted
to the base + amplitude*sin(t) family plus tabulated samples.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .basis import CharlierBasis, project_density
from .closure import MomentState
from .models import KINDS, SineDrive, TableDrive, _tail_cover, make_model
from .solve import (_STEP_MAX, IntegrationError, TimeGrid,
                    basis_parameter_prepass, simulate_paths, solve_closure,
                    solve_galerkin, solve_reference)
from .special import poisson_pmf, upper_tail

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ErrorTable",
    "rel_error",
    "run_table",
    "run_figures",
    "write_table_csv",
    "write_series_csv",
]

log = logging.getLogger("charlierbd")

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _object(what: str, d, allowed, required=()) -> dict:
    """`d`, once it is a JSON object with no key outside `allowed` and
    every key in `required`."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be an object")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{what} missing keys {sorted(missing)}")
    return d


def _number(what: str, v, least=None, count=False):
    """`v` as an int if `count`, else a float, once it is a finite real
    that fits a float (any int for a count) and not a bool; a count is
    whole (an integral float counts) and at least `least`, a real above
    it: the schema's one bound on a real is positivity."""
    if not (isinstance(v, (int, float)) and not isinstance(v, bool)
            and (count and isinstance(v, int) or abs(v) <= sys.float_info.max)
            and (not count or v == int(v))
            and (least is None or (v >= least if count else v > least))):
        bound = "" if least is None else f" {'>=' if count else '>'} {least}"
        raise ConfigError(f"{what} {v!r} is not "
                          f"{'an integer' if count else 'a finite number'}"
                          f"{bound}")
    return int(v) if count else float(v)


def _make_lambda(spec):
    """Arrival-rate drive from a config fragment: `base`/`amplitude`, or
    `samples` with `t`/`value`."""
    if "samples" not in _object("lambda", spec,
                                ("base", "amplitude", "samples")):
        return SineDrive(*(_number(f"lambda.{k}", spec.get(k, 0.0))
                           for k in ("base", "amplitude")))
    samples = _object("lambda", spec, ("samples",))["samples"]
    _object("lambda samples", samples, ("t", "value"), ("t", "value"))
    return TableDrive(samples["t"], samples["value"])


# {kind: {field: int or float}} of each params record, its drive `lam`
# aside; the annotations are strings, as models.py postpones them. Read
# once here: every config load and params() call looks a kind up
_NUMBER_FIELDS = {
    kind: {f.name: {"int": int, "float": float}[f.type]
           for f in dataclasses.fields(p) if f.name != "lam"}
    for kind, p in KINDS.items()}


def _copy_json(v):
    """A copy of a JSON value, its dicts and lists copied all the way
    down."""
    if isinstance(v, dict):
        return {k: _copy_json(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_copy_json(x) for x in v]
    return v


def _config_hash(d: dict) -> str:
    """First 16 hex digits of the sha256 of a config dict's sorted JSON."""
    blob = json.dumps(d, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class ExperimentConfig:
    """Validated declarative run description."""

    model: dict
    T: float = 10.0
    t0: float = 0.0
    dt_out: float = 1e-3
    dt_int: float = 1e-3
    init: dict = field(default_factory=lambda: {"kind": "point", "value": 0})
    orders: list = field(default_factory=lambda: [1, 2, 3, 4, 5, 6, 7])
    X_max: int | None = None
    basis: dict = field(default_factory=lambda: {"mode": "auto"})
    seed: int = 0
    n_paths: int = 10_000
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if _number("schema_version", self.schema_version) != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema version {self.schema_version}")
        for k in ("t0", "T", "dt_out", "dt_int"):
            _number(k, getattr(self, k))
        # the kind decides which other model keys are allowed
        kind = _object("model", self.model, self.model, ("kind",))["kind"]
        if not isinstance(kind, str) or kind not in KINDS:
            raise ConfigError(f"model kind {kind!r} is not one of "
                              f"{sorted(KINDS)}")
        fields = _NUMBER_FIELDS[kind]
        keys = {"kind", "lambda", *fields}
        _object(f"model {kind!r}", self.model, keys, keys)
        for k, t in fields.items():
            _number(f"model {kind!r} field {k}", self.model[k],
                    count=t is int)
        self.seed = _number("seed", self.seed, 0, count=True)
        if self.X_max is not None:
            _number("X_max", self.X_max, 1, count=True)
        if not (isinstance(self.orders, list) and self.orders):
            raise ConfigError(f"orders {self.orders!r} is not a nonempty list")
        self.orders = [_number("order", n, 1, count=True)
                       for n in self.orders]
        init = _object("init", self.init, ("kind", "value"),
                       ("kind", "value"))
        if init["kind"] not in ("point", "poisson"):
            raise ConfigError("init kind must be 'point' or 'poisson'")
        point = init["kind"] == "point"
        value = _number(f"{init['kind']} init value", init["value"], 0,
                        count=point)
        self.n_paths = _number("n_paths", self.n_paths, 2, count=True)
        try:
            drive = self.params().lam
            self.grid()
            x_max = self.x_max()
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        for what, v in (("X_max", x_max), ("n_paths", self.n_paths)):
            if v >= 2**63:   # the solvers hold them in int64
                raise ConfigError(f"{what} {v} is not below 2**63")
        lam_min = float(drive.inf(self.t0, self.T))
        if lam_min < 0:
            raise ConfigError(f"lambda reaches {lam_min:.6g} < 0 on "
                              f"[{self.t0:g}, {self.T:g}]; arrival rates "
                              "must be nonnegative")
        if point and value > x_max:
            raise ConfigError(f"point init value {value!r} is beyond "
                              f"X_max={x_max}")
        basis = _object("basis", self.basis, ("mode", "a"))
        mode = basis.get("mode", "auto")
        if mode not in ("auto", "fixed", "tuned"):
            raise ConfigError(f"unknown basis mode {mode!r}")
        keys = ("mode", "a") if mode == "fixed" else ("mode",)
        _object(f"{mode} basis", basis, keys, keys[1:])
        if mode == "fixed":
            _number("fixed basis a", basis["a"], 0)
        self.check_order(max(self.orders))

    def check_order(self, N: int) -> None:
        """ConfigError unless order N fits X_max, and with it the
        order-(2N + 2) proxy that a tuned basis also runs."""
        mode, x_max = self.basis.get("mode", "auto"), self.x_max()
        need = 2 * N + 2 if mode == "tuned" else N
        if need > x_max:
            raise ConfigError(f"order N={N} needs X_max >= {need} with basis "
                              f"mode {mode!r}; X_max is {x_max}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _object("config", d, cls.__dataclass_fields__, ("model",))
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        # the fields hold JSON values only: copying their dicts and lists
        # is `dataclasses.asdict` at a sixth of its cost
        return {k: _copy_json(getattr(self, k))
                for k in self.__dataclass_fields__}

    def hash(self) -> str:
        return _config_hash(self.to_dict())

    # --- derived run objects -------------------------------------------

    @property
    def kind(self) -> str:
        return self.model["kind"]

    def params(self):
        """The model's frozen parameter record, `models.KINDS[kind]`."""
        return KINDS[self.kind](
            lam=_make_lambda(self.model["lambda"]),
            **{k: t(self.model[k])
               for k, t in _NUMBER_FIELDS[self.kind].items()})

    def build_model(self):
        return make_model(self.params())

    def grid(self) -> TimeGrid:
        return TimeGrid(t0=self.t0, T=self.T, dt_out=self.dt_out,
                        dt_int=self.dt_int)

    def x_max(self) -> int:
        """X_max, or else the params record's rule, raised to cover the
        init's tail if the init puts more than 1e-12 at or above it."""
        if self.X_max is not None:
            return int(self.X_max)
        x0 = float(self.init["value"])
        rule = self.params().x_max(self.t0, self.T, x0)
        mass = (x0 >= rule if self.init["kind"] == "point"
                else upper_tail(x0, rule - 1))
        return max(rule, _tail_cover(x0)) if mass > 1e-12 else rule

    def initial_pmf(self) -> np.ndarray:
        """The init's pmf on {0..x_max()}. A Poisson init whose weights on
        {0..x_max()} all underflow to zero raises ConfigError: there is no
        mass to normalise. An X_max past numpy's array size limit raises
        MemoryError, as one past the machine's memory does."""
        x_max = self.x_max()
        try:
            p0 = np.zeros(x_max + 1)
        except ValueError as exc:   # "array is too big" and the like
            raise MemoryError(f"pmf on {{0..X_max={x_max}}}: {exc}") from None
        if self.init["kind"] == "point":
            p0[int(self.init["value"])] = 1.0
        else:
            value = float(self.init["value"])
            p0 = poisson_pmf(value, x_max)
            mass = p0.sum()
            if not mass > 0:
                raise ConfigError(f"poisson init value {value!r} has no mass "
                                  f"representable in floats on {{0..X_max="
                                  f"{x_max}}}")
            p0 /= mass
        return p0

    def initial_state(self) -> MomentState:
        v = float(self.init["value"])
        if self.init["kind"] == "point":
            return MomentState(mean=v, variance=0.0)
        return MomentState(mean=v, variance=v)

    def closure_params(self):
        """Alias of `params`, kept for existing callers."""
        return self.params()


def rel_error(u, u_star, times) -> float:
    """Time-averaged relative error (1/(T-t_lo)) int |u-u*|/|u*| dt.

    Trapezoidal on the shared grid. If |u*| dips below 1e-8 (or is not
    finite) anywhere on [t0, t0 + 1], the lower integration limit moves to
    t0 + 1 and the averaging measure is renormalized; a dip after that
    limit, or fewer than two output times left after it, is a ValueError.
    """
    u = np.asarray(u, dtype=float)
    u_star = np.asarray(u_star, dtype=float)
    times = np.asarray(times, dtype=float)
    if u.shape != u_star.shape or u.shape != times.shape:
        raise ValueError("series and grid must share one shape")
    small = (np.abs(u_star) < 1e-8) | ~np.isfinite(u_star)
    lo = 0
    if np.any(small):
        cut = times[0] + 1.0
        if np.all(times[small] <= cut):
            lo = int(np.searchsorted(times, cut, side="right")) - 1
            if small[lo]:
                lo += 1
            if lo >= len(times) - 1:
                raise ValueError(
                    "reference magnitude below 1e-8 or non-finite on "
                    f"[{times[0]:.6g}, {cut:.6g}] leaves fewer than two "
                    "output times after the lower-limit fallback")
        else:
            t_bad = times[small & (times > cut)][0]
            raise ValueError(
                "reference magnitude below 1e-8 or non-finite at "
                f"t={t_bad:.6g}, after the lower-limit fallback")
    integrand = np.abs(u[lo:] - u_star[lo:]) / np.abs(u_star[lo:])
    span = times[-1] - times[lo]
    return float(np.trapezoid(integrand, times[lo:]) / span)


@dataclass
class ErrorTableRow:
    N: int
    err_mean: float
    err_variance: float
    err_skewness: float
    err_kurtosis: float


@dataclass
class ErrorTable:
    rows: list
    provenance: dict


def _skew_kurt(traj):
    """Skewness and excess kurtosis; a nonpositive variance (possible for
    the signed low-order reconstructions) marks the point as infinitely
    wrong rather than undefined."""
    var = traj.variance
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = traj.cum3 / var**1.5
        kurt = traj.cum4 / var**2
    skew = np.where(np.isfinite(skew), skew, np.inf)
    kurt = np.where(np.isfinite(kurt), kurt, np.inf)
    return skew, kurt


def run_reference(cfg: ExperimentConfig):
    return solve_reference(cfg.build_model(), cfg.initial_pmf(), cfg.grid(),
                           getattr(cfg.params(), "c", None))


def galerkin_basis_parameter(cfg: ExperimentConfig, N: int | None = None,
                             curve: list | None = None) -> float:
    mode = cfg.basis.get("mode", "auto")
    if mode == "fixed":
        return float(cfg.basis["a"])
    if mode == "tuned":
        return tune_basis_parameter(cfg, N if N is not None
                                    else max(cfg.orders),
                                    [] if curve is None else curve)
    return basis_parameter_prepass(cfg.params(), cfg.initial_state(),
                                   cfg.grid())


def tune_basis_parameter(cfg: ExperimentConfig, N: int,
                         curve: list) -> float:
    """Pick the basis parameter by self-refinement: an order-(2N+2) run
    serves as the truth proxy for the order-N run, and the parameter
    minimizing their time-averaged mean discrepancy wins. Coarse grid
    first, then a local refinement around the coarse optimum; each stage
    is two batched Galerkin solves over all its candidates, one per order,
    so the order-N members are not padded to the proxy's order.
    Every (a, objective) pair scored is appended to `curve`. If
    every candidate scores inf, the zeroth-closure value is returned with
    a warning.
    """
    p0 = cfg.initial_pmf()   # ConfigError before any solve if it has none
    state = cfg.initial_state()
    grid = cfg.grid()
    m_bar = basis_parameter_prepass(cfg.params(), state, grid)
    coarse = grid.coarsened(5e-3, 5e-3)
    model = cfg.build_model()

    def objectives(cands):
        # exploratory runs at extreme a may lose conservation or blow up;
        # treat those as unusable rather than warning or raising
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            # each member's mean alone: a Trajectory's mean is a view
            # that would keep its batch's whole output stack alive while
            # the next order runs
            low, high = ([tr.mean.copy() for tr in solve_galerkin(
                model, [project_density(p0, CharlierBasis(
                    a=a, N=n, X_max=p0.size - 1)) for a in cands], coarse)]
                for n in (N, 2 * N + 2))
        vals = []
        for lo, hi in zip(low, high):
            try:
                v = rel_error(lo, hi, coarse.times)
            except ValueError:
                v = np.inf
            vals.append(v if np.isfinite(v) else np.inf)
        curve.extend((float(a), v) for a, v in zip(cands, vals))
        return vals

    # the first candidate of a stage wins ties, as does the incumbent
    cands = [m_bar, *np.linspace(0.55 * m_bar, 1.25 * m_bar, 13)]
    vals = objectives(cands)
    i = int(np.argmin(vals))
    best_a, best_v = cands[i], vals[i]
    step = m_bar * 0.7 / 12
    cands = [a for a in best_a + step * np.linspace(-0.8, 0.8, 8) if a > 0]
    vals = objectives(cands)
    i = int(np.argmin(vals))
    if vals[i] < best_v:
        best_a, best_v = cands[i], vals[i]
    if best_v == np.inf:
        log.warning("basis tuning: every candidate scored inf; falling back "
                    "to the zeroth-closure value a=%.6g", best_a)
    return float(best_a)


def run_galerkin(cfg: ExperimentConfig, N: int, a: float | None = None):
    """The order-N row with basis parameter a (by default the config's),
    its node step picked by step doubling under the shared cap
    (`solve_galerkin` with h_max = _STEP_MAX); a failed row raises
    IntegrationError at its first non-finite output time."""
    p0 = cfg.initial_pmf()   # ConfigError before any solve if it has none
    if a is None:
        a = galerkin_basis_parameter(cfg, N)
    basis = CharlierBasis(a=a, N=N, X_max=p0.size - 1)
    model = cfg.build_model()
    c0 = project_density(p0, basis)
    traj, = solve_galerkin(model, [c0], cfg.grid(), h_max=_STEP_MAX)
    if traj.meta["failed"]:
        t_bad = traj.times[np.argmax(np.isnan(traj.mean))]
        raise IntegrationError(f"Galerkin row N={N}: non-finite state at "
                               f"t={t_bad:.6g}")
    return traj


def run_table(cfg: ExperimentConfig, reference=None) -> ErrorTable:
    """Reference run plus one Galerkin run per order; per-moment
    time-averaged relative errors. The provenance records the basis
    parameter and, for a tuned one, the search curve (`basis_tuning`);
    the reference's mass residual and boundary mass (`reference`); and
    each Galerkin row's order, c0 drift, steps and failure flag, and for
    a row whose step was probed its node step, probe steps and accepted
    estimate (`galerkin_rows`). It holds no wall times, so it is
    deterministic."""
    ref = reference if reference is not None else run_reference(cfg)
    ref_meta = {k: ref.meta[k] for k in ("mass_residual", "boundary_mass")}
    curve = []
    a = galerkin_basis_parameter(cfg, curve=curve)
    ref_skew, ref_kurt = _skew_kurt(ref)
    rows, gal_meta = [], []
    for N in cfg.orders:
        gal = run_galerkin(cfg, N, a=a)
        gal_meta.append({k: gal.meta[k]
                         for k in ("N", "c0_drift", "n_steps", "failed", "h",
                                   "n_probe_steps", "step_err")
                         if k in gal.meta})
        skew, kurt = _skew_kurt(gal)
        rows.append(ErrorTableRow(
            N=N,
            err_mean=rel_error(gal.mean, ref.mean, ref.times),
            err_variance=rel_error(gal.variance, ref.variance, ref.times),
            err_skewness=rel_error(skew, ref_skew, ref.times),
            err_kurtosis=rel_error(kurt, ref_kurt, ref.times),
        ))
    config = cfg.to_dict()
    provenance = {
        "config": config,
        "config_hash": _config_hash(config),
        "version": __version__,
        "T": cfg.T,
        "dt_out": cfg.dt_out,
        "basis_a": a,
        "basis_tuning": [[a_k, v if math.isfinite(v) else None]
                         for a_k, v in curve],
        "basis_tuning_fallback": bool(curve) and not any(
            math.isfinite(v) for _, v in curve),
        "reference": ref_meta,
        "galerkin_rows": gal_meta,
    }
    return ErrorTable(rows=rows, provenance=provenance)


def run_figures(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Per-time mean, variance, and delay probability for the reference,
    zeroth-, and first-order closure solvers, and the closure runs' meta
    by order."""
    ref = run_reference(cfg)
    series = {"t": ref.times, "ref_mean": ref.mean,
              "ref_variance": ref.variance}
    if ref.delay is not None:
        series["ref_delay"] = ref.delay
    params, init, grid = cfg.params(), cfg.initial_state(), cfg.grid()
    closure_meta = {}
    for order in ("zeroth", "first"):
        traj = solve_closure(cfg.kind, params, order, init, grid)
        series[f"{order}_mean"] = traj.mean
        series[f"{order}_variance"] = traj.variance
        if traj.delay is not None:
            series[f"{order}_delay"] = traj.delay
        closure_meta[order] = traj.meta
    return series, closure_meta


def run_simulation(cfg: ExperimentConfig, grid: TimeGrid):
    return simulate_paths(cfg.build_model(), cfg.n_paths, cfg.seed, grid,
                          x0=cfg.init["value"], x0_dist=cfg.init["kind"])


def write_table_csv(table: ErrorTable, path) -> None:
    with open(path, "w") as fh:
        fh.write("# provenance: %s\n" % json.dumps(
            table.provenance, sort_keys=True))
        fh.write("N,err_mean,err_variance,err_skewness,err_kurtosis\n")
        for r in table.rows:
            fh.write("%d,%.6e,%.6e,%.6e,%.6e\n" % (
                r.N, r.err_mean, r.err_variance, r.err_skewness,
                r.err_kurtosis))


def write_series_csv(series: dict, path) -> None:
    """A header of the column names, then one row per output time with
    every cell "%.6e"; the columns must be of equal length (ValueError,
    before anything is written). They are read as Python floats and each
    row is formatted in one operation."""
    cols = list(series)
    data = [np.asarray(series[c]).tolist() for c in cols]
    if len({len(x) for x in data}) > 1:
        raise ValueError("series columns differ in length: "
                         f"{dict(zip(cols, map(len, data)))}")
    row = ",".join(["%.6e"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(row % cells for cells in zip(*data))
