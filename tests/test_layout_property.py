"""Seeded property tests over the config schema: every drawn config is
either refused with ConfigError or has coarse grids that cover [t0, T]
and a default X_max that holds its initial distribution, and an unknown
key in any of an accepted config's objects is refused. No solver runs.
"""

import copy

import numpy as np
import pytest

from charlierbd.harness import ConfigError, ExperimentConfig
from charlierbd.special import upper_tail

N_CONFIGS = 500


def old_layout(t0, T, dt_out, dt_int):
    """(times, substeps) of the grid that TimeGrid(t0, T, dt_out, dt_int)
    gave before it checked the horizon, or None where that grid was
    invalid or did not end at T."""
    span = T - t0
    n_sub = int(round(dt_out / dt_int))
    if abs(n_sub * dt_int - dt_out) > 1e-9 * dt_out:
        return None
    n_out = int(round(span / dt_out))
    if abs(n_out * dt_out - span) > 1e-9 * span:
        return None
    return t0 + dt_out * np.arange(n_out + 1), n_sub


def coarse_grids(grid):
    """(steps asked for, grid, old layout) of the basis-parameter prepass
    and of the tuning search, with the steps each passed to TimeGrid
    before `TimeGrid.coarsened` chose them."""
    span = grid.T - grid.t0
    prepass = (max(grid.dt_out, span / 200), max(grid.dt_int, span / 2000))
    tuning = (5e-3, 5e-3)
    return [(steps, grid.coarsened(*steps),
             old_layout(grid.t0, grid.T, *steps))
            for steps in (prepass, tuning)]


def draw_model(rng):
    kind = rng.choice(["infinite_server", "erlang_a", "erlang_loss",
                       "quadratic"])
    base = float(rng.uniform(0.05, 1.0) if kind == "quadratic"
                 else rng.uniform(0.5, 60.0))
    model = {"kind": kind, "lambda": {"base": base,
                                      "amplitude": base * rng.uniform(0, 1)}}
    if kind == "quadratic":
        model.update(Qtilde=int(rng.integers(1, 80)),
                     beta=float(rng.uniform(0.2, 5.0)))
    else:
        model["mu"] = float(rng.uniform(0.2, 5.0))
    if kind in ("erlang_a", "erlang_loss"):
        model.update(beta=float(rng.uniform(0.0, 2.0)),
                     c=int(rng.integers(1, 60)))
    if kind == "erlang_loss":
        model["k"] = int(rng.integers(0, 20))
    return model


def draw_layout(rng):
    """t0, T, dt_out, dt_int: decimal or arbitrary steps in whole step
    counts, with a step off by up to 10% now and then."""
    t0 = float(rng.choice([0.0, rng.uniform(-5.0, 5.0)]))
    n_out, n_sub = int(rng.integers(1, 400)), int(rng.integers(1, 30))
    if rng.random() < 0.6:
        dt_int = float(rng.choice([1e-3, 2.5e-3, 3.75e-3, 5e-3, 7e-3,
                                   0.01, 0.02, 0.05]))
        dt_out = dt_int * n_sub
        span = dt_out * n_out
    else:
        span = float(rng.uniform(1e-3, 30.0))
        dt_out = span / n_out
        dt_int = dt_out / n_sub
    if rng.random() < 0.1:
        dt_out *= 1 + rng.uniform(-0.1, 0.1)
    if rng.random() < 0.1:
        dt_int *= 1 + rng.uniform(-0.1, 0.1)
    return t0, t0 + span, dt_out, dt_int


def draw_init(rng):
    if rng.random() < 0.5:
        return {"kind": "point", "value": int(rng.integers(0, 600))}
    return {"kind": "poisson", "value": float(rng.uniform(0.05, 600.0))}


def draw_basis(rng):
    mode = str(rng.choice(["auto", "fixed", "tuned"]))
    if mode == "fixed":
        return {"mode": mode, "a": float(rng.uniform(0.05, 100.0))}
    return {"mode": mode}


def accepted_configs():
    """The drawn configs that ExperimentConfig accepts."""
    rng = np.random.default_rng(20141)
    for _ in range(N_CONFIGS):
        t0, T, dt_out, dt_int = draw_layout(rng)
        try:
            yield ExperimentConfig(model=draw_model(rng), t0=t0, T=T,
                                   dt_out=dt_out, dt_int=dt_int,
                                   init=draw_init(rng), orders=[1],
                                   basis=draw_basis(rng))
        except ConfigError:
            continue


def test_configs_are_refused_or_safe_on_every_grid():
    accepted = 0
    for cfg in accepted_configs():
        accepted += 1
        t0, T = cfg.t0, cfg.T
        span = T - t0
        for steps, new, old in coarse_grids(cfg.grid()):
            assert new.times[0] == t0
            assert abs(new.times[-1] - T) <= 1e-9 * span
            assert isinstance(new.substeps, int) and new.substeps >= 1
            assert abs(new.substeps * new.dt_int - new.dt_out) \
                <= 1e-9 * new.dt_out
            if old is not None:
                assert (new.dt_out, new.dt_int) == steps
                assert np.array_equal(new.times, old[0])
                assert new.substeps == old[1]
        x0, x_max = cfg.init["value"], cfg.x_max()
        mass = (float(x0 >= x_max) if cfg.init["kind"] == "point"
                else upper_tail(x0, x_max - 1))
        assert mass <= 1e-12, (cfg.model, cfg.init, x_max)
    # the draws must exercise both branches
    assert 100 < accepted < N_CONFIGS


def object_levels(d):
    """(config, paths): the config dict d with its sine drive, with that
    drive tabulated, and with each basis mode, and the paths of the
    objects each holds that the other entries do not cover."""
    yield d, [(), ("model",), ("model", "lambda"), ("init",)]
    tabulated = copy.deepcopy(d)
    base = d["model"]["lambda"]["base"]
    tabulated["model"]["lambda"] = {"samples": {"t": [d["t0"], d["T"]],
                                                "value": [base, base]}}
    yield tabulated, [("model", "lambda"), ("model", "lambda", "samples")]
    for basis in ({"mode": "auto"}, {"mode": "fixed", "a": 1.0},
                  {"mode": "tuned"}):
        yield dict(d, basis=basis), [("basis",)]


def test_an_unknown_key_is_refused_in_every_object():
    modes = set()
    for cfg in accepted_configs():
        d = cfg.to_dict()
        modes.add(d["basis"]["mode"])
        for variant, paths in object_levels(d):
            for path in paths:
                bad = copy.deepcopy(variant)
                obj = bad
                for key in path:
                    obj = obj[key]
                obj["zz"] = 1.0
                with pytest.raises(ConfigError, match="zz"):
                    ExperimentConfig.from_dict(bad)
    assert modes == {"auto", "fixed", "tuned"}
