"""Span recording around charlierbd's functions, installed from outside.

Each wrapper records one span (name, start, end, parent) in flat arrays
that stay in memory until the run ends; `summarise` turns them into the
per-layer metrics. No library file is edited: the wrappers replace
module attributes at every name a caller looks up, because
`from .x import f` binds a second name for `f` in the importing module.

`install_probes` is the untraced counterpart: it only keeps the `meta`
of the few solver results the output checks read.
"""

from __future__ import annotations

import dataclasses
import functools
from array import array
from time import perf_counter

import numpy as np

from charlierbd import basis, closure, harness, solve, special

CLOSED_FORMS = ("surrogate_moment", "expected_overflow", "expected_min",
                "expected_indicator_below", "expected_q_times_overflow",
                "expected_q_times_min", "expected_q_times_indicator_below",
                "covariance_terms", "delay_probability")

# (span name, [(namespace, attribute), ...]): every lookup site of one
# function gets the same wrapper.
SPANS = [
    ("harness.run_reference", [(harness, "run_reference")]),
    ("harness.tune", [(harness, "tune_basis_parameter")]),
    ("harness.run_galerkin", [(harness, "run_galerkin")]),
    ("harness.rel_error", [(harness, "rel_error")]),
    ("harness.csv", [(harness, "write_table_csv")]),
    ("harness.csv", [(harness, "write_series_csv")]),
    ("solve.reference", [(harness, "solve_reference")]),
    ("solve.galerkin", [(harness, "solve_galerkin")]),
    ("solve.closure", [(harness, "solve_closure"), (solve, "solve_closure")]),
    ("solve.prepass", [(harness, "basis_parameter_prepass")]),
    ("solve.simulate", [(harness, "simulate_paths")]),
    ("models.generator_apply", [(solve, "generator_apply")]),
    ("closure.moment_match", [(solve, "moment_match")]),
    *[("closure.closed_form", [(closure, f)]) for f in CLOSED_FORMS],
    ("special.lower_tail", [(closure, "lower_tail"), (special, "lower_tail")]),
    ("special.touchard", [(closure, "touchard"), (special, "touchard")]),
    ("basis.charlier_table", [(basis, "charlier_table")]),
    ("basis.project_density", [(harness, "project_density"),
                               (solve, "project_density"),
                               (basis, "project_density")]),
]


class Tracer:
    """Flat span store; the first span recorded (index 0) is the root."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.steps = 0
        self.rate_span = array("q")
        self.rate_elems = array("q")
        self.tail_q = array("d")
        self.tail_c = array("q")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, on_call=None):
        """`fn` recording one span per call; `on_call(i, args)` may add
        per-span data under span index i."""
        nid = self.name_id(name)
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            if on_call is not None:
                on_call(i, args)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
        return traced

    def _record_tail(self, i, args):
        self.tail_q.append(args[0])
        self.tail_c.append(args[1])

    def _record_rate(self, i, args):
        self.rate_span.append(i)
        self.rate_elems.append(getattr(args[1], "size", 1))

    def install(self):
        """Replace every traced name; returns an undo callable."""
        saved = []

        def put(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for name, sites in SPANS:
            wrapped = self.wrap(getattr(*sites[0]), name)
            for owner, attr in sites:
                put(owner, attr, wrapped)

        tail = self.wrap(special.upper_tail, "special.upper_tail",
                         self._record_tail)
        put(closure, "upper_tail", tail)
        put(special, "upper_tail", tail)

        integrate = solve.integrate

        def counted_integrate(rhs, y0, grid, *args, **kwargs):
            # every CLI path integrates with fixed-step rk4
            self.steps += (grid.times.size - 1) * grid.substeps
            return integrate(self.wrap(rhs, "solve.rhs"), y0, grid,
                             *args, **kwargs)
        put(solve, "integrate", self.wrap(counted_integrate,
                                          "solve.integrate"))

        build_model = harness.ExperimentConfig.build_model

        def counted_build_model(cfg):
            m = build_model(cfg)
            return dataclasses.replace(
                m, birth=self.wrap(m.birth, "models.rate", self._record_rate),
                death=self.wrap(m.death, "models.rate", self._record_rate))
        put(harness.ExperimentConfig, "build_model", counted_build_model)

        def undo():
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)
        return undo

    # --- summary ---------------------------------------------------------

    def summarise(self) -> dict:
        """Per-layer metrics from the recorded spans; span 0 is the root."""
        n = len(self.name)
        name = np.frombuffer(self.name, dtype=np.intc)[:n].astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)[:n]
        end = np.frombuffer(self.end, dtype=np.float64)[:n]
        dur = end - np.frombuffer(self.start, dtype=np.float64)[:n]
        lookup = {nm: np.int64(i) for i, nm in enumerate(self.names)}

        def mask(*names):
            ids = [lookup[x] for x in names if x in lookup]
            return np.isin(name, ids)

        def owner(*names):
            """Index of each span's nearest proper ancestor named in
            `names`, or -1."""
            ids = [lookup[x] for x in names if x in lookup]
            out = np.full(n, -1, dtype=np.int64)
            cur = parent.copy()
            todo = np.nonzero(cur >= 0)[0]
            while todo.size:
                hit = np.isin(name[cur[todo]], ids)
                out[todo[hit]] = cur[todo[hit]]
                todo = todo[~hit]
                cur[todo] = parent[cur[todo]]
                todo = todo[cur[todo] >= 0]
            return out

        def busy(m):
            """Time in spans of `m`, not counting those nested in `m`."""
            outer = m & ~np.where(parent >= 0, m[np.maximum(parent, 0)],
                                  False)
            return float(dur[outer].sum())

        def count(m):
            return int(np.count_nonzero(m))

        out: dict[str, float] = {}
        gal = mask("solve.galerkin")
        in_tune = owner("harness.tune") >= 0
        rhs = mask("solve.rhs")
        rhs_solver = owner("solve.reference", "solve.galerkin",
                           "solve.closure")
        rhs_owner_name = np.where(rhs_solver >= 0,
                                  name[np.maximum(rhs_solver, 0)], -1)

        def rhs_of(solver, extra=None):
            m = rhs & (rhs_owner_name == lookup.get(solver, -2))
            if extra is not None:
                m &= extra[np.maximum(rhs_solver, 0)]
            return m

        out["harness.tune.s"] = busy(mask("harness.tune"))
        out["harness.tune.galerkin_solves"] = count(gal & in_tune)
        out["harness.rel_error.calls"] = count(mask("harness.rel_error"))
        out["harness.rel_error.s"] = busy(mask("harness.rel_error"))
        out["harness.csv.s"] = busy(mask("harness.csv"))

        integ = mask("solve.integrate")
        out["solve.integrate.calls"] = count(integ)
        out["solve.integrate.steps"] = self.steps
        out["solve.integrate.rhs_calls"] = count(rhs)
        out["solve.integrate.rhs_s"] = float(dur[rhs].sum())
        out["solve.integrate.loop_self_s"] = float(dur[integ].sum()
                                                   - dur[rhs].sum())
        out["solve.reference.s"] = busy(mask("solve.reference"))
        out["solve.reference.rhs_calls"] = count(rhs_of("solve.reference"))
        for part, sel in (("tune", in_tune), ("rows", ~in_tune)):
            out[f"solve.galerkin.{part}.calls"] = count(gal & sel)
            out[f"solve.galerkin.{part}.s"] = float(dur[gal & sel].sum())
            out[f"solve.galerkin.{part}.rhs_s"] = float(
                dur[rhs_of("solve.galerkin", sel)].sum())
        clo = mask("solve.closure")
        out["solve.closure.calls"] = count(clo)
        out["solve.closure.s"] = busy(clo)
        out["solve.closure.rhs_calls"] = count(rhs_of("solve.closure"))
        # the per-output-time delay loop runs after the integration returns
        integ_in_clo = integ & (parent >= 0) & clo[np.maximum(parent, 0)]
        idx = np.nonzero(integ_in_clo)[0]
        out["solve.closure.post_s"] = float((end[parent[idx]]
                                             - end[idx]).sum())
        out["solve.prepass.s"] = busy(mask("solve.prepass"))
        out["solve.simulate.s"] = busy(mask("solve.simulate"))

        rate_idx = np.frombuffer(self.rate_span, dtype=np.int64)
        elems = np.frombuffer(self.rate_elems, dtype=np.int64)
        rate_solver = owner("solve.reference", "solve.galerkin",
                            "solve.simulate")[rate_idx]
        rate_owner = np.where(rate_solver >= 0,
                              name[np.maximum(rate_solver, 0)], -1)
        out["models.rate.calls"] = int(rate_idx.size)
        out["models.rate.elems"] = int(elems.sum())
        out["models.rate.s"] = float(dur[rate_idx].sum())
        for solver in ("reference", "galerkin", "simulate"):
            sel = rate_owner == lookup.get(f"solve.{solver}", -2)
            out[f"models.rate.{solver}.calls"] = int(np.count_nonzero(sel))
            out[f"models.rate.{solver}.elems"] = int(elems[sel].sum())
            out[f"models.rate.{solver}.s"] = float(dur[rate_idx[sel]].sum())
        for layer in ("models.generator_apply", "closure.moment_match",
                      "closure.closed_form", "special.upper_tail",
                      "special.lower_tail", "special.touchard",
                      "basis.charlier_table", "basis.project_density"):
            m = mask(layer)
            out[f"{layer}.calls"] = count(m)
            out[f"{layer}.s"] = busy(m)
        q = np.frombuffer(self.tail_q, dtype=np.float64)
        c = np.frombuffer(self.tail_c, dtype=np.int64)
        distinct = (np.unique(np.stack([q.view(np.int64), c]), axis=1).shape[1]
                    if q.size else 0)
        out["special.upper_tail.distinct_ratio"] = distinct / max(q.size, 1)

        top = parent == 0
        out["trace.wall_s"] = float(dur[0])
        out["trace.top_level_coverage"] = float(dur[top].sum() / dur[0])
        out["trace.spans"] = n
        return out


def install_probes(captured: dict):
    """Keep the meta of the reference run, the table's Galerkin rows and
    the closure runs in `captured`; returns an undo callable."""
    saved = []

    def probe(attr, key):
        fn = getattr(harness, attr)

        @functools.wraps(fn)
        def kept(*args, **kwargs):
            traj = fn(*args, **kwargs)
            captured.setdefault(key, []).append(
                {k: v for k, v in traj.meta.items()
                 if isinstance(v, (int, float, str))})
            return traj
        saved.append((attr, fn))
        setattr(harness, attr, kept)

    probe("run_reference", "reference")
    probe("run_galerkin", "galerkin_rows")
    probe("solve_closure", "closure")

    def undo():
        for attr, fn in reversed(saved):
            setattr(harness, attr, fn)
    return undo
