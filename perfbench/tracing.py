"""In-memory spans around the library's public calls, and the per-layer
metrics derived from them.

A span records (name, start, end, parent, run id, counters). Spans are
opened by wrappers that `Tracer.install` puts in place of library functions
where they are looked up at call time (module attributes, class methods, and
the eval/grad/w callables of the benchmark's own input objects), and removed
again by `Tracer.uninstall`. Nothing is written while a pass runs.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time

import numpy as np

import cavicore.cavity as cavity
import cavicore.energy as energy
import cavicore.geometry as geometry
import cavicore.minimize as minimize
import cavicore.recovery as recovery

N_MAX = inspect.signature(cavity.converged_trace_metrics).parameters["n_max"].default
_DEGREE_GRID = inspect.signature(cavity.degree_range_on_grid)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    run_id: str
    counters: dict

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _points(arr, width):
    return int(np.size(arr) // width)


class Tracer:
    """Span recorder. `wrap` returns a callable that records one span per
    call; `count(args, kwargs, result, exc)` returns the counters to attach.
    With `nested=False` the counters are dropped when the caller is a span of
    the same layer, so work is counted once at the layer boundary."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.run_id = ""

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, args=(), kwargs=None, count=None, nested=True):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        kwargs = kwargs or {}
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, time.perf_counter(), 0.0, parent, self.run_id, {})
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        out, exc = None, None
        try:
            out = fn(*args, **kwargs)
            return out
        except Exception as e:
            exc = e
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()
            if count is not None and (
                    nested or parent < 0 or self.spans[parent].layer != rec.layer):
                rec.counters = count(args, kwargs, out, exc)

    def wrap(self, name, fn, count=None, nested=True):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, count, nested)
        return traced

    # -- installing wrappers -------------------------------------------------

    def patch(self, owner, attr, name, count=None, nested=True):
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, count, nested))

    def install(self):
        p = self.patch
        for mod in (cavity, energy):
            p(mod, "converged_trace_metrics", "cavity.trace", _count_sweep)
        for mod in (cavity, energy, recovery):
            p(mod, "trace_on_circle", "cavity.trace", _count_samples)
        for fn in ("cavity_volume", "cavity_perimeter"):
            p(recovery, fn, "cavity.trace")
        for mod in (cavity, energy, minimize):
            p(mod, "extrapolate_limit", "cavity.extrapolate")
        p(energy, "degree_range_on_grid", "cavity.degree_grid", _count_degree_grid)
        p(energy, "topological_image_contains", "cavity.membership",
          lambda *_: {"queries": 1})

        for mod in (energy, recovery):
            p(mod, "limit_energy", "energy.limit_energy", _count_limit)
        p(recovery, "regularized_energy", "energy.regularized_energy",
          _count_regularized)
        p(energy, "extended_det_pairing", "energy.det_pairing", _count_raised)
        p(energy, "check_admissibility_sampled", "energy.admissibility")

        for mod in (energy, minimize):
            p(mod, "validate_flaw_config", "geometry.validate", nested=False)
        for fn in ("det2", "adj2"):
            p(energy, fn, "geometry.matrix", _count_matrices, nested=False)
        for cls, fns in ((geometry.Domain, ("contains", "contains_perforated",
                                            "contains_perforated_closure_holes",
                                            "dist_to_boundary")),
                         (geometry.Confinement, ("contains",))):
            for fn in fns:
                p(cls, fn, "geometry.points", _count_method_points, nested=False)

        p(minimize, "minimize_radial", "minimize.solve", _count_solve)
        p(minimize, "gamma_sweep", "minimize.gamma_sweep")
        p(minimize, "flaw_search", "minimize.flaw_search")

        p(recovery, "recovery_energy_table", "recovery.table", _count_table)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def traced_deformation(self, y):
        """A copy of a catalog map whose eval/grad record deformation spans."""
        return dataclasses.replace(
            y,
            eval=self.wrap("deformation.eval", y.eval,
                           lambda a, k, o, e: {"eval_points": _points(a[0], 2)}),
            grad=self.wrap("deformation.grad", y.grad,
                           lambda a, k, o, e: {"grad_points": _points(a[0], 2)}))

    def traced_density(self, d):
        """A copy of a density whose w records energy.density spans."""
        return dataclasses.replace(
            d, w=self.wrap("energy.density", d.w,
                           lambda a, k, o, e: {"points": _points(a[0], 4)}))


# --------------------------------------------------------------------------
# counters taken at the layer boundaries


def _count_sweep(a, k, out, exc):
    return {"cap_hits": int(out is not None and out.n_samples >= N_MAX)}


def _count_samples(a, k, out, exc):
    return {"samples": len(out) if out is not None else 0}


def _count_degree_grid(a, k, out, exc):
    grid = _DEGREE_GRID.bind(*a, **k)
    grid.apply_defaults()
    return {"queries": int(grid.arguments["nx"]) * int(grid.arguments["ny"])}


def _count_limit(a, k, out, exc):
    return {"unconverged": int(out is None or not out.elastic_converged)}


def _count_regularized(a, k, out, exc):
    if out is None:
        return {"unconverged": 1}
    return {"unconverged": int(isinstance(out, tuple) and not out[1])}


def _count_raised(a, k, out, exc):
    return {"unconverged": int(exc is not None)}


def _count_matrices(a, k, out, exc):
    return {"points": _points(a[0], 4)}


def _count_method_points(a, k, out, exc):
    return {"points": _points(a[1], 2)}


def _count_solve(a, k, out, exc):
    if out is None:
        return {"unconverged": 1}
    return {"iterations": out.iterations, "unconverged": int(not out.converged),
            "pg_norm": out.pg_norm}


def _count_table(a, k, out, exc):
    if out is None:
        return {}
    return {"rows": len(out.rows),
            "trace_identity_rel": max((r.trace_identity_rel for r in out.rows),
                                      default=0.0)}


# --------------------------------------------------------------------------
# per-layer metrics of one traced pass


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    own = self_times(spans)
    selfs: dict[str, float] = {}
    for s, t in zip(spans, own):
        selfs[s.name] = selfs.get(s.name, 0.0) + t

    def counted(key, *names):
        return [s.counters.get(key, 0) for s in spans if s.name in names]

    def inclusive(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    # bulk quadrature: the energy calls' own time and that of the integrand
    # (density and deformation) below them, without their trace children
    bulk_roots = {"energy.limit_energy", "energy.regularized_energy"}
    under_bulk = [False] * len(spans)
    for i, s in enumerate(spans):
        if s.name in bulk_roots:
            under_bulk[i] = True
        elif s.parent >= 0 and under_bulk[s.parent] and not s.name.startswith("cavity."):
            under_bulk[i] = True
    bulk_s = sum(t for t, u in zip(own, under_bulk) if u)
    bulk_points = sum(s.counters.get("points", 0) for s, u in zip(spans, under_bulk)
                      if u and s.name == "energy.density")

    degree_s = inclusive("cavity.degree_grid")
    degree_q = sum(counted("queries", "cavity.degree_grid"))
    solve_s = inclusive("minimize.solve")
    iters = sum(counted("iterations", "minimize.solve"))

    def layer_self(layer):
        return sum(t for s, t in zip(spans, own) if s.layer == layer)

    return {
        "energy.limit_energy.self_s": selfs.get("energy.limit_energy", 0.0),
        "energy.regularized_energy.self_s": selfs.get("energy.regularized_energy", 0.0),
        "energy.density.self_s": selfs.get("energy.density", 0.0),
        "energy.density_points": sum(counted("points", "energy.density")),
        "energy.integrand_points_per_s": bulk_points / bulk_s if bulk_s > 0 else 0.0,
        "energy.unconverged": sum(counted("unconverged", "energy.limit_energy",
                                          "energy.regularized_energy",
                                          "energy.det_pairing")),
        "energy.det_pairing.self_s": selfs.get("energy.det_pairing", 0.0),
        "energy.admissibility.self_s": selfs.get("energy.admissibility", 0.0),
        "cavity.trace.self_s": selfs.get("cavity.trace", 0.0),
        "cavity.trace_samples": sum(counted("samples", "cavity.trace")),
        "cavity.trace_cap_hits": sum(counted("cap_hits", "cavity.trace")),
        "cavity.extrapolate.self_s": selfs.get("cavity.extrapolate", 0.0),
        "cavity.degree_grid.self_s": selfs.get("cavity.degree_grid", 0.0),
        "cavity.degree_queries": degree_q,
        "cavity.degree_queries_per_s": degree_q / degree_s if degree_s > 0 else 0.0,
        "cavity.membership.self_s": selfs.get("cavity.membership", 0.0),
        "cavity.membership_queries": sum(counted("queries", "cavity.membership")),
        "minimize.solve.self_s": selfs.get("minimize.solve", 0.0),
        "minimize.solves": len(counted("iterations", "minimize.solve")),
        "minimize.iterations": iters,
        "minimize.iterations_per_s": iters / solve_s if solve_s > 0 else 0.0,
        "minimize.unconverged": sum(counted("unconverged", "minimize.solve")),
        "minimize.pg_norm_max": max(counted("pg_norm", "minimize.solve"), default=0),
        "minimize.gamma_sweep.self_s": selfs.get("minimize.gamma_sweep", 0.0),
        "minimize.flaw_search.self_s": selfs.get("minimize.flaw_search", 0.0),
        "recovery.table.self_s": selfs.get("recovery.table", 0.0),
        "recovery.rows": sum(counted("rows", "recovery.table")),
        "recovery.trace_identity_rel_max": max(
            counted("trace_identity_rel", "recovery.table"), default=0),
        "deformation.eval_points": sum(counted("eval_points", "deformation.eval")),
        "deformation.grad_points": sum(counted("grad_points", "deformation.grad")),
        "deformation.self_s": layer_self("deformation"),
        "geometry.self_s": layer_self("geometry"),
        "geometry.points": sum(counted("points", "geometry.points", "geometry.matrix")),
    }
