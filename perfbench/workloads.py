"""The benchmark's three workloads.

Each workload builds its inputs from a seed and runs one pass over its task
list by calling the library's public functions through their modules, the
same calls the CLI subcommands make. A task is one public call, so the
number of tasks does not depend on the seed; the rows of an admissibility
report and the candidates of a flaw search are named inside their task's
failures. A pass returns one `Outcome` per task: whether the task failed and
why, which outputs contradict a reference, the relative errors against exact
values, and a digest of the numeric outputs that must repeat bit for bit
between passes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import cavicore.cavity as cavity
import cavicore.energy as energy
import cavicore.minimize as minimize
import cavicore.recovery as recovery
from cavicore.deformation import CATALOG_KEYS, Deformation, make_example
from cavicore.geometry import Confinement, Domain, FlawConfig

import references as ref
from tracing import N_MAX, Tracer


@dataclass
class Outcome:
    task: str
    failures: list[str] = field(default_factory=list)  # why the task failed
    wrong: list[str] = field(default_factory=list)  # outputs contradicting a reference
    rel_errors: dict[str, float] = field(default_factory=dict)  # against exact values
    digest: tuple = ()

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    def miss(self, msg: str):
        """An output contradicts its reference: a failure and a wrong answer."""
        self.failures.append(msg)
        self.wrong.append(msg)

    def require_finite(self, **values):
        for name, v in values.items():
            if not math.isfinite(v):
                self.failures.append(f"non-finite {name} {v}")


def _attempt(tracer: Tracer | None, o: Outcome, fn, *args, **kwargs):
    """Call fn as task o; an exception fails the task."""
    try:
        if tracer is None:
            return fn(*args, **kwargs)
        tracer.run_id = o.task
        return tracer.span("task", fn, args, kwargs)
    except Exception as e:  # a task that raises is a failed task, not a crash
        o.failures.append(f"raised {type(e).__name__}: {e}")
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], dict]
    run: Callable[[dict, Tracer | None], list[Outcome]]


# --------------------------------------------------------------------------
# catalog-limits: the paper's limit table

RADII = (0.2, 0.1, 0.05, 0.025)
SUBQUADRATIC_P = 1.1
LIMIT_LAMBDAS = (1.0, 1.0)
RECOVERY_KEY = "radial"
RECOVERY_LAMBDAS = (2.5, 2.5)
EXPECTED_FLAGS = {"spike": {"conv-perimeter-violated"}}


def _check_limit(o: Outcome, key: str, qty: str, val: float, label: str):
    exact = ref.LIMITS[key][qty]
    err = abs(val - exact)
    o.rel_errors[f"{label}[{key}].{qty}"] = err / abs(exact)
    o.require_finite(**{qty: val})
    tol = ref.GATE_TOL.get((key, qty))
    if tol is not None and not err <= tol:
        o.miss(f"{qty} {val:.10g} misses the analytic {exact:.10g} by {err:.2e} "
               f"(tolerance {tol:g})")


def build_limits(seed: int) -> dict:
    return {"maps": {k: make_example(k, ref.B) for k in CATALOG_KEYS},
            "density": energy.subquadratic_density(SUBQUADRATIC_P)}


def run_limits(inp: dict, tracer: Tracer | None) -> list[Outcome]:
    out: list[Outcome] = []
    for key, y in inp["maps"].items():
        series = {"volume": [], "perimeter": []}
        for r in RADII:
            o = Outcome(f"trace[{key},r={r}]")
            m = _attempt(tracer, o, cavity.converged_trace_metrics, y, (0.0, 0.0), r)
            if m is not None:
                o.digest = (m.volume, m.perimeter, m.n_samples)
                o.require_finite(volume=m.volume, perimeter=m.perimeter)
                if m.n_samples >= N_MAX:
                    o.failures.append(f"trace sweep ended at the {N_MAX}-sample cap")
                series["volume"].append(m.volume)
                series["perimeter"].append(m.perimeter)
            out.append(o)
        for qty, vals in series.items():
            o = Outcome(f"extrapolate[{key},{qty}]")
            out.append(o)
            if len(vals) < len(RADII):
                o.failures.append("trace values missing")
                continue
            res = _attempt(tracer, o, cavity.extrapolate_limit, RADII, vals)
            if res is not None:
                o.digest = res
                _check_limit(o, key, qty, res[0], "extrapolate")

    for key, y in inp["maps"].items():
        o = Outcome(f"limit_energy[{key}]")
        out.append(o)
        rep = _attempt(tracer, o, energy.limit_energy, y, y.singular_points,
                       y.domain, inp["density"], LIMIT_LAMBDAS, RADII)
        if rep is None:
            continue
        bd = rep.breakdown
        o.digest = (bd.elastic, bd.volume_term, bd.perimeter_term, bd.total,
                    rep.flags, tuple((f.volume, f.perimeter) for f in rep.flaws))
        expected = EXPECTED_FLAGS.get(key, set())
        o.failures.extend(f"flag {f}" for f in rep.flags if f not in expected)
        for f in sorted(expected - set(rep.flags)):
            o.miss(f"expected flag {f} missing")
        o.require_finite(total=bd.total)
        for f in rep.flaws[:1]:
            _check_limit(o, key, "volume", f.volume, "limit_energy")
            _check_limit(o, key, "perimeter", f.perimeter, "limit_energy")
        if key == "spike" and rep.flaws:
            gap = rep.flaws[0].perimeter - ref.SPIKE_REDUCED_BOUNDARY
            if not abs(gap - 1.0) <= ref.GATE_TOL[("spike", "perimeter")]:
                o.miss(f"perimeter gap {gap:.6f} against the reduced boundary, "
                       "expected 1")

    y = inp["maps"][RECOVERY_KEY]
    o = Outcome(f"recovery[{RECOVERY_KEY}]")
    out.append(o)
    table = _attempt(tracer, o, recovery.recovery_energy_table, y,
                     y.singular_points, RADII, inp["density"], RECOVERY_LAMBDAS)
    if table is not None:
        lim = table.limit.breakdown.total
        o.digest = (lim, tuple((r.energy.total, r.gap, r.trace_identity_rel,
                                r.annulus_inflation) for r in table.rows))
        o.failures.extend(f"limit flag {f}" for f in table.limit.flags)
        o.failures.extend(f"row eps={r.eps}: elastic-not-converged"
                          for r in table.rows if not r.elastic_converged)
        o.require_finite(limit_total=lim,
                         **{f"total_eps={r.eps}": r.energy.total for r in table.rows})
        last = table.rows[-1]
        if not last.rel_gap < ref.RECOVERY_FINAL_REL_GAP:
            o.miss(f"finest relative gap {last.rel_gap:.4f} not below "
                   f"{ref.RECOVERY_FINAL_REL_GAP}")
        for r in table.rows:
            if not r.trace_identity_rel <= ref.RECOVERY_TRACE_IDENTITY:
                o.miss(f"row eps={r.eps}: trace identity {r.trace_identity_rel:.2e}")
            if not r.energy.total >= lim - ref.RECOVERY_SHADOW_SLACK:
                o.miss(f"row eps={r.eps}: energy {r.energy.total:.6f} below the "
                       f"limit {lim:.6f}")
    return out


# --------------------------------------------------------------------------
# admissibility: sampled admissibility reports

ADM_KEYS = ("radial", "change-of-reference")
ADM_EPS = 0.1
ADM_RADII = (2.5 * ADM_EPS, 4.0 * ADM_EPS)
ADM_CONFINEMENT = Confinement("disk", (0.0, 0.0), 0.6)
ADM_ROWS = ("orientation", "degree-range", "interior-exterior",
            "trace-injectivity", "det-identity")
_RESIDUAL = re.compile(r"k=(\d+): rel residual ([0-9.eE+-]+)")


def build_admissibility(seed: int) -> dict:
    maps = {k: make_example(k, ref.B) for k in ADM_KEYS}
    cfgs = {k: FlawConfig(points=y.singular_points, eps=ADM_EPS,
                          max_count=len(y.singular_points),
                          confinement=ADM_CONFINEMENT)
            for k, y in maps.items()}
    return {"maps": maps, "cfgs": cfgs, "seed": seed}


def run_admissibility(inp: dict, tracer: Tracer | None) -> list[Outcome]:
    out: list[Outcome] = []
    for key, y in inp["maps"].items():
        o = Outcome(f"check_admissibility_sampled[{key}]")
        out.append(o)
        rep = _attempt(tracer, o, energy.check_admissibility_sampled, y,
                       inp["cfgs"][key], y.domain, ADM_RADII, seed=inp["seed"])
        if rep is None:
            continue
        got = {r.name: r for r in rep.rows}
        o.digest = tuple((r.name, r.passed, r.detail) for r in rep.rows)
        for name in ADM_ROWS:
            r = got.get(name)
            if r is None:
                o.failures.append(f"{name}: row missing from the report")
                continue
            if not r.passed:
                o.failures.append(f"{name}: FAIL: {r.detail}")
                if name == "degree-range":  # acceptance criterion 5
                    o.wrong.append(f"degree range outside {{0,1}}: {r.detail}")
            if name == "det-identity":  # the report gives residuals only as text
                for k, res in _RESIDUAL.findall(r.detail):
                    o.rel_errors[f"det-identity[{key}].k={k}"] = float(res)
    return out


# --------------------------------------------------------------------------
# radial-min: radial minimization, the vanishing-core sweep, flaw search

GRID_BV = (1.0, 2.0, 3.0)
GRID_EPS = (0.2, 0.1, 0.05)
MIN_P = 2.0
MIN_LAMBDAS = (1.0, 1.0)
MIN_K = 16
SWEEP_BV = 2.0
FLAW_EPS = 0.1
FLAW_STRETCH = 2.0
FLAW_DISK = 0.5
FLAW_SEEDED = 2


def build_radial(seed: int) -> dict:
    dens = energy.default_density(MIN_P)

    def problem(bv, eps):
        return minimize.RadialProblem(eps=eps, outer_radius=1.0, boundary_value=bv,
                                      density=dens, lambdas=MIN_LAMBDAS, K=MIN_K)

    rng = np.random.default_rng(seed)
    rad = FLAW_DISK * np.sqrt(rng.uniform(size=FLAW_SEEDED))
    ang = rng.uniform(0.0, 2.0 * math.pi, size=FLAW_SEEDED)
    cands = np.vstack([[0.0, 0.0], np.stack([rad * np.cos(ang), rad * np.sin(ang)], -1)])
    return {"density": dens,
            "grid": {(bv, eps): problem(bv, eps) for bv in GRID_BV for eps in GRID_EPS},
            "template": problem(SWEEP_BV, GRID_EPS[0]),
            "candidates": cands,
            "domain": Domain(q=2, radius=1.0),
            "confinement": Confinement("disk", (0.0, 0.0), FLAW_DISK)}


def _check_solve(o: Outcome, res, label: str = ""):
    """Record one solve of task o; `label` names it within the task."""
    tag = f"{label}: " if label else ""
    o.require_finite(**{f"{tag}energy": res.energy.total})
    # first-order optimality: the exact projected gradient at a minimizer is 0
    o.rel_errors[f"kkt[{o.task}{' ' + label if label else ''}]"] = (
        res.pg_norm / max(abs(res.energy.total), 1e-300))
    if not res.converged:
        o.failures.append(f"{tag}status {res.status} (pg {res.pg_norm:.1e} after "
                          f"{res.iterations} iterations)")


def run_radial(inp: dict, tracer: Tracer | None) -> list[Outcome]:
    out: list[Outcome] = []
    for (bv, eps), prob in inp["grid"].items():
        o = Outcome(f"minimize_radial[bv={bv},eps={eps}]")
        out.append(o)
        res = _attempt(tracer, o, minimize.minimize_radial, prob)
        if res is not None:
            o.digest = (res.energy.total, res.pg_norm, res.iterations, res.status)
            _check_solve(o, res)

    o = Outcome(f"gamma_sweep[bv={SWEEP_BV}]")
    out.append(o)
    sweep = _attempt(tracer, o, minimize.gamma_sweep, GRID_EPS, inp["template"])
    if sweep is not None:
        o.digest = (sweep.limit_estimate, sweep.limit_uncertainty, sweep.gaps,
                    tuple((r.min_energy.total, r.iterations) for r in sweep.rows))
        o.require_finite(limit=sweep.limit_estimate)
        o.failures.extend(f"eps={r.eps}: not converged after {r.iterations} iterations"
                          for r in sweep.rows if not r.converged)
        for a, b in zip(sweep.gaps, sweep.gaps[1:]):  # acceptance criterion 10
            if not b <= a * ref.GAMMA_GAP_GROWTH + 1e-9:
                o.miss(f"vanishing-core gap grows from {a:.6f} to {b:.6f}")

    o = Outcome("flaw_search")
    out.append(o)
    fs = _attempt(tracer, o, minimize.flaw_search, inp["candidates"], inp["domain"],
                  inp["confinement"], FLAW_EPS, FLAW_STRETCH, inp["density"],
                  MIN_LAMBDAS, K=MIN_K)
    if fs is not None:
        o.digest = tuple((c.center, c.valid, c.energy_total) for c in fs.table)
        for c in fs.table:
            label = f"candidate ({c.center[0]:.4f},{c.center[1]:.4f})"
            if not c.valid:
                o.failures.append(f"{label}: invalid: {c.reason}")
            else:
                _check_solve(o, c.result, label)
    return out


WORKLOADS = {w.name: w for w in (
    Workload("catalog-limits",
             "The paper's limit table. Bulk quadrature in energy does over 90% of "
             "the work; trace sampling and extrapolation add accuracy and cap-hit "
             "signal. The only workload where recovery runs.",
             build_limits, run_limits),
    Workload("admissibility",
             "Sampled admissibility checks. The winding-number degree grid and "
             "per-point membership in cavity do most of the work: many degree "
             "queries against few traces; energy adds the det pairing.",
             build_admissibility, run_admissibility),
    Workload("radial-min",
             "Only minimize runs: cold multistarts on the grid, warm starts in the "
             "sweep, cold solves at varying outer radii in the flaw search. A "
             "quadrature or degree change should leave it unchanged.",
             build_radial, run_radial),
)}


def traced_inputs(value, tracer: Tracer):
    """The inputs with every deformation and density replaced by a copy that
    records spans."""
    if isinstance(value, Deformation):
        return tracer.traced_deformation(value)
    if isinstance(value, energy.Density):
        return tracer.traced_density(value)
    if isinstance(value, dict):
        return {k: traced_inputs(v, tracer) for k, v in value.items()}
    return value
