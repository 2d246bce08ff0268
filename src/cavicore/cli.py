"""Experiment command line: deterministic sweeps, minimization, recovery
tables, and admissibility reports, emitted as CSV/JSON.

Exit codes: 0 success, 1 numerical flag raised (non-convergence or a
perimeter-limit violation; partial outputs are still written), 2 bad
configuration."""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path

from . import __version__
from .cavity import dyadic_ladder
from .deformation import CATALOG_KEYS, make_example
from .energy import (check_admissibility_sampled, density_by_name, flaw_limit,
                     limit_energy)
from .geometry import Confinement, FlawConfig, validate_flaw_config
from .minimize import RadialProblem, gamma_sweep, minimize_radial
from .recovery import recovery_energy_table

EXIT_OK, EXIT_FLAGGED, EXIT_CONFIG = 0, 1, 2
LIMIT_RADII = ",".join(repr(r) for r in dyadic_ladder(0.2))


def _fmt(x):
    """A CSV cell; a non-finite float is an empty cell."""
    if isinstance(x, float):
        return format(x, ".12g") if math.isfinite(x) else ""
    return str(x)


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def write_csv(path: Path, header, rows, cfg: dict):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    buf.write(f"# config={config_hash(cfg)} cavicore={__version__}\n")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(buf.getvalue())


def write_json(path: Path, payload: dict, cfg: dict):
    """Strict JSON: non-finite floats are written as null."""
    # a round trip through json turns every Infinity/-Infinity/NaN into None
    payload = json.loads(json.dumps(payload, default=str), parse_constant=lambda _: None)
    payload["config_hash"] = config_hash(cfg)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _floats(text: str):
    vals = [float(v) for v in text.split(",") if v.strip()]
    if not vals:
        raise ValueError(f"empty list {text!r}")
    return vals


# --------------------------------------------------------------------------
# subcommands


def cmd_example_sweep(args, cfg) -> int:
    y = make_example(args.example, args.b)
    radii = _floats(args.radii)
    fl = flaw_limit(y, (0.0, 0.0), radii, tol=args.trace_tol)

    rows = [[r, m.volume, m.perimeter, m.n_samples]
            for r, m in zip(radii, fl.metrics)]
    rows.append(["limit", fl.volume, fl.perimeter, ""])
    rows.append(["uncertainty", fl.volume_unc, fl.perimeter_unc, ""])
    write_csv(Path(args.output), ["r", "volume", "perimeter", "n_samples"], rows, cfg)

    flagged = False
    for r, m in zip(radii, fl.metrics):
        if not m.converged:
            print(f"flag: trace-not-converged at r {r:g} ({m.n_samples} nodes)")
            flagged = True
    if fl.conv_perimeter_ok is False:
        exact = fl.perimeter_reduced_boundary
        print(f"flag: conv-perimeter violated (extrapolated {fl.perimeter:.6f} vs "
              f"reduced-boundary {exact:.6f}, gap {fl.perimeter - exact:+.6f})")
        flagged = True
    print(f"volume limit {fl.volume:.8f} (+- {fl.volume_unc:.2e}); "
          f"perimeter limit {fl.perimeter:.8f} (+- {fl.perimeter_unc:.2e})")
    print(f"wrote {args.output}")
    return EXIT_FLAGGED if flagged else EXIT_OK


def cmd_limit_energy(args, cfg) -> int:
    y = make_example(args.example, args.b)
    density = density_by_name(args.density, args.p)
    radii = _floats(args.radii)
    rep = limit_energy(y, y.singular_points, y.domain, density,
                       (args.lambda_v, args.lambda_p), radii)
    payload = {
        "elastic": rep.breakdown.elastic,
        "volume_term": rep.breakdown.volume_term,
        "perimeter_term": rep.breakdown.perimeter_term,
        "total": rep.breakdown.total,
        "lambdas": rep.breakdown.lambdas,
        "elastic_converged": rep.elastic_converged,
        "flags": list(rep.flags),
        "flaws": [
            {
                "center": f.center,
                "volume": f.volume, "volume_unc": f.volume_unc,
                "perimeter": f.perimeter, "perimeter_unc": f.perimeter_unc,
                "perimeter_reduced_boundary": f.perimeter_reduced_boundary,
                "conv_perimeter_ok": f.conv_perimeter_ok,
                "has_cavity": f.has_cavity,
            }
            for f in rep.flaws
        ],
    }
    write_json(Path(args.output), payload, cfg)
    print(f"total {rep.breakdown.total:.8f}; wrote {args.output}")
    return EXIT_FLAGGED if rep.flags else EXIT_OK


def _radial_problem(args, eps) -> RadialProblem:
    return RadialProblem(eps=eps, outer_radius=args.outer_radius,
                         boundary_value=args.boundary_value,
                         density=density_by_name(args.density, args.p),
                         lambdas=(args.lambda_v, args.lambda_p), K=args.K)


def cmd_minimize_radial(args, cfg) -> int:
    res = minimize_radial(_radial_problem(args, args.eps), tol=args.tol,
                          max_iter=args.max_iter)
    rows = list(zip(res.profile.nodes, res.profile.values))
    write_csv(Path(args.output), ["node", "value"], rows, cfg)
    print(f"energy {res.energy.total:.10f} (elastic {res.energy.elastic:.10f}); "
          f"cavity radius {res.profile.cavity_radius:.6g}; "
          f"iterations {res.iterations}; status {res.status}")
    print(f"wrote {args.output}")
    return EXIT_OK if res.converged else EXIT_FLAGGED


def cmd_gamma_sweep(args, cfg) -> int:
    eps_list = _floats(args.eps_list)
    sweep = gamma_sweep(eps_list, _radial_problem(args, eps_list[0]),
                        max_iter=args.max_iter)
    rows = [
        [r.eps, r.min_energy.elastic, r.min_energy.volume_term,
         r.min_energy.perimeter_term, r.min_energy.total, r.cavity_radius,
         r.iterations, gap, r.converged]
        for r, gap in zip(sweep.rows, sweep.gaps)
    ]
    write_csv(Path(args.output),
              ["eps", "elastic", "volume_term", "perimeter_term", "total",
               "cavity_radius", "iterations", "gap", "converged"],
              rows, cfg)
    print(f"limit estimate {sweep.limit_estimate:.8f} "
          f"(+- {sweep.limit_uncertainty:.2e}); wrote {args.output}")
    return EXIT_OK if all(r.converged for r in sweep.rows) else EXIT_FLAGGED


def cmd_recovery(args, cfg) -> int:
    y = make_example(args.example, args.b)
    density = density_by_name(args.density, args.p)
    eps_list = _floats(args.eps_list)
    table = recovery_energy_table(y, y.singular_points, eps_list, density,
                                  (args.lambda_v, args.lambda_p))
    rows = [
        [r.eps, r.r, r.energy.total, table.limit.breakdown.total, r.gap,
         r.rel_gap, r.shadow_margin, r.trace_identity_rel, r.annulus_inflation,
         r.elastic_converged]
        for r in table.rows
    ]
    write_csv(Path(args.output),
              ["eps", "r", "energy_total", "limit_total", "gap", "rel_gap",
               "shadow_margin", "trace_identity_rel", "annulus_inflation",
               "elastic_converged"],
              rows, cfg)
    if table.limit.conv_perimeter_violated:
        print("flag: conv-perimeter violated; convergence assertion skipped")
    if table.limit.flags:
        print(f"limit flags: {', '.join(table.limit.flags)}")
    unconverged = [_fmt(r.eps) for r in table.rows if not r.elastic_converged]
    if unconverged:
        print(f"flag: elastic-not-converged at eps {', '.join(unconverged)}")
    print(f"limit total {table.limit.breakdown.total:.8f}; wrote {args.output}")
    # a violated perimeter limit is one of the limit flags
    return EXIT_FLAGGED if table.limit.flags or unconverged else EXIT_OK


def cmd_check(args, cfg) -> int:
    y = make_example(args.example, args.b)
    dom = y.domain
    flaw_pts = y.singular_points
    fc = FlawConfig(points=flaw_pts, eps=args.eps, max_count=len(flaw_pts),
                    confinement=Confinement("disk", (0.0, 0.0), 0.6))
    rep_validity = validate_flaw_config(fc, dom)
    if not rep_validity.ok:
        raise ValueError(str(rep_validity))
    radii = _floats(args.radii) if args.radii else [2.5 * args.eps, 4.0 * args.eps]
    report = check_admissibility_sampled(y, fc, dom, radii, seed=args.seed)
    payload = {
        "ok": report.ok,
        "rows": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                 for r in report.rows],
    }
    write_json(Path(args.output), payload, cfg)
    print(report)
    print(f"wrote {args.output}")
    return EXIT_OK if report.ok else EXIT_FLAGGED


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cavicore",
        description="Core-radius cavitation energies: sweeps, minimization, "
                    "recovery tables, admissibility checks.")
    ap.add_argument("--seed", type=int, default=0, help="RNG seed for sampled checks")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, example=True, density=True, lambdas=True):
        if example:
            p.add_argument("--example", choices=CATALOG_KEYS, required=True)
            p.add_argument("--b", type=float, default=0.5,
                           help="cavity size parameter for the b-examples")
        if density:
            p.add_argument("--density", default="subquadratic",
                           choices=("standard", "subquadratic"))
            p.add_argument("--p", type=float, default=1.1, help="growth exponent")
        if lambdas:
            p.add_argument("--lambda-v", type=float, default=1.0)
            p.add_argument("--lambda-p", type=float, default=1.0)

    p = sub.add_parser("example-sweep", help="per-radius cavity metrics and limits")
    add_common(p, density=False, lambdas=False)
    p.add_argument("--radii", default=LIMIT_RADII)
    p.add_argument("--trace-tol", type=float, default=1e-9)
    p.add_argument("--output", default="example_sweep.csv")
    p.set_defaults(func=cmd_example_sweep)

    p = sub.add_parser("limit-energy", help="vanishing-core energy of an example")
    add_common(p)
    p.add_argument("--radii", default=LIMIT_RADII)
    p.add_argument("--output", default="limit_energy.json")
    p.set_defaults(func=cmd_limit_energy)

    p = sub.add_parser("minimize-radial", help="minimize the radial reduction")
    add_common(p, example=False)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--outer-radius", type=float, default=1.0)
    p.add_argument("--boundary-value", type=float, default=1.0)
    p.add_argument("--K", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--max-iter", type=int, default=100000)
    p.add_argument("--output", default="minimize_radial.csv")
    p.set_defaults(func=cmd_minimize_radial)
    p.set_defaults(density="standard", p=2.0)

    p = sub.add_parser("gamma-sweep", help="vanishing-core minimization sweep")
    add_common(p, example=False)
    p.add_argument("--eps-list", default="0.2,0.1,0.05")
    p.add_argument("--outer-radius", type=float, default=1.0)
    p.add_argument("--boundary-value", type=float, default=1.0)
    p.add_argument("--K", type=int, default=16)
    p.add_argument("--max-iter", type=int, default=20000)
    p.add_argument("--output", default="gamma_sweep.csv")
    p.set_defaults(func=cmd_gamma_sweep)
    p.set_defaults(density="standard", p=2.0)

    p = sub.add_parser("recovery", help="recovery-sequence energy table")
    add_common(p)
    p.add_argument("--eps-list", default="0.2,0.1,0.05,0.025")
    p.add_argument("--output", default="recovery.csv")
    p.set_defaults(func=cmd_recovery)
    p.set_defaults(lambda_v=2.5, lambda_p=2.5)

    p = sub.add_parser("check", help="sampled admissibility report")
    add_common(p, density=False, lambdas=False)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--radii", default="")
    p.add_argument("--output", default="check.json")
    p.set_defaults(func=cmd_check)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else 0
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "output")}
    try:
        return args.func(args, cfg)
    except (ValueError, KeyError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
