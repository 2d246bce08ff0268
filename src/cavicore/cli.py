"""Experiment command line: deterministic sweeps, minimization, recovery
tables, and admissibility reports, emitted as CSV/JSON.

Each subcommand prints its results' flags as `flag: <text>`: the library's
own (a missed tolerance, a perimeter-limit violation), an unconverged solve
or recovery row, or a failed admissibility row. Exit codes: 0 no flag, 1 at
least one (partial outputs are still written), 2 bad configuration."""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .cavity import dyadic_ladder
from .deformation import CATALOG_KEYS, make_example
from .energy import (DENSITY_FACTORIES, check_admissibility_sampled, density_by_name,
                     flaw_limit, limit_energy)
from .geometry import FlawConfig, validate_flaw_config
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


def _report(flags, *lines) -> int:
    """Print each flag as `flag: <text>`, then `lines`; exit 1 if any flag."""
    print(*(f"flag: {f}" for f in flags), *lines, sep="\n")
    return EXIT_FLAGGED if flags else EXIT_OK


def cmd_example_sweep(args, cfg) -> int:
    y = make_example(args.example, args.b)
    radii = _floats(args.radii)
    fl = flaw_limit(y, (0.0, 0.0), radii, tol=args.trace_tol)

    rows = [[r, m.volume, m.perimeter, m.n_samples]
            for r, m in zip(radii, fl.metrics)]
    rows.append(["limit", fl.volume, fl.perimeter, ""])
    rows.append(["uncertainty", fl.volume_unc, fl.perimeter_unc, ""])
    write_csv(Path(args.output), ["r", "volume", "perimeter", "n_samples"], rows, cfg)

    exact = fl.perimeter_reduced_boundary
    gap = () if exact is None else (f"reduced-boundary perimeter {exact:.8f}, "
                                    f"gap {fl.perimeter - exact:+.6f}",)
    return _report(fl.flags, f"volume limit {fl.volume:.8f} (+- {fl.volume_unc:.2e}); "
                   f"perimeter limit {fl.perimeter:.8f} (+- {fl.perimeter_unc:.2e})",
                   *gap, f"wrote {args.output}")


def cmd_limit_energy(args, cfg) -> int:
    y = make_example(args.example, args.b)
    rep = limit_energy(y, y.singular_points, y.domain,
                       density_by_name(args.density, args.p),
                       (args.lambda_v, args.lambda_p), _floats(args.radii))
    payload = asdict(rep)
    payload.update(payload.pop("breakdown"))
    for flaw in payload["flaws"]:
        del flaw["metrics"], flaw["flags"]
    write_json(Path(args.output), payload, cfg)
    return _report(rep.flags, f"total {rep.breakdown.total:.8f}; wrote {args.output}")


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
    return _report([] if res.converged else [f"minimize-not-converged ({res.status})"],
                   f"energy {res.energy.total:.10f} (elastic {res.energy.elastic:.10f}); "
                   f"cavity radius {res.profile.cavity_radius:.6g}; "
                   f"iterations {res.iterations}; status {res.status}",
                   f"wrote {args.output}")


def cmd_gamma_sweep(args, cfg) -> int:
    eps_list = _floats(args.eps_list)
    sweep = gamma_sweep(eps_list, _radial_problem(args, eps_list[0]),
                        max_iter=args.max_iter)
    rows = [[r.eps, r.min_energy.elastic, r.min_energy.volume_term,
             r.min_energy.perimeter_term, r.min_energy.total, r.cavity_radius,
             r.iterations, gap, r.converged] for r, gap in zip(sweep.rows, sweep.gaps)]
    write_csv(Path(args.output), ["eps", "elastic", "volume_term", "perimeter_term",
                                  "total", "cavity_radius", "iterations", "gap",
                                  "converged"], rows, cfg)
    return _report([f"minimize-not-converged at eps {_fmt(r.eps)}"
                    for r in sweep.rows if not r.converged],
                   f"limit estimate {sweep.limit_estimate:.8f} "
                   f"(+- {sweep.limit_uncertainty:.2e}); wrote {args.output}")


def cmd_recovery(args, cfg) -> int:
    y = make_example(args.example, args.b)
    table = recovery_energy_table(y, y.singular_points, _floats(args.eps_list),
                                  density_by_name(args.density, args.p),
                                  (args.lambda_v, args.lambda_p))
    rows = [[r.eps, r.r, r.energy.total, table.limit.breakdown.total, r.gap,
             r.rel_gap, r.shadow_margin, r.trace_identity_rel, r.annulus_inflation,
             r.elastic_converged] for r in table.rows]
    write_csv(Path(args.output), ["eps", "r", "energy_total", "limit_total", "gap",
                                  "rel_gap", "shadow_margin", "trace_identity_rel",
                                  "annulus_inflation", "elastic_converged"], rows, cfg)
    flags = list(table.limit.flags) + [f"elastic-not-converged at eps {_fmt(r.eps)}"
                                       for r in table.rows if not r.elastic_converged]
    return _report(flags, f"limit total {table.limit.breakdown.total:.8f}; "
                          f"wrote {args.output}")


def cmd_check(args, cfg) -> int:
    y = make_example(args.example, args.b)
    fc = FlawConfig(points=y.singular_points, eps=args.eps,
                    max_count=len(y.singular_points))
    validity = validate_flaw_config(fc, y.domain)
    if not validity.ok:
        raise ValueError(str(validity))
    radii = _floats(args.radii) if args.radii else [2.5 * args.eps, 4.0 * args.eps]
    report = check_admissibility_sampled(y, fc, y.domain, radii, seed=args.seed)
    write_json(Path(args.output), asdict(report), cfg)
    return _report([r.name for r in report.rows if not r.passed],
                   report, f"wrote {args.output}")


# --------------------------------------------------------------------------
# parser


def _example_options(p):
    p.add_argument("--example", choices=CATALOG_KEYS, required=True)
    p.add_argument("--b", type=float, default=0.5,
                   help="cavity size parameter for the b-examples")


def _density_options(p, density, growth, lam):
    p.add_argument("--density", default=density, choices=tuple(DENSITY_FACTORIES))
    p.add_argument("--p", type=float, default=growth, help="growth exponent")
    p.add_argument("--lambda-v", type=float, default=lam)
    p.add_argument("--lambda-p", type=float, default=lam)


def _radial_options(p, max_iter):
    _density_options(p, "standard", 2.0, 1.0)
    p.add_argument("--outer-radius", type=float, default=1.0)
    p.add_argument("--boundary-value", type=float, default=1.0)
    p.add_argument("--K", type=int, default=16)
    p.add_argument("--max-iter", type=int, default=max_iter)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cavicore",
        description="Core-radius cavitation energies: sweeps, minimization, "
                    "recovery tables, admissibility checks.")
    ap.add_argument("--seed", type=int, default=0, help="RNG seed for sampled checks")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, output, about):
        p = sub.add_parser(name, help=about)
        p.add_argument("--output", default=output)
        p.set_defaults(func=func)
        return p

    p = command("example-sweep", cmd_example_sweep, "example_sweep.csv",
                "per-radius cavity metrics and limits")
    _example_options(p)
    p.add_argument("--radii", default=LIMIT_RADII)
    p.add_argument("--trace-tol", type=float, default=1e-9)

    p = command("limit-energy", cmd_limit_energy, "limit_energy.json",
                "vanishing-core energy of an example")
    _example_options(p)
    _density_options(p, "subquadratic", 1.1, 1.0)
    p.add_argument("--radii", default=LIMIT_RADII)

    p = command("minimize-radial", cmd_minimize_radial, "minimize_radial.csv",
                "minimize the radial reduction")
    _radial_options(p, max_iter=100000)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-7)

    p = command("gamma-sweep", cmd_gamma_sweep, "gamma_sweep.csv",
                "vanishing-core minimization sweep")
    _radial_options(p, max_iter=20000)
    p.add_argument("--eps-list", default="0.2,0.1,0.05")

    p = command("recovery", cmd_recovery, "recovery.csv", "recovery-sequence energy table")
    _example_options(p)
    _density_options(p, "subquadratic", 1.1, 2.5)
    p.add_argument("--eps-list", default="0.2,0.1,0.05,0.025")

    p = command("check", cmd_check, "check.json", "sampled admissibility report")
    _example_options(p)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--radii", default="")
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
