"""Acceptance gate: each test reproduces one headline behavior at its stated
tolerance and prints a pass line for the run log."""

import math
import time

import numpy as np

from cavicore.cavity import (
    BoundaryProximityError,
    cavity_perimeter,
    cavity_volume,
    converged_trace_metrics,
    degree_range_on_grid,
    extrapolate_limit,
    tangential_jacobian,
    trace_on_circle,
    winding_number,
)
from cavicore.deformation import (
    CATALOG_KEYS,
    RadialProfile,
    example_radial,
    identity_deformation,
    make_example,
    radial_deformation,
)
from cavicore.energy import (
    bump,
    default_density,
    extended_det_pairing,
    subquadratic_density,
)
from cavicore.geometry import Domain, FlawConfig, pseudoinverse, tight_confinement
from cavicore.minimize import RadialProblem, gamma_sweep, minimize_radial, \
    radial_reduced_energy
from cavicore.recovery import recovery_energy_table

RADII = [0.2, 0.1, 0.05, 0.025]
SQRT2 = math.sqrt(2.0)


def _report(name, detail):
    print(f"ACCEPTANCE PASS {name}: {detail}")


def _limits(key, b=0.5, n_fixed=None):
    y = make_example(key, b)
    vols, pers = [], []
    for r in RADII:
        if n_fixed:
            c = trace_on_circle(y, (0, 0), r, n_fixed)
            vols.append(cavity_volume(c))
            pers.append(cavity_perimeter(c))
        else:
            m = converged_trace_metrics(y, (0, 0), r)
            vols.append(m.volume)
            pers.append(m.perimeter)
    v0, _ = extrapolate_limit(RADII, vols)
    p0, _ = extrapolate_limit(RADII, pers)
    return v0, p0


def test_criterion_1_radial_limits_and_runtime():
    t0 = time.time()
    v0, p0 = _limits("radial")
    elapsed = time.time() - t0
    assert abs(p0 - 4 * SQRT2 * 0.5) <= 1e-3
    assert abs(v0 - 0.5) <= 1e-4
    assert elapsed < 2.0
    _report("1 radial limits",
            f"perimeter {p0:.6f} (target {2 * SQRT2:.6f}), volume {v0:.6f}, "
            f"{elapsed:.2f}s")


def test_criterion_2_change_of_reference():
    from scipy.integrate import quad

    b = 0.5
    v0, p0 = _limits("change-of-reference", b)
    assert abs(p0 - 2 * math.pi * b) <= 1e-3

    # per-radius split: half-circle of the unstretched side plus twice the
    # stretched-quadrant arc, against the direct trace quadrature
    y = make_example("change-of-reference", b)
    for r in RADII:
        def speed(t):
            m = (1 - b) * r + b / math.sqrt(3 * math.cos(t) ** 2 + 1)
            mp = 3 * b * math.cos(t) * math.sin(t) * (3 * math.cos(t) ** 2 + 1) ** -1.5
            vx = mp * 2 * math.cos(t) - m * 2 * math.sin(t)
            vy = mp * math.sin(t) + m * math.cos(t)
            return math.hypot(vx, vy)

        arc, _ = quad(speed, 0.0, math.pi / 2, epsabs=1e-12, epsrel=1e-12)
        split = math.pi * ((1 - b) * r + b) + 2 * arc
        direct = cavity_perimeter(trace_on_circle(y, (0, 0), r, 2**13))
        assert abs(split - direct) <= 1e-4
    _report("2 change-of-reference", f"perimeter {p0:.6f} (target {math.pi:.6f}), "
            f"per-radius split reproduced")


def test_criterion_3_superposition():
    _, p0 = _limits("superposition")
    assert abs(p0 - 8 / SQRT2) <= 1e-3
    _report("3 superposition", f"perimeter {p0:.6f} (target {8 / SQRT2:.6f})")


def test_criterion_4_spike_violation():
    _, p0 = _limits("spike")
    exact = math.pi
    assert abs(p0 - (math.pi + 1.0)) <= 1e-2
    gap = p0 - exact
    assert abs(gap - 1.0) <= 1e-2
    _report("4 spike", f"extrapolated {p0:.6f} vs reduced-boundary {exact:.6f}, "
            f"gap {gap:.6f}")


def test_criterion_5_degree_properties(rng):
    # winding numbers against a signed crossing count and angle summation,
    # both written here independently of the library
    checked = 0
    for _ in range(100):
        a = rng.normal(scale=0.15, size=(2, 3))
        bb = rng.normal(scale=0.15, size=(2, 3))
        off = rng.normal(scale=0.3, size=2)
        ts = np.arange(512) * (2 * math.pi / 512)
        pts = np.stack([np.cos(ts), np.sin(ts)], -1) + off
        for k in range(3):
            pts[:, 0] += a[0, k] * np.cos((k + 2) * ts) + bb[0, k] * np.sin((k + 2) * ts)
            pts[:, 1] += a[1, k] * np.cos((k + 2) * ts) + bb[1, k] * np.sin((k + 2) * ts)
        dts = np.stack([-np.sin(ts), np.cos(ts)], -1)
        from cavicore.cavity import TraceCurve

        curve = TraceCurve(ts=ts, points=pts, derivs=dts,
                           weights=np.full(512, 2 * math.pi / 512))
        done = 0
        while done < 20:
            xi = rng.uniform(pts.min(0) - 0.3, pts.max(0) + 0.3)
            try:
                w = winding_number(curve, xi)
            except BoundaryProximityError:
                continue
            assert w == _crossing_winding(pts, xi)
            assert w == _angle_winding(pts, xi)
            done += 1
            checked += 1

    # catalog degree ranges on a 200 x 200 grid
    for key in CATALOG_KEYS:
        y = make_example(key, 0.5)
        c = trace_on_circle(y, (0, 0), 0.15, 1024)
        degs = degree_range_on_grid(c, 200, 200)
        assert degs <= {0, 1}, (key, degs)
    _report("5 degree", f"{checked} x 2 oracle comparisons exact; catalog degree "
            "ranges within {0,1} on 200x200 grids")


def _crossing_winding(points, xi):
    w = 0
    n = len(points)
    for i in range(n):
        p = points[i]
        q = points[(i + 1) % n]
        left = (q[0] - p[0]) * (xi[1] - p[1]) - (xi[0] - p[0]) * (q[1] - p[1])
        if p[1] <= xi[1] < q[1] and left > 0:
            w += 1
        elif q[1] <= xi[1] < p[1] and left < 0:
            w -= 1
    return w


def _angle_winding(points, xi):
    """Winding number by angle summation, independent of the crossing count."""
    z = (points[:, 0] - xi[0]) + 1j * (points[:, 1] - xi[1])
    return int(round(float(np.sum(np.angle(np.roll(z, -1) / z))) / (2 * math.pi)))


def test_criterion_6_boundary_integral_reductions(rng):
    # smooth analytic curve with exact derivatives at n = 1024
    from cavicore.cavity import TraceCurve

    worst_v = worst_p = 0.0
    for _ in range(5):
        a = rng.normal(scale=0.12, size=(2, 3))
        bb = rng.normal(scale=0.12, size=(2, 3))
        off = rng.normal(scale=0.2, size=2)

        def fn(ts):
            out = np.stack([np.cos(ts), np.sin(ts)], -1) + off
            for k in range(3):
                out[:, 0] += a[0, k] * np.cos((k + 2) * ts) + bb[0, k] * np.sin((k + 2) * ts)
                out[:, 1] += a[1, k] * np.cos((k + 2) * ts) + bb[1, k] * np.sin((k + 2) * ts)
            return out

        def dfn(ts):
            out = np.stack([-np.sin(ts), np.cos(ts)], -1)
            for k in range(3):
                m = k + 2
                out[:, 0] += m * (-a[0, k] * np.sin(m * ts) + bb[0, k] * np.cos(m * ts))
                out[:, 1] += m * (-a[1, k] * np.sin(m * ts) + bb[1, k] * np.cos(m * ts))
            return out

        ts = np.arange(1024) * (2 * math.pi / 1024)
        curve = TraceCurve(ts=ts, points=fn(ts), derivs=dfn(ts),
                           weights=np.full(1024, 2 * math.pi / 1024))
        dense = fn(np.arange(2**17) * (2 * math.pi / 2**17))
        shoelace = 0.5 * abs(np.sum(dense[:, 0] * np.roll(dense[:, 1], -1)
                                    - np.roll(dense[:, 0], -1) * dense[:, 1]))
        arclen = np.sum(np.linalg.norm(np.roll(dense, -1, axis=0) - dense, axis=1))
        worst_v = max(worst_v, abs(cavity_volume(curve) - shoelace))
        worst_p = max(worst_p, abs(cavity_perimeter(curve) - arclen) / arclen)
    assert worst_v <= 1e-8
    assert worst_p <= 1e-6

    # chart identity eps * J^t = |w'|
    worst_c = 0.0
    for key in ("radial", "change-of-reference", "superposition"):
        y = make_example(key, 0.5)
        c = trace_on_circle(y, (0, 0), 0.13, 64)
        for i in range(0, 64, 5):
            jt = tangential_jacobian(y, (0, 0), 0.13, c.ts[i])
            speed = np.linalg.norm(c.derivs[i])
            worst_c = max(worst_c, abs(0.13 * jt - speed) / speed)
    assert worst_c <= 1e-10
    _report("6 reductions", f"volume err {worst_v:.2e}, perimeter rel err "
            f"{worst_p:.2e}, chart identity rel err {worst_c:.2e}")


def test_criterion_7_distributional_determinant():
    idm = identity_deformation()
    cfg = FlawConfig(points=[[0, 0]], eps=0.3, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    res, = extended_det_pairing(idm, cfg, Domain(q=2, radius=1.0), [bump(2)])
    exact = math.pi * (1 - 0.3**2) ** 3 / 3.0
    assert abs(res.pairing - exact) <= 1e-6

    y = example_radial(0.5)
    cfg2 = FlawConfig(points=[[0, 0]], eps=0.15, max_count=1,
                      confinement=tight_confinement([[0, 0]]))
    worst = 0.0
    for k in (2, 3, 4):
        r = extended_det_pairing(y, cfg2, y.domain, [bump(k, radius=0.7)])[0]
        worst = max(worst, r.residual_rel)
    assert worst <= 1e-4
    _report("7 determinant", f"identity pairing err {abs(res.pairing - exact):.2e}, "
            f"worst restricted residual {worst:.2e}")


def test_criterion_8_pseudoinverse(rng):
    worst1 = worst2 = 0.0
    for _ in range(200):
        shape = (2, 1) if rng.random() < 0.5 else (3, 2)
        while True:
            H = rng.normal(size=shape)
            if np.linalg.matrix_rank(H) == shape[1]:
                break
        P = pseudoinverse(H)
        worst1 = max(worst1, float(np.max(np.abs(P @ H - np.eye(shape[1])))))
        v = rng.normal(size=shape[0])
        proj = _gram_schmidt_projection(H, v)
        worst2 = max(worst2, float(np.max(np.abs(H @ P @ v - proj))))
    assert worst1 <= 1e-12
    assert worst2 <= 1e-10
    _report("8 pseudoinverse", f"left-identity err {worst1:.2e}, "
            f"projection err {worst2:.2e}")


def _gram_schmidt_projection(H, v):
    basis = []
    for j in range(H.shape[1]):
        u = H[:, j].astype(float)
        for b in basis:
            u = u - (u @ b) * b
        basis.append(u / np.linalg.norm(u))
    return sum((v @ b) * b for b in basis)


def test_criterion_9_recovery():
    y = example_radial(0.5)
    table = recovery_energy_table(y, y.singular_points, RADII,
                                  subquadratic_density(1.1), (2.5, 2.5))
    rows = table.rows
    assert rows[-1].rel_gap < 0.02
    for r in rows:
        assert r.trace_identity_rel <= 1e-6
        assert r.energy.total >= table.limit.breakdown.total - 5e-3
    _report("9 recovery", f"finest rel gap {rows[-1].rel_gap:.4f}, worst trace "
            f"mismatch {max(r.trace_identity_rel for r in rows):.2e}, min shadow "
            f"{min(r.shadow_margin for r in rows):+.4f}")


def test_criterion_10_minimization(rng):
    dens = default_density(2.0)

    # no-stretch optimality against the identity profile at every core radius
    for eps in (0.2, 0.1, 0.05):
        prob = RadialProblem(eps=eps, outer_radius=1.0, boundary_value=1.0,
                             density=dens, lambdas=(0.0, 0.0))
        res = minimize_radial(prob)
        ident = RadialProfile(nodes=prob.nodes, values=prob.nodes.copy())
        assert res.energy.total <= radial_reduced_energy(ident, prob).total + 1e-8

    # vanishing-core gap trend for the stretched problem
    template = RadialProblem(eps=0.2, outer_radius=1.0, boundary_value=2.0,
                             density=dens, lambdas=(1.0, 1.0))
    sweep = gamma_sweep([0.2, 0.1, 0.05], template)
    for a, b in zip(sweep.gaps, sweep.gaps[1:]):
        assert b <= a * 1.05 + 1e-9

    # 1-d reduction against the planar quadrature on random profiles
    from cavicore.energy import regularized_energy

    eps, R = 0.3, 1.0
    dom = Domain(q=2, radius=R)
    cfg = FlawConfig(points=[[0, 0]], eps=eps, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    worst = 0.0
    for _ in range(20):
        K = 8
        nodes = np.linspace(eps, R, K + 1)
        vals = rng.uniform(0.1, 0.6) + np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.02, 0.2, K))])
        prob = RadialProblem(eps=eps, outer_radius=R, boundary_value=vals[-1],
                             density=dens, lambdas=(1.0, 1.0), K=K)
        prof = RadialProfile(nodes=nodes, values=vals)
        one_d = radial_reduced_energy(prof, prob).total
        bd, ok = regularized_energy(radial_deformation(prof), cfg, dom, dens,
                                    (1.0, 1.0))
        assert ok
        two_d = bd.total
        worst = max(worst, abs(one_d - two_d) / abs(two_d))
    assert worst <= 1e-4
    _report("10 minimization", f"gaps {tuple(round(g, 4) for g in sweep.gaps)}, "
            f"1d/2d worst rel err {worst:.2e}")
