import dataclasses
import math

import numpy as np
import pytest

from cavicore.cavity import (
    cavity_perimeter,
    cavity_volume,
    converged_trace_metrics,
    trace_on_circle,
)
from cavicore.deformation import (
    CATALOG_KEYS,
    RadialProfile,
    compose,
    example_radial,
    example_spike,
    identity_deformation,
    make_example,
    radial_deformation,
)
from cavicore.energy import (
    EnergyBreakdown,
    _integrate_perforated,
    _stored_energy,
    _trace_terms,
    subquadratic_density,
)
from cavicore.geometry import Domain, FlawConfig, det2, tight_confinement
from cavicore.recovery import (
    ROW_N_MAX,
    ROW_TOL,
    ProfilePhi,
    _phi_inverse,
    build_phi,
    compose_push,
    default_r_rule,
    recovery_energy_table,
)
from cavicore.seams import Arc

from helpers import finite_difference_grad

DENS = subquadratic_density(1.1)
LAMBDAS = (2.5, 2.5)


# --------------------------------------------------------------------------
# the radial reparametrization


def test_phi_identity_when_target_equals_eps():
    phi = build_phi(0.1, 0.1, 3)
    t = np.linspace(0.0, 0.5, 4001)
    val, slope = phi.values(t)
    assert np.max(np.abs(val - t)) <= 1e-12
    assert np.max(np.abs(slope - 1.0)) <= 1e-12


def test_phi_interpolation_and_tail():
    eps, r, n = 0.1, 0.1005, 10
    phi = build_phi(eps, r, n)
    assert float(phi.values(eps)[0]) == pytest.approx(r, abs=1e-15)
    assert float(phi.values(0.0)[0]) == 0.0
    t = np.linspace(2 * eps, 1.0, 1001)
    assert np.max(np.abs(phi.values(t)[0] - t)) <= 1e-15


def test_phi_uniform_bounds_on_grid():
    eps, n = 0.1, 10
    r = default_r_rule(eps, n)
    phi = build_phi(eps, r, n)
    t = np.linspace(1e-9, 3 * eps, 10_000)
    val, slope = phi.values(t)
    assert np.max(np.abs(val / t - 1.0) + np.abs(slope - 1.0)) <= 1.0 / n
    assert np.all(np.diff(val) > 0)


def test_phi_rejects_far_target():
    with pytest.raises(ValueError):
        build_phi(0.1, 0.2, 5)


@pytest.mark.parametrize("eps,n", [(0.2, 1), (0.05, 3), (0.1, 10)])
def test_phi_inverse_matches_brentq(eps, n):
    from scipy.optimize import brentq

    phi = build_phi(eps, default_r_rule(eps, n), n)
    top = float(phi.bounds[-1])
    for s in np.linspace(0.0, top, 25)[1:-1]:
        want = brentq(lambda t: float(phi.values(t)[0]) - s, 0.0, top,
                      xtol=1e-15)
        assert _phi_inverse(phi, s) == pytest.approx(want, abs=1e-12)
    assert _phi_inverse(phi, 1.5 * top) == 1.5 * top


@pytest.mark.parametrize("n", [1, 2, 10])
def test_phi_inverse_takes_at_most_eight_evaluations(n, monkeypatch):
    # each Newton step is one (phi, phi') lookup, so four lookups are eight
    # evaluations
    calls = []
    orig = ProfilePhi.values
    monkeypatch.setattr(ProfilePhi, "values",
                        lambda self, t: calls.append(t) or orig(self, t))
    eps = 0.1
    # the default target and both ends of the admissible range
    for r in (default_r_rule(eps, n), eps * (1 + 0.25 / n), eps * (1 - 0.25 / n)):
        phi = build_phi(eps, r, n)
        knots = phi.starts[1:-1]
        for s in np.concatenate([np.linspace(0.0, phi.bounds[-1], 200)[1:-1],
                                 knots, np.nextafter(knots, 0.0)]):
            calls.clear()
            t = _phi_inverse(phi, float(s))
            assert len(calls) <= 4
            assert float(phi.values(t)[0]) == pytest.approx(s, rel=1e-14)


def test_breaks_through_push_leaves_scipy_unloaded():
    import os
    import subprocess
    import sys

    import cavicore

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cavicore.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # on this ray the spike's break lies below the push's top, so it is pulled
    # back through the push profile
    code = (
        "import math, sys\n"
        "import numpy as np\n"
        "from cavicore.seams import ray_breaks\n"
        "from cavicore.deformation import example_spike\n"
        "from cavicore.recovery import build_phi, compose_push\n"
        "phi = build_phi(0.2, 0.2, 1)\n"
        "ytil = compose_push(example_spike(), phi, [[0.0, 0.0]])\n"
        "b = ray_breaks(ytil.seams, (0.0, 0.0), np.array([math.pi / 2 - 0.1]))[0]\n"
        "b = [v for v in b if np.isfinite(v) and v not in phi.zone_radii()]\n"
        "assert len(b) == 1 and 0 < b[0] < phi.bounds[-1]\n"
        "assert 'scipy' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# --------------------------------------------------------------------------
# the radial push


def _push(eps=0.1, n=2):
    phi = build_phi(eps, default_r_rule(eps, n), n)
    disk = identity_deformation(Domain(q=2, radius=1.0))
    return phi, compose_push(disk, phi, [[0.0, 0.0]])


def test_push_keeps_clear_seams_and_rejects_crossed_ones():
    # a seam about a point other than the flaw is kept when it clears the
    # push ball B(a, 2 eps); one that meets it would be distorted by the
    # push, and compose_push names it instead of declaring it wrongly
    from cavicore.deformation import RadialProfile, radial_deformation

    phi = build_phi(0.1, default_r_rule(0.1, 1), 1)
    y = radial_deformation(RadialProfile([0.0, 0.2, 1.5], [0.1, 0.5, 1.6]),
                           center=(0.4, 0.0))
    far = compose_push(y, phi, [[-0.4, 0.0]])
    assert far.seams[-1] == y.seams[0]
    with pytest.raises(ValueError, match="seam Arc"):
        compose_push(y, phi, [[0.1, 0.0]])


def test_push_identity_profile_is_identity(rng):
    phi = build_phi(0.1, 0.1, 4)
    f = compose_push(identity_deformation(), phi, [[0.0, 0.0]])
    pts = rng.uniform(-0.5, 0.5, (200, 2))
    assert np.allclose(f(pts), pts, atol=1e-12)


def test_push_fixes_flaw_and_maps_sphere():
    phi, f = _push(eps=0.1, n=2)
    assert np.allclose(f(np.array([0.0, 0.0])), [0.0, 0.0], atol=0)
    t = np.linspace(0, 2 * math.pi, 64)
    circle = 0.1 * np.stack([np.cos(t), np.sin(t)], -1)
    image = f(circle)
    assert np.allclose(np.linalg.norm(image, axis=1), phi.r_n, atol=1e-14)
    # identity outside the double ball
    far = 0.35 * np.stack([np.cos(t), np.sin(t)], -1)
    assert np.allclose(f(far), far, atol=0)


def test_push_gradient_formula_vs_fd(rng):
    phi, f = _push(eps=0.1, n=3)
    pts = rng.uniform(-0.25, 0.25, (100, 2))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.02]
    G = f.grad(pts)
    F = finite_difference_grad(f.eval, pts, h=1e-6)
    assert np.max(np.abs(G - F)) <= 1e-8
    # determinant at the sphere radius equals (r/eps) * phi'(eps)
    x = np.array([0.1, 0.0])
    d = det2(f.grad(x))
    expect = (phi.r_n / 0.1) * float(phi.values(0.1)[1])
    assert d == pytest.approx(expect, rel=1e-12)
    assert np.all(det2(G) > 0)


def test_push_lipschitz_distance_bound(rng):
    for n in (1, 2, 5, 10):
        eps = 0.1
        phi, f = _push(eps=eps, n=n)
        pts = rng.uniform(-0.4, 0.4, (4000, 2))
        pts = pts[np.linalg.norm(pts, axis=1) > 1e-3]
        sup_val = np.max(np.linalg.norm(f(pts) - pts, axis=1))
        sup_grad = np.max(np.sqrt(np.sum(
            (f.grad(pts) - np.eye(2)) ** 2, axis=(-2, -1))))
        bound = (2 * (eps + 1) + math.sqrt(2.0)) / n
        assert sup_val + sup_grad <= bound


def test_push_rejects_overlap_and_boundary():
    phi = build_phi(0.1, 0.1005, 5)
    with pytest.raises(ValueError):
        compose_push(identity_deformation(), phi, [[0.0, 0.0], [0.3, 0.0]])
    with pytest.raises(ValueError):
        compose_push(identity_deformation(Domain(q=2, radius=1.0)), phi, [[0.85, 0.0]])


@pytest.mark.parametrize("pts", [[[-0.25, 0.0], [0.25, 0.0]], [[0.75, 0.0]]],
                         ids=["4-eps-apart", "2-eps-from-the-boundary"])
def test_push_rejects_tangent_balls(pts):
    # the bulk outside the push balls needs room beyond 2 eps about each
    # flaw; eps = 1/8 makes the tangency exact in floating point
    phi = build_phi(0.125, default_r_rule(0.125, 1), 1)
    y = identity_deformation(Domain(q=2, radius=1.0))
    with pytest.raises(ValueError):
        compose_push(y, phi, pts)
    with pytest.raises(ValueError):
        recovery_energy_table(y, pts, [0.125], DENS, LAMBDAS)


def test_composition_chain_rule(rng):
    y = example_radial(0.5)
    phi, _ = _push(eps=0.1, n=2)
    comp = compose_push(y, phi, y.singular_points)
    pts = rng.uniform(-0.4, 0.4, (300, 2))
    keep = (np.linalg.norm(pts, axis=1) > 0.03) & (np.min(np.abs(pts), axis=1) > 1e-3)
    # stay away from the push's radial junctions where curvature jumps
    radii = np.linalg.norm(pts, axis=1)
    for z in phi.zone_radii():
        keep &= np.abs(radii - z) > 1e-3
    pts = pts[keep]
    G = comp.grad(pts)
    F = finite_difference_grad(comp.eval, pts, h=1e-5)
    scale = np.maximum(np.abs(G).max(axis=(-2, -1)), 1.0)
    assert np.max(np.abs(G - F).max(axis=(-2, -1)) / scale) <= 1e-6


# --------------------------------------------------------------------------
# recovery table


@pytest.fixture(scope="module")
def radial_table():
    y = example_radial(0.5)
    return recovery_energy_table(y, y.singular_points, [0.2, 0.1, 0.05, 0.025],
                                 DENS, LAMBDAS)


def test_recovery_gap_shrinks(radial_table):
    gaps = [r.rel_gap for r in radial_table.rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.02


def test_recovery_trace_identity(radial_table):
    for r in radial_table.rows:
        assert r.trace_identity_rel <= 1e-6


def test_recovery_lower_bound_shadow(radial_table):
    for r in radial_table.rows:
        assert r.energy.total >= radial_table.limit.breakdown.total - 5e-3


def test_recovery_inflation_vanishes(radial_table):
    infl = [r.annulus_inflation for r in radial_table.rows]
    assert all(b <= a * 1.10 for a, b in zip(infl, infl[1:]))
    assert infl[-1] < infl[0]


def test_recovery_rows_meet_row_tol(radial_table):
    # reference: Richardson extrapolation of two fine passes whose rays are
    # split at the push junctions through circle seams passed to the
    # quadrature, independent of the seams that compose_push declares
    y = example_radial(0.5)
    for n, row in enumerate(radial_table.rows, start=1):
        phi = build_phi(row.eps, row.r, n)
        ytil = compose(y, compose_push(identity_deformation(y.domain), phi,
                                       y.singular_points))  # no declared breaks
        cfg = FlawConfig(points=y.singular_points, eps=row.eps, max_count=1,
                         confinement=tight_confinement(y.singular_points))
        dom = Domain(q=y.domain.q, radius=y.domain.radius, flaws=cfg)
        zones = tuple(Arc((0.0, 0.0), z) for z in phi.zone_radii())
        coarse, fine = (
            _integrate_perforated(lambda X: DENS.w(ytil.grad(X)), dom, cfg, ytil,
                                  n=n, seams=zones)[0]
            for n in (1024, 2048))
        ref = fine + (fine - coarse) / 3.0
        assert row.elastic_converged
        assert abs(row.energy.elastic - ref) <= 1e-5 * abs(ref)


def test_recovery_two_flaws_match_single_flaws():
    # the identity on the unit disk: the push annuli are disjoint, so the
    # two-flaw elastic term plus one W(I) |disk| is the sum of the single-flaw
    # terms, and so is the inflation
    y = identity_deformation(Domain(q=2, radius=1.0))
    dens = subquadratic_density(1.5)
    eps = [0.1, 0.05, 0.025]
    flaws = ([-0.4, 0.0], [0.4, 0.0])
    two = recovery_energy_table(y, flaws, eps, dens, (1.0, 1.0))
    one = [recovery_energy_table(y, [a], eps, dens, (1.0, 1.0)) for a in flaws]
    w_id = float(dens.w(np.eye(2)))
    for i, row in enumerate(two.rows):
        single = [t.rows[i] for t in one]
        assert row.elastic_converged and all(r.elastic_converged for r in single)
        want = sum(r.energy.elastic for r in single)
        assert row.energy.elastic + w_id * math.pi == pytest.approx(want, rel=2e-5)
        assert row.annulus_inflation == pytest.approx(
            sum(r.annulus_inflation for r in single), rel=1e-12)


def test_recovery_trace_identity_is_parametric():
    # the pushed trace at eps and the original at r are the same curve
    y = example_radial(0.5)
    eps = 0.1
    phi = build_phi(eps, default_r_rule(eps, 1), 1)
    ytil = compose_push(y, phi, y.singular_points)
    ca = trace_on_circle(ytil, (0, 0), eps, 512)
    cb = trace_on_circle(y, (0, 0), phi.r_n, 512)
    assert np.allclose(ca.points, cb.points, atol=1e-14)
    assert np.allclose(ca.derivs, cb.derivs, atol=1e-12)
    assert cavity_volume(ca) == pytest.approx(cavity_volume(cb), rel=1e-12)
    assert cavity_perimeter(ca) == pytest.approx(cavity_perimeter(cb), rel=1e-12)


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_recovery_sweeps_are_declared(key):
    # the pushed trace on S(a, eps) is y's trace on S(a, r_n) at the same
    # angles, so the pushed map's kinks let its sweep converge as y's does
    y = make_example(key, 0.5)
    a = y.singular_points[0]
    for n, eps in enumerate([0.2, 0.1, 0.05, 0.025], start=1):
        phi = build_phi(eps, default_r_rule(eps, n), n)
        m = converged_trace_metrics(compose_push(y, phi, y.singular_points), a, eps)
        want = converged_trace_metrics(y, a, phi.r_n)
        assert m.converged and m.n_samples < 512, (key, eps, m.n_samples)
        assert m.volume == pytest.approx(want.volume, rel=1e-14, abs=0)
        assert m.perimeter == pytest.approx(want.perimeter, rel=1e-14, abs=0)


def test_recovery_row_flags_an_unconverged_trace(monkeypatch):
    import dataclasses

    import cavicore.energy as energy

    real = energy.converged_trace_metrics
    monkeypatch.setattr(energy, "converged_trace_metrics", lambda *a, **k: dataclasses.replace(
        real(*a, **k), converged=False))
    y = example_radial(0.5)
    table = recovery_energy_table(y, y.singular_points, [0.2], DENS, LAMBDAS)
    assert not table.rows[0].elastic_converged


def test_recovery_spike_flagged_but_produced():
    y = example_spike()
    table = recovery_energy_table(y, y.singular_points, [0.2, 0.1, 0.05],
                                  DENS, LAMBDAS)
    assert "conv-perimeter-violated" in table.limit.flags
    assert len(table.rows) == 3
    f = table.limit.flaws[0]
    assert f.perimeter == pytest.approx(math.pi + 1.0, abs=2e-2)
    assert f.perimeter_reduced_boundary == pytest.approx(math.pi, abs=0)


def _pushed_regularized_energy(y, pts, n, eps, dens, lambdas):
    # the row's map and flaw set, integrated over all of the perforated domain
    # at the row tolerance
    phi = build_phi(eps, default_r_rule(eps, n), n)
    cfg = FlawConfig(points=pts, eps=eps, max_count=len(pts),
                     confinement=tight_confinement(pts))
    ytil = compose_push(y, phi, pts)
    vol, per, ok = _trace_terms(ytil, cfg, y.domain)
    el, el_ok = _stored_energy(ytil, dens, y.domain, cfg, tol=ROW_TOL, n_max=ROW_N_MAX)
    return EnergyBreakdown.assemble(el, vol, per, lambdas), el_ok and ok


def _off_centre_radial():
    prof = RadialProfile([0.0, 0.2, 1.5], [0.1, 0.5, 1.6])
    return dataclasses.replace(radial_deformation(prof, center=(0.3, 0.0)),
                               domain=Domain(q=2, radius=1.0))


ROW_CASES = {
    "radial": (lambda: example_radial(0.5), None, [0.2, 0.1, 0.05, 0.025], DENS),
    "two-flaw-identity": (lambda: identity_deformation(Domain(q=2, radius=1.0)),
                          [[-0.4, 0.0], [0.4, 0.0]], [0.1, 0.05, 0.025],
                          subquadratic_density(1.5)),
    "off-centre-radial": (_off_centre_radial, None, [0.1, 0.05], DENS),
}


@pytest.mark.parametrize("case", ROW_CASES)
def test_recovery_row_is_the_pushed_regularized_energy(case):
    # a row integrates y outside the push balls and the pushed map inside
    # them; the whole pushed map over the perforated domain gives the same
    # elastic term at the row tolerance, and the same traces bit for bit
    make, pts, eps_list, dens = ROW_CASES[case]
    y = make()
    pts = np.atleast_2d(y.singular_points if pts is None else pts)
    table = recovery_energy_table(y, pts, eps_list, dens, LAMBDAS)
    for n, row in enumerate(table.rows, start=1):
        bd, ok = _pushed_regularized_energy(y, pts, n, row.eps, dens, LAMBDAS)
        assert row.elastic_converged and ok
        assert row.energy.elastic == pytest.approx(bd.elastic, rel=2 * ROW_TOL)
        assert row.energy.volume_term == bd.volume_term
        assert row.energy.perimeter_term == bd.perimeter_term


def test_recovery_row_near_tangent_push_balls():
    # flaws 4.2 eps apart leave the bulk outside the push balls a flaw patch
    # only 0.09 eps wider than its 2 eps hole
    y = identity_deformation(Domain(q=2, radius=1.0))
    dens = subquadratic_density(1.5)
    pts = np.array([[-0.21, 0.0], [0.21, 0.0]])
    row = recovery_energy_table(y, pts, [0.1], dens, LAMBDAS).rows[0]
    bd, ok = _pushed_regularized_energy(y, pts, 1, 0.1, dens, LAMBDAS)
    assert row.elastic_converged and ok
    assert row.energy.elastic == pytest.approx(bd.elastic, rel=2e-5)


def test_recovery_rows_evaluate_the_pushed_map_only_in_its_push_balls(monkeypatch):
    import cavicore.recovery as recovery

    seen = []
    real = recovery.compose_push

    def spying_push(y, phi, points):
        ytil = real(y, phi, points)

        def grad(x):
            seen.append((phi.eps_n, np.array(x, dtype=float).reshape(-1, 2)))
            return ytil.grad(x)

        return dataclasses.replace(ytil, grad=grad)

    monkeypatch.setattr(recovery, "compose_push", spying_push)
    pts = np.array([[-0.4, 0.0], [0.4, 0.0]])
    recovery_energy_table(identity_deformation(Domain(q=2, radius=1.0)), pts,
                          [0.1, 0.05], DENS, LAMBDAS)
    assert {eps for eps, _ in seen} == {0.1, 0.05}
    for eps, x in seen:
        dist = np.min(np.linalg.norm(x[:, None, :] - pts, axis=-1), axis=1)
        assert np.all(dist <= 2.0 * eps * (1.0 + 1e-12)), (eps, dist.max())
