import dataclasses
import math

import numpy as np
import pytest

import cavicore.seams
from cavicore.deformation import (
    CATALOG_KEYS,
    EvaluationDomainError,
    RadialProfile,
    NonmonotoneProfileError,
    change_of_reference_parts,
    compose,
    example_change_of_reference,
    example_radial,
    example_spike,
    example_superposition,
    identity_deformation,
    make_example,
    radial_deformation,
)
from cavicore.geometry import det2, qnorm
from cavicore.recovery import build_phi, compose_push, default_r_rule
from cavicore.seams import Arc, Spoke, circle_kinks, pass_kinks, ray_breaks

from helpers import affine_deformation, finite_difference_grad

SQRT3 = math.sqrt(3.0)


def _sample_domain(y, rng, n, min_center_dist=5e-2, seam_clear=1e-3):
    """Random regular points of the example's domain, away from the singular
    point and from branch seams."""
    dom = y.domain
    pts = np.empty((0, 2))
    while len(pts) < n:
        cand = rng.uniform(-dom.radius, dom.radius, size=(4 * n, 2))
        keep = dom.contains(cand) & (qnorm(cand, 2) > min_center_dist)
        cand = cand[keep]
        cand = cand[_away_from_seams(y, cand, seam_clear)]
        pts = np.vstack([pts, cand])
    return pts[:n]


def _away_from_seams(y, pts, clear):
    keep = np.ones(len(pts), dtype=bool)
    name = y.name
    if name == "radial":
        keep &= np.min(np.abs(pts), axis=1) > clear
    elif name == "change-of-reference":
        keep &= np.abs(pts[:, 0]) > clear
        keep &= np.abs(qnorm(pts, 2) - 1.0) > clear  # image-side circle seam safe too
    elif name == "superposition":
        keep &= np.min(np.abs(pts), axis=1) > clear
        keep &= np.abs(np.abs(pts[:, 0]) - np.abs(pts[:, 1])) > clear
        z = y.eval(pts)
        keep &= np.min(np.abs(np.abs(z) - 0.5), axis=1) > clear
    elif name == "spike":
        n2 = qnorm(pts, 2)
        z2 = 0.5 * (n2 + 1.0)
        zz = z2[:, None] * pts / n2[:, None]
        wedge_gap = zz[:, 1] - ((SQRT3 - 1) * np.abs(zz[:, 0]) + 0.5)
        keep &= np.abs(wedge_gap) > clear
        keep &= np.abs(pts[:, 0]) > clear  # collapsed ray
    return keep


def test_example_radial_values():
    y = example_radial(0.5)
    assert np.allclose(y(np.array([0.5, 0.0])), [0.75, 0.0], atol=1e-15)
    assert np.allclose(y(np.array([1.0, 0.0])), [1.0, 0.0], atol=1e-15)
    assert np.allclose(y(np.array([0.25, 0.25])), [0.375, 0.375], atol=1e-15)


def test_example_radial_rejects_bad_b():
    for b in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(ValueError):
            example_radial(b)


def test_example_change_of_reference_values():
    y = example_change_of_reference(0.5)
    assert np.allclose(y(np.array([-0.5, 0.0])), [-0.75, 0.0], atol=1e-15)
    assert np.allclose(y(np.array([0.5, 0.0])), [1.0, 0.0], atol=1e-15)
    assert np.allclose(y(np.array([0.0, -0.5])), [0.0, -0.75], atol=1e-15)


def test_example_superposition_values():
    y = example_superposition()
    assert np.allclose(y(np.array([0.5, 0.0])), [1.0, 0.0], atol=1e-15)
    assert np.allclose(y(np.array([0.9, 0.9])), [0.95, 0.95], atol=1e-15)
    # the outer boundary diagonal is fixed
    assert np.allclose(y(np.array([1.0, 1.0])), [1.0, 1.0], atol=1e-15)


def test_example_spike_values():
    y = example_spike()
    assert np.allclose(y(np.array([0.5, 0.0])), [0.75, 0.0], atol=1e-15)
    for r in (0.01, 0.1, 0.3):
        assert np.allclose(y(np.array([0.0, r])), [0.0, 1.0], atol=1e-14)
    assert np.allclose(y(np.array([0.0, -0.5])), [0.0, -0.75], atol=1e-15)


def test_spike_continuity_across_wedge_boundary():
    y = example_spike()
    # points straddling the wedge boundary z2 = (sqrt3-1)|z1| + 1/2 in the
    # image annulus, pulled back to the reference ball
    for s in np.linspace(0.02, 0.45, 12):
        z2 = (SQRT3 - 1) * s + 0.5
        R = math.hypot(s, z2)
        rho = 2 * R - 1  # reference radius mapping to |z| = R
        if not 0.0 < rho < 1.0:
            continue
        direction = np.array([s, z2]) / R
        for side in (-1e-9, 1e-9):
            pass
        lo = y((rho - 1e-9) * direction)
        hi = y((rho + 1e-9) * direction)
        assert np.linalg.norm(hi - lo) <= 1e-7


def test_branch_seam_continuity():
    # value jump across every printed branch seam is at numerical zero
    rng = np.random.default_rng(3)
    y2 = example_change_of_reference(0.5)
    for x2 in rng.uniform(-0.9, 0.9, 20):
        lo = y2(np.array([-1e-12, x2]))
        hi = y2(np.array([+1e-12, x2]))
        assert np.linalg.norm(hi - lo) <= 1e-9
    y3 = example_superposition()
    for x1 in rng.uniform(0.05, 0.95, 20):
        lo = y3(np.array([x1, x1 - 1e-12]))
        hi = y3(np.array([x1, x1 + 1e-12]))
        assert np.linalg.norm(hi - lo) <= 1e-9


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_gradient_matches_finite_differences(key, rng):
    y = make_example(key, 0.5)
    pts = _sample_domain(y, rng, 200)
    G = y.grad(pts)
    F = finite_difference_grad(y.eval, pts, h=1e-5)
    scale = np.maximum(np.abs(G).max(axis=(-2, -1)), 1.0)
    err = np.abs(G - F).max(axis=(-2, -1)) / scale
    assert np.max(err) <= 1e-6


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_orientation_preserved(key, rng):
    y = make_example(key, 0.5)
    pts = _sample_domain(y, rng, 10_000)
    dets = det2(y.grad(pts))
    if key == "spike":
        assert np.all(dets >= 0)
        assert np.mean(dets > 0) > 0.999
    else:
        assert np.all(dets > 0)


def test_boundary_identity():
    # fixed outer boundaries: the 1-norm example everywhere, the superposition
    # example everywhere, the stretched example on its unstretched part
    t = np.linspace(0, 2 * math.pi, 257)[:-1]
    y1 = example_radial(0.5)
    k1 = np.abs(np.cos(t)) + np.abs(np.sin(t))
    b1 = np.stack([np.cos(t), np.sin(t)], -1) / k1[:, None]
    assert np.allclose(y1(b1), b1, atol=1e-14)

    y3 = example_superposition()
    kinf = np.maximum(np.abs(np.cos(t)), np.abs(np.sin(t)))
    b3 = np.stack([np.cos(t), np.sin(t)], -1) / kinf[:, None]
    assert np.allclose(y3(b3), b3, atol=1e-14)

    y2 = example_change_of_reference(0.5)
    left = b3[b3[:, 0] <= -1e-9]
    assert np.allclose(y2(left), left, atol=1e-14)


# --------------------------------------------------------------------------
# radial profiles


def test_radial_profile_validation():
    with pytest.raises(NonmonotoneProfileError):
        RadialProfile(nodes=[0.1, 0.5, 1.0], values=[0.5, 0.4, 1.0])
    with pytest.raises(ValueError):
        RadialProfile(nodes=[0.1, 0.1, 1.0], values=[0.1, 0.5, 1.0])


def test_radial_deformation_identity():
    prof = RadialProfile(nodes=np.linspace(0.1, 1.0, 10),
                         values=np.linspace(0.1, 1.0, 10))
    y = radial_deformation(prof)
    pts = np.array([[0.3, 0.2], [0.5, -0.4], [-0.7, 0.1]])
    assert np.allclose(y(pts), pts, atol=1e-14)
    assert np.allclose(y.grad(pts), np.eye(2), atol=1e-12)


def test_radial_deformation_affine_profile():
    prof = RadialProfile(nodes=np.linspace(0.1, 1.0, 10),
                         values=0.5 * np.linspace(0.1, 1.0, 10) + 0.5)
    y = radial_deformation(prof)
    x = np.array([0.5, 0.0])
    assert np.allclose(y(x), [0.75, 0.0], atol=1e-14)
    assert det2(y.grad(x)) == pytest.approx(0.5 * (0.75 / 0.5), rel=1e-12)
    F = finite_difference_grad(y.eval, np.array([0.45, 0.17]))
    assert np.allclose(y.grad(np.array([0.45, 0.17])), F, atol=1e-6)


def test_radial_deformation_grad_beyond_the_profile():
    # eval clamps rho outside [nodes[0], nodes[-1]], so the radial derivative
    # is 0 there; node points keep the segment to their right
    prof = RadialProfile(nodes=np.linspace(0.1, 0.9, 6),
                         values=np.array([0.2, 0.35, 0.45, 0.7, 0.8, 1.0]))
    a = np.array([0.1, -0.2])
    y = radial_deformation(prof, center=a)
    t = np.linspace(0.0, 2 * math.pi, 7)[:-1] + 0.3
    e = np.stack([np.cos(t), np.sin(t)], -1)
    for r in (0.05, 0.09, 0.95, 1.2):
        x = a + r * e
        G = y.grad(x)
        assert np.allclose(G, finite_difference_grad(y.eval, x), atol=1e-8)
        assert np.allclose(np.einsum("ki,kij,kj->k", e, G, e), 0.0, atol=1e-15)
    s = np.diff(prof.values) / np.diff(prof.nodes)
    assert np.array_equal(prof.slope(prof.nodes), np.append(s, s[-1]))
    assert np.array_equal(prof.slope([0.0999, 0.9001]), [0.0, 0.0])


def test_radial_deformation_cavity_radius():
    prof = RadialProfile(nodes=[0.1, 0.5, 1.0], values=[0.5, 0.7, 1.0])
    assert prof.cavity_radius == 0.5
    assert prof.inner_radius == 0.1


# --------------------------------------------------------------------------
# composition


def test_compose_with_identity(rng):
    y = example_radial(0.5)
    comp = compose(y, identity_deformation())
    pts = _sample_domain(y, rng, 100)
    assert np.allclose(comp(pts), y(pts), atol=0)
    assert np.allclose(comp.grad(pts), y.grad(pts), atol=0)


def test_change_of_reference_is_a_composition(rng):
    y = example_change_of_reference(0.5)
    outer, inner = change_of_reference_parts(0.5)
    comp = compose(outer, inner)
    pts = _sample_domain(y, rng, 1000)
    assert np.allclose(comp(pts), y(pts), atol=1e-14)


def test_compose_chain_rule_vs_fd(rng):
    outer, inner = change_of_reference_parts(0.5)
    comp = compose(outer, inner)
    pts = _sample_domain(example_change_of_reference(0.5), rng, 100)
    G = comp.grad(pts)
    F = finite_difference_grad(comp.eval, pts, h=1e-5)
    scale = np.maximum(np.abs(G).max(axis=(-2, -1)), 1.0)
    assert np.max(np.abs(G - F).max(axis=(-2, -1)) / scale) <= 1e-6


def test_make_example_unknown_key():
    with pytest.raises(KeyError):
        make_example("not-a-map")


@pytest.mark.parametrize("r", [0.2, 0.1, 0.05, 0.025])
def test_kink_angles_match_brentq(r):
    # the kinks derived from the seams on S(0, r), less the spokes' k pi/4
    from scipy.optimize import brentq

    def derived(y):
        got = np.sort(np.mod(circle_kinks(y.seams, np.zeros(2), r), 2 * math.pi))
        return got[np.abs((got + math.pi / 8) % (math.pi / 4) - math.pi / 8) > 1e-9]

    th = brentq(lambda t: r * math.sin(t) + math.tan(t) - 1.0, 1e-12, math.pi / 4)
    want = sorted((a + k * math.pi / 2) % (2 * math.pi)
                  for a in (th, math.pi / 2 - th) for k in range(4))
    assert np.max(np.abs(derived(example_superposition()) - want)) <= 1e-12

    R = 0.5 * (1.0 + r)
    t_hi = brentq(lambda t: R * math.sin(t) - (SQRT3 - 1.0) * R * abs(math.cos(t)) - 0.5,
                  1e-12, math.pi / 2)
    assert np.max(np.abs(derived(example_spike()) - [t_hi, math.pi - t_hi])) <= 1e-12


def _plain_bisection(g, lo, hi):
    """Where g (vectorized over the brackets) changes sign in [lo, hi], by
    halving down to adjacent floats: the oracle of `seams`' root finder."""
    neg, mid = g(lo) < 0, 0.5 * (lo + hi)
    while ((lo < mid) & (mid < hi)).any():
        up = (g(mid) < 0) == neg
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        mid = 0.5 * (lo + hi)
    return mid


@pytest.mark.parametrize("c", [(0.0, 0.0), (0.07, -0.04)])
@pytest.mark.parametrize("key", ["spike", "superposition"])
def test_circle_kinks_equal_those_of_plain_bisection(monkeypatch, key, c):
    # where the computed gap changes sign once at each crossing, as on these
    # circles, the regula falsi steps end where halving does
    y = make_example(key)
    radii = [0.2, 0.1, 0.05, 0.025]
    got = [circle_kinks(y.seams, c, r) for r in radii]
    monkeypatch.setattr(cavicore.seams, "_sign_change", _plain_bisection)
    assert got == [circle_kinks(y.seams, c, r) for r in radii]


@pytest.mark.parametrize("key, seed", [("change-of-reference", 0), ("spike", 2),
                                       ("superposition", 4)])
def test_circle_kinks_end_at_a_sign_change(monkeypatch, key, seed):
    # from other centres the computed gap can change sign more than once
    # within a few floats of a crossing; every answer is still a sign change
    # between adjacent floats, and it is the one halving finds unless the
    # floats between the two answers hold another (each seed's 96 circles
    # include such a crossing)
    real, calls = cavicore.seams._sign_change, []

    def spy(g, lo, hi):
        calls.append((g, lo, hi, real(g, lo, hi)))
        return calls[-1][-1]

    monkeypatch.setattr(cavicore.seams, "_sign_change", spy)
    rng = np.random.default_rng(seed)
    y = make_example(key)
    for c in rng.uniform(-0.5, 0.5, (12, 2)):
        for r in rng.uniform(0.02, 0.4, 8):
            circle_kinks(y.seams, c, r)
    assert calls
    for g, lo, hi, x in calls:
        ref = _plain_bisection(g, lo, hi)
        for k, neg in enumerate(g(lo) < 0):  # a circle's gap is pointwise in theta
            a, b = sorted((x[k], ref[k]))
            assert b - a < 1e-12
            v = [np.nextafter(a, -np.inf)]
            while v[-1] <= b:
                v.append(np.nextafter(v[-1], np.inf))
            side = (g(np.array(v)) < 0) == neg
            assert np.count_nonzero(side[1:] != side[:-1]) >= (1 if a == b else 2)


def test_import_leaves_scipy_unloaded():
    import os
    import subprocess
    import sys

    import cavicore

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cavicore.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import cavicore, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# --------------------------------------------------------------------------
# kernel oracle: the gradients as stacked 2x2 matrix formulas (outer products,
# np.indices, matmul), written independently of the entry-wise kernels


_I2 = np.eye(2)
ULP = np.finfo(float).eps


def _sgn(x):
    return np.where(np.asarray(x) >= 0.0, 1.0, -1.0)


def _oracle_radial(b, x):
    n1 = np.abs(x[..., 0]) + np.abs(x[..., 1])
    M = _I2 - x[..., :, None] * _sgn(x)[..., None, :] / n1[..., None, None]
    return (1.0 - b) * _I2 + (b / n1)[..., None, None] * M


def _oracle_round_cavity(b, z):
    n = np.sqrt(np.sum(z * z, axis=-1))
    ns = np.where(n > 0, n, 1.0)
    e = z / ns[..., None]
    ee = e[..., :, None] * e[..., None, :]
    inner = ((1.0 - b) + b / ns)[..., None, None] * (_I2 - ee) + (1.0 - b) * ee
    return np.where((n < 1.0)[..., None, None], inner, _I2)


def _oracle_half_stretch(x):
    out = np.broadcast_to(_I2, x.shape[:-1] + (2, 2)).copy()
    out[..., 0, 0] = np.where(x[..., 0] >= 0.0, 2.0, 1.0)
    return out


def _oracle_annulus(x):
    a = np.abs(x)
    m = np.max(a, axis=-1)
    k = np.argmax(a, axis=-1)
    v = np.zeros(x.shape)
    v[(*np.indices(k.shape), k)] = _sgn(np.take_along_axis(x, k[..., None], -1))[..., 0]
    M = (_I2 / m[..., None, None]
         - x[..., :, None] * v[..., None, :] / (m**2)[..., None, None])
    return 0.5 * _I2 + 0.5 * M


def _oracle_squeeze(z):
    z1, z2 = z[..., 0], z[..., 1]
    a1, a2 = np.abs(z1), np.abs(z2)
    b1 = (a1 > a2) & (a2 < 0.5)
    b2 = (a2 > a1) & (a1 < 0.5)
    out = np.broadcast_to(_I2, z.shape[:-1] + (2, 2)).copy()
    out[..., 0, 0] = np.where(b1, 2.0 * a2, 1.0)
    out[..., 0, 1] = np.where(b1, 2.0 * _sgn(z2) * (z1 - _sgn(z1)), 0.0)
    out[..., 1, 0] = np.where(b2, 2.0 * _sgn(z1) * (z2 - _sgn(z2)), 0.0)
    out[..., 1, 1] = np.where(b2, 2.0 * a1, 1.0)
    return out


def _oracle_spike(x):
    from cavicore.deformation import _spike_coef

    n = np.sqrt(np.sum(x * x, axis=-1))
    e = x / n[..., None]
    ee = e[..., :, None] * e[..., None, :]
    Du = (0.5 * (n + 1.0) / n)[..., None, None] * (_I2 - ee) + 0.5 * ee
    z = 0.5 * (n + 1.0)[..., None] * x / n[..., None]  # eval's image, so its branch
    z1, z2 = z[..., 0], z[..., 1]
    w = z2 > (SQRT3 - 1.0) * np.abs(z1) + 0.5
    R = np.sqrt(np.sum(z * z, axis=-1))
    c, cp = _spike_coef(np.where(w, R, 1.0))
    Dg = np.broadcast_to(_I2, z.shape[:-1] + (2, 2)).copy()
    Dg[..., 1, 0] = np.where(w, cp * z1 / R * np.abs(z1) + c * _sgn(z1), 0.0)
    Dg[..., 1, 1] = np.where(w, cp * z2 / R * np.abs(z1), 1.0)
    return Dg @ Du


def _oracle_radial_profile(profile, a, x):
    d = x - a
    r = np.sqrt(np.sum(d * d, axis=-1))
    e = d / r[..., None]
    ee = e[..., :, None] * e[..., None, :]
    return (profile(r) / r)[..., None, None] * (_I2 - ee) \
        + profile.slope(r)[..., None, None] * ee


def _oracle_push(phi, pts, x):
    out = np.broadcast_to(_I2, x.shape[:-1] + (2, 2)).copy()
    for a in pts:
        d = x - a
        t = np.linalg.norm(d, axis=-1)
        ts = np.where(t > 0, t, 1.0)
        e = d / ts[..., None]
        ee = e[..., :, None] * e[..., None, :]
        val, slope = phi.values(ts)
        G = (val / ts)[..., None, None] * (_I2 - ee) + slope[..., None, None] * ee
        G = np.where((t > 0)[..., None, None], G, phi.slopes[0, 0] * _I2)
        out = np.where((t < 2.0 * phi.eps_n)[..., None, None], G, out)
    return out


def _oracle(key, x):
    if key == "radial":
        return _oracle_radial(0.5, x)
    if key == "change-of-reference":
        f = np.where(x[..., :1] >= 0.0, x * [2.0, 1.0], x)
        return _oracle_round_cavity(0.5, f) @ _oracle_half_stretch(x)
    if key == "superposition":
        m = np.max(np.abs(x), axis=-1, keepdims=True)
        return _oracle_squeeze(0.5 * (m + 1.0) * x / m) @ _oracle_annulus(x)
    return _oracle_spike(x)


def _assert_ulps(G, ref, ulps=4):
    """Every entry within `ulps` units in the last place of the matrix's
    largest entry; a different branch fails by far more."""
    assert G.shape == ref.shape
    scale = np.max(np.abs(ref), axis=(-2, -1), keepdims=True)
    err = np.abs(G - ref)
    assert np.all(err <= ulps * ULP * scale), float(np.max(err / scale / ULP))


def _seams(key, rng):
    """Points on the branch seams of a catalog map, each with neighbours a
    few ulp to either side."""
    r = np.array([1e-3, 0.1, 0.25, 0.5, 0.75, 0.999])
    one = np.ones_like(r)
    pts = [np.stack(s, -1) for s in
           [(r, 0 * r), (-r, 0 * r), (0 * r, r), (0 * r, -r),
            (r, r), (r, -r), (-r, r), (-r, -r)]]
    if key == "radial":
        pts = [p / np.sum(np.abs(p), axis=-1, keepdims=True) * r[:, None] for p in pts]
    s = rng.uniform(0.05, 0.95, 50)
    if key == "change-of-reference":
        th = rng.uniform(-math.pi, math.pi, 50)
        c, si = np.cos(th), np.sin(th)
        pts.append(np.stack([np.where(c >= 0, 0.5 * c, c), si], -1))  # |f(x)| = 1
        pts.append(np.stack([0 * s, s], -1))
        pts.append(np.array([[0.5, 0.0], [0.0, 1.0], [0.3, 0.8], [-0.6, 0.8]]))
    if key == "superposition":
        # the annulus image meets |z_i| = 1/2: z = (+-M, +-1/2) with |z|_inf = M
        M = rng.uniform(0.5, 1.0, 50)
        for sx, sy in [(1, 1), (-1, 1), (1, -1), (-1, -1)]:
            z = np.stack([sx * M, sy * 0.5 * np.ones_like(M)], -1)
            pts.append((2.0 * M - 1.0)[:, None] * z / M[:, None])
            pts.append(pts[-1][:, ::-1])
    if key == "spike":
        # the wedge boundary z2 = (sqrt3 - 1)|z1| + 1/2 inside the annulus
        z1 = np.concatenate([s * 0.45, -s * 0.45])
        z = np.stack([z1, (SQRT3 - 1.0) * np.abs(z1) + 0.5], -1)
        R = np.sqrt(np.sum(z * z, axis=-1))
        z, R = z[R < 1.0], R[R < 1.0]
        pts.append((2.0 * R - 1.0)[:, None] * z / R[:, None])
    P = np.concatenate(pts)
    nudged = [P]
    for k in (1, 3):
        for d in (-np.inf, np.inf):
            q = P.copy()
            for _ in range(k):
                q = np.nextafter(q, d)
            nudged.append(q)
    return np.concatenate(nudged)


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_gradient_kernel_matches_matrix_oracle(key, rng):
    y = make_example(key, 0.5)
    pts = rng.uniform(-1.0, 1.0, (20_000, 2))
    pts = pts[y.domain.contains(pts) & (qnorm(pts, 2) > 1e-9)]
    _assert_ulps(y.grad(pts), _oracle(key, pts))
    seams = _seams(key, rng)
    _assert_ulps(y.grad(seams), _oracle(key, seams))
    x = seams[7]  # one point: the kernels also take a single (2,) vector
    _assert_ulps(y.grad(x), _oracle(key, x[None])[0])


def test_factor_kernels_on_their_own_seams(rng):
    from cavicore.deformation import (
        _euclid_cavity_map,
        _half_stretch_map,
        _superposition_g,
        _supnorm_annulus_map,
    )

    u = rng.uniform(-1.0, 1.0, (5000, 2))
    t = rng.uniform(0.0, 2.0 * math.pi, 500)
    M = rng.uniform(0.0, 1.0, 500)
    circle = np.stack([np.cos(t), np.sin(t)], -1)
    exact = np.concatenate([
        u, circle, 0.999999 * circle, np.stack([M, M], -1), np.stack([M, -M], -1),
        np.stack([M, 0.5 + 0 * M], -1), np.stack([-0.5 + 0 * M, M], -1),
        np.stack([0 * M, M], -1), np.stack([-M, 0 * M], -1)])
    _assert_ulps(_euclid_cavity_map(0.5)[1](exact), _oracle_round_cavity(0.5, exact))
    _assert_ulps(_half_stretch_map()[1](exact), _oracle_half_stretch(exact))
    _assert_ulps(_superposition_g()[1](exact), _oracle_squeeze(exact))
    off = exact[np.max(np.abs(exact), axis=-1) > 0]
    _assert_ulps(_supnorm_annulus_map()[1](off), _oracle_annulus(off))


def test_compose_and_radial_profile_kernels_match_oracle(rng):
    outer, inner = change_of_reference_parts(0.5)
    pts = np.concatenate([rng.uniform(-1.0, 1.0, (5000, 2)),
                          _seams("change-of-reference", rng)])
    _assert_ulps(compose(outer, inner).grad(pts),
                 outer.grad(inner.eval(pts)) @ inner.grad(pts))
    prof = RadialProfile(nodes=[0.0, 0.2, 0.5, 1.5], values=[0.1, 0.35, 0.6, 1.6])
    a = np.array([0.4, 0.0])
    q = rng.uniform(-1.0, 1.0, (5000, 2))
    rays = a + np.array([0.2, 0.5, 0.3])[:, None, None] * np.stack(
        [np.cos(np.arange(8) * math.pi / 4), np.sin(np.arange(8) * math.pi / 4)], -1)
    q = np.concatenate([q, rays.reshape(-1, 2)])
    _assert_ulps(radial_deformation(prof, center=a).grad(q),
                 _oracle_radial_profile(prof, a, q))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_push_kernel_matches_matrix_oracle(n, rng):
    eps = 0.1
    phi = build_phi(eps, default_r_rule(eps, n), n)
    flaws = np.array([[0.0, 0.0], [0.5, 0.1]])
    push = compose_push(identity_deformation(), phi, flaws)
    t = rng.uniform(0.0, 2.0 * math.pi, 40)
    u = np.stack([np.cos(t), np.sin(t)], -1)
    radii = np.concatenate([[0.0, 2.0 * eps], phi.zone_radii(), [1e-9, eps]])
    seams = (flaws[:, None, None, :] + radii[None, :, None, None] * u).reshape(-1, 2)
    pts = np.concatenate([rng.uniform(-0.3, 0.8, (5000, 2)), seams, flaws])
    _assert_ulps(push.grad(pts), _oracle_push(phi, flaws, pts))
    # the second push ball meets the map's axis seams, which compose_push
    # rejects; the gradient kernel does not read them
    y = dataclasses.replace(example_radial(0.5), seams=())
    comp = compose_push(y, phi, flaws)
    keep = np.min(np.abs(pts), axis=-1) > 0
    _assert_ulps(comp.grad(pts[keep]),
                 _oracle_radial(0.5, push.eval(pts[keep])) @ _oracle_push(phi, flaws, pts[keep]))


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_compose_push_is_compose_with_the_push(key, rng):
    # one kernel for the push image and gradient gives the same bits as the
    # general composition with the push alone
    y = make_example(key, 0.5)
    eps, n = 0.2, 2
    phi = build_phi(eps, default_r_rule(eps, n), n)
    comp = compose_push(y, phi, y.singular_points)
    ref = compose(y, compose_push(identity_deformation(y.domain), phi, y.singular_points))
    t = rng.uniform(0.0, 2.0 * math.pi, 40)
    u = np.stack([np.cos(t), np.sin(t)], -1)
    radii = np.array([1e-9, 2.0 * eps, *phi.zone_radii(), eps])
    pts = np.concatenate([rng.uniform(-1.0, 1.0, (5000, 2)), _seams(key, rng),
                          (radii[:, None, None] * u).reshape(-1, 2)])
    pts = pts[y.domain.contains(pts) & (qnorm(pts, 2) > 0)]
    assert np.array_equal(comp.eval(pts), ref.eval(pts))
    assert np.array_equal(comp.grad(pts), ref.grad(pts))


def test_compose_outside_outer_domain_raises():
    comp = compose(example_radial(0.5), affine_deformation(2.0 * np.eye(2)))
    for f in (comp.eval, comp.grad):
        with pytest.raises(EvaluationDomainError):
            f(np.array([[0.6, 0.1]]))
    assert np.all(np.isfinite(comp.grad(np.array([[0.3, 0.1]]))))


# --------------------------------------------------------------------------
# break audit: every jump of grad y along a ray or a circle is declared


def _jump_locations(y, a, curve, n, s):
    """(k, s) of each jump of grad y along the curves curve(k, s), k < n
    (vectorized over k and s), sampled on the sorted grid s inside the
    audit region.

    An interval whose change exceeds 20 times that of both neighbours is
    bisected, keeping the half with the larger change, down to a width of
    1e-13; it holds a jump when the change has not shrunk with the width.
    All such intervals are bisected together."""
    dist = lambda A, B: np.max(np.abs(A - B), axis=(-2, -1))
    k = np.repeat(np.arange(n)[:, None], len(s), axis=1)
    X = curve(k, np.broadcast_to(s, k.shape))
    ok = _in_region(y, a, X)
    G = np.zeros(k.shape + (2, 2))
    G[ok] = y.grad(X[ok])
    d = np.where(ok[:, 1:] & ok[:, :-1], dist(G[:, 1:], G[:, :-1]), np.inf)
    quiet = np.maximum(d[:, :-2], d[:, 2:])
    k, i = np.nonzero(np.isfinite(d[:, 1:-1]) & (d[:, 1:-1] > 20.0 * quiet + 1e-12))
    if not len(i):
        return []
    i += 1
    g = lambda t: y.grad(curve(np.tile(k, len(t) // len(k)), t))
    lo, hi = s[i], s[i + 1]
    while np.any(hi - lo > 1e-13):
        mid = 0.5 * (lo + hi)
        G = g(np.concatenate([lo, mid, hi])).reshape(3, len(i), 2, 2)
        left = dist(G[1], G[0]) >= dist(G[2], G[1])
        live = hi - lo > 1e-13
        lo, hi = np.where(live & ~left, mid, lo), np.where(live & left, mid, hi)
    G = g(np.concatenate([lo, hi])).reshape(2, len(i), 2, 2)
    jump = dist(G[1], G[0]) > 0.5 * d[k, i]
    return zip(k[jump], (0.5 * (lo + hi))[jump])


_PUSHES = ((0.2, 1), (0.025, 4))  # the recovery rows at the README's first and last eps


def _audited_maps():
    prof = RadialProfile(nodes=np.linspace(0.1, 0.9, 6),
                         values=np.array([0.2, 0.35, 0.45, 0.7, 0.8, 1.0]))
    maps = [(make_example(k, 0.5), np.zeros(2)) for k in CATALOG_KEYS]
    for eps, n in _PUSHES:
        phi = build_phi(eps, default_r_rule(eps, n), n)
        maps += [(compose_push(y, phi, y.singular_points), a) for y, a in maps[:4]]
    return maps + [(radial_deformation(prof, center=(0.1, -0.2)), np.array([0.1, -0.2]))]


_AUDIT_IDS = [*CATALOG_KEYS, *(f"{k}*push{e}" for e, _ in _PUSHES for k in CATALOG_KEYS),
              "radial-profile"]


def test_constant_arc_is_a_full_circle():
    # the closed forms treat an arc of constant radius as a whole circle
    with pytest.raises(ValueError):
        Arc((0.0, 0.0), 0.5, 0.0, math.pi)


def _in_region(y, a, X):
    """Points of X where the audit samples grad y: inside the domain and off
    its singular points; for the profile map, on its annulus about a."""
    if y.domain is None:
        r = np.linalg.norm(X - a, axis=-1)
        return (r > 0.1 + 1e-3) & (r < 0.9 - 1e-3)
    ok = y.domain.contains(X) & (y.domain.dist_to_boundary(X) > 1e-3)
    for p in y.singular_points:
        ok &= np.linalg.norm(X - p, axis=-1) > 1e-3
    return ok


# from these two points the ray tangent to the change-of-reference ellipse
# seam touches it near theta = -0.027, next to the start of the arc's range
_NEAR_SEAM = {"change-of-reference": [(0.502, 0.3), (0.498, 0.3)]}


def _audit_centres(y, a):
    """Three random points of the sampled region, drawn from a generator
    seeded by the map's name, and the map's near-seam points."""
    rng = np.random.default_rng(sum(map(ord, y.name)))
    cand = a + rng.uniform(-0.9, 0.9, size=(400, 2))
    near = _NEAR_SEAM.get(y.name.split("*")[0], [])
    return [*cand[_in_region(y, a, cand)][:3], *map(np.array, near)]


@pytest.mark.parametrize("y, a", _audited_maps(), ids=_AUDIT_IDS)
def test_break_audit_rays(y, a):
    # grad y sampled along 64 rays from the flaw and 16 from each other audit
    # centre; every jump must sit at a break derived from the seams
    s = np.linspace(1e-3, 2.0, 8001)
    for c, n in [(a, 64), *((c, 16) for c in _audit_centres(y, a))]:
        ts = 2 * math.pi * (np.arange(n) + 0.3) / n
        E = np.stack([np.cos(ts), np.sin(ts)], -1)
        declared = ray_breaks(y.seams, c, ts)
        for k, rho in _jump_locations(y, a, lambda k, r: c + r[..., None] * E[k], n, s):
            assert np.min(np.abs(rho - declared[k]), initial=1.0) < 1e-8, \
                (y.name, c, ts[k], rho, declared[k])


def _audit_circle(y, a, c, r):
    """Every jump of grad y along S(c, r), in the sampled region, sits within
    1e-8 of a derived kink; returns the number of jumps."""
    declared = np.array(circle_kinks(y.seams, c, r))
    ts = 2 * math.pi * (np.arange(8193) + 0.37) / 8192
    circle = lambda k, t: c + r * np.stack([np.cos(t), np.sin(t)], -1)
    jumps = 0
    for _, t in _jump_locations(y, a, circle, 1, ts):
        off = np.abs((t - declared + math.pi) % (2 * math.pi) - math.pi)
        assert np.min(off, initial=1.0) < 1e-8, (y.name, c, r, t)
        jumps += 1
    return jumps


@pytest.mark.parametrize("y, a", _audited_maps(), ids=_AUDIT_IDS)
@pytest.mark.parametrize("eps", [0.2, 0.025])
def test_break_audit_circles(y, a, eps):
    # grad y sampled along S(c, eps) about the flaw and each audit centre;
    # every jump must sit at a kink derived from the seams
    for c in [a, *_audit_centres(y, a)]:
        _audit_circle(y, a, c, eps)


def test_break_audit_near_tangent_circles():
    # S(c, r) 1e-4 outside a nearest approach of a catalog seam arc to c
    # crosses the arc twice close together: both crossings must be kinks
    jumps = 0
    for y, a in _audited_maps()[:len(CATALOG_KEYS)]:
        for c in _audit_centres(y, a):
            for s in y.seams:
                if not callable(getattr(s, "f", None)):
                    continue
                d = np.hypot(*(s.at(np.linspace(s.lo, s.hi, 20001)) - c).T)
                k = np.flatnonzero((d[1:-1] < d[:-2]) & (d[1:-1] < d[2:])) + 1
                for r in d[k] + 1e-4:
                    jumps += _audit_circle(y, a, c, r)
    assert jumps >= 20


def _stretch_seam_crossings(c, e):
    """Distances s > 0 at which c + s e crosses the change-of-reference
    seams, from their equations: x0 = 0 with |x1| <= 1, 4 x0^2 + x1^2 = 1
    with x0 >= 0, and |x| = 1 with x0 < 0."""
    out = [] if e[0] == 0 else [-c[0] / e[0]]
    out = [s for s in out if abs(c[1] + s * e[1]) <= 1.0]
    for k, keep in ((4.0, lambda x0: x0 >= 0), (1.0, lambda x0: x0 < 0)):
        A = k * e[0] ** 2 + e[1] ** 2
        B = k * c[0] * e[0] + c[1] * e[1]
        C = k * c[0] ** 2 + c[1] ** 2 - 1.0
        disc = B * B - A * C
        if disc > 0:
            out += [s for s in ((-B - math.sqrt(disc)) / A, (-B + math.sqrt(disc)) / A)
                    if keep(c[0] + s * e[0])]
    return sorted(s for s in out if s > 0)


def test_ray_breaks_beside_a_seam_match_its_equations():
    # centres 1e-4 to either side of the change-of-reference ellipse and
    # circle seams, where a cell of 1/64 of the arc would subtend up to pi
    y = example_change_of_reference(0.5)
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 2 * math.pi, 256)
    for th in rng.uniform(0.0, 2 * math.pi, 12):
        p = y.seams[2].at(np.array([th]))[0]
        for c in (p * (1 - 1e-4), p * (1 + 1e-4)):
            B = ray_breaks(y.seams, c, t)
            for ti, b in zip(t, B):
                ref = _stretch_seam_crossings(c, np.array([math.cos(ti), math.sin(ti)]))
                assert np.allclose(np.sort(b[np.isfinite(b)]), ref, rtol=0, atol=1e-9), \
                    (c, ti, b, ref)


@pytest.mark.parametrize("y, a", _audited_maps(), ids=_AUDIT_IDS)
def test_break_count_is_constant_between_pass_kinks(y, a):
    # the rays of a pass between two consecutive angular kinks cross the
    # seams equally often
    for c in [a, *_audit_centres(y, a)]:
        kinks = np.unique(np.mod(np.append(pass_kinks(y.seams, c), 0.0), 2 * math.pi))
        edges = np.append(kinks, kinks[0] + 2 * math.pi)
        # kinks within rounding of each other (rays through a point where
        # seams meet) are one panel edge of the pass
        lo, hi = edges[:-1][np.diff(edges) > 1e-12], edges[1:][np.diff(edges) > 1e-12]
        t = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.01, 0.99, 7)
        count = np.sum(np.isfinite(ray_breaks(y.seams, c, t.ravel())), axis=1)
        count = count.reshape(t.shape)
        assert np.all(count == count[:, :1]), (y.name, c)


@pytest.mark.parametrize("c", [(0.0, 0.0), (-0.3, -0.2)])
def test_pass_kinks_include_where_a_circle_meets_a_seam(c):
    # the ray integral kinks in angle where two of its breaks meet: at the
    # support circle's crossings of the stretch seam (theta = +-1.3798726624
    # about the origin), and of a spoke, seen from any pass centre
    y = example_change_of_reference(0.5)
    support = Arc((0.0, 0.0), 0.95)
    spoke = Spoke((0.5, -1.0), math.pi / 2, 0.0, 2.0)  # the line x = 0.5
    kinks = np.mod(pass_kinks((support, spoke) + y.seams, c), 2 * math.pi)
    meets = [0.95 * np.array([math.cos(th), math.sin(th)]) for th in (1.3798726624292694,
                                                                      -1.3798726624292694)]
    meets += [np.array([0.5, s * math.sqrt(0.95**2 - 0.25)]) for s in (1, -1)]
    for p in meets:
        th = math.atan2(p[1] - c[1], p[0] - c[0]) % (2 * math.pi)
        assert np.min(np.abs(kinks - th)) < 1e-9, (c, p)
