import math

import numpy as np
import pytest

from cavicore.deformation import (
    CATALOG_KEYS,
    RadialProfile,
    NonmonotoneProfileError,
    change_of_reference_parts,
    compose,
    example_change_of_reference,
    example_radial,
    example_spike,
    example_superposition,
    finite_difference_grad,
    identity_deformation,
    make_example,
    radial_deformation,
)
from cavicore.geometry import det2, qnorm

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
    from scipy.optimize import brentq

    th = brentq(lambda t: r * math.sin(t) + math.tan(t) - 1.0, 1e-12, math.pi / 4)
    want = sorted((a + k * math.pi / 2) % (2 * math.pi)
                  for a in (th, math.pi / 2 - th) for k in range(4))
    got = example_superposition().trace_kinks(np.zeros(2), r)
    assert np.max(np.abs(np.array(got) - want)) <= 1e-12

    R = 0.5 * (1.0 + r)
    t_hi = brentq(lambda t: R * math.sin(t) - (SQRT3 - 1.0) * R * abs(math.cos(t)) - 0.5,
                  1e-12, math.pi / 2)
    got = example_spike().trace_kinks(np.zeros(2), r)
    assert np.max(np.abs(np.array(got) - [t_hi, math.pi - t_hi])) <= 1e-12


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
