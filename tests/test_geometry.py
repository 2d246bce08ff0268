import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavicore.geometry import (
    Confinement,
    Domain,
    FlawConfig,
    SingularMatrixError,
    gauss_legendre,
    gauss_panels,
    panel_error,
    pseudoinverse,
    qnorm,
    refine,
    validate_flaw_config,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_qnorm_examples():
    assert qnorm([3.0, 4.0], 2) == pytest.approx(5.0, abs=0)
    assert qnorm([1.0, 1.0], 1) == pytest.approx(2.0, abs=0)
    assert qnorm([1.0, -2.0], np.inf) == pytest.approx(2.0, abs=0)


def test_qnorm_zero_iff_origin(rng):
    assert qnorm([0.0, 0.0], 1.5) == 0.0
    pts = rng.normal(size=(100, 2))
    assert np.all(qnorm(pts, 3.0)[np.any(pts != 0, axis=1)] > 0)


def test_qnorm_rejects_bad_exponent():
    with pytest.raises(ValueError):
        qnorm([1.0, 2.0], 0.5)


@pytest.mark.parametrize("q", [1, 2, np.inf, 3.5])
def test_qnorm_triangle_and_homogeneity_random(q, rng):
    x = rng.normal(size=(1000, 2))
    y = rng.normal(size=(1000, 2))
    lam = rng.normal(size=1000)
    lhs = qnorm(x + y, q)
    rhs = qnorm(x, q) + qnorm(y, q)
    assert np.all(lhs <= rhs + 1e-12)
    assert np.allclose(qnorm(lam[:, None] * x, q), np.abs(lam) * qnorm(x, q),
                       rtol=1e-12, atol=1e-12)


@given(x1=finite, x2=finite, y1=finite, y2=finite)
@settings(max_examples=50, deadline=None)
def test_qnorm_triangle_hypothesis(x1, x2, y1, y2):
    x = np.array([x1, x2])
    y = np.array([y1, y2])
    for q in (1, 2, np.inf):
        assert qnorm(x + y, q) <= qnorm(x, q) + qnorm(y, q) + 1e-9 * (
            1 + qnorm(x, q) + qnorm(y, q))


# --------------------------------------------------------------------------
# pseudoinverse


def test_pseudoinverse_examples():
    H = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(pseudoinverse(H), [[1, 0, 0], [0, 1, 0]], atol=0)
    assert np.allclose(pseudoinverse(np.array([[2.0], [0.0]])), [[0.5, 0.0]], atol=0)
    assert np.allclose(pseudoinverse(np.array([[1.0], [1.0]])), [[0.5, 0.5]], atol=0)


def test_pseudoinverse_rank_deficient():
    with pytest.raises(SingularMatrixError):
        pseudoinverse(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))


def _gram_schmidt_projection(H, v):
    # orthonormalize the columns, project v onto their span
    basis = []
    for j in range(H.shape[1]):
        u = H[:, j].astype(float)
        for b in basis:
            u = u - (u @ b) * b
        basis.append(u / np.linalg.norm(u))
    return sum((v @ b) * b for b in basis)


def test_pseudoinverse_penrose_random(rng):
    for _ in range(200):
        shape = (2, 1) if rng.random() < 0.5 else (3, 2)
        while True:
            H = rng.normal(size=shape)
            if np.linalg.matrix_rank(H) == shape[1]:
                break
        P = pseudoinverse(H)
        assert np.max(np.abs(P @ H - np.eye(shape[1]))) <= 1e-12
        v = rng.normal(size=shape[0])
        proj = _gram_schmidt_projection(H, v)
        assert np.max(np.abs(H @ P @ v - proj)) <= 1e-10


# --------------------------------------------------------------------------
# flaw configurations and domains


def test_validate_flaw_config_examples():
    outer = Domain(q=2, radius=1.0)
    ok = validate_flaw_config(
        FlawConfig(points=[[0.0, 0.0]], eps=0.1, max_count=1,
                   confinement=Confinement("disk", (0, 0), 0.5)), outer)
    assert ok.ok and str(ok) == "valid"

    sep = validate_flaw_config(
        FlawConfig(points=[[0.0, 0.0], [0.2, 0.0]], eps=0.1, max_count=2,
                   confinement=Confinement("disk", (0, 0), 0.5)), outer)
    assert not sep.ok
    assert any("separated" in v for v in sep.violations)

    conf = validate_flaw_config(
        FlawConfig(points=[[0.9, 0.0]], eps=0.05, max_count=1,
                   confinement=Confinement("disk", (0, 0), 0.5)), outer)
    assert not conf.ok
    assert conf.violations == ("point 0 at (0.9, 0) outside confinement",)


def test_validate_count_and_margin():
    outer = Domain(q=2, radius=1.0)
    rep = validate_flaw_config(
        FlawConfig(points=[[0, 0], [0.4, 0]], eps=0.1, max_count=1,
                   confinement=Confinement("disk", (0, 0), 0.5)), outer)
    assert any("max_count" in v for v in rep.violations)
    rep2 = validate_flaw_config(
        FlawConfig(points=[[0, 0]], eps=0.45, max_count=1,
                   confinement=Confinement("disk", (0, 0), 0.6)), outer)
    assert any("margin" in v for v in rep2.violations)


def test_domain_membership_sphere_points(rng):
    cfg = FlawConfig(points=[[0.2, 0.1]], eps=0.15, max_count=1)
    dom = Domain(q=2, radius=1.0, flaws=cfg)
    t = rng.uniform(0, 2 * math.pi, 200)
    sphere = np.array([0.2, 0.1]) + 0.15 * np.stack([np.cos(t), np.sin(t)], -1)
    # open perforation excludes the sphere; removing only open disks keeps it
    assert not np.any(dom.contains_perforated(sphere))
    assert np.all(dom.contains_perforated_closure_holes(sphere))
    # strict inclusion on generic interior points
    pts = rng.uniform(-1, 1, size=(500, 2))
    inner = dom.contains_perforated(pts)
    assert np.all(dom.contains_perforated_closure_holes(pts)[inner])


@pytest.mark.parametrize("q,area", [(1, 2.0), (2, math.pi), (np.inf, 4.0)])
def test_domain_area(q, area):
    assert Domain(q=q, radius=1.0).area() == pytest.approx(area, rel=1e-15)


@pytest.mark.parametrize("q", [3, 1.5, 0.5, math.nan])
def test_domain_q_is_one_two_or_inf(q):
    with pytest.raises(ValueError, match="q must be 1, 2 or inf"):
        Domain(q=q)


@pytest.mark.parametrize("q,sup", [(1, 0.5 * math.sqrt(2.0)), (1.5, 0.5 * 2 ** (1 / 6)),
                                   (2, 0.5), (3, 0.5), (np.inf, 0.5)],
                         ids=["1", "1.5", "2", "3", "inf"])
def test_disk_confinement_max_qnorm(q, sup):
    # the sup of |x|_q over the disk of radius 0.5 about 0, against a dense
    # sample of its boundary
    disk = Confinement("disk", (0.0, 0.0), 0.5)
    t = np.linspace(0.0, 2.0 * math.pi, 100_001)
    sampled = np.max(qnorm(0.5 * np.stack([np.cos(t), np.sin(t)], -1), q))
    assert disk.max_qnorm(q) == pytest.approx(sup, rel=1e-14)
    assert sampled == pytest.approx(sup, rel=1e-9)


# --------------------------------------------------------------------------
# refinement


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_gauss_panels_integrate_polynomials_exactly(rng, n):
    # n Gauss nodes integrate x^k exactly for k <= 2n - 1; the oracle maps
    # numpy's leggauss rule onto each panel on its own
    start, width = rng.uniform(0.1, 2.0, 5), rng.uniform(0.1, 1.0, 5)
    x, w = gauss_panels(start, width, n)
    gx, gw = np.polynomial.legendre.leggauss(n)
    for a, h, xa, wa in zip(start, width, x, w):
        assert xa == pytest.approx(a + h * (gx + 1.0) / 2.0, rel=1e-15)
        assert wa == pytest.approx(h * gw / 2.0, rel=1e-15)
        for k in range(2 * n):
            exact = ((a + h) ** (k + 1) - a ** (k + 1)) / (k + 1)
            assert np.sum(wa * xa**k) == pytest.approx(exact, rel=1e-13)


def test_gauss_panels_broadcast_over_columns_rays_and_panels(rng):
    # per-column widths against per-panel starts, as the bulk columns pass them
    start = rng.uniform(0.0, 1.0, (4, 3, 5))
    width = rng.uniform(0.1, 1.0, (4, 3, 1))
    x, w = gauss_panels(start, width, 8)
    assert x.shape == (4, 3, 5, 8) and w.shape == (4, 3, 1, 8)
    w = np.broadcast_to(w, x.shape)
    for idx in np.ndindex(start.shape):
        xs, ws = gauss_panels(start[idx], width[idx[:2]][0], 8)
        assert np.array_equal(x[idx], xs) and np.array_equal(w[idx], ws)


def _recording(values, oks=None, errors=None):
    """A pass that returns values[k] (and oks[k], and the error estimate
    errors[k], inf by default) on its k-th call and records the node counts
    it was called with."""
    calls = []

    def one_pass(n):
        k = len(calls)
        calls.append(n)
        return (values[k], True if oks is None else oks[k],
                math.inf if errors is None else errors[k])

    return one_pass, calls


def test_refine_vector_needs_every_component():
    # the first component agrees from the second pass on, the second only
    # from the third
    one_pass, calls = _recording([np.array([1.0, 1.0]), np.array([1.0, 2.0]),
                                  np.array([1.0, 2.0 + 1e-12])])
    vals, ok = refine(one_pass, 1e-9, 2**14)
    assert ok and calls == [128, 256, 512]
    assert vals.tolist() == [1.0, 2.0 + 1e-12]


def test_refine_tolerance_is_inclusive():
    # |2 - 1| is exactly 0.5 * 2
    one_pass, calls = _recording([1.0, 2.0])
    assert refine(one_pass, 0.5, 2**14) == (2.0, True)
    assert calls == [128, 256]


def test_refine_cap_returns_the_last_pass():
    one_pass, calls = _recording([1.0, 2.0, 3.0, 4.0])
    assert refine(one_pass, 1e-9, 1024) == (4.0, False)
    assert calls == [128, 256, 512, 1024]
    one_pass, calls = _recording([1.0])
    assert refine(one_pass, 1e-9, 128) == (1.0, False)


def test_refine_failed_pass_is_not_converged():
    # the values agree, but the first pass reported a failure
    one_pass, calls = _recording([1.0, 1.0], oks=[False, True])
    assert refine(one_pass, 1e-9, 2**14) == (1.0, False)
    assert calls == [128, 256]


@pytest.mark.parametrize("passes", [
    [1.0, math.inf],
    [1.0, -math.inf],
    [np.array([1.0, 2.0]), np.array([math.inf, 2.0])],
])
def test_refine_step_to_a_non_finite_pass_is_not_convergence(passes):
    # |inf - 1| <= tol |inf| reads inf <= inf: an agreement test alone would
    # accept this step
    one_pass, calls = _recording(passes)
    assert refine(one_pass, 1e-6, 2048)[1] is False
    assert calls == [128, 256]


@pytest.mark.parametrize("first", [math.inf, math.nan])
def test_refine_ends_at_a_non_finite_pass(first):
    # no later pass can agree with a non-finite one
    one_pass, calls = _recording([first, 1.0, 1.0])
    vals, ok = refine(one_pass, 1e-6, 2048)
    assert not ok and not math.isfinite(vals)
    assert calls == [128]


@pytest.mark.parametrize("c,n_last,converged", [(1e-3, 1024, True), (1.0, 2**14, False)])
def test_refine_runs_a_first_order_sequence_to_its_tolerance(c, n_last, converged):
    # passes 1 + c/n halve their difference at each doubling: a steady rate
    # is no reason to stop, only |v_n - v_n/2| <= tol |v_n| is. For c = 1e-3
    # that holds first at n = 1024 (|dv| = 9.8e-7); for c = 1 never below
    # the cap
    calls = []

    def one_pass(n):
        calls.append(n)
        return 1.0 + c / n, True, math.inf

    assert refine(one_pass, 1e-6, 2**14) == (1.0 + c / n_last, converged)
    assert calls == [128 << i for i in range((n_last // 128).bit_length())]


def test_refine_accepts_a_pass_on_its_own_estimate():
    # the first pass's estimate meets tol: no second pass runs
    one_pass, calls = _recording([1.0], errors=[1e-10])
    assert refine(one_pass, 1e-9, 2**14) == (1.0, True)
    assert calls == [128]
    # inclusive, as agreement is
    one_pass, calls = _recording([2.0], errors=[1.0])
    assert refine(one_pass, 0.5, 2**14) == (2.0, True)


def test_refine_estimate_needs_every_component():
    # the second component's estimate misses tol on the first pass; the
    # second pass meets it in both
    one_pass, calls = _recording([np.array([1.0, 2.0]), np.array([1.0, 3.0])],
                                 errors=[np.array([0.0, 1e-3]), np.array([1e-12, 1e-12])])
    vals, ok = refine(one_pass, 1e-9, 2**14)
    assert ok and calls == [128, 256] and vals.tolist() == [1.0, 3.0]


def test_refine_estimate_does_not_accept_a_non_finite_pass():
    one_pass, calls = _recording([math.inf, 1.0], errors=[0.0, 0.0])
    assert refine(one_pass, 1e-6, 2048)[1] is False
    assert calls == [128]


@pytest.mark.parametrize("tol,n_max", [
    (math.nan, 2**14), (0.0, 2**14), (-1.0, 2**14), (math.inf, 2**14), (1e-9, 64),
])
def test_refine_rejects_bad_arguments_before_any_pass(tol, n_max):
    one_pass, calls = _recording([1.0] * 8)
    with pytest.raises(ValueError):
        refine(one_pass, tol, n_max)
    assert calls == []


# --------------------------------------------------------------------------
# panel error estimates


def _panel_case(f, m):
    """(estimate, value) of the m-node Gauss rule for f on [-1, 1]."""
    x, w = gauss_legendre(m)
    return float(panel_error(f(x), 2.0)), w @ f(x)


@pytest.mark.parametrize("m", range(6, 17))
@pytest.mark.parametrize("f,exact", [
    (lambda x: 1.0 / (x - 1.2), math.log(0.2 / 2.2)),
    (lambda x: np.exp(3.0 * x), 2.0 * math.sinh(3.0) / 3.0),
], ids=["pole", "exp"])
def test_panel_error_bounds_analytic_integrands(f, exact, m):
    # geometric coefficient decay: the estimate is at least the true error
    est, val = _panel_case(f, m)
    assert est >= abs(val - exact)


@pytest.mark.parametrize("m", range(6, 17))
@pytest.mark.parametrize("f", [lambda x: np.abs(x - 0.3), lambda x: (x + 1.0) ** 0.4],
                         ids=["kink", "endpoint-power"])
def test_panel_error_never_accepts_algebraic_decay(f, m):
    # an undeclared kink or an endpoint singularity: never within 1e-6
    est, val = _panel_case(f, m)
    assert est > 1e-6 * abs(val)


@pytest.mark.parametrize("m", [32, 48, 64])
def test_panel_error_rate_check_sees_algebraic_decay(m):
    # |x - 0.3|^3 has coefficients falling far but algebraically: read as
    # geometric, tau^2 / h would be below the true error
    est, val = _panel_case(lambda x: np.abs(x - 0.3) ** 3, m)
    assert est >= abs(val - (1.3**4 + 0.7**4) / 4.0)


def test_panel_error_is_per_panel_and_scales_with_width(rng):
    # a stack of panels: one estimate each, linear in the width and in f
    x, _ = gauss_legendre(12)
    vals = np.exp(rng.uniform(1.0, 3.0, (3, 1)) * x)
    est = panel_error(vals, 2.0)
    assert est.shape == (3,) and np.all(est > 0)
    assert np.allclose(panel_error(-2.0 * vals, 0.5), est, rtol=1e-12)
    assert panel_error(np.zeros(12), 2.0) == 0.0
