import math

import numpy as np
import pytest

from cavicore.cavity import (
    INSIDE,
    NEAR_BOUNDARY,
    OUTSIDE,
    BoundaryProximityError,
    TraceCurve,
    TraceError,
    cavity_perimeter,
    cavity_volume,
    cavity_volume_signed,
    closest_far_pair,
    converged_trace_metrics,
    degree_range_on_grid,
    degree_tolerance,
    dyadic_ladder,
    extrapolate_limit,
    tangential_gradient_on_circle,
    tangential_jacobian,
    topological_image_contains,
    trace_on_circle,
    winding_number,
    winding_numbers_grid,
)
from cavicore.deformation import (
    CATALOG_KEYS,
    Deformation,
    example_radial,
    example_spike,
    identity_deformation,
    make_example,
)

from helpers import affine_deformation, finite_difference_grad

TWO_PI = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)


def _manual_curve(points_fn, derivs_fn=None, n=512):
    ts = np.arange(n) * (TWO_PI / n)
    pts = points_fn(ts)
    if derivs_fn is not None:
        dpts = derivs_fn(ts)
    else:
        dts = TWO_PI / n
        dpts = (np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)) / (2 * dts)
    return TraceCurve(ts=ts, points=pts, derivs=dpts, weights=np.full(n, TWO_PI / n))


def _circle_fns():
    return (lambda ts: np.stack([np.cos(ts), np.sin(ts)], -1),
            lambda ts: np.stack([-np.sin(ts), np.cos(ts)], -1))


def _trig_curve(rng, scale=1.0):
    """Random smooth closed curve (low-order trigonometric polynomial around
    an offset circle) together with its exact derivative."""
    a = rng.normal(scale=0.15 * scale, size=(2, 3))
    b = rng.normal(scale=0.15 * scale, size=(2, 3))
    off = rng.normal(scale=0.3 * scale, size=2)

    def fn(ts):
        out = np.stack([scale * np.cos(ts), scale * np.sin(ts)], -1) + off
        for k in range(3):
            out[:, 0] += a[0, k] * np.cos((k + 2) * ts) + b[0, k] * np.sin((k + 2) * ts)
            out[:, 1] += a[1, k] * np.cos((k + 2) * ts) + b[1, k] * np.sin((k + 2) * ts)
        return out

    def dfn(ts):
        out = np.stack([-scale * np.sin(ts), scale * np.cos(ts)], -1)
        for k in range(3):
            m = k + 2
            out[:, 0] += m * (-a[0, k] * np.sin(m * ts) + b[0, k] * np.cos(m * ts))
            out[:, 1] += m * (-a[1, k] * np.sin(m * ts) + b[1, k] * np.cos(m * ts))
        return out

    return fn, dfn


def _crossing_winding(points, xi):
    """Signed crossing-count winding number (independent oracle)."""
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
    """Angle-summation winding number (second independent oracle)."""
    z = (points[:, 0] - xi[0]) + 1j * (points[:, 1] - xi[1])
    return int(round(float(np.sum(np.angle(np.roll(z, -1) / z))) / TWO_PI))


def _polygon_curve(points):
    points = np.asarray(points, dtype=float)
    ts = np.arange(len(points)) * (TWO_PI / len(points))
    return TraceCurve(ts=ts, points=points, derivs=np.zeros_like(points),
                      weights=np.full(len(points), TWO_PI / len(points)))


# --------------------------------------------------------------------------
# trace construction


def test_trace_identity_circle():
    c = trace_on_circle(identity_deformation(), (0, 0), 1.0, 64)
    assert np.allclose(np.linalg.norm(c.points, axis=1), 1.0, atol=1e-14)
    assert np.allclose(np.linalg.norm(c.derivs, axis=1), 1.0, atol=1e-14)


def test_trace_affine_exact_derivative():
    F = np.array([[1.3, 0.4], [-0.2, 0.8]])
    y = affine_deformation(F)
    eps = 0.37
    c = trace_on_circle(y, (0.1, -0.2), eps, 128)
    expected = np.einsum("ij,kj->ki", F,
                         eps * np.stack([-np.sin(c.ts), np.cos(c.ts)], -1))
    assert np.allclose(c.derivs, expected, atol=1e-14)


def test_trace_radial_example_speed_formula():
    # first-quadrant speed approaches sqrt(2) b / (cos t + sin t)^2 linearly in r
    b = 0.5
    y = example_radial(b)
    for r in (0.05, 0.01):
        c = trace_on_circle(y, (0, 0), r, 1024)
        quad = (c.ts > 0.05) & (c.ts < math.pi / 2 - 0.05)
        speeds = np.linalg.norm(c.derivs[quad], axis=1)
        target = math.sqrt(2) * b / (np.cos(c.ts[quad]) + np.sin(c.ts[quad])) ** 2
        assert np.max(np.abs(speeds - target)) <= 1.0 * r


def test_trace_validation():
    with pytest.raises(TraceError):
        trace_on_circle(identity_deformation(), (0, 0), 1.0, 100)  # not power of two
    with pytest.raises(TraceError):
        trace_on_circle(identity_deformation(), (0, 0), 1.0, 32)
    y = example_radial(0.5)
    with pytest.raises(TraceError):
        trace_on_circle(y, (0.8, 0.0), 0.5, 64)  # exits the diamond
    with pytest.raises(TraceError):
        trace_on_circle(y, (0.1, 0.0), 0.1, 64)  # passes through the singularity


def _nan_on_right(x):
    """The identity, but NaN where x_0 > 0.28."""
    x = np.asarray(x, dtype=float)
    return np.where(x[..., :1] > 0.28, np.nan, x)


def test_trace_of_a_non_finite_map_raises():
    # NaN on part of S(0, 0.3), in the map or in its gradient alone
    grad_id = identity_deformation().grad
    for y in (Deformation(eval=_nan_on_right, grad=grad_id),
              Deformation(eval=lambda x: np.asarray(x, dtype=float).copy(),
                          grad=lambda x: _nan_on_right(x)[..., None] * grad_id(x))):
        with pytest.raises(TraceError, match="not finite"):
            trace_on_circle(y, (0, 0), 0.3, 512)
        trace_on_circle(y, (0, 0), 0.25, 512)  # finite on the smaller circle


# --------------------------------------------------------------------------
# closest far pair of a trace polyline


def _brute_closest_far_pair(p):
    # every pair (i, i + s mod n), 5 <= s <= n/2: n (n/2 - 4) squared distances
    n = len(p)
    j = (np.arange(n)[:, None] + np.arange(5, n // 2 + 1)) % n
    dx, dy = p[j, 0] - p[:, None, 0], p[j, 1] - p[:, None, 1]
    return float(np.sqrt(np.min(dx * dx + dy * dy)))


def _random_closed_curves(rng, n):
    t = np.arange(n) * (TWO_PI / n)
    k = rng.integers(1, 7)
    r = 1.0 + rng.uniform(0.0, 0.9) * np.sin(k * t + rng.uniform(0.0, TWO_PI))
    yield np.stack([r * np.cos(t), r * np.sin(t)], -1)  # star-shaped
    yield np.stack([np.sin(t), rng.uniform(0.0, 1.0) * np.sin(2 * t)], -1)  # pinched eight
    yield np.stack([np.cos(t), np.abs(np.sin(t))], -1)  # folded onto a half-circle
    yield np.cumsum(rng.normal(size=(n, 2)), axis=0)  # random walk, closed by periodicity
    yield 5.0 + 1e-3 * rng.normal(size=(n, 2))  # collapsed: a few cells hold every point


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_closest_far_pair_is_the_brute_force_minimum(n, scale):
    rng = np.random.default_rng(n + int(math.log10(scale)))
    for _ in range(8):
        for p in _random_closed_curves(rng, n):
            p = scale * p
            assert closest_far_pair(p).hex() == _brute_closest_far_pair(p).hex()


@pytest.mark.parametrize("n", [64, 512])
def test_closest_far_pair_of_exact_duplicates(n):
    rng = np.random.default_rng(n)
    t = np.arange(n) * (TWO_PI / n)
    for gap in (5, 6, 17, n // 2):
        p = np.stack([np.cos(t), np.sin(t)], -1) * rng.uniform(0.5, 2.0)
        i = int(rng.integers(n))
        p[(i + gap) % n] = p[i]
        assert closest_far_pair(p) == _brute_closest_far_pair(p) == 0.0
    # a repeated point 4 apart is not a far pair
    p = np.stack([np.cos(t), np.sin(t)], -1)
    p[7] = p[3]
    assert closest_far_pair(p).hex() == _brute_closest_far_pair(p).hex()
    assert closest_far_pair(p) > 0.0
    p[9] = np.nan
    assert math.isnan(closest_far_pair(p))


# --------------------------------------------------------------------------
# degree


def test_winding_unit_circle():
    c = _manual_curve(*_circle_fns())
    assert winding_number(c, (0.0, 0.0)) == 1
    assert winding_number(c, (2.0, 0.0)) == 0


def test_winding_double_circle():
    c = _manual_curve(lambda ts: np.stack([np.cos(2 * ts), np.sin(2 * ts)], -1))
    assert winding_number(c, (0.0, 0.0)) == 2


def test_winding_boundary_proximity():
    c = _manual_curve(*_circle_fns())
    with pytest.raises(BoundaryProximityError):
        winding_number(c, (1.0, 0.0))


def test_winding_matches_crossing_oracle(rng):
    for _ in range(100):
        fn, dfn = _trig_curve(rng)
        c = _manual_curve(fn, n=512, derivs_fn=dfn)
        lo = c.points.min(axis=0) - 0.3
        hi = c.points.max(axis=0) + 0.3
        done = 0
        while done < 20:
            xi = rng.uniform(lo, hi)
            try:
                w = winding_number(c, xi)
            except BoundaryProximityError:
                continue
            assert w == _crossing_winding(c.points, xi)
            assert w == _angle_winding(c.points, xi)
            done += 1


def test_near_mask_matches_brute_force_distance(rng):
    # near-boundary mask against the distance to every segment, on points
    # scattered over the box, points perturbed off the samples by a few
    # tolerances, and segment midpoints
    for _ in range(10):
        fn, dfn = _trig_curve(rng)
        c = _manual_curve(fn, n=256, derivs_fn=dfn)
        tau = degree_tolerance(c)
        box = rng.uniform(c.points.min(0) - 0.3, c.points.max(0) + 0.3, size=(300, 2))
        on = c.points[rng.integers(0, len(c.points), 300)]
        on = on + rng.uniform(-3 * tau, 3 * tau, size=on.shape)
        mid = 0.5 * (c.points + np.roll(c.points, -1, axis=0))[:100]
        queries = np.concatenate([box, on, mid])
        degs, near = winding_numbers_grid(c, queries)

        p = c.points
        d = np.roll(p, -1, axis=0) - p
        rel = queries[:, None, :] - p[None, :, :]
        t = np.clip(np.sum(rel * d, axis=-1) / np.sum(d * d, axis=-1), 0.0, 1.0)
        dist = np.linalg.norm(rel - t[..., None] * d, axis=-1).min(axis=1)
        assert np.array_equal(near, dist <= tau)
        assert np.any(near[300:600]) and not np.all(near[300:600])
        assert np.all(near[600:])
        for xi, w in zip(queries[~near], degs[~near]):
            assert w == _angle_winding(p, xi)


def test_degrees_on_vertex_rows():
    # rows through vertices, horizontal edges and local extrema of y
    poly = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (3, 2), (3, 3), (1.5, 4),
            (0, 3)]
    c = _polygon_curve(poly)
    xs = np.linspace(-1.0, 4.0, 41)
    for yv in (0.0, 1.0, 2.0, 3.0, 4.0):
        queries = np.stack([xs, np.full_like(xs, yv)], -1)
        degs, near = winding_numbers_grid(c, queries)
        for xi, w, nb in zip(queries, degs, near):
            if not nb:
                assert w == _crossing_winding(c.points, xi) == _angle_winding(c.points, xi)
    assert winding_number(c, (0.5, 1.0)) == 1
    assert winding_number(c, (2.5, 1.0)) == 0
    assert winding_number(c, (0.5, 2.0)) == 1
    assert winding_number(c, (3.5, 2.0)) == 0
    assert winding_number(c, (1.5, 3.0)) == 1
    with pytest.raises(BoundaryProximityError):
        winding_number(c, (1.5, 4.0))  # the apex


def test_degrees_of_looped_curves():
    double = _manual_curve(lambda ts: np.stack([np.cos(2 * ts), np.sin(2 * ts)], -1),
                           n=256)
    eight = _manual_curve(lambda ts: np.stack([np.cos(ts), 0.5 * np.sin(2 * ts)], -1),
                          n=256)
    assert degree_range_on_grid(double, 40, 40) == {0, 2}
    assert degree_range_on_grid(eight, 40, 40) == {-1, 0, 1}
    assert winding_number(eight, (0.5, 0.0)) == -winding_number(eight, (-0.5, 0.0))
    for c in (double, eight):
        xs = np.linspace(-1.2, 1.2, 25)
        queries = np.stack(np.meshgrid(xs, xs), -1).reshape(-1, 2)
        degs, near = winding_numbers_grid(c, queries)
        for xi, w in zip(queries[~near], degs[~near]):
            assert w == _crossing_winding(c.points, xi) == _angle_winding(c.points, xi)


def _row_loop_degrees(curve, queries):
    """The crossing count one row (distinct query y) at a time: per row, the
    signed crossings of the half-open segments are sorted by x and
    suffix-summed, and every segment whose y-range widened by tau contains the
    row is distance-tested (loop oracle for the batched kernel)."""
    p = curve.points
    q = np.roll(p, -1, axis=0)
    d = q - p
    dd = np.maximum(np.einsum("kj,kj->k", d, d), 1e-300)
    ylo = np.minimum(p[:, 1], q[:, 1])
    yhi = np.maximum(p[:, 1], q[:, 1])
    sense = np.sign(d[:, 1]).astype(int)
    tau = degree_tolerance(curve)
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    degrees = np.zeros(len(queries), dtype=int)
    near = np.zeros(len(queries), dtype=bool)
    rows, row_of = np.unique(queries[:, 1], return_inverse=True)
    order = np.argsort(row_of, kind="stable")
    cuts = np.searchsorted(row_of[order], np.arange(len(rows) + 1))
    for r, yv in enumerate(rows):
        idx = order[cuts[r]:cuts[r + 1]]
        x = queries[idx, 0]
        k = np.flatnonzero((ylo <= yv) & (yv < yhi))
        xc = p[k, 0] + (yv - p[k, 1]) * d[k, 0] / d[k, 1]
        o = np.argsort(xc)
        right = np.append(np.cumsum(sense[k][o][::-1])[::-1], 0)
        degrees[idx] = right[np.searchsorted(xc[o], x, side="right")]
        k = np.flatnonzero((ylo - tau <= yv) & (yv <= yhi + tau))
        rx = x[:, None] - p[k, 0]
        ry = yv - p[k, 1]
        t = np.clip((rx * d[k, 0] + ry * d[k, 1]) / dd[k], 0.0, 1.0)
        fx = rx - t * d[k, 0]
        fy = ry - t * d[k, 1]
        near[idx] = np.any(fx * fx + fy * fy <= tau * tau, axis=1)
    return degrees, near


def _crossing_xs(curve, yv):
    p = curve.points
    d = np.roll(p, -1, axis=0) - p
    k = np.flatnonzero((np.minimum(p[:, 1], p[:, 1] + d[:, 1]) <= yv)
                       & (yv < np.maximum(p[:, 1], p[:, 1] + d[:, 1])))
    return p[k, 0] + (yv - p[k, 1]) * d[k, 0] / d[k, 1]


def test_batched_degrees_match_row_loop_oracle(rng):
    # every degree, near points included, and every near bit equal the
    # row-by-row loop's
    poly = _polygon_curve([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (3, 2), (3, 3),
                           (1.5, 4), (0, 3)])  # horizontal edges, rows through vertices
    fn, dfn = _trig_curve(rng)
    curves = [poly, _manual_curve(fn, n=512, derivs_fn=dfn),
              trace_on_circle(example_radial(0.5), (0, 0), 0.25, 512),
              trace_on_circle(example_spike(), (0, 0), 0.25, 512)]
    for c in curves:
        p, tau = c.points, degree_tolerance(c)
        lo, hi = p.min(axis=0), p.max(axis=0)
        xs = np.linspace(lo[0] - 0.5, hi[0] + 0.5, 37)
        vertex_rows = np.stack(np.meshgrid(xs, p[rng.integers(0, len(p), 12), 1]),
                               -1).reshape(-1, 2)
        yv = p[len(p) // 3, 1]
        xc = _crossing_xs(c, yv)
        ties = np.stack([xc, np.full_like(xc, yv)], -1)
        scattered = rng.uniform(lo - 0.3, hi + 0.3, size=(300, 2))
        perturbed = p[rng.integers(0, len(p), 300)] + rng.uniform(-3 * tau, 3 * tau,
                                                                   size=(300, 2))
        outside = np.array([[hi[0] + 2, hi[1] + 1], [lo[0] - 3, yv], [lo[0], hi[1] + 5]])
        duplicates = np.repeat(np.vstack([scattered[:20], ties[:2], p[:3]]), 3, axis=0)
        sets = [vertex_rows, ties, p, perturbed, outside, duplicates, scattered[:1],
                np.vstack([vertex_rows, ties, p, perturbed, outside, duplicates, scattered])]
        for queries in sets:
            degs, near = winding_numbers_grid(c, queries)
            want_degs, want_near = _row_loop_degrees(c, queries)
            assert degs.dtype == want_degs.dtype
            assert np.array_equal(degs, want_degs) and np.array_equal(near, want_near)
        assert np.all(near[len(vertex_rows) + len(ties):][:len(p)])  # the trace nodes
    # a query exactly tau above the top vertex (below the bottom one) is near
    for s in (1.0, -1.0):
        c = _polygon_curve([(0, 0), (1, -3 * s), (-1, -3 * s)])
        queries = np.array([[0.0, s * degree_tolerance(c)], [0.0, 2 * s * degree_tolerance(c)]])
        degs, near = winding_numbers_grid(c, queries)
        assert near.tolist() == [True, False]
        assert np.array_equal(near, _row_loop_degrees(c, queries)[1])
    # 10^4 scattered points, each on its own row
    c = curves[2]
    queries = rng.uniform(c.points.min(axis=0) - 0.1, c.points.max(axis=0) + 0.1,
                          size=(10_000, 2))
    assert len(np.unique(queries[:, 1])) == len(queries)
    degs, near = winding_numbers_grid(c, queries)
    want_degs, want_near = _row_loop_degrees(c, queries)
    assert np.array_equal(degs, want_degs) and np.array_equal(near, want_near)
    assert set(np.unique(degs).tolist()) == {0, 1}


def test_topological_image_contains_radial():
    y = example_radial(0.5)
    c = trace_on_circle(y, (0, 0), 0.2, 512)
    assert topological_image_contains(c, (0.0, 0.0)) == INSIDE
    assert topological_image_contains(c, (0.9, 0.9)) == OUTSIDE
    # a point essentially on the image curve
    assert topological_image_contains(c, tuple(c.points[7])) == NEAR_BOUNDARY


@pytest.mark.parametrize("key", ["radial", "change-of-reference"])
def test_batched_membership_matches_point_queries(key, rng):
    # one crossing count for a batch of queries labels every query as the
    # single-point API does
    y = make_example(key, 0.5)
    rho = 0.25
    c = trace_on_circle(y, (0, 0), rho, 512)
    row = np.stack([np.linspace(-1.5, 1.5, 41), np.full(41, c.points[3, 1])], -1)
    # the image of a point of the circle between two nodes: off the polyline
    on_circle = y.eval(rho * np.array([[math.cos(0.3), math.sin(0.3)]]))
    outside_box = np.array([[5.0, 5.0], [-3.0, 0.1], [0.1, 7.0]])
    r, t = np.sqrt(rng.uniform(0, 0.8, 200)), rng.uniform(0, TWO_PI, 200)
    images = y.eval(np.stack([r * np.cos(t), r * np.sin(t)], -1))
    queries = np.vstack([row, c.points[7:8], on_circle, outside_box, images])
    degs, near = winding_numbers_grid(c, queries)
    batch = [NEAR_BOUNDARY if nb else INSIDE if d != 0 else OUTSIDE
             for d, nb in zip(degs, near)]
    assert batch == [topological_image_contains(c, q) for q in queries]
    assert batch[41] == NEAR_BOUNDARY  # a trace node
    assert set(batch[-203:-200]) == {OUTSIDE} and {INSIDE, OUTSIDE} <= set(batch[:41])


def test_degree_range_catalog():
    for key in ("radial", "change-of-reference", "superposition", "spike"):
        y = make_example(key, 0.5)
        c = trace_on_circle(y, (0, 0), 0.15, 512)
        degs = degree_range_on_grid(c, 60, 60)
        assert degs <= {0, 1}, (key, degs)


def test_two_bubble_images_disjoint(rng):
    # two compactly supported cavity bubbles; their enclosed images on a grid
    # never overlap
    centers = np.array([[-0.45, 0.0], [0.45, 0.0]])
    rho, T = 0.2, 0.4

    def g(t):
        u = np.clip(t / T, 0.0, 1.0)
        return t + rho * (1.0 - (3 * u * u - 2 * u**3))

    def dg(t):
        u = np.clip(t / T, 0.0, 1.0)
        return 1.0 - rho * 6 * u * (1 - u) / T

    def ev(x):
        x = np.asarray(x, dtype=float)
        out = x.copy()
        for a in centers:
            d = x - a
            r = np.linalg.norm(d, axis=-1, keepdims=True)
            inside = (r < T) & (r > 0)
            out = np.where(inside, a + g(r) * d / np.where(r > 0, r, 1.0), out)
        return out

    def gr(x):
        # g(r)/r on the tangent and g'(r) on the radial direction
        x = np.asarray(x, dtype=float)
        out = np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()
        for a in centers:
            d = x - a
            r = np.linalg.norm(d, axis=-1)
            inside = ((r < T) & (r > 0))[..., None, None]
            rs = np.where(r > 0, r, 1.0)
            e = d / rs[..., None]
            ee = e[..., :, None] * e[..., None, :]
            iso = (g(rs) / rs)[..., None, None]
            mat = iso * np.eye(2) + (dg(rs)[..., None, None] - iso) * ee
            out = np.where(inside, mat, out)
        return out

    probe = rng.uniform(-0.8, 0.8, size=(200, 2))
    assert np.allclose(gr(probe), finite_difference_grad(ev, probe), atol=1e-6)
    y = Deformation(eval=ev, grad=gr)
    ca = trace_on_circle(y, centers[0], 0.1, 256)
    cb = trace_on_circle(y, centers[1], 0.1, 256)
    xs = np.linspace(-1, 1, 80)
    pts = np.stack(np.meshgrid(xs, xs), -1).reshape(-1, 2)
    ina, inb = (_inside_not_near(c, pts) for c in (ca, cb))
    assert np.any(ina) and np.any(inb)
    assert not np.any(ina & inb)


def _inside_not_near(curve, pts):
    """Points of nonzero degree; points near the trace count as outside."""
    deg, near = winding_numbers_grid(curve, pts)
    return (deg != 0) & ~near


# --------------------------------------------------------------------------
# boundary integrals


def test_volume_unit_circle_and_ellipse():
    c = _manual_curve(*_circle_fns(), n=256)
    assert cavity_volume(c) == pytest.approx(math.pi, abs=1e-8)
    e = _manual_curve(lambda ts: np.stack([2 * np.cos(ts), np.sin(ts)], -1), n=256,
                      derivs_fn=lambda ts: np.stack([-2 * np.sin(ts), np.cos(ts)], -1))
    assert cavity_volume(e) == pytest.approx(2 * math.pi, abs=1e-8)
    assert cavity_perimeter(c) == pytest.approx(TWO_PI, abs=1e-8)


def test_volume_sign_detects_orientation():
    cw = _manual_curve(lambda ts: np.stack([np.cos(-ts), np.sin(-ts)], -1),
                       derivs_fn=lambda ts: np.stack([np.sin(-ts), -np.cos(-ts)], -1))
    assert cavity_volume_signed(cw) < 0
    assert cavity_volume(cw) == pytest.approx(math.pi, abs=1e-8)


def test_boundary_integrals_vs_dense_oracles(rng):
    # trapezoid boundary integrals at n=1024 against dense polygon oracles
    for _ in range(5):
        fn, dfn = _trig_curve(rng)
        curve = _manual_curve(fn, n=1024, derivs_fn=dfn)
        dense = fn(np.arange(2**17) * (TWO_PI / 2**17))
        shoelace = 0.5 * abs(np.sum(
            dense[:, 0] * np.roll(dense[:, 1], -1)
            - np.roll(dense[:, 0], -1) * dense[:, 1]))
        arclen = np.sum(np.linalg.norm(np.roll(dense, -1, axis=0) - dense, axis=1))
        assert abs(cavity_volume(curve) - shoelace) <= 1e-8
        assert abs(cavity_perimeter(curve) - arclen) <= 1e-6 * arclen


def _seam_equations(key):
    """Functions of x whose zero sets hold the gradient seams of a catalog
    map (and may hold more, which only adds split points)."""
    k = SQRT3 - 1.0

    def annulus(x):  # the superposition's inner map onto 1/2 < |z|_inf < 1
        m = max(abs(x[0]), abs(x[1]))
        return 0.5 * (m + 1.0) * x / m

    def spike_z(x):
        n = math.hypot(x[0], x[1])
        return 0.5 * (n + 1.0) * x / n

    return {
        "radial": [lambda x: x[0], lambda x: x[1]],
        "change-of-reference": [
            lambda x: x[0],
            lambda x: (4.0 if x[0] >= 0 else 1.0) * x[0] ** 2 + x[1] ** 2 - 1.0],
        "superposition": [
            lambda x: x[0], lambda x: x[1], lambda x: x[0] - x[1], lambda x: x[0] + x[1],
            lambda x: min(abs(annulus(x)[0]), abs(annulus(x)[1])) - 0.5],
        "spike": [lambda x: x[0],
                  lambda x: spike_z(x)[1] - k * abs(spike_z(x)[0]) - 0.5],
    }[key]


def _brentq_kinks(key, c, eps):
    """Angles at which S(c, eps) crosses a zero set of `_seam_equations`:
    sign changes on 4096 angles, refined by brentq."""
    from scipy.optimize import brentq

    ts = np.linspace(0.0, TWO_PI, 4097)
    out = []
    for F in _seam_equations(key):
        g = lambda t: F(np.asarray(c) + eps * np.array([math.cos(t), math.sin(t)]))
        v = np.array([g(t) for t in ts])
        out += [brentq(g, ts[i], ts[i + 1], xtol=1e-15)
                for i in np.flatnonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)]
    return out


def _quad_trace_metrics(y, key, c, eps):
    """Volume and perimeter of the trace on S(c, eps) by adaptive quadrature,
    split at the axes, the diagonals and the kinks that `_brentq_kinks` finds
    on the seam equations."""
    from scipy.integrate import quad

    def speed_and_area(t):
        x = np.asarray(c) + eps * np.array([math.cos(t), math.sin(t)])
        w = y.eval(x)
        dw = y.grad(x) @ (eps * np.array([-math.sin(t), math.cos(t)]))
        return math.hypot(dw[0], dw[1]), 0.5 * (w[0] * dw[1] - w[1] * dw[0])

    edges = sorted(set(np.arange(9) * (math.pi / 4)) | set(_brentq_kinks(key, c, eps)))
    vol = per = 0.0
    for lo, hi in zip(edges, edges[1:]):
        kw = dict(epsabs=0.0, epsrel=1e-13, limit=200)
        per += quad(lambda t: speed_and_area(t)[0], lo, hi, **kw)[0]
        vol += quad(lambda t: speed_and_area(t)[1], lo, hi, **kw)[0]
    return vol, per


@pytest.mark.parametrize("key", ["radial", "change-of-reference", "superposition",
                                 "spike"])
@pytest.mark.parametrize("eps", [0.2, 0.025])
def test_converged_trace_metrics_match_quad(key, eps):
    y = make_example(key, 0.5)
    m = converged_trace_metrics(y, (0, 0), eps)
    vol, per = _quad_trace_metrics(y, key, (0.0, 0.0), eps)
    assert m.converged and m.n_samples <= 1024
    assert m.orientation == 1
    assert m.volume == pytest.approx(vol, rel=1e-12)
    assert m.perimeter == pytest.approx(per, rel=1e-12)


@pytest.mark.parametrize("key, c, eps", [("spike", (0.1, 0.5), 0.1),
                                         ("change-of-reference", (0.3, 0.5), 0.2),
                                         ("radial", (0.2, 0.1), 0.15)],
                         ids=["spike", "change-of-reference", "radial"])
def test_off_centre_trace_metrics_converge(key, c, eps):
    # circles about points other than the singular point cross the seams at
    # kinks that the seams give from any center: the sweep converges below
    # the node cap, to the quad oracle split at independently found kinks
    y = make_example(key, 0.5)
    m = converged_trace_metrics(y, c, eps)
    vol, per = _quad_trace_metrics(y, key, c, eps)
    assert m.converged and m.n_samples < 2**14
    assert m.volume == pytest.approx(vol, rel=1e-9)
    assert m.perimeter == pytest.approx(per, rel=1e-9)


def test_converged_trace_metrics_reports_the_cap():
    # the superposition trace needs 256 nodes; a 128-node cap stops it first
    y = make_example("superposition")
    m = converged_trace_metrics(y, (0, 0), 0.1, n_max=128)
    assert not m.converged and m.n_samples == 128 and m.error > 1e-9
    assert converged_trace_metrics(y, (0, 0), 0.1).converged


def test_converged_trace_metrics_carry_their_estimate():
    # the radial trace is accepted at its first pass on its own estimate,
    # the larger relative one of volume and perimeter
    m = converged_trace_metrics(example_radial(0.5), (0, 0), 0.1)
    assert m.converged and m.n_samples == 128 and 0.0 < m.error <= 1e-9


# --------------------------------------------------------------------------
# tangential calculus


def test_tangential_gradient_identity():
    G = tangential_gradient_on_circle(identity_deformation(), (0, 0), 1.0, 0.0)
    assert np.allclose(G, [[0, 0], [0, 1]], atol=1e-14)


def test_tangential_gradient_affine():
    F = np.array([[2.0, 0.3], [-0.4, 1.1]])
    y = affine_deformation(F)
    for t in (0.0, 0.7, math.pi / 2, 4.0):
        nu = np.array([math.cos(t), math.sin(t)])
        expect = F @ (np.eye(2) - np.outer(nu, nu))
        G = tangential_gradient_on_circle(y, (0, 0), 0.5, t)
        assert np.allclose(G, expect, atol=1e-12)
        assert np.allclose(G @ nu, 0.0, atol=1e-12)


def test_tangential_jacobian_values():
    assert tangential_jacobian(identity_deformation(), (0, 0), 1.0, 1.234) == \
        pytest.approx(1.0, abs=1e-14)
    F = np.diag([2.0, 1.0])
    assert tangential_jacobian(affine_deformation(F), (0, 0), 1.0, math.pi / 2) == \
        pytest.approx(2.0, abs=1e-12)


def test_chart_identity_jacobian_vs_trace_speed(rng):
    # eps * J^t equals |w'| to near machine precision
    for key in ("radial", "change-of-reference", "superposition"):
        y = make_example(key, 0.5)
        eps = 0.17
        c = trace_on_circle(y, (0, 0), eps, 64)
        for i in range(0, 64, 7):
            jt = tangential_jacobian(y, (0, 0), eps, c.ts[i])
            speed = np.linalg.norm(c.derivs[i])
            assert abs(eps * jt - speed) <= 1e-10 * speed


def test_radial_example_jacobian_consistency():
    # the tangential jacobian of the radial example approaches the conical
    # speed profile linearly in the trace radius
    b, r = 0.5, 0.01
    y = example_radial(b)
    for t in (0.3, 0.8, 1.2):
        jt = tangential_jacobian(y, (0, 0), r, t)
        target = math.sqrt(2) * b / (math.cos(t) + math.sin(t)) ** 2 / r
        assert abs(jt - target) / target <= 2.5 * r


# --------------------------------------------------------------------------
# extrapolation


def test_extrapolate_exact_linear():
    rs = np.array([0.2, 0.1, 0.05])
    lim, unc = extrapolate_limit(rs, 5.0 + 3.0 * rs)
    assert lim == pytest.approx(5.0, abs=1e-12)
    assert unc <= 1e-12


def test_extrapolate_validation():
    with pytest.raises(ValueError):
        extrapolate_limit([0.2, 0.1], [1.0, 2.0])
    with pytest.raises(ValueError):
        extrapolate_limit([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])


def test_extrapolate_change_of_reference_perimeter():
    y = make_example("change-of-reference", 0.5)
    rs = [0.2, 0.1, 0.05, 0.025]
    pers = [cavity_perimeter(trace_on_circle(y, (0, 0), r, 4096)) for r in rs]
    lim, _ = extrapolate_limit(rs, pers)
    assert abs(lim - math.pi) <= 1e-3


def test_extrapolate_spike_perimeter():
    y = example_spike()
    rs = [0.2, 0.1, 0.05, 0.025]
    pers = [cavity_perimeter(trace_on_circle(y, (0, 0), r, 8192)) for r in rs]
    lim, _ = extrapolate_limit(rs, pers)
    assert abs(lim - (math.pi + 1.0)) <= 1e-2


@pytest.mark.parametrize("rs", [[0.2, 0.1, 0.05, 0.025], [0.3, 0.17, 0.1, 0.04]])
def test_extrapolate_exact_cubic(rs):
    # four points determine a cubic, dyadic or not
    rs = np.array(rs)
    lim, _ = extrapolate_limit(rs, 1.5 - 2.0 * rs + 7.0 * rs**2 - 11.0 * rs**3)
    assert lim == pytest.approx(1.5, abs=1e-12)


# (volume, perimeter) of the b = 0.5 catalog maps' vanishing-core limits; the
# spike's perimeter limit counts both sides of the collapsed spike
CATALOG_LIMITS = {
    "radial": (0.5, 2.0 * math.sqrt(2.0)),
    "change-of-reference": (math.pi / 4.0, math.pi),
    "superposition": (2.0, 4.0 * math.sqrt(2.0)),
    "spike": (math.pi / 4.0, math.pi + 1.0),
}


def _catalog_limits(key, rs):
    mets = [converged_trace_metrics(make_example(key, 0.5), (0, 0), r) for r in rs]
    return (extrapolate_limit(rs, [m.volume for m in mets]),
            extrapolate_limit(rs, [m.perimeter for m in mets]))


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_extrapolate_catalog_estimates_bound_errors(key):
    for (lim, unc), exact in zip(_catalog_limits(key, [0.2, 0.1, 0.05, 0.025]),
                                 CATALOG_LIMITS[key]):
        assert abs(lim - exact) <= unc + 1e-15  # up to rounding


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_extrapolate_catalog_on_the_ladder(key):
    for (lim, unc), exact in zip(_catalog_limits(key, dyadic_ladder(0.2)),
                                 CATALOG_LIMITS[key]):
        assert lim == pytest.approx(exact, abs=1e-10)
        assert unc <= 1e-10
