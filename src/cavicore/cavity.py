"""Circle traces, degrees, and cavity volume/perimeter via boundary
integrals, plus the tangential calculus on circle charts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .deformation import Deformation
from .geometry import angular_rule, panel_error, pseudoinverse, refine
from .seams import TWO_PI, Arc, circle_kinks


class BoundaryProximityError(ValueError):
    """Query point too close to the trace for a well-defined degree."""


class TraceError(ValueError):
    """Trace construction failed (bad sample count, circle outside domain,
    a singular point on the circle, or a non-finite map or gradient on it)."""


@dataclass(frozen=True)
class TraceCurve:
    """Sampled closed image curve t -> y(a + eps (cos t, sin t)).

    `ts` are sorted parameters in [0, 2 pi); closure is by periodicity.
    `weights` are the quadrature weights of the parameters: 2 pi / n on the
    uniform polyline, composite Gauss-Legendre on a panel trace, shaped
    (panels, nodes per panel) there.
    """

    ts: np.ndarray
    points: np.ndarray
    derivs: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return len(self.ts)

    @cached_property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        """The corners (lo, hi) of the points' bounding box."""
        return np.min(self.points, axis=0), np.max(self.points, axis=0)

    @cached_property
    def diameter(self) -> float:
        lo, hi = self.bbox
        return float(np.linalg.norm(hi - lo))

    @cached_property
    def area_density(self) -> np.ndarray:
        """The signed-area density (1/2) w x w' at the nodes."""
        w, dw = self.points, self.derivs
        return 0.5 * (w[:, 0] * dw[:, 1] - w[:, 1] * dw[:, 0])

    def integrate(self, f: np.ndarray) -> float:
        """Quadrature of nodal values f over the parameter."""
        return float(self.weights.ravel() @ f)

    def error(self, f: np.ndarray):
        """The error estimate of `integrate` for each row of f (..., n): the
        sum of `geometry.panel_error` over a panel trace's panels; inf on the
        polyline."""
        f = np.asarray(f, dtype=float)
        if self.weights.ndim == 1:
            return np.full(f.shape[:-1], math.inf)
        panels = np.reshape(f, f.shape[:-1] + self.weights.shape)
        return np.sum(panel_error(panels, np.sum(self.weights, axis=-1)), axis=-1)


@dataclass(frozen=True)
class CavityMetrics:
    volume: float
    perimeter: float
    orientation: int  # sign of the enclosed signed area
    n_samples: int  # trace nodes of the last pass
    converged: bool  # False when the node cap stopped the refinement
    error: float  # the last pass's estimate: the larger of volume's and perimeter's, relative


def _trace(y: Deformation, a, eps: float, ts, weights) -> TraceCurve:
    """The image of S(a, eps) at the parameters ts, with chain-rule
    derivatives."""
    if eps <= 0:
        raise TraceError("trace radius must be positive")
    pts = Arc(a, eps).at(ts)
    if y.domain is not None:
        ok = y.domain.contains(pts, closed=True)
        if not np.all(ok):
            raise TraceError("circle exits the deformation domain")
    if len(y.singular_points):
        for s in y.singular_points:
            if np.min(np.linalg.norm(pts - s, axis=-1)) < 1e-12:
                raise TraceError("circle passes through a singular point")
    w, G = y.eval(pts), y.grad(pts)
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(G))):
        raise TraceError("map or gradient not finite on the circle")
    tang = eps * np.stack([-np.sin(ts), np.cos(ts)], axis=-1)
    dw = np.einsum("...ij,...j->...i", G, tang)
    return TraceCurve(ts=ts, points=w, derivs=dw, weights=weights)


def trace_on_circle(y: Deformation, a, eps: float, n: int = 256) -> TraceCurve:
    """The image of the circle S(a, eps) at n equispaced parameters: the
    polyline for degree, membership and injectivity queries. Its weights
    2 pi / n make `integrate` the periodic trapezoid rule.

    n must be a power of two >= 64."""
    if n < 64 or (n & (n - 1)) != 0:
        raise TraceError(f"sample count must be a power of two >= 64, got {n}")
    return _trace(y, np.asarray(a, dtype=float), eps, np.arange(n) * (TWO_PI / n),
                  np.full(n, TWO_PI / n))


def panel_tracer(y: Deformation, a, eps: float):
    """The panel traces of S(a, eps) for boundary integrals: n -> the image of
    the circle at the nodes of `angular_rule(n, kinks)`, with the angles where
    it crosses the map's seams as the extra kinks, derived once."""
    a = np.asarray(a, dtype=float)
    kinks = circle_kinks(y.seams, a, eps)

    def trace(n):  # weights keep the rule's panel shape, for `TraceCurve.error`
        ts, weights = angular_rule(n, kinks)
        return _trace(y, a, eps, ts.ravel(), weights)
    return trace


# --------------------------------------------------------------------------
# degree and topological image


def degree_tolerance(curve: TraceCurve) -> float:
    return 1e-7 * curve.diameter


def _ranges(lo, hi):
    """The pairs (j, i) with lo[j] <= i < hi[j], ordered by j then i."""
    n = hi - lo
    j = np.repeat(np.arange(len(lo)), n)
    return j, np.arange(len(j)) - np.repeat(np.cumsum(n) - n - lo, n)


FAR_GAP = 5  # the least cyclic index gap of a pair in closest_far_pair


def closest_far_pair(points) -> float:
    """The least distance between two of the n points of a closed polyline
    whose cyclic index gap is from FAR_GAP to n/2, without forming all
    those pairs.

    delta^2, the least squared distance at gap FAR_GAP, bounds it. Every pair
    closer than delta lies in the same or in neighbouring cells of a grid of
    side delta (1 + 1e-9), so only the pairs of such cells are formed, each
    cell pair once: at most n (n - 1) / 2 on a collapsed curve, O(n) on a
    curve whose points are about delta apart. Squared distances are exact
    under a sign flip, so the result has the bits of the minimum over all
    pairs. 0 if delta is; NaN if a point is not finite."""
    p = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(p)):
        return math.nan
    n = len(p)
    d = np.roll(p, -FAR_GAP, axis=0) - p
    best = np.min(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    if best == 0.0:
        return 0.0
    # cells of at least 2^-20 of the span keep the cell indices below 2^20, so
    # their rounding errors stay far inside the 1e-9 margin
    lo = np.min(p, axis=0)
    span = float(np.max(np.max(p, axis=0) - lo))
    h = max(math.sqrt(best) * (1.0 + 1e-9), span * 2.0**-20)
    cell = np.floor((p - lo) / h).astype(np.int64)
    width = int(np.max(cell[:, 1])) + 3  # a row of cells, with one spare each side
    key = cell[:, 0] * width + cell[:, 1] + 1
    order = np.argsort(key, kind="stable")
    sk = key[order]
    # the same cell after the point, then the cells above, right-below, right, right-above
    los, his = [np.arange(1, n + 1)], [np.searchsorted(sk, sk, side="right")]
    for step in (1, width - 1, width, width + 1):
        los.append(np.searchsorted(sk, sk + step))
        his.append(np.searchsorted(sk, sk + step, side="right"))
    j, k = _ranges(np.concatenate(los), np.concatenate(his))
    a, b = order[j % n], order[k]
    gap = np.abs(a - b)
    far = np.minimum(gap, n - gap) >= FAR_GAP
    dx, dy = p[b[far], 0] - p[a[far], 0], p[b[far], 1] - p[a[far], 1]
    return float(np.sqrt(np.min(dx * dx + dy * dy, initial=best)))


def winding_numbers_grid(curve: TraceCurve, queries):
    """Degrees of the closed sample polyline around many query points.

    Returns (degrees, near_boundary_mask); degrees are meaningless where the
    mask is set. The crossings of the half-open segments ylo <= y < yhi with
    the query rows (distinct y's) and the queries are sorted together by
    (row, x), a crossing before a query at equal x; one cumulative sum of the
    crossing senses then gives each degree as the signed count of its row's
    crossings to the right of the query (Hormann & Agathos, Comput. Geom. 20,
    2001). A query is near the boundary when its squared distance to a segment
    is at most tau^2, tau = degree_tolerance(curve); only segments whose
    y-range widened by tau contains the row, and whose x-range widened by
    2 tau contains the query, are tested: band events in the same sort.
    """
    p = curve.points
    q = np.roll(p, -1, axis=0)
    d = q - p
    dd = np.maximum(np.einsum("kj,kj->k", d, d), 1e-300)
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    tau = degree_tolerance(curve)
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    rows, row_of = np.unique(queries[:, 1], return_inverse=True)
    ck, cr = _ranges(np.searchsorted(rows, lo[:, 1]), np.searchsorted(rows, hi[:, 1]))
    bk, br = _ranges(np.searchsorted(rows, lo[:, 1] - tau),
                     np.searchsorted(rows, hi[:, 1] + tau, side="right"))
    # events by (row, x, kind): band starts, crossings, queries, band ends
    nb, nc, m = len(bk), len(ck), len(queries)
    row = np.concatenate([br, cr, row_of, br])
    xc = p[ck, 0] + (rows[cr] - p[ck, 1]) * d[ck, 0] / d[ck, 1]
    x = np.concatenate([lo[bk, 0] - 2 * tau, xc, queries[:, 0], hi[bk, 0] + 2 * tau])
    kind = np.repeat(np.arange(4, dtype=np.int8), [nb, nc, m, nb])
    order = np.lexsort((kind, x, row))
    pos = np.empty_like(order)
    pos[order] = np.arange(len(order))
    sense = np.zeros(len(order), dtype=int)
    sense[nb:nb + nc] = np.sign(d[ck, 1])
    senses = np.append(0, np.cumsum(sense[order]))  # sum of senses before each position
    row_end = senses[np.searchsorted(row[order], np.arange(len(rows)), side="right")]
    degrees = row_end[row_of] - senses[pos[nb + nc:nb + nc + m] + 1]
    # a band's candidate queries are those sorted between its start and end
    is_query = kind[order] == 2
    ranks = np.append(0, np.cumsum(is_query))  # queries before each position
    j, rank = _ranges(ranks[pos[:nb]], ranks[pos[nb + nc + m:]])
    k, i = bk[j], order[is_query][rank] - nb - nc
    rx, ry = queries[i, 0] - p[k, 0], queries[i, 1] - p[k, 1]
    t = np.clip((rx * d[k, 0] + ry * d[k, 1]) / dd[k], 0.0, 1.0)
    fx, fy = rx - t * d[k, 0], ry - t * d[k, 1]
    near = np.zeros(m, dtype=bool)
    near[i[fx * fx + fy * fy <= tau * tau]] = True
    return degrees, near


def winding_number(curve: TraceCurve, xi) -> int:
    """Degree of the trace around xi.

    Raises BoundaryProximityError when xi is within the proximity tolerance
    of the sampled polyline.
    """
    deg, near = winding_numbers_grid(curve, xi)
    if near[0]:
        raise BoundaryProximityError("query point too close to the trace")
    return int(deg[0])


INSIDE, OUTSIDE, NEAR_BOUNDARY = "inside", "outside", "near-boundary"


def topological_image_contains(curve: TraceCurve, xi) -> str:
    """Locate xi relative to the enclosed image region."""
    deg, near = winding_numbers_grid(curve, xi)
    if near[0]:
        return NEAR_BOUNDARY
    return INSIDE if deg[0] != 0 else OUTSIDE


def degree_range_on_grid(curve: TraceCurve, nx: int = 200, ny: int = 200) -> frozenset:
    """Set of degrees observed on an nx x ny query grid over the trace's
    bounding box, widened by a tenth of its span on each side (near-boundary
    points skipped)."""
    lo, hi = curve.bbox
    span = hi - lo
    lo = lo - 0.1 * span
    hi = hi + 0.1 * span
    xs, ys = np.meshgrid(np.linspace(lo[0], hi[0], nx), np.linspace(lo[1], hi[1], ny))
    degs, near = winding_numbers_grid(curve, np.stack([xs.ravel(), ys.ravel()], axis=-1))
    return frozenset(np.unique(degs[~near]).tolist())


# --------------------------------------------------------------------------
# boundary integrals


def cavity_volume_signed(curve: TraceCurve) -> float:
    """Signed enclosed area (1/2) oint (w x w') dt; positive for curves
    winding counterclockwise."""
    return curve.integrate(curve.area_density)


def cavity_volume(curve: TraceCurve) -> float:
    """Area enclosed by the trace (absolute value of the signed area)."""
    return abs(cavity_volume_signed(curve))


def cavity_perimeter(curve: TraceCurve) -> float:
    """Length of the trace, oint |w'(t)| dt."""
    return curve.integrate(np.linalg.norm(curve.derivs, axis=-1))


def converged_trace_metrics(y: Deformation, a, eps: float, *, tol: float = 1e-9,
                            n_max: int = 2**14) -> CavityMetrics:
    """Volume and perimeter from panel traces of 128, 256, ... nodes, refined
    by `geometry.refine` to `tol` (relative), each pass estimating its error
    by `TraceCurve.error` of the area density and of the speed. `n_samples`
    and `error` (the larger relative estimate) are the last pass's;
    `converged` is False when n_max nodes were reached first."""
    n_samples, error = 0, math.inf
    trace = panel_tracer(y, a, eps)

    def one_pass(n):
        nonlocal n_samples, error
        curve = trace(n)
        speed = np.linalg.norm(curve.derivs, axis=-1)
        vals = np.array([cavity_volume_signed(curve), curve.integrate(speed)])
        err = curve.error(np.stack([curve.area_density, speed]))
        n_samples, error = len(curve), float(np.max(err / np.maximum(np.abs(vals), 1e-30)))
        return vals, True, err

    (vol, per), converged = refine(one_pass, tol, n_max)
    return CavityMetrics(volume=float(abs(vol)), perimeter=float(per),
                         orientation=1 if vol >= 0 else -1,
                         n_samples=n_samples, converged=converged, error=error)


# --------------------------------------------------------------------------
# tangential calculus on the circle chart eta(t) = a + eps (cos t, sin t)


def tangential_gradient_on_circle(y: Deformation, a, eps: float, t: float):
    """Tangential gradient of the trace at angle t via the chart pseudoinverse:
    grad(y o eta) (D eta)^+. Annihilates the circle normal."""
    a = np.asarray(a, dtype=float)
    x = a + eps * np.array([math.cos(t), math.sin(t)])
    tang = eps * np.array([-math.sin(t), math.cos(t)])
    du = (y.grad(x) @ tang).reshape(2, 1)
    deta = tang.reshape(2, 1)
    return du @ pseudoinverse(deta)


def tangential_jacobian(y: Deformation, a, eps: float, t: float) -> float:
    """Surface Jacobian |cof(grad^t y) nu| of the trace at angle t."""
    G = tangential_gradient_on_circle(y, a, eps, t)
    nu = np.array([math.cos(t), math.sin(t)])
    cof = np.array([[G[1, 1], -G[1, 0]], [-G[0, 1], G[0, 0]]])
    return float(np.linalg.norm(cof @ nu))


# --------------------------------------------------------------------------
# limit extrapolation


LIMIT_LEVELS = 10  # rungs of the default radius ladder of the r -> 0 limits


def dyadic_ladder(r0: float) -> list[float]:
    """The default limit radii r0 2^-k, k < LIMIT_LEVELS."""
    return [r0 * 0.5**k for k in range(LIMIT_LEVELS)]


def extrapolate_limit(rs, vals):
    """(limit, error estimate) of a radius-indexed metric as r -> 0.

    A Neville-Aitken table evaluates the polynomial in r through all the
    points at r = 0 (on dyadic radii: Richardson's table, removing r, r^2, ...
    in turn). Its last row holds the values through the 1, 2, ... smallest
    radii; the error estimate is the difference of the last two."""
    rs = [float(r) for r in rs]
    if len(rs) < 3:
        raise ValueError("need at least three radii to extrapolate")
    if any(b >= a for a, b in zip(rs, rs[1:])):
        raise ValueError("radii must be strictly decreasing")
    row = []
    for k, (r, v) in enumerate(zip(rs, vals, strict=True)):
        new = [float(v)]
        for j in range(k):
            rj = rs[k - j - 1]
            new.append((rj * new[j] - r * row[j]) / (rj - r))
        row = new
    return row[-1], abs(row[-1] - row[-2])
