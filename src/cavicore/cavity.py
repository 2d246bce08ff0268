"""Circle traces, degrees, and cavity volume/perimeter via boundary
integrals, plus the tangential calculus on circle charts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformation import Deformation
from .geometry import pseudoinverse

TWO_PI = 2.0 * math.pi


class BoundaryProximityError(ValueError):
    """Query point too close to the trace for a well-defined degree."""


class TraceError(ValueError):
    """Trace construction failed (bad sample count, circle outside domain,
    or a singular point on the circle)."""


@dataclass(frozen=True)
class TraceCurve:
    """Sampled closed image curve t -> y(a + eps (cos t, sin t)).

    `ts` are sorted parameters in [0, 2 pi); closure is by periodicity.
    A curve is uniform when `ts` is an equispaced grid (kink refinement
    inserts extra parameters and drops the flag).
    """

    center: np.ndarray
    eps: float
    ts: np.ndarray
    points: np.ndarray
    derivs: np.ndarray
    deriv_mode: str = "chain-rule"
    uniform: bool = True

    def __len__(self):
        return len(self.ts)

    @property
    def diameter(self) -> float:
        lo = np.min(self.points, axis=0)
        hi = np.max(self.points, axis=0)
        return float(np.linalg.norm(hi - lo))

    @property
    def dts(self) -> np.ndarray:
        """Periodic parameter increments, summing to 2 pi."""
        t = self.ts
        return np.diff(np.append(t, t[0] + TWO_PI))

    def integrate(self, f: np.ndarray) -> float:
        """Periodic trapezoid rule of nodal values f over the parameter."""
        fn = np.append(f, f[:1], axis=0)
        dt = self.dts
        return float(np.sum(0.5 * (fn[:-1] + fn[1:]) * dt))


@dataclass(frozen=True)
class CavityMetrics:
    volume: float
    perimeter: float
    degree_range: frozenset
    orientation: int  # sign of the enclosed signed area
    n_samples: int = 0


def _circle_points(a, eps, ts):
    return np.asarray(a, dtype=float) + eps * np.stack(
        [np.cos(ts), np.sin(ts)], axis=-1
    )


def trace_on_circle(
    y: Deformation,
    a,
    eps: float,
    n: int = 256,
    *,
    deriv: str = "auto",
    kinks="auto",
) -> TraceCurve:
    """Sample the image of the circle S(a, eps).

    n must be a power of two >= 64 (the base grid; kink refinement may insert
    extra parameters around derivative jumps reported by the deformation).
    Derivatives come from the chain rule when the map has an analytic
    gradient, otherwise from central differences in the parameter.
    """
    a = np.asarray(a, dtype=float)
    if n < 64 or (n & (n - 1)) != 0:
        raise TraceError(f"sample count must be a power of two >= 64, got {n}")
    if eps <= 0:
        raise TraceError("trace radius must be positive")
    ts = np.arange(n) * (TWO_PI / n)
    uniform = True

    kink_list: list[float] = []
    if kinks == "auto" and y.trace_kinks is not None:
        kink_list = list(y.trace_kinks(a, eps))
    elif isinstance(kinks, (list, tuple, np.ndarray)):
        kink_list = list(kinks)
    if kink_list:
        off = 1e-9
        extra = []
        for tk in kink_list:
            tk = tk % TWO_PI
            extra.extend([(tk - off) % TWO_PI, (tk + off) % TWO_PI])
        ts = np.unique(np.concatenate([ts, extra]))
        uniform = False

    pts = _circle_points(a, eps, ts)
    if y.domain is not None:
        ok = y.domain.contains(pts, closed=True)
        if not np.all(ok):
            raise TraceError("circle exits the deformation domain")
    if len(y.singular_points):
        for s in y.singular_points:
            if np.min(np.linalg.norm(pts - s, axis=-1)) < 1e-12:
                raise TraceError("circle passes through a singular point")

    w = y.eval(pts)
    use_chain = deriv == "chain" or (deriv == "auto" and y.grad_mode == "analytic")
    if use_chain:
        tang = eps * np.stack([-np.sin(ts), np.cos(ts)], axis=-1)
        dw = np.einsum("...ij,...j->...i", y.grad(pts), tang)
        mode = "chain-rule"
    else:
        # spectral-grade central differences in the parameter
        dtf = np.roll(ts, -1) - ts
        dtf[-1] += TWO_PI
        dtb = np.roll(dtf, 1)
        dw = (np.roll(w, -1, axis=0) - np.roll(w, 1, axis=0)) / (dtf + dtb)[:, None]
        mode = "central-difference"
    return TraceCurve(center=a, eps=float(eps), ts=ts, points=w, derivs=dw,
                      deriv_mode=mode, uniform=uniform)


# --------------------------------------------------------------------------
# degree and topological image


def degree_tolerance(curve: TraceCurve) -> float:
    return 1e-7 * curve.diameter


def winding_numbers_grid(curve: TraceCurve, queries):
    """Degrees of the closed sample polyline around many query points.

    Returns (degrees, near_boundary_mask); degrees are meaningless where the
    mask is set. Queries are grouped into rows of equal y. On each row the
    signed crossings of the half-open segments y0 <= y < y1 are sorted by x
    and suffix-summed, so a degree is the signed count of crossings to the
    right of its query (Hormann & Agathos, Comput. Geom. 20, 2001). A query
    is near the boundary when its squared distance to a segment is at most
    tau^2, tau = degree_tolerance(curve); only segments whose y-range,
    widened by tau, contains the row are tested.
    """
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


def degree_range_on_grid(curve: TraceCurve, nx: int = 200, ny: int = 200,
                         pad: float = 0.1) -> frozenset:
    """Set of degrees observed on a bounding-box query grid (near-boundary
    points skipped)."""
    lo = np.min(curve.points, axis=0)
    hi = np.max(curve.points, axis=0)
    span = hi - lo
    lo = lo - pad * span
    hi = hi + pad * span
    xs, ys = np.meshgrid(np.linspace(lo[0], hi[0], nx), np.linspace(lo[1], hi[1], ny))
    degs, near = winding_numbers_grid(curve, np.stack([xs.ravel(), ys.ravel()], axis=-1))
    return frozenset(np.unique(degs[~near]).tolist())


# --------------------------------------------------------------------------
# boundary integrals


def cavity_volume_signed(curve: TraceCurve) -> float:
    """Signed enclosed area (1/2) oint (w x w') dt; positive for curves
    winding counterclockwise."""
    w, dw = curve.points, curve.derivs
    integrand = 0.5 * (w[:, 0] * dw[:, 1] - w[:, 1] * dw[:, 0])
    return curve.integrate(integrand)


def cavity_volume(curve: TraceCurve) -> float:
    """Area enclosed by the trace (absolute value of the signed area)."""
    return abs(cavity_volume_signed(curve))


def cavity_perimeter(curve: TraceCurve) -> float:
    """Length of the trace, oint |w'(t)| dt."""
    return curve.integrate(np.linalg.norm(curve.derivs, axis=-1))


def converged_trace_metrics(
    y: Deformation,
    a,
    eps: float,
    *,
    n0: int = 256,
    tol: float = 1e-9,
    n_max: int = 2**14,
    degree_grid: int = 0,
) -> CavityMetrics:
    """Volume and perimeter with sample doubling until successive values agree
    to `tol` (relative) or n_max is reached."""
    n = n0
    prev = None
    while True:
        curve = trace_on_circle(y, a, eps, n)
        vol = cavity_volume(curve)
        per = cavity_perimeter(curve)
        if prev is not None:
            dv = abs(vol - prev[0]) / max(abs(vol), 1e-30)
            dp = abs(per - prev[1]) / max(abs(per), 1e-30)
            if max(dv, dp) < tol or n >= n_max:
                break
        if n >= n_max:
            break
        prev = (vol, per)
        n *= 2
    degs = frozenset()
    if degree_grid:
        degs = degree_range_on_grid(curve, degree_grid, degree_grid)
    sgn = 1 if cavity_volume_signed(curve) >= 0 else -1
    return CavityMetrics(volume=vol, perimeter=per, degree_range=degs,
                         orientation=sgn, n_samples=n)


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


def extrapolate_limit(rs, vals, *, degree: int | None = None):
    """Extrapolate a radius-indexed metric to r -> 0 by polynomial least
    squares in r, returning (limit, uncertainty).

    The fit is linear for three points and quadratic from four points up
    (degree can be forced). The uncertainty is the standard error of the
    intercept from the fit residual.
    """
    rs = np.asarray(rs, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if len(rs) < 3:
        raise ValueError("need at least three radii to extrapolate")
    if np.any(np.diff(rs) >= 0):
        raise ValueError("radii must be strictly decreasing")
    if degree is None:
        degree = 1 if len(rs) < 4 else 2
    degree = min(degree, len(rs) - 2)
    X = np.vander(rs, degree + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(X, vals, rcond=None)
    resid = vals - X @ coef
    dof = max(len(rs) - (degree + 1), 1)
    sigma2 = float(resid @ resid) / dof
    cov00 = np.linalg.inv(X.T @ X)[0, 0]
    return float(coef[0]), float(math.sqrt(max(sigma2 * cov00, 0.0)))
