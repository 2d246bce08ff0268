"""Points, q-norms, flaw configurations, perforated domains, and small-matrix helpers.

Vectors are plain numpy arrays of shape (..., 2); 2x2 matrices have shape
(..., 2, 2). All operations broadcast over leading axes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a pseudoinverse is requested for a rank-deficient matrix."""


def qnorm(x, q):
    """q-norm of planar vectors; q may be any real >= 1 or inf."""
    if q < 1:
        raise ValueError(f"q-norm requires q >= 1, got {q}")
    x = np.asarray(x, dtype=float)
    a0, a1 = np.abs(x[..., 0]), np.abs(x[..., 1])
    if math.isinf(q):
        return np.maximum(a0, a1)
    if q == 1:
        return a0 + a1
    if q == 2:
        return norm2(x)
    return (a0**q + a1**q) ** (1.0 / q)


def norm2(x):
    """Euclidean norm of planar vectors from their two components (a numpy
    reduction over a length-2 axis is several times slower)."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1])


def det2(F):
    F = np.asarray(F, dtype=float)
    return F[..., 0, 0] * F[..., 1, 1] - F[..., 0, 1] * F[..., 1, 0]


def mat2(a, b, c, d):
    """The matrices [[a, b], [c, d]], shape (..., 2, 2), from broadcastable
    entry arrays."""
    out = np.empty(np.broadcast_shapes(*map(np.shape, (a, b, c, d))) + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def mul2(A, B):
    """Matrix product A B of 2x2 stacks, written out in entries (several
    times faster than a stacked matmul)."""
    a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    e, f, g, h = B[..., 0, 0], B[..., 0, 1], B[..., 1, 0], B[..., 1, 1]
    return mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def cof2(F):
    """Cofactor matrix: entry (i,j) is the signed minor of F[i,j]."""
    F = np.asarray(F, dtype=float)
    return mat2(F[..., 1, 1], -F[..., 1, 0], -F[..., 0, 1], F[..., 0, 0])


def adj2(F):
    """Adjugate (transpose of the cofactor matrix); F @ adj2(F) = det2(F) I."""
    return np.swapaxes(cof2(F), -1, -2)


def pseudoinverse(H):
    """Left pseudoinverse (H^T H)^{-1} H^T of a tall full-column-rank matrix.

    Satisfies pinv @ H = I, and H @ pinv v is the orthogonal projection of v
    onto the column span of H.

    Raises:
        SingularMatrixError: if H does not have full column rank.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] < H.shape[1]:
        raise ValueError(f"expected a tall matrix, got shape {H.shape}")
    G = H.T @ H
    # rank check before solving: tiny det relative to scale means rank deficiency
    scale = np.sum(H * H)
    if scale == 0.0 or np.linalg.det(G) <= 1e-24 * (scale / H.shape[1]) ** H.shape[1]:
        raise SingularMatrixError("matrix is rank deficient")
    return np.linalg.solve(G, H.T)


# --------------------------------------------------------------------------
# angular quadrature

@functools.cache
def gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1] (cached)."""
    return np.polynomial.legendre.leggauss(n)


def gauss_panels(start, width, n):
    """The n-point Gauss-Legendre rule on the panels [start, start + width], the one
    such map in the package: nodes of shape (..., n), weights that broadcast to it."""
    gx, gw = gauss_legendre(n)
    half = 0.5 * np.asarray(width)[..., None]
    return np.asarray(start)[..., None] + half * (gx + 1.0), half * gw


def angular_rule(n, kinks=()):
    """Composite Gauss-Legendre rule in the angle over [0, 2 pi) with about n
    nodes, as (angles, weights) of shape (panels, nodes per panel).

    The intervals between the angles k pi/4, where every q-norm in the package
    has its kinks, and the extra `kinks` get ceil(n / intervals) nodes each, on
    the fewest equal panels of at most 64 nodes. An integrand smooth between
    the kinks converges spectrally (Trefethen & Weideman, SIAM Rev. 56, 2014).
    Edges closer than 1e-12 merge."""
    edges = np.unique(np.append(np.arange(9) * (math.pi / 4.0),
                                np.mod(np.asarray(kinks, dtype=float), 2.0 * math.pi)))
    edges = edges[np.append(np.diff(edges) > 1e-12, True)]
    k = -(-n // (64 * (len(edges) - 1)))  # equal panels per interval, of at most 64 nodes
    cut = np.diff(edges)[:, None] * np.arange(k) / k  # the panel starts in each interval
    edges = np.append(edges[:-1, None] + cut, edges[-1])
    return gauss_panels(edges[:-1], np.diff(edges), -(-n // (len(edges) - 1)))


@functools.cache
def legendre_transform(m):
    """The m x m matrix taking values at the m Gauss-Legendre nodes to the
    Legendre coefficients of their interpolant (cached): a_k = (k + 1/2)
    sum_j w_j P_k(x_j) f_j, exact as the rule integrates degree 2m - 1."""
    x, w = gauss_legendre(m)
    return ((np.polynomial.legendre.legvander(x, m - 1) * w[:, None]).T
            * (np.arange(m) + 0.5)[:, None])


def panel_error(f, width):
    """Error estimates of Gauss panel sums, one per panel: f (..., m) holds
    values at the m nodes of panels of the given `width` (broadcasting).

    With a_k the values' Legendre coefficients, h = max |a_k| and tau the
    max over the last quarter (at least two): where the a_k decay
    geometrically, width tau^2 / h, the rho^(-2m) of Trefethen,
    *Approximation Theory and Approximation Practice* (SIAM 2013), Thm 19.3,
    with rho read off the decay (not below the sum's rounding, width h
    2^-52). The decay counts as geometric when the envelope falls over the
    second half at least a third as fast per index as from a_1 to there.
    Otherwise a tail below 1e-10 h gives width tau, and any other width h,
    which meets no tolerance (cf. Aurentz & Trefethen, ACM TOMS 43, 2017)."""
    m = f.shape[-1]
    q = max(2, m // 4)
    # a non-finite pass gives nan; an all-zero panel reads 0 (r is nan there)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = legendre_transform(m) @ np.reshape(f, (-1, m)).T  # (m, panels)
        np.abs(a, out=a)
        tau = np.maximum.reduce(a[m - q:])  # the maxima of a[k:], k = m - q, m - 2q, 1, 0
        mid = np.maximum(tau, np.maximum.reduce(a[m - 2 * q:m - q], initial=0.0))
        head = np.maximum(mid, np.maximum.reduce(a[1:m - 2 * q], initial=0.0))
        h = np.maximum(head, a[0])
        r = tau / h
        est = np.where(r <= 1e-10, tau, h)
        falls = 3 * (m - 2 * q - 1) * np.log(mid / tau) >= q * np.log(head / mid)  # per index
        est = np.where(falls, h * np.maximum(r * r, np.finfo(float).eps), est)
    return width * est.reshape(np.shape(f)[:-1])


def smoothstep(u):
    """The cubic smoothstep 3u^2 - 2u^3 of u clipped to [0, 1]."""
    u = np.clip(u, 0.0, 1.0)
    return 3.0 * u * u - 2.0 * u**3


def refine(pass_fn, tol, n_max):
    """The doubling refinement: pass_fn(n) -> (values, ok, error) for n =
    128, 256, ... up to n_max, `error` being the pass's estimate of its own
    error (broadcasting to `values`, a scalar or an array; inf if unknown).
    A pass is accepted when its error meets `tol` relative in every
    component or, from the second pass on, when it agrees with the pass
    before to `tol` relative in every component (the rules converge
    spectrally between declared kinks). Returns (values of the last pass,
    converged); converged is False at the cap, if any pass was not ok, or at
    a pass with a non-finite component, which ends the refinement. Raises
    ValueError, before any pass, unless 0 < tol < inf and n_max >= 128."""
    n, prev, all_ok = 128, None, True
    if not 0.0 < tol < math.inf:
        raise ValueError(f"refinement tolerance must be positive and finite, got {tol}")
    if n_max < n:
        raise ValueError(f"node cap {n_max} is below the first pass of {n} nodes")
    while True:
        vals, ok, err = pass_fn(n)
        all_ok = all_ok and bool(ok)
        cur = np.asarray(vals, dtype=float)
        if not np.all(np.isfinite(cur)):
            return vals, False
        scale = tol * np.maximum(np.abs(cur), 1e-30)
        if np.all(err <= scale) or (prev is not None and np.all(np.abs(cur - prev) <= scale)):
            return vals, all_ok
        if 2 * n > n_max:
            return vals, False
        prev, n = cur, 2 * n


# --------------------------------------------------------------------------
# confinement sets for flaw points


@dataclass(frozen=True)
class Confinement:
    """Compact region holding candidate flaw points: a closed disk or a closed
    axis-aligned square.  `size` is the disk radius or the square half-width.
    """

    kind: str  # "disk" | "square"
    center: tuple[float, float] = (0.0, 0.0)
    size: float = 0.6

    def __post_init__(self):
        if self.kind not in ("disk", "square"):
            raise ValueError(f"unknown confinement kind {self.kind!r}")
        if self.size <= 0:
            raise ValueError("confinement size must be positive")

    def contains(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = pts - np.asarray(self.center)
        if self.kind == "disk":
            return qnorm(d, 2) <= self.size + 1e-12
        return qnorm(d, np.inf) <= self.size + 1e-12

    def max_qnorm(self, q) -> float:
        """Largest |x|_q over the region (used for boundary-margin checks)."""
        c = np.asarray(self.center, dtype=float)
        if self.kind == "disk":
            # |c|_q + size * sup{|v|_q : |v|_2 = 1}, that sup being
            # 2^(1/q - 1/2) for q <= 2 and 1 for q >= 2
            gain = math.sqrt(2.0) ** max(2.0 / q - 1.0, 0.0)
            return float(qnorm(c, q) + self.size * gain)
        corners = c + self.size * np.array(
            [[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float
        )
        return float(np.max(qnorm(corners, q)))

    def grid(self, n: int) -> np.ndarray:
        """n x n grid of candidate points covering the region."""
        c = np.asarray(self.center, dtype=float)
        u = np.linspace(-self.size, self.size, n)
        xx, yy = np.meshgrid(u, u)
        pts = np.stack([xx.ravel(), yy.ravel()], axis=-1) + c
        return pts[self.contains(pts)]


def tight_confinement(points) -> Confinement:
    """Smallest practical disk confinement holding the given flaw points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    center = pts.mean(axis=0)
    radius = float(np.max(qnorm(pts - center, 2))) if len(pts) else 0.0
    return Confinement("disk", (float(center[0]), float(center[1])),
                       max(radius * 1.001, 1e-6))


@dataclass(frozen=True)
class FlawConfig:
    """A finite set of flaw points with a core radius and confinement data.

    Fields mirror the admissibility constraints: at most `max_count` points,
    all inside `confinement`, pairwise separated by at least 3 * eps.
    """

    points: np.ndarray
    eps: float
    max_count: int = 1
    confinement: Confinement = field(default_factory=lambda: Confinement("disk"))

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if self.eps <= 0:
            raise ValueError("core radius eps must be positive")
        if self.max_count < 1:
            raise ValueError("max_count must be at least 1")

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class Domain:
    """Reference domain: the open q-ball B_q(0, radius) for q in {1, 2, inf},
    optionally perforated by the closed disks of a FlawConfig.
    """

    q: float = 2.0
    radius: float = 1.0
    flaws: FlawConfig | None = None

    def __post_init__(self):
        if self.q not in (1, 2, math.inf):
            raise ValueError(f"domain q must be 1, 2 or inf, got {self.q}")
        if self.radius <= 0:
            raise ValueError("domain radius must be positive")

    def area(self) -> float:
        if self.q == 1:
            return 2.0 * self.radius**2
        if self.q == 2:
            return math.pi * self.radius**2
        return 4.0 * self.radius**2

    def contains(self, pts, *, closed: bool = False) -> np.ndarray:
        """Membership in the outer q-ball (open by default)."""
        pts = np.asarray(pts, dtype=float)
        n = qnorm(pts, self.q)
        return n <= self.radius if closed else n < self.radius

    def _holes(self, pts):
        """(distance from each point to the nearest flaw point, flaw radius):
        (inf, 0) without flaws."""
        d = np.full(np.shape(pts)[:-1], np.inf)
        if self.flaws is None:
            return d, 0.0
        for a in self.flaws.points:
            d = np.minimum(d, qnorm(np.asarray(pts, dtype=float) - a, 2))
        return d, self.flaws.eps

    def contains_perforated(self, pts) -> np.ndarray:
        """Membership in the perforated domain: inside, strictly outside every
        closed flaw disk. Sphere points are excluded robustly (a 1e-12
        relative band absorbs roundoff in the radius comparison)."""
        d, eps = self._holes(pts)
        return self.contains(pts) & (d > eps * (1.0 + 1e-12))

    def contains_perforated_closure_holes(self, pts) -> np.ndarray:
        """Membership in the domain minus the *open* flaw disks: sphere points
        are included (same roundoff band as contains_perforated)."""
        d, eps = self._holes(pts)
        return self.contains(pts) & (d >= eps * (1.0 - 1e-12))

    def _boundary_gap(self, qn):
        """Euclidean distance to the outer boundary from points of q-norm qn."""
        gap = self.radius - qn
        return gap / math.sqrt(2.0) if self.q == 1 else gap

    def dist_to_boundary(self, pts) -> np.ndarray:
        """Euclidean distance from interior points to the outer boundary."""
        return self._boundary_gap(qnorm(pts, self.q))


def boundary_margin(confinement: Confinement, outer: Domain) -> float:
    """Euclidean distance between the confinement region and the outer boundary."""
    return outer._boundary_gap(confinement.max_qnorm(outer.q))


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violations: tuple[str, ...]

    def __str__(self):
        return "valid" if self.ok else "; ".join(self.violations)


def validate_flaw_config(cfg: FlawConfig, outer: Domain) -> ValidityReport:
    """Check every flaw-set invariant and report all violations (never raises).

    Checks: cardinality bound, confinement of each point, pairwise 3*eps
    separation, and eps < dist(confinement, boundary).
    """
    violations: list[str] = []
    pts = cfg.points
    if len(pts) > cfg.max_count:
        violations.append(f"count {len(pts)} exceeds max_count {cfg.max_count}")
    inside = cfg.confinement.contains(pts)
    for i in np.nonzero(~inside)[0]:
        violations.append(f"point {i} at ({pts[i][0]:g}, {pts[i][1]:g}) "
                          "outside confinement")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = float(qnorm(pts[i] - pts[j], 2))
            if d < 3.0 * cfg.eps - 1e-12:
                violations.append(
                    f"points {i},{j} separated by {d:.6g} < 3*eps = {3 * cfg.eps:.6g}"
                )
    margin = boundary_margin(cfg.confinement, outer)
    if not cfg.eps < margin:
        violations.append(
            f"eps = {cfg.eps:.6g} not below boundary margin {margin:.6g}"
        )
    return ValidityReport(ok=not violations, violations=tuple(violations))
