"""Stored-energy densities, bulk quadrature on perforated domains, the
regularized and limit energies, the perforation-aware determinant pairing,
and sampled admissibility checks."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cavity import (INSIDE, OUTSIDE, TRACE_TOL, CavityMetrics, closest_far_pair,
                     converged_trace_metrics, degree_range_on_grid, extrapolate_limit,
                     panel_tracer, trace_on_circle, winding_numbers_grid)
from .cavity import topological_image_contains  # noqa: F401 (perfbench patches it here)
from .deformation import Deformation
from .geometry import (Domain, FlawConfig, angular_rule, cof2, det2,
                       gauss_panels, mul2, norm2, panel_error, refine, smoothstep,
                       validate_flaw_config)
from .geometry import adj2  # noqa: F401 (perfbench patches it here)
from .seams import TWO_PI, Arc, pass_kinks, ray_breaks


# --------------------------------------------------------------------------
# stored-energy densities


@dataclass(frozen=True)
class Density:
    """Stored-energy density W(F) = |F|^p + g(det F) with exact derivative,
    so W >= |F|^p + g(det F) holds with coercivity constant 1.

    w and dw are vectorized over (..., 2, 2) matrix stacks; w returns +inf
    off the orientation-preserving cone. g is the volumetric part, with
    g -> inf at 0+ and superlinear growth; dg and ddg are its first and
    second derivatives on t > 0.
    """

    name: str
    p: float
    w: Callable[[np.ndarray], np.ndarray]
    dw: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    dg: Callable[[np.ndarray], np.ndarray]
    ddg: Callable[[np.ndarray], np.ndarray]


def _frob(F):
    a, b, c, d = F[..., 0, 0], F[..., 0, 1], F[..., 1, 0], F[..., 1, 1]
    return np.sqrt(a * a + b * b + c * c + d * d)


def _power_plus_volumetric(name: str, p: float, g_pos, dg, ddg) -> Density:
    """The density |F|^p + g(det F), with DW(F) = p |F|^(p-2) F + g'(det F) cof F.
    g_pos, dg and ddg are g, g' and g'' on t > 0; g is +inf on t <= 0."""

    def g(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0, g_pos(np.where(t > 0, t, 1.0)), np.inf)

    def w(F):
        F = np.asarray(F, dtype=float)
        d = det2(F)
        return np.where(d > 0, _frob(F) ** p + g(d), np.inf)

    def dw(F):
        F = np.asarray(F, dtype=float)
        d = det2(F)
        safe = np.where(d > 0, d, 1.0)[..., None, None]
        fro = _frob(F)[..., None, None]
        return p * fro ** (p - 2.0) * F + dg(safe) * cof2(F)

    return Density(name=name, p=p, w=w, dw=dw, g=g, dg=dg, ddg=ddg)


def default_density(p: float) -> Density:
    """|F|^p + (det F - 1)^2 + 1/det F on the orientation-preserving cone.

    Polyconvex, with volumetric part g(t) = (t-1)^2 + 1/t. Requires 2 <= p < inf."""
    if not 2 <= p < np.inf:
        raise ValueError(f"default density requires 2 <= p < inf, got {p}")
    return _power_plus_volumetric("standard", p,
                                  lambda t: (t - 1.0) ** 2 + 1.0 / t,
                                  lambda t: 2.0 * (t - 1.0) - 1.0 / t**2,
                                  lambda t: 2.0 + 2.0 / t**3)


def subquadratic_density(p: float) -> Density:
    """|F|^p + det F ln det F + 1/det F - 1, for 1 < p < 2.

    The subquadratic growth keeps the bulk energy of conical cavitating maps
    integrable, which the quadratic-determinant density does not."""
    if not 1.0 < p < 2.0:
        raise ValueError("subquadratic density requires 1 < p < 2")
    return _power_plus_volumetric("subquadratic", p,
                                  lambda t: t * np.log(t) + 1.0 / t - 1.0,
                                  lambda t: np.log(t) + 1.0 - 1.0 / t**2,
                                  lambda t: 1.0 / t + 2.0 / t**3)


DENSITY_FACTORIES = {"standard": default_density, "subquadratic": subquadratic_density}


def density_by_name(name: str, p: float) -> Density:
    try:
        return DENSITY_FACTORIES[name](p)
    except KeyError:
        raise KeyError(f"unknown density {name!r}; choose from {sorted(DENSITY_FACTORIES)}")


def stress_control_constant(density: Density, Fs) -> float:
    """Sampled sup of |F^T DW(F)| / (W(F) + 1), the constant of the stress
    control |F^T DW(F)| <= C (W(F) + 1)."""
    Fs = np.asarray(Fs, dtype=float)
    FtDW = mul2(np.swapaxes(Fs, -1, -2), density.dw(Fs))
    num = _frob(FtDW)
    den = density.w(Fs) + 1.0
    return float(np.max(num / den))


# --------------------------------------------------------------------------
# energy breakdown container


@dataclass(frozen=True)
class EnergyBreakdown:
    """Elastic + weighted cavity-volume + weighted cavity-perimeter terms."""

    elastic: float
    volume_term: float
    perimeter_term: float
    total: float
    lambdas: tuple[float, float]

    @classmethod
    def assemble(cls, elastic, volume_sum, perimeter_sum, lambdas):
        lv, lp = lambdas
        if not np.all(np.isfinite(lambdas)):
            raise ValueError(f"energy weights must be finite, got {lv}, {lp}")
        vt = lv * volume_sum
        pt = lp * perimeter_sum
        return cls(elastic=float(elastic), volume_term=float(vt),
                   perimeter_term=float(pt), total=float(elastic + vt + pt),
                   lambdas=(float(lv), float(lp)))


# --------------------------------------------------------------------------
# polar bulk quadrature
#
# Points are x = center + s * u(t) with u(t) the q-unit direction; the area
# element is (s / kappa(t)^2) ds dt with kappa(t) = |(cos t, sin t)|_q, so a
# Euclidean distance rho along the ray sits at s = rho * kappa(t). q = 2
# gives plain polar coordinates.

BLOCK = 8192  # integrand points per call: keeps temporaries cache-sized
NG = 8  # Gauss-Legendre nodes per radial panel
DYADIC_TOL = 1e-12  # a graded level adding less (absolute) ends the grading
DYADIC_LEVELS = 60  # halvings of the graded ray before the grading gives up
BULK_N_MAX = 2048  # node cap of a refined bulk or pairing pass
BULK_TOL = 1e-6  # relative agreement of successive bulk passes


def _eval_blocked(f, center, u, mid):
    """f at the points center + mid u[ray], mid of shape (..., rays, panels,
    NG), called on at most BLOCK points at a time. The points are built per
    coordinate (numpy's inner loop over a length-2 axis is slow). f returns
    one value per point, shape (points,), or k, shape (k, points)."""
    X = np.empty(mid.shape + (2,))
    X[..., 0] = center[0] + mid * u[:, None, None, 0]
    X[..., 1] = center[1] + mid * u[:, None, None, 1]
    pts = X.reshape(-1, 2)
    vals = None
    for i in range(0, len(pts), BLOCK):
        v = f(pts[i:i + BLOCK])
        if vals is None:
            vals = np.empty(v.shape[:-1] + (len(pts),))
        vals[..., i:i + BLOCK] = v
    return vals.reshape(vals.shape[:-1] + mid.shape)


def _kappa(q, t):
    c, s = np.cos(t), np.sin(t)
    if q == 1:
        return np.abs(c) + np.abs(s)
    if q == 2:
        return np.ones_like(t)
    return np.maximum(np.abs(c), np.abs(s))


def _column_sums(f, center, u, jw, lo, hi, p, points, radial=True):
    """Integrate f along the rays center + s u[i] over the columns s in
    [lo[j, i], hi[j, i]], shape (columns, rays), each split into p Gauss-NG
    panels; jw is each ray's angular weight times its area element 1/kappa^2.
    Columns empty on every ray are dropped; the others are evaluated about
    `points` points at a time (a larger column alone) and yield in order
    (sum, ray sums, radial error): the column's sum (a float, or one per
    component of f), summed on its own slice so that it does not depend on
    the others; its sum on each ray (shape (rays,) or (components, rays));
    and, with `radial`, the `panel_error` of its radial panels, each weighted
    by its ray's jw, summed (a float or one per component; 0 without)."""
    cols = np.flatnonzero(~np.all(hi <= lo, axis=1))
    step = max(1, points // (lo.shape[1] * p * NG))  # columns per group
    for i in range(0, len(cols), step):
        j = cols[i:i + step]
        width = ((hi[j] - lo[j]) / p)[..., None]
        start = lo[j][..., None] + width * np.arange(p)
        mid, ws = gauss_panels(start, width, NG)
        vals = _eval_blocked(f, center, u, mid)
        g = vals.reshape((-1,) + mid.shape)  # per component, in place: the integrand
        g *= mid  # along the rays, then its products with the weights
        err = (np.sum(panel_error(g, width) * jw[:, None], axis=(-2, -1)).T if radial
               else np.zeros((len(j), len(g))))
        g *= ws
        g *= jw[:, None, None]
        sums = np.array([[np.sum(col) for col in v] for v in g]).T  # one per column
        rays = np.sum(g, axis=(-2, -1)).transpose(1, 0, 2)
        if vals.ndim == mid.ndim:
            yield from zip(sums[:, 0].tolist(), rays[:, 0], err[:, 0].tolist())
        else:
            yield from zip(sums, rays, err)


def _dyadic_sum(f, center, u, jw, hi):
    """Integrate f over s in (0, hi] with dyadic panels toward 0; returns
    (value, converged, ray sums) as summed from `_column_sums`. The levels
    are added in order up to the first non-finite level or the first below
    DYADIC_TOL. They are evaluated in groups of about BLOCK points, the
    stop's group the last. The levels take no radial error estimate: graded
    toward the singular point, each converges at the same geometric rate."""
    edges = np.ldexp(hi, -np.arange(DYADIC_LEVELS + 1)[:, None])
    total = rays = 0.0
    for last, r, _ in _column_sums(f, center, u, jw, edges[1:], edges[:-1], 1, BLOCK,
                                   radial=False):
        total, rays = total + last, rays + r
        if not np.all(np.isfinite(last)):  # the total stays non-finite whatever follows
            return total, False, rays
        if np.all(np.abs(last) < DYADIC_TOL):
            return total, True, rays
    return total, False, rays


def _polar_integral(f, center, q, r_in, r_out, *, n, seams=(), singular=False):
    """One quadrature pass of f over {center + s u(t) : r_in kappa(t) <= s <=
    r_out}: the q-ball of radius r_out about `center` minus the Euclidean disk
    of radius r_in. f returns one value per point or k (shape (k, points));
    returns (value or k values, converged, error estimate of each).

    The rays are at the about n angles `angular_rule(n, kinks)`, with the
    `seams.pass_kinks` about `center` of `seams` and of the hole S(center,
    r_in), a circle seam like any other, as the extra kinks. Each ray is split
    where it crosses a seam (`seams.ray_breaks`, Euclidean distances converted
    to the radial coordinate), and each segment into n // 64 panels. With
    `singular` and r_in == 0 the ray is graded dyadically toward `center`
    below half its first split, or below r_out / 2 if it has none. The error
    estimate is the `panel_error` of the ray integrals on each angular panel
    plus that of every radial panel, weighted by its ray's angular weight."""
    c = np.asarray(center, dtype=float)
    hole = (Arc(tuple(c), r_in),) if r_in > 0 else ()
    t, wt = angular_rule(n, pass_kinks(tuple(seams) + hole, c))
    panels = t.shape
    t, wt = t.ravel(), wt.ravel()
    kap = _kappa(q, t)
    u = np.stack([np.cos(t), np.sin(t)], axis=-1) / kap[:, None]
    jw = (1.0 / kap**2) * wt
    lo = r_in * kap

    # splits inside (lo, r_out), sorted per ray and padded with r_out
    B = ray_breaks(seams, c, t) * kap[:, None]
    B = np.sort(np.where((B > lo[:, None] + 1e-14) & (B < r_out), B, r_out), axis=1)

    converged = True
    total = rays = err = 0.0
    if singular and r_in == 0.0:
        lo = 0.5 * np.min(B, axis=1, initial=r_out)
        total, converged, rays = _dyadic_sum(f, c, u, jw, lo)
    edges = np.concatenate([lo[None], B.T, np.full((1, len(t)), r_out)])
    # 32 blocks a group: 1 block saves about 1 MB RSS but slows admissibility by 10%
    segments = 0.0  # its own sum, added once: it does not depend on the grading
    for part, r, e in _column_sums(f, c, u, jw, edges[:-1], edges[1:], n // 64, 32 * BLOCK):
        segments, rays, err = segments + part, rays + r, err + e
    g = rays / wt  # the ray integrals, per angle
    err = err + np.sum(panel_error(g.reshape(g.shape[:-1] + panels),
                                   np.sum(wt.reshape(panels), axis=-1)), axis=-1)
    return total + segments, converged, err


def _smooth_blend(r, r_in, r_out):
    """1 at r <= r_in, 0 at r >= r_out, cubic smoothstep between."""
    return 1.0 - smoothstep((r - r_in) / (r_out - r_in))


def _patch_radius(a, domain: Domain, others, eps):
    """The radius of a flaw's partition-of-unity patch: 0.9 of its room (the
    distance to the boundary and half the separation from the other flaws),
    raised to 1.5 eps (1.2 eps in a tight room) unless that reaches the
    room; then 0.9 of the way from eps to the room."""
    room = float(domain.dist_to_boundary(a))
    for b in others:
        d = float(np.linalg.norm(np.asarray(a) - np.asarray(b)))
        if d > 0:
            room = min(room, 0.5 * d)
    if room <= eps:
        raise ValueError(f"a flaw patch about ({a[0]:g}, {a[1]:g}) has no room "
                         f"beyond eps = {eps:g}")
    cap = 0.9 * room
    r = max(cap, 1.5 * eps) if cap > 1.2 * eps else 1.2 * eps
    return r if r < room else eps + 0.9 * (room - eps)


def _integrate_perforated(f, domain: Domain, cfg: FlawConfig | None,
                          y: Deformation, *, n, singular=False, seams=()):
    """Integrate f over the perforated (or punctured, when singular) domain.

    With no flaw, or a single flaw at the domain center, this is one polar
    pass with the exact hole. Otherwise a smooth partition of unity splits the
    integral into per-flaw polar patches plus a background with the patches
    blended out. Every pass is split along y's seams and the extra `seams`
    where the integrand has reduced smoothness, and along its blend circles.
    f, the pass size n and the returned (value, converged, error estimate)
    are as for _polar_integral, summed over the passes.
    """
    seams = y.seams + tuple(seams)
    pts = cfg.points if cfg is not None and len(cfg) else np.zeros((0, 2))
    eps = 0.0 if singular or not len(pts) else cfg.eps
    if len(pts) <= 1 and np.allclose(pts, 0.0):
        at_center = pts if len(pts) else y.singular_points[:1]
        sing = singular and len(at_center) > 0 and np.allclose(at_center, 0.0)
        return _polar_integral(f, np.zeros(2), domain.q, eps, domain.radius,
                               seams=seams, singular=sing, n=n)

    radii = {i: _patch_radius(pts[i], domain, np.delete(pts, i, axis=0), cfg.eps)
             for i in range(len(pts))}

    def background(X):
        w = np.ones(X.shape[:-1])
        for i, a in enumerate(pts):
            w = w * (1.0 - _smooth_blend(norm2(X - a), cfg.eps, radii[i]))
        live = w > 1e-14  # w is 0 on every hole, which lies within r <= cfg.eps
        v = f(X[live]) * w[live]
        out = np.zeros(v.shape[:-1] + X.shape[:-1])
        out[..., live] = v
        return out

    blends = tuple(Arc(tuple(a), R) for i, a in enumerate(pts) for R in (radii[i], cfg.eps))
    total, conv, err = _polar_integral(background, np.zeros(2), domain.q, 0.0,
                                       domain.radius, seams=blends + seams, n=n)
    for i, a in enumerate(pts):
        def patch(X, a=a, i=i):
            r = norm2(X - a)
            return f(X) * _smooth_blend(r, cfg.eps, radii[i])

        val, ok, e = _polar_integral(patch, a, 2, eps, radii[i], singular=singular, n=n,
                                     seams=(Arc(tuple(a), cfg.eps),) + seams)
        total, err = total + val, err + e
        conv = conv and ok
    return total, conv, err


def _stored_energy(y: Deformation, density: Density, dom: Domain,
                   cfg: FlawConfig | None, *, singular=False, tol,
                   n_max=BULK_N_MAX):
    """The stored energy W(grad y) over `dom` perforated by `cfg` (punctured at
    its points when `singular`), refined by `geometry.refine` up to a pass of
    n_max nodes. Returns (value, converged)."""

    def f(X):
        return density.w(y.grad(X))

    return refine(lambda n: _integrate_perforated(f, dom, cfg, y, n=n, singular=singular),
                  tol, n_max)


# --------------------------------------------------------------------------
# energy operations


def elastic_energy(y: Deformation, dom: Domain, density: Density):
    """Bulk stored energy over the (possibly perforated) domain, refined until
    successive quadrature passes agree to BULK_TOL relative. Returns (value,
    converged); maps with degenerate rays can have genuinely divergent bulk
    energy, which shows up as a non-converging refinement."""
    return _stored_energy(y, density, dom, dom.flaws, tol=BULK_TOL)


def regularized_energy(y: Deformation, cfg: FlawConfig, dom: Domain,
                       density: Density, lambdas):
    """Core-radius energy: bulk term over `dom` perforated by `cfg`, refined
    to BULK_TOL, plus weighted volume and perimeter of each perforation trace.
    Returns (breakdown, converged), where converged is False when the bulk
    refinement or a trace sweep stopped unconverged."""
    vol, per, ok = _trace_terms(y, cfg, dom)
    el, el_ok = _stored_energy(y, density, dom, cfg, tol=BULK_TOL)
    return EnergyBreakdown.assemble(el, vol, per, lambdas), el_ok and ok


def _require_valid(cfg: FlawConfig, dom: Domain):
    """Raise ValueError unless `cfg` is a valid flaw configuration in `dom`."""
    report = validate_flaw_config(cfg, dom)
    if not report.ok:
        raise ValueError(f"invalid flaw configuration: {report}")


def _trace_terms(y: Deformation, cfg: FlawConfig, dom: Domain):
    """The volumes and perimeters of y's converged traces on each S(a, eps)
    of `cfg`, summed: (volume, perimeter, converged), converged False when a
    sweep stopped at its node cap. Raises ValueError unless `cfg` is a valid
    flaw configuration in `dom`."""
    _require_valid(cfg, dom)
    vol = per = 0.0
    ok = True
    for a in cfg.points:
        m = converged_trace_metrics(y, a, cfg.eps)
        vol += m.volume
        per += m.perimeter
        ok = ok and m.converged
    return vol, per, ok


@dataclass(frozen=True)
class FlawLimit:
    """One flaw's vanishing-core limit (flaw_limit), with the trace metrics
    on each radius that it extrapolates."""

    center: tuple[float, float]
    volume: float
    volume_unc: float
    perimeter: float
    perimeter_unc: float
    metrics: tuple[CavityMetrics, ...]
    perimeter_reduced_boundary: float | None
    conv_perimeter_ok: bool | None
    has_cavity: bool
    flags: tuple[str, ...]


@dataclass(frozen=True)
class LimitEnergyReport:
    breakdown: EnergyBreakdown
    flaws: tuple[FlawLimit, ...]
    elastic_converged: bool
    flags: tuple[str, ...]


# an extrapolated volume below this, or below its own error estimate, is no cavity
CAVITY_THRESHOLD = 1e-6
CONV_PERIMETER_TOL = 5e-2
EXTRAP_UNC_TOL = 5e-2  # a larger extrapolation error estimate is flagged


def flaw_limit(y: Deformation, a, radii, *, tol: float = TRACE_TOL) -> FlawLimit:
    """Cavity volume and perimeter of the flaw at `a` as r -> 0: the traces
    on S(a, r) for each of the strictly decreasing `radii`, refined to `tol`,
    extrapolated to r = 0.

    When the deformation carries an exact reduced-boundary perimeter for its
    cavity and the flaw is at the origin, the extrapolated perimeter is
    compared against it and disagreement is flagged (the perimeter term of
    the vanishing-core limit can exceed the perimeter of the limiting
    cavity)."""
    a = np.asarray(a, dtype=float)
    flags: list[str] = []
    mets = []
    for r in radii:
        m = converged_trace_metrics(y, a, float(r), tol=tol)
        if not m.converged:
            flags.append(f"trace-not-converged at ({a[0]:g}, {a[1]:g}), r={r:g}")
        mets.append(m)
    v0, vu = extrapolate_limit(radii, [m.volume for m in mets])
    p0, pu = extrapolate_limit(radii, [m.perimeter for m in mets])
    if max(vu, pu) > EXTRAP_UNC_TOL:
        flags.append(f"extrapolation-uncertain at ({a[0]:g}, {a[1]:g})")
    exact_per = conv_ok = None
    if y.cavity_exact is not None and np.allclose(a, 0.0):
        exact_per = float(y.cavity_exact["perimeter"])
        conv_ok = abs(p0 - exact_per) <= CONV_PERIMETER_TOL * max(exact_per, 1.0)
        if not conv_ok:
            flags.append("conv-perimeter-violated")
    return FlawLimit(
        center=(float(a[0]), float(a[1])), volume=v0, volume_unc=vu,
        perimeter=p0, perimeter_unc=pu, metrics=tuple(mets),
        perimeter_reduced_boundary=exact_per, conv_perimeter_ok=conv_ok,
        has_cavity=v0 > max(CAVITY_THRESHOLD, vu), flags=tuple(flags))


def limit_energy(y: Deformation, points, dom: Domain, density: Density,
                 lambdas, r_grid) -> LimitEnergyReport:
    """Vanishing-core energy: bulk term over the full domain (graded toward
    each flaw point, refined to BULK_TOL) plus each flaw's extrapolated
    cavity volume and perimeter (flaw_limit)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r_grid = np.asarray(r_grid, dtype=float)

    cfg = FlawConfig(points=pts, eps=float(r_grid[0]), max_count=max(len(pts), 1))
    el, el_ok = _stored_energy(y, density, dom, cfg if len(pts) else None,
                               singular=True, tol=BULK_TOL)
    flaws = tuple(flaw_limit(y, a, r_grid) for a in pts)
    flags = ([] if el_ok else ["elastic-not-converged"]) + [
        f for fl in flaws for f in fl.flags]
    bd = EnergyBreakdown.assemble(el, sum(f.volume for f in flaws),
                                  sum(f.perimeter for f in flaws), lambdas)
    return LimitEnergyReport(breakdown=bd, flaws=flaws,
                             elastic_converged=el_ok, flags=tuple(flags))


# --------------------------------------------------------------------------
# test functions and the perforation-aware determinant pairing


@dataclass(frozen=True)
class TestFunction:
    """Polynomial bump (1 - |x-c|^2/R^2)^k, zero-extended outside its disk."""

    k: int
    radius: float = 1.0
    center: tuple[float, float] = (0.0, 0.0)

    def offset(self, x):
        """d = x - c and u = 1 - |d|^2 / R^2; the support is u > 0."""
        d = np.asarray(x, dtype=float) - np.asarray(self.center)
        return d, 1.0 - (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) / self.radius**2

    def value(self, u):
        """The bump at the points of `offset` u."""
        return np.where(u > 0, u, 0.0) ** self.k

    def gradient(self, d, u):
        """The bump's gradient at the points of `offset` (d, u)."""
        coef = np.where(u > 0, self.k * np.where(u > 0, u, 0.0) ** (self.k - 1), 0.0)
        return (-2.0 / self.radius**2) * coef[..., None] * d


def bump(k: int, radius: float = 1.0, center=(0.0, 0.0)) -> TestFunction:
    return TestFunction(k=k, radius=radius, center=tuple(center))


@dataclass(frozen=True)
class DetPairingResult:
    pairing: float
    bulk_term: float
    sphere_term: float
    det_integral: float
    converged: bool

    @property
    def residual_rel(self) -> float:
        return abs(self.pairing - self.det_integral) / max(abs(self.det_integral), 1e-30)


def extended_det_pairing(y: Deformation, cfg: FlawConfig, dom: Domain,
                         phis: Sequence[TestFunction], *,
                         tol: float = 1e-6) -> tuple[DetPairingResult, ...]:
    """Pair the divergence-form determinant of y (with perforation-sphere
    corrections) against each test function of `phis`, alongside the plain
    bulk integral of det(grad y) phi for comparison; one result per phi.

    The test functions share each pass of size n: one bulk quadrature per
    distinct support disk, split along its circle, integrates the bulk and
    determinant terms of all its test functions from one evaluation of y and
    grad y per node, and one panel trace per flaw gives every sphere term
    (`panel_tracer`, whose circle kinks are derived once per call). Each
    support's offset (`TestFunction.offset`) is computed once per node, and
    y and grad y are evaluated only on the support, u > 0; the integrands
    are 0 off it, even where y or grad y is not finite.
    Each test function's [bulk, det, sphere] is refined until it meets `tol`
    (`converged` says whether it did), so its result is, bit for bit, that of
    a one-element call. Raises ValueError unless `cfg` is a valid flaw
    configuration in `dom`."""
    _require_valid(cfg, dom)
    phis = tuple(phis)
    supports = {}
    for j, phi in enumerate(phis):
        supports.setdefault((tuple(phi.center), phi.radius), []).append(j)
    sphere = [(Arc(a, cfg.eps), panel_tracer(y, a, cfg.eps)) for a in cfg.points]

    def integrand(group):  # [bulk, det] per phi of a group sharing (c, R)
        def f(X):
            d, u = group[0].offset(X)
            live = u > 0
            d, u = d[live], u[live]
            G, w = y.grad(X[live]), y.eval(X[live])
            ay0 = G[..., 1, 1] * w[..., 0] - G[..., 0, 1] * w[..., 1]  # adj(G) y
            ay1 = -G[..., 1, 0] * w[..., 0] + G[..., 0, 0] * w[..., 1]
            dG = det2(G)
            out = np.zeros((2 * len(group),) + live.shape)
            for i, phi in enumerate(group):
                g = phi.gradient(d, u)
                out[2 * i, live] = -0.5 * (ay0 * g[..., 0] + ay1 * g[..., 1])
                out[2 * i + 1, live] = dG * phi.value(u)
            return out
        return f

    @functools.cache
    def one_pass(n):  # ([bulk, det, sphere], ok, [their errors]) per phi
        vals, err = np.zeros((len(phis), 3)), np.zeros((len(phis), 3))
        ok = np.ones(len(phis), dtype=bool)
        for (c, R), js in supports.items():
            v, ok[js], e = _integrate_perforated(integrand([phis[j] for j in js]), dom,
                                                 cfg, y, n=n, seams=(Arc(c, R),))
            vals[js, :2], err[js, :2] = np.reshape(v, (-1, 2)), np.reshape(e, (-1, 2))
        for circle, trace in sphere:
            curve = trace(n)
            x = circle.at(curve.ts)
            for js in supports.values():
                u = phis[js[0]].offset(x)[1]
                for j in js:
                    traced = curve.area_density * phis[j].value(u)
                    vals[j, 2] -= curve.integrate(traced)
                    err[j, 2] += float(curve.error(traced))
        return vals, ok, err

    def result(j):
        (bulk, deti, sphere), converged = refine(
            lambda n: tuple(v[j] for v in one_pass(n)), tol, BULK_N_MAX)
        return DetPairingResult(pairing=float(bulk + sphere), bulk_term=float(bulk),
                                sphere_term=float(sphere), det_integral=float(deti),
                                converged=converged)

    return tuple(result(j) for j in range(len(phis)))


# --------------------------------------------------------------------------
# sampled admissibility checks


@dataclass(frozen=True)
class CheckRow:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AdmissibilityReport:
    rows: tuple[CheckRow, ...]
    ok: bool

    def __str__(self):
        return "\n".join(
            f"[{'pass' if r.passed else 'FAIL'}] {r.name}: {r.detail}" for r in self.rows
        )


SAMPLE_ROUNDS = 1000  # rounds of candidates before _sample_perforated gives up


def _sample_perforated(dom: Domain, rng, n):
    """n uniform points of the perforated domain, by rejection from rounds of
    4n candidates in its bounding square. Raises ValueError when
    SAMPLE_ROUNDS rounds do not give n (the holes leave nothing to sample)."""
    R = dom.radius
    out = np.empty((0, 2))
    for _ in range(SAMPLE_ROUNDS):
        cand = rng.uniform(-R, R, size=(4 * n, 2))
        out = np.vstack([out, cand[dom.contains_perforated(cand)]])
        if len(out) >= n:
            return out[:n]
    raise ValueError(f"{SAMPLE_ROUNDS} rounds of {4 * n} candidates gave {len(out)} "
                     f"of {n} points of the perforated domain")


def _attempt(prefix: str, fn, *args):
    """(fn(*args), []), or (None, [prefix + the error's text]) when fn raises:
    the one path by which the admissibility check turns an error into a
    failure, so that it reports errors and never raises them."""
    try:
        return fn(*args), []
    except Exception as e:
        return None, [f"{prefix}{e}"]


def _check_row(name: str, check) -> CheckRow:
    """The row of check() -> (passed, detail), failed with `check errored: `
    and the error's text when check raises."""
    out, lost = _attempt("check errored: ", check)
    return CheckRow(name, False, lost[0]) if lost else CheckRow(name, *out)


def check_admissibility_sampled(y: Deformation, cfg: FlawConfig, dom: Domain, radii, *,
                                seed: int = 0) -> AdmissibilityReport:
    """Sampled surrogate of the admissibility requirements for core-radius
    deformations. Returns a report and never raises: an error in a row, from
    sampling, tracing, evaluating the map or the pairing, fails that row
    alone, with the error's text as its detail.

    orientation: det grad y > 0 at 2000 sampled points. degree-range: every
    degree of a test circle's trace on a 100 x 100 box is 0 or 1.
    interior-exterior: 200 sampled points lie inside the circle exactly when
    their images lie inside its trace; only points at least one node spacing
    2 pi rho / n of the n-node polyline from the circle are judged, since the
    polyline's image may cut closer points off. The test circles are the
    flaw circles of `radii` and up to three random ones; a circle whose trace
    cannot be sampled fails both rows. trace-injectivity: the closest pair of
    a perforation trace's nodes at least FAR_GAP apart (`closest_far_pair`)
    is farther apart than 1e-6 of its diameter. These three rows pass when
    they collect no failure, and the detail shows the first four (all, for
    trace-injectivity). det-identity: one `extended_det_pairing` of the bumps
    k = 2, 3, 4 on 0.95 of the domain's inradius converges with each
    relative residual at most 1e-4."""
    rng = np.random.default_rng(seed)
    dom_p = Domain(q=dom.q, radius=dom.radius, flaws=cfg)

    def orientation():
        pts = _sample_perforated(dom_p, rng, 2000)
        bad = int(np.sum(det2(y.grad(pts)) <= 0))
        return bad == 0, f"{bad}/{len(pts)} sampled points with det <= 0"

    def traced(center, rho):  # the circle's trace and the degrees it takes
        curve = trace_on_circle(y, center, rho, 512)
        return curve, degree_range_on_grid(curve, 100, 100)

    def membership(curve, center, rho, where):
        samples = _sample_perforated(dom_p, rng, 200)
        d = np.linalg.norm(samples - center, axis=-1)
        deg, near = winding_numbers_grid(curve, y.eval(samples))
        judged = np.abs(d - rho) >= TWO_PI * rho / len(curve)
        got, want = np.where(deg != 0, INSIDE, OUTSIDE), np.where(d < rho, INSIDE, OUTSIDE)
        return [f"point ({samples[i][0]:g}, {samples[i][1]:g}) maps {got[i]}, "
                f"expected {want[i]} (circle {where})"
                for i in np.flatnonzero(~near & judged & (got != want))]

    def separation(a):
        curve = trace_on_circle(y, a, cfg.eps, 512)
        mind = closest_far_pair(curve.points)
        return ([f"closest distinct-parameter pair {mind:.3g} at ({a[0]:g}, {a[1]:g})"]
                if mind <= 1e-6 * curve.diameter else [])

    def det_identity():
        ks = (2, 3, 4)
        inradius = float(dom.dist_to_boundary(np.zeros(2)))
        pairings = extended_det_pairing(
            y, cfg, dom, [bump(k, radius=0.95 * inradius) for k in ks], tol=1e-5)
        return (all(r.converged and r.residual_rel <= 1e-4 for r in pairings),
                "; ".join(f"k={k}: rel residual {r.residual_rel:.2e}"
                          + ("" if r.converged else " (not converged)")
                          for k, r in zip(ks, pairings)))

    rows = [_check_row("orientation", orientation)]
    circles = [(a, float(r)) for a in cfg.points for r in radii]
    deg_fail: list[str] = []
    for _ in range(3):
        c, lost = _attempt("random circle: ", lambda: _sample_perforated(dom_p, rng, 1)[0])
        if lost:  # neither row can be checked on a random circle
            deg_fail += lost
            break
        rho = 0.25 * float(dom.dist_to_boundary(c))
        far = all(np.linalg.norm(c - a) > rho + cfg.eps + 1e-3 for a in cfg.points)
        if rho > 2 * cfg.eps and far:
            circles.append((c, rho))
    mem_fail = list(deg_fail)
    for center, rho in circles:
        where = f"({center[0]:g}, {center[1]:g}), r={rho:.3g}"
        out, lost = _attempt(f"trace at {where}: ", traced, center, rho)
        if lost:  # neither row can be checked on this circle
            deg_fail += lost
            mem_fail += lost
            continue
        curve, degs = out
        if not degs <= {0, 1}:
            deg_fail.append(f"degrees {sorted(degs)} at {where}")
        found, lost = _attempt(f"membership samples (circle {where}): ",
                               membership, curve, center, rho, where)
        mem_fail += lost or found
    inj_fail: list[str] = []
    for a in cfg.points:
        found, lost = _attempt(f"trace at ({a[0]:g}, {a[1]:g}): ", separation, a)
        inj_fail += lost or found
    rows += [
        CheckRow("degree-range", not deg_fail,
                 "; ".join(deg_fail[:4]) or "all degrees in {0,1}"),
        CheckRow("interior-exterior", not mem_fail,
                 "; ".join(mem_fail[:4]) or "membership consistent"),
        CheckRow("trace-injectivity", not inj_fail, "; ".join(inj_fail) or "separated"),
        _check_row("det-identity", det_identity),
    ]
    return AdmissibilityReport(rows=tuple(rows), ok=all(r.passed for r in rows))
