"""Recovery construction for the vanishing-core limit: a smooth radial push
that inflates each perforation to a nearby good radius, and the energy table
tracking convergence of the composed deformations."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .cavity import cavity_perimeter, cavity_volume, dyadic_ladder, trace_on_circle
from .deformation import Deformation
from .energy import (
    Density,
    EnergyBreakdown,
    LimitEnergyReport,
    _polar_integral,
    _stored_energy,
    _trace_terms,
    limit_energy,
)
from .energy import regularized_energy  # noqa: F401 (perfbench patches it here)
from .geometry import (FlawConfig, mat2, mul2, norm2, refine, smoothstep,
                       tight_confinement)
from .seams import Arc, Spoke, circle_kinks


def _smoothstep_int(u):
    """Antiderivative of the cubic smoothstep, zero at 0."""
    u = np.clip(u, 0.0, 1.0)
    return u**3 - 0.5 * u**4


@dataclass(frozen=True)
class ProfilePhi:
    """Strictly increasing C^1 radial reparametrization with phi(0) = 0,
    phi(eps_n) = r_n exactly, and phi(t) = t from just below 2 eps_n on.

    Built from a piecewise-affine profile whose slope is exactly one on the
    window (eps_n - delta, eps_n + delta), delta = eps_n / 8, with cubic
    smoothstep slope blends of half-width delta/4 at the three junctions;
    the blends never touch the window center, so the value at eps_n
    survives smoothing. Slopes stay within (1 +- 1/(3n)) whenever
    |r_n - eps_n| <= eps_n/(4 n), giving |phi(t)/t - 1| + |phi'(t) - 1| <= 1/n."""

    eps_n: float
    r_n: float
    bounds: np.ndarray   # zone boundaries, increasing
    slopes: np.ndarray   # (s_left, s_right) per zone; equal entries = constant
    starts: np.ndarray   # phi at zone boundaries

    @cached_property
    def _widths(self):
        """Zone widths, 0 for the unbounded tail."""
        return np.append(np.diff(self.bounds), 0.0)

    def values(self, t):
        """(phi(t), phi'(t)) from one zone lookup."""
        t = np.asarray(t, dtype=float)
        zone = np.clip(np.searchsorted(self.bounds, t, side="right") - 1, 0,
                       len(self.bounds) - 1)
        sa, sb = self.slopes[zone, 0], self.slopes[zone, 1]
        width = self._widths[zone]
        dt = t - self.bounds[zone]
        u = np.divide(dt, width, out=np.zeros_like(dt + 0.0), where=width > 0)
        return (self.starts[zone] + sa * dt + (sb - sa) * width * _smoothstep_int(u),
                sa + (sb - sa) * smoothstep(u))

    def zone_radii(self):
        return [float(b) for b in self.bounds[1:]]


def build_phi(eps_n: float, r_n: float, n: int) -> ProfilePhi:
    """Construct the radial push profile; requires |r_n - eps_n| <= eps_n/(4n)."""
    if eps_n <= 0 or n < 1:
        raise ValueError("need eps_n > 0 and n >= 1")
    if abs(r_n - eps_n) > eps_n / (4.0 * n) + 1e-15:
        raise ValueError("target radius too far from eps_n for the uniform bounds")
    delta = eps_n / 8.0
    h = delta / 4.0
    k1, k2, k3 = eps_n - delta, eps_n + delta, 2.0 * eps_n - delta
    s1 = (r_n - delta) / (eps_n - delta)
    s2 = (2.0 * eps_n - 2.0 * delta - r_n) / (eps_n - 2.0 * delta)
    bounds = np.array([0.0, k1 - h, k1 + h, k2 - h, k2 + h, k3 - h, k3 + h])
    slopes = np.array([
        [s1, s1],
        [s1, 1.0],
        [1.0, 1.0],
        [1.0, s2],
        [s2, s2],
        [s2, 1.0],
        [1.0, 1.0],
    ])
    # accumulate exact zone-start values
    starts = np.zeros(len(bounds))
    for j in range(1, len(bounds)):
        w = bounds[j] - bounds[j - 1]
        sa, sb = slopes[j - 1]
        starts[j] = starts[j - 1] + sa * w + (sb - sa) * w * 0.5
    return ProfilePhi(eps_n=eps_n, r_n=r_n, bounds=bounds, slopes=slopes, starts=starts)


def default_r_rule(eps_n: float, n: int) -> float:
    """Inflation target r_n = eps_n (1 + 1/(8 n)), inside every precondition."""
    return eps_n * (1.0 + 1.0 / (8.0 * n))


def _phi_inverse(phi: ProfilePhi, s):
    """Radii t with phi(t) = s, elementwise (phi is strictly increasing,
    identity beyond its last junction).

    The chord through the ends of the zone holding s is the exact inverse on
    an affine zone. On a blend it starts Newton's iteration, which converges
    quadratically there (phi' stays near 1 and phi'' is bounded), so once a
    step is below 1e-8 t the next one would be below rounding."""
    s = np.asarray(s, dtype=float)
    j = np.clip(np.searchsorted(phi.starts, s, side="right") - 1, 0, len(phi.bounds) - 2)
    a, b = phi.bounds[j], phi.bounds[j + 1]
    t = a + (b - a) * (s - phi.starts[j]) / (phi.starts[j + 1] - phi.starts[j])
    live = (phi.slopes[j, 0] != phi.slopes[j, 1]) & (s < phi.bounds[-1])
    for _ in range(4):
        if not np.any(live):
            break
        val, slope = phi.values(t)
        step = (val - s) / slope
        t = np.where(live, t - step, t)
        live &= np.abs(step) > 1e-8 * t
    return np.where(s < phi.bounds[-1], t, s)


def compose_push(y: Deformation, phi: ProfilePhi, points) -> Deformation:
    """y o push, where the radial push fixes each flaw point a, maps
    B(a, eps_n) onto B(a, r_n) and is the identity outside the 2 eps_n balls.
    The push alone is `compose_push(identity_deformation(domain), phi, points)`.

    The push gradient has the closed form (phi(t)/t) I + (phi'(t) - phi(t)/t)
    e x e with t = |x - a|, and phi'(0) I at a flaw point. The map keeps y's
    domain and singular points. Its seams are circles about each flaw a at
    the push's zone radii, and y's seams: the push maps S(a, s) onto
    S(a, phi(s)) at the same angles, so a seam rho = f(theta) about a becomes
    rho = phi^-1(f(theta)), exactly. A seam about another point is kept when
    it clears every push ball B(a, 2 eps_n); any other seam raises
    ValueError. So do push balls that overlap or touch each other or the
    domain's boundary: flaws at most 4 eps_n apart, or at most 2 eps_n from
    the boundary."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    domain = y.domain
    two_eps = 2.0 * phi.eps_n
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.linalg.norm(pts[i] - pts[j]) <= 2.0 * two_eps:
                raise ValueError("push balls B(a, 2 eps) overlap or touch")
        if domain is not None and domain.dist_to_boundary(pts[i]) <= two_eps:
            raise ValueError("push support reaches the domain's boundary")

    def frame(x):
        """The push image z of x and the push gradient G at x, per coordinate."""
        x = np.asarray(x, dtype=float)
        x0, x1 = x[..., 0], x[..., 1]
        z0, z1 = x0, x1
        g00, g01, g11 = np.ones(x0.shape), np.zeros(x0.shape), np.ones(x0.shape)
        for a0, a1 in pts:
            d0, d1 = x0 - a0, x1 - a1
            t = np.sqrt(d0 * d0 + d1 * d1)
            inside = t < two_eps
            if not np.any(inside):
                continue
            ts = np.where(t > 0, t, 1.0)
            val, slope = phi.values(ts)
            ratio = val / ts
            moved, at = inside & (t > 0), t == 0
            z0 = np.where(moved, a0 + ratio * d0, np.where(at, a0, z0))
            z1 = np.where(moved, a1 + ratio * d1, np.where(at, a1, z1))
            e0, e1 = d0 / ts, d1 / ts  # (0, 0) at the flaw point
            iso = np.where(t > 0, ratio, phi.slopes[0, 0])
            k = slope - iso
            g00 = np.where(inside, iso + k * e0 * e0, g00)
            g01 = np.where(inside, k * e0 * e1, g01)
            g11 = np.where(inside, iso + k * e1 * e1, g11)
        return np.stack([z0, z1], axis=-1), mat2(g00, g01, g01, g11)

    def ev(x):
        return y.eval(frame(x)[0])

    def gr(x):
        z, G = frame(x)
        return mul2(y.grad(z), G)

    def pulled(s):  # s pulled back through the push
        own = np.all(pts == s.point, axis=1)
        for a in pts[~own]:
            start = s.at(np.array([s.lo]))  # inside the ball if no crossing
            if circle_kinks((s,), a, two_eps) or norm2(start - a) < two_eps:
                raise ValueError(f"seam {s} meets the push ball about ({a[0]:g}, {a[1]:g})")
        if not own.any():
            return s
        if isinstance(s, Spoke):
            return replace(s, lo=float(_phi_inverse(phi, s.lo)),
                           hi=float(_phi_inverse(phi, s.hi)))
        return replace(s, f=(lambda t, f=s.f: _phi_inverse(phi, f(t))) if callable(s.f)
                       else float(_phi_inverse(phi, s.f)))

    zones = tuple(Arc(tuple(a), z) for a in pts for z in phi.zone_radii())
    return Deformation(eval=ev, grad=gr, domain=domain,
                       singular_points=y.singular_points,
                       name=f"{y.name}*radial-push",
                       seams=zones + tuple(pulled(s) for s in y.seams))


# --------------------------------------------------------------------------
# recovery energy table


@dataclass(frozen=True)
class RecoveryRow:
    eps: float
    r: float
    energy: EnergyBreakdown
    gap: float
    rel_gap: float
    shadow_margin: float        # energy.total - limit.total
    trace_identity_rel: float   # worst relative metric mismatch across flaws
    annulus_inflation: float
    elastic_converged: bool     # bulk, traces and inflation all converged


@dataclass(frozen=True)
class RecoveryTable:
    rows: tuple[RecoveryRow, ...]
    limit: LimitEnergyReport


ROW_TOL = 1e-5  # well below the percent-scale gaps. At 1e-6 the README eps list's tables
# keep their bytes; rows at eps <= 0.0125 take one more doubling (six rows to 0.00625:
# 0.16 -> 0.21 s radial, 0.17 -> 0.29 s change-of-reference) for <= 5e-8 relative in total
TRACE_N = 2048  # identity-check nodes: both traces share them, so it tests the push
ROW_N_MAX = 1024  # node cap of a row's bulk and annulus terms


def recovery_energy_table(y: Deformation, points, eps_list, density: Density,
                          lambdas) -> RecoveryTable:
    """Per-core-radius energies of the pushed-and-restricted deformations
    against the vanishing-core limit estimate, which extrapolates the cavity
    metrics on the dyadic ladder from eps_list[0].

    The pushed map y o push differs from y only in the push balls
    B(a, 2 eps_n), so a row's bulk term is y's bulk outside those balls plus
    the push-annulus term, the integral of W(grad (y o push)) over each
    eps_n < |x - a| < 2 eps_n, as in the recovery-sequence argument; both are
    refined at ROW_TOL, each annulus on its own. The annulus term is the
    row's `annulus_inflation`, which tends to 0 with eps_n. The volume and
    perimeter terms are those of the pushed map's traces on S(a, eps_n), and
    the row verifies that they carry the same cavity metrics as y's traces
    on S(a, r_n). A row's `elastic_converged` is False when the bulk outside
    the balls, an annulus term or a perforation trace stopped unconverged.
    When the perimeter extrapolation disagrees with the deformation's exact
    reduced-boundary perimeter, the table is still produced and the
    disagreement is flagged."""
    dom = y.domain
    if dom is None:
        raise ValueError("a domain is required")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    limit = limit_energy(y, pts, dom, density, lambdas,
                         dyadic_ladder(float(eps_list[0])))

    rows: list[RecoveryRow] = []
    for i, eps in enumerate(eps_list):
        n = i + 1
        r_n = default_r_rule(float(eps), n)
        phi = build_phi(float(eps), r_n, n)
        ytil = compose_push(y, phi, pts)
        cfg = FlawConfig(points=pts, eps=float(eps), max_count=len(pts),
                         confinement=tight_confinement(pts))
        vol, per, el_ok = _trace_terms(ytil, cfg, dom)
        # ytil = y outside the push balls; non-convergence (divergent bulk of
        # degenerate maps) goes on the row
        bulk, ok = _stored_energy(y, density, dom, replace(cfg, eps=2.0 * float(eps)),
                                  tol=ROW_TOL, n_max=ROW_N_MAX)
        el_ok = el_ok and ok

        worst = 0.0
        for a in pts:
            ca = trace_on_circle(ytil, a, float(eps), TRACE_N)
            cb = trace_on_circle(y, a, r_n, TRACE_N)
            for f in (cavity_volume, cavity_perimeter):
                va, vb = f(ca), f(cb)
                worst = max(worst, abs(va - vb) / max(abs(vb), 1e-30))

        infl = 0.0
        for a in pts:  # per flaw: each annulus meets ROW_TOL on its own
            val, ok = refine(lambda n: _polar_integral(
                lambda X: density.w(ytil.grad(X)), a, 2, float(eps),
                2.0 * float(eps), n=n, seams=ytil.seams),
                ROW_TOL, ROW_N_MAX)
            infl += val
            el_ok = el_ok and ok

        bd = EnergyBreakdown.assemble(bulk + infl, vol, per, lambdas)
        gap = abs(bd.total - limit.breakdown.total)
        rows.append(RecoveryRow(
            eps=float(eps), r=r_n, energy=bd, gap=gap,
            rel_gap=gap / max(abs(limit.breakdown.total), 1e-30),
            shadow_margin=bd.total - limit.breakdown.total,
            trace_identity_rel=worst, annulus_inflation=infl,
            elastic_converged=el_ok))
    return RecoveryTable(rows=tuple(rows), limit=limit)
