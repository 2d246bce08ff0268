"""Radially reduced minimization of the core-radius energy, flaw-point search
on candidate grids, and the vanishing-core sweep harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .cavity import extrapolate_limit
from .deformation import RadialProfile
from .energy import Density, EnergyBreakdown
from .geometry import Confinement, Domain, FlawConfig, gauss_panels, validate_flaw_config

DELTA_MIN = 1e-8  # monotonicity gap keeping det > 0 strictly
EPS_ACTIVE = 1e-3  # cap on the distance at which a bound counts as active

_SHIFTS = (0.0, *(10.0 ** np.arange(-10, 2)).tolist())


@dataclass(frozen=True)
class RadialProblem:
    """One-dimensional reduction of the core-radius energy to radial maps
    rho on [eps, outer_radius] with rho(outer_radius) = boundary_value."""

    eps: float
    outer_radius: float
    boundary_value: float
    density: Density
    lambdas: tuple[float, float]
    K: int = 16

    def __post_init__(self):
        if not 0.0 <= self.eps < self.outer_radius < math.inf:
            raise ValueError("eps must be in [0, outer_radius) and outer_radius finite")
        if not 0.0 < self.boundary_value < math.inf:
            raise ValueError("boundary_value must be positive and finite")
        if self.K < 8:
            raise ValueError("need at least 8 profile segments")

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(self.eps, self.outer_radius, self.K + 1)
        nodes.flags.writeable = False
        return nodes

    @cached_property
    def _geometry(self):
        """`_node_geometry` of the nodes, built once for every start."""
        return _node_geometry(self.nodes)


# Which of W's partials (Wa, Wd, Waa, Wad, Wdd) meets each derivative factor of
# _node_geometry (its weight rows 1 to 13; row 0 weighs W), and where each
# per-segment sum starts: g left, right; H left, right, coupling.
_ROWS = (0, 1, 0, 1, 2, 3, 4, 2, 3, 4, 2, 3, 4)
_SUMS = (0, 2, 4, 7, 10)


def _node_geometry(nodes):
    """What the quadrature needs of the nodes alone: 1/h, the partials
    (dl, dr) = ((1 - theta)/R, theta/R) of d = rho/R in a segment's left and
    right value at its Gauss points R = nodes[j] + theta h (those of a = rho'
    are -+1/h), and the weights 2 pi R h/2 w times each chain-rule factor."""
    R, w = gauss_panels(nodes[:-1], np.diff(nodes), 8)
    h = np.diff(nodes)[:, None]
    theta = (R - nodes[:-1, None]) / h
    al, ar, dl, dr = -1.0 / h, 1.0 / h, (1.0 - theta) / R, theta / R
    wq = 2.0 * math.pi * R * w
    return ar[:, 0], dl, dr, np.stack([f * wq for f in (
        1.0, al, dl, ar, dr, al * al, 2.0 * al * dl, dl * dl, ar * ar, 2.0 * ar * dr,
        dr * dr, al * ar, al * dr + ar * dl, dl * dr)])


def radial_reduced_energy(profile: RadialProfile, prob: RadialProblem) -> EnergyBreakdown:
    """Energy of the lifted radial map: per-segment Gauss quadrature of
    W(diag(rho', rho/R)) with weight 2 pi R, plus the circle cavity terms
    pi rho(eps)^2 and 2 pi rho(eps)."""
    nodes = np.asarray(profile.nodes, dtype=float)
    vals = np.asarray(profile.values, dtype=float)
    if abs(nodes[0] - prob.eps) > 1e-12 or abs(nodes[-1] - prob.outer_radius) > 1e-12:
        raise ValueError("profile nodes must span [eps, outer_radius]")
    elastic = replace(prob, lambdas=(0.0, 0.0))  # the total with no cavity terms
    el = _energy(_node_geometry(nodes), vals, elastic)[0]
    r0 = vals[0]
    return EnergyBreakdown.assemble(el, math.pi * r0**2, 2.0 * math.pi * r0,
                                    prob.lambdas)


def _energy(geom, vals, prob: RadialProblem):
    """Energy of the nodal profile `vals` (boundary node included) on the
    node geometry `geom`: W = |F|^p + g(det F) at F = diag(rho', rho/R) on
    the Gauss points, plus the cavity terms. Also returns the fields at the
    Gauss points that `_derivatives` completes."""
    inv_h, dl, dr, weights = geom
    a = ((vals[1:] - vals[:-1]) * inv_h)[:, None]
    d = vals[:-1, None] * dl + vals[1:, None] * dr
    aa, dd, det = a * a, d * d, a * d
    fro = np.sqrt(aa + dd)
    W = fro**prob.density.p + prob.density.g(det)
    lv, lp = prob.lambdas
    v0 = float(vals[0])
    E = float(np.einsum("kq,kq->k", W, weights[0]).sum())
    return E + lv * math.pi * v0 ** 2 + lp * 2.0 * math.pi * v0, (a, d, aa, dd, det, fro)


def _derivatives(geom, vals, prob: RadialProblem, fields):
    """The gradient and the tridiagonal Hessian, as (diagonal, off-diagonal),
    in the K free nodal values, from W's first and second partials at
    `_energy`'s fields: one weighted reduction over the Gauss points gives
    every per-segment entry."""
    a, d, aa, dd, det, fro = fields
    p = prob.density.p
    A = p * fro ** (p - 2.0)
    B = (p - 2.0) * A / (aa + dd)  # p (p - 2) |F|^(p - 4)
    fp = prob.density.dg(det)
    fpp = prob.density.ddg(det)
    partials = (A * a + fp * d, A * d + fp * a, B * aa + A + fpp * dd,
                (B + fpp) * det + fp, B * dd + A + fpp * aa)
    weights = geom[3][1:]
    rows = np.concatenate([partials[i] for i in _ROWS]).reshape(weights.shape)
    g, gr, diag, hr, off = np.add.reduceat(np.einsum("rkq,rkq->rk", rows, weights),
                                           _SUMS)
    lv, lp = prob.lambdas
    v0 = float(vals[0])
    # segment j adds its left entries to node j and its right ones to node
    # j + 1; node K is the boundary node
    g[1:] += gr[:-1]
    diag[1:] += hr[:-1]
    g[0] += lv * 2.0 * math.pi * v0 + lp * 2.0 * math.pi
    diag[0] += lv * 2.0 * math.pi
    return g, (diag, off[:-1])


def _energy_and_grad(geom, vals, prob: RadialProblem):
    """`_energy` and its `_derivatives`: (E, gradient, Hessian)."""
    E, fields = _energy(geom, vals, prob)
    return (E, *_derivatives(geom, vals, prob, fields))


def _pava(u):
    """Pool-adjacent-violators: the nondecreasing least-squares fit to u."""
    v: list[float] = []
    cnt: list[int] = []
    for ui in u.tolist():
        v.append(ui)
        cnt.append(1)
        while len(v) > 1 and v[-2] > v[-1]:
            v2, c2 = v.pop(), cnt.pop()
            v1, c1 = v.pop(), cnt.pop()
            v.append((v1 * c1 + v2 * c2) / (c1 + c2))
            cnt.append(c1 + c2)
    return np.repeat(v, cnt)


def _project_free(free, bv):
    """Project the free profile values (boundary node excluded) onto the
    monotone cone with DELTA_MIN gaps, floored at DELTA_MIN and capped below
    the boundary value. Exact Euclidean projection via PAVA + clip."""
    K = len(free)
    gaps = np.arange(K) * DELTA_MIN
    u = _pava(free - gaps)
    return np.minimum(np.maximum(u, DELTA_MIN), bv - K * DELTA_MIN) + gaps


@dataclass(frozen=True)
class MinimizeResult:
    profile: RadialProfile
    energy: EnergyBreakdown
    iterations: int
    converged: bool
    pg_norm: float
    status: str
    energy_trace: np.ndarray = field(repr=False)


def _ldl_solve(d, e, g, mu):
    """s with (T + mu I) s = g, T tridiagonal with diagonal d and off-diagonal
    e (lists), by L D L^T; None unless every pivot of D is positive."""
    piv, mul, z = [d[0] + mu], [], [g[0]]
    for di, ei, gi in zip(d[1:], e, g[1:]):
        if not piv[-1] > 0.0:
            return None
        mul.append(ei / piv[-1])  # L below its unit diagonal
        piv.append(di + mu - mul[-1] * ei)
        z.append(gi - mul[-1] * z[-1])
    if not piv[-1] > 0.0:
        return None
    s = [z[-1] / piv[-1]]
    for zi, pi, m in zip(z[-2::-1], piv[-2::-1], mul[::-1]):
        s.append(zi / pi - m * s[-1])
    return s[::-1]


def _newton_step(diag, off, g, active):
    """Solve (H + mu I) s = g by L D L^T in O(K) (Golub & Van Loan, Matrix
    Computations, 4.3) for the tridiagonal H = (diag, off) with its `active`
    rows decoupled: couplings zeroed, H_ii replaced by |H_ii|. The Levenberg
    shift mu is the first of 0, then 1e-10, 1e-9, ..., 10 times max |H_ij|,
    that makes every pivot positive; the last makes H + mu I diagonally
    dominant. Returns (s, mu); a non-finite H gives a NaN step."""
    d = np.where(active, np.abs(diag), diag)
    e = np.where(active[:-1] | active[1:], 0.0, off)
    scale = float(np.abs(np.concatenate((d, e))).max())
    if math.isfinite(scale):
        d, e, g = d.tolist(), e.tolist(), g.tolist()
        for mu in (scale * shift for shift in _SHIFTS):
            s = _ldl_solve(d, e, g, mu)
            if s is not None:
                return np.array(s), mu
    return np.full(len(g), np.nan), math.nan


def _descend(prob: RadialProblem, init_free, tol, max_iter):
    """Projected Newton (Bertsekas 1982) from one start. Each free value has
    the bounds implied by the cone, (k+1) DELTA_MIN <= x_k <= bv - (K-k)
    DELTA_MIN; rows within eps of a bound that the gradient pushes into get
    a diagonal Hessian, and the step is an Armijo search along the projected
    arc P(x - alpha s). A candidate's derivatives are computed only when it
    is accepted, or when E cannot resolve its decrease."""
    bv, K = prob.boundary_value, prob.K
    geom = prob._geometry
    k = np.arange(K)
    lo = (k + 1) * DELTA_MIN
    hi = bv - (K - k) * DELTA_MIN

    def with_boundary(free):
        return np.concatenate((free, (bv,)))

    def pg_norm(free, g):
        r = free - _project_free(free - g, bv)
        return math.sqrt(r.dot(r))

    free = _project_free(np.asarray(init_free, dtype=float), bv)
    E, g, H = _energy_and_grad(geom, with_boundary(free), prob)
    pgn = pg_norm(free, g)
    trace = [E]
    it = 0
    status = "max-iterations"
    while it < max_iter:
        it += 1
        if pgn < tol:
            status = "converged"
            break
        eps = min(EPS_ACTIVE, pgn)
        active = ((free <= lo + eps) & (g > 0)) | ((free >= hi - eps) & (g < 0))
        step = _newton_step(*H, g, active)[0]
        alpha = 1.0
        for _ in range(60):
            cand = _project_free(free - alpha * step, bv)
            vals = with_boundary(cand)
            Ec, fields = _energy(geom, vals, prob)
            dec = float(np.dot(g, free - cand))
            if abs(dec) <= 1e-13 * abs(E):
                # E cannot resolve this step: accept it if it shrinks the
                # projected gradient, else halve until cand == free and stop
                derivs = _derivatives(geom, vals, prob, fields)
                accepted = pg_norm(cand, derivs[0]) < pgn
            else:
                derivs = None
                accepted = dec > 0 and Ec <= E - 1e-4 * dec
            if accepted:
                break
            alpha *= 0.5
        else:
            status = "line-search-stalled"
            break
        g, H = derivs if derivs is not None else _derivatives(geom, vals, prob, fields)
        free, E = cand, Ec
        pgn = pg_norm(free, g)
        trace.append(E)
    return free, E, it, pgn, status, np.asarray(trace)


def _default_inits(prob: RadialProblem):
    nodes = prob.nodes
    bv = prob.boundary_value
    K = prob.K
    # affine between a trial cavity radius and the boundary value
    yield np.linspace(0.5 * bv, bv, K + 1)[:-1]
    # cavity-free affine continuation of the boundary stretch
    stretch = bv / prob.outer_radius
    yield (stretch * nodes)[:-1]
    # near-closed cavity
    yield np.linspace(16 * DELTA_MIN, bv, K + 1)[:-1]


def minimize_radial(prob: RadialProblem, *, tol: float = 1e-7,
                    max_iter: int = 100_000) -> MinimizeResult:
    """Projected Newton on the exact tridiagonal Hessian, solved by a banded
    L D L^T factorisation in O(K), over monotone radial profiles, with a
    Levenberg shift where the Hessian is indefinite and an Armijo search
    along the projected arc.

    The projection is exact (isotonic regression with a DELTA_MIN gap). The
    run stops when the projected gradient x - P(x - grad E) has norm below
    `tol` (status "converged"), after `max_iter` iterations
    ("max-iterations"), or when no step along the arc decreases E or, below
    E's resolution, the projected gradient ("line-search-stalled"). The
    descent is run from each standard initial profile and the best final
    energy is returned. Non-convergence is flagged, never raised."""
    best = None
    for f0 in _default_inits(prob):
        free, E, it, pgn, status, trace = _descend(prob, f0, tol, max_iter)
        better = best is None or E < best[1] - 1e-12 * (1.0 + abs(E)) or (
            abs(E - best[1]) <= 1e-12 * (1.0 + abs(E))
            and status == "converged" and best[4] != "converged")
        if better:
            best = (free, E, it, pgn, status, trace)
    free, E, it, pgn, status, trace = best
    profile = RadialProfile(nodes=prob.nodes.copy(),
                            values=np.append(free, prob.boundary_value))
    bd = radial_reduced_energy(profile, prob)
    return MinimizeResult(profile=profile, energy=bd, iterations=it,
                          converged=status == "converged", pg_norm=pgn,
                          status=status, energy_trace=trace)


# --------------------------------------------------------------------------
# flaw-point search


@dataclass(frozen=True)
class FlawCandidate:
    center: tuple[float, float]
    valid: bool
    reason: str
    energy_total: float | None
    result: MinimizeResult | None


@dataclass(frozen=True)
class FlawSearchResult:
    best: FlawCandidate
    table: tuple[FlawCandidate, ...]


def flaw_search(candidates, outer: Domain, confinement: Confinement,
                eps: float, stretch: float, density: Density, lambdas,
                *, K: int = 16) -> FlawSearchResult:
    """Exhaustive single-flaw search over candidate centers.

    Each candidate re-centers the radial problem on the largest disk around
    it inside the domain; outside that disk the deformation is the uniform
    stretch, so candidate energies are comparable over the same body:
    total = radial minimum + W(stretch I) * (|Omega| - pi R_a^2)."""
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    w_ambient = float(density.w(stretch * np.eye(2)))
    area = outer.area()
    rows: list[FlawCandidate] = []
    for a in candidates:
        cfg = FlawConfig(points=a[None, :], eps=eps, max_count=1,
                         confinement=confinement)
        rep = validate_flaw_config(cfg, outer)
        if not rep.ok:
            rows.append(FlawCandidate(center=(float(a[0]), float(a[1])),
                                      valid=False, reason=str(rep),
                                      energy_total=None, result=None))
            continue
        Ra = float(outer.dist_to_boundary(a))
        prob = RadialProblem(eps=eps, outer_radius=Ra,
                             boundary_value=stretch * Ra, density=density,
                             lambdas=lambdas, K=K)
        res = minimize_radial(prob)
        total = res.energy.total + w_ambient * (area - math.pi * Ra**2)
        rows.append(FlawCandidate(center=(float(a[0]), float(a[1])), valid=True,
                                  reason="", energy_total=total, result=res))
    valid = [r for r in rows if r.valid]
    if not valid:
        raise ValueError("no valid candidate centers")
    best = min(valid, key=lambda r: r.energy_total)
    return FlawSearchResult(best=best, table=tuple(rows))


# --------------------------------------------------------------------------
# vanishing-core sweep


@dataclass(frozen=True)
class SweepRow:
    eps: float
    min_energy: EnergyBreakdown
    cavity_radius: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class GammaSweep:
    rows: tuple[SweepRow, ...]
    limit_estimate: float
    limit_uncertainty: float
    gaps: tuple[float, ...]


def gamma_sweep(eps_list, prob_template: RadialProblem, *,
                max_iter: int = 20_000) -> GammaSweep:
    """Minimize at each core radius from the default starts, then extrapolate
    the minimum energies to the vanishing-core limit and report the gap
    sequence |E(eps) - E_limit|."""
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 3 or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("need at least three strictly decreasing core radii")
    rows: list[SweepRow] = []
    for eps in eps_list:
        res = minimize_radial(replace(prob_template, eps=eps), max_iter=max_iter)
        rows.append(SweepRow(eps=eps, min_energy=res.energy,
                             cavity_radius=res.profile.cavity_radius,
                             iterations=res.iterations, converged=res.converged))
    energies = np.array([r.min_energy.total for r in rows])
    limit, unc = extrapolate_limit(np.array(eps_list), energies)
    gaps = tuple(float(abs(e - limit)) for e in energies)
    return GammaSweep(rows=tuple(rows), limit_estimate=float(limit),
                      limit_uncertainty=float(unc), gaps=gaps)
