"""Radially reduced minimization of the core-radius energy, flaw-point search
on candidate grids, and the vanishing-core sweep harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cavity import extrapolate_limit
from .deformation import RadialProfile
from .energy import Density, EnergyBreakdown
from .geometry import (Confinement, Domain, FlawConfig, gauss_legendre,
                       validate_flaw_config)

DELTA_MIN = 1e-8  # monotonicity gap keeping det > 0 strictly
EPS_ACTIVE = 1e-3  # cap on the distance at which a bound counts as active

_GX, _GW = gauss_legendre(8)


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
        if not self.eps < self.outer_radius:
            raise ValueError("eps must be below outer_radius")
        if self.boundary_value <= 0:
            raise ValueError("boundary_value must be positive")
        if self.K < 8:
            raise ValueError("need at least 8 profile segments")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.eps, self.outer_radius, self.K + 1)


def _w_all_diag(a, d, density: Density):
    """W = |F|^p + g(det F) and its first and second partials at F = diag(a, d)."""
    det = a * d
    fro = np.sqrt(a * a + d * d)
    p = density.p
    A = p * fro ** (p - 2.0)
    B = p * (p - 2.0) * fro ** (p - 4.0)
    W = fro**p + density.g(det)
    fp = density.dg(det)
    fpp = density.ddg(det)
    Wa = A * a + fp * d
    Wd = A * d + fp * a
    Waa = B * a * a + A + fpp * d * d
    Wdd = B * d * d + A + fpp * a * a
    Wad = B * a * d + fpp * a * d + fp
    return W, Wa, Wd, Waa, Wad, Wdd


def _segment_frame(nodes, vals):
    h = np.diff(nodes)
    slope = np.diff(vals) / h
    R = nodes[:-1, None] + (0.5 * (_GX + 1.0))[None, :] * h[:, None]
    theta = (R - nodes[:-1, None]) / h[:, None]
    rho = vals[:-1, None] * (1.0 - theta) + vals[1:, None] * theta
    wq = 2.0 * math.pi * R * (0.5 * h[:, None] * _GW[None, :])
    return h, slope, R, theta, rho, wq


def radial_reduced_energy(profile: RadialProfile, prob: RadialProblem) -> EnergyBreakdown:
    """Energy of the lifted radial map: per-segment Gauss quadrature of
    W(diag(rho', rho/R)) with weight 2 pi R, plus the circle cavity terms
    pi rho(eps)^2 and 2 pi rho(eps)."""
    nodes = np.asarray(profile.nodes, dtype=float)
    vals = np.asarray(profile.values, dtype=float)
    if abs(nodes[0] - prob.eps) > 1e-12 or abs(nodes[-1] - prob.outer_radius) > 1e-12:
        raise ValueError("profile nodes must span [eps, outer_radius]")
    h, slope, R, theta, rho, wq = _segment_frame(nodes, vals)
    W = _w_all_diag(slope[:, None] + 0.0 * R, rho / R, prob.density)[0]
    el = float(np.sum(W * wq))
    r0 = vals[0]
    return EnergyBreakdown.assemble(el, math.pi * r0**2, 2.0 * math.pi * r0,
                                    prob.lambdas)


def _energy_and_grad(nodes, vals, prob: RadialProblem):
    """Energy of the nodal profile `vals` (boundary node included), with its
    gradient and its tridiagonal Hessian in the K free nodal values."""
    h, slope, R, theta, rho, wq = _segment_frame(nodes, vals)
    a = slope[:, None] + 0.0 * R
    d = rho / R
    W, Wa, Wd, Waa, Wad, Wdd = _w_all_diag(a, d, prob.density)
    lv, lp = prob.lambdas
    E = float(np.sum(W * wq)) + lv * math.pi * vals[0] ** 2 + lp * 2.0 * math.pi * vals[0]
    K = len(nodes) - 1
    # a = (v[j+1] - v[j]) / h and d = (v[j] (1 - theta) + v[j+1] theta) / R on
    # segment j: partials with respect to its left (l) and right (r) node
    dal, dar = -1.0 / h[:, None], 1.0 / h[:, None]
    ddl, ddr = (1.0 - theta) / R, theta / R
    g = np.zeros(K + 1)
    g[:-1] += np.sum((Wa * dal + Wd * ddl) * wq, axis=1)
    g[1:] += np.sum((Wa * dar + Wd * ddr) * wq, axis=1)
    g[0] += lv * 2.0 * math.pi * vals[0] + lp * 2.0 * math.pi
    diag = np.zeros(K + 1)
    diag[:-1] += np.sum((Waa * dal**2 + 2 * Wad * dal * ddl + Wdd * ddl**2) * wq, axis=1)
    diag[1:] += np.sum((Waa * dar**2 + 2 * Wad * dar * ddr + Wdd * ddr**2) * wq, axis=1)
    diag[0] += lv * 2.0 * math.pi
    off = np.sum((Waa * dal * dar + Wad * (dal * ddr + dar * ddl) + Wdd * ddl * ddr) * wq,
                 axis=1)[:-1]
    H = np.diag(diag[:-1]) + np.diag(off, 1) + np.diag(off, -1)
    return E, g[:-1], H


def _pava(u):
    """Pool-adjacent-violators: the nondecreasing least-squares fit to u."""
    v: list[float] = []
    cnt: list[int] = []
    for ui in u:
        v.append(float(ui))
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
    k = np.arange(K, dtype=float)
    u = _pava(free - k * DELTA_MIN)
    u = np.clip(u, DELTA_MIN, bv - (K) * DELTA_MIN)
    return u + k * DELTA_MIN


@dataclass(frozen=True)
class MinimizeResult:
    profile: RadialProfile
    energy: EnergyBreakdown
    iterations: int
    converged: bool
    pg_norm: float
    status: str
    energy_trace: np.ndarray = field(repr=False)


def _newton_step(H, g):
    """Solve (H + mu I) s = g by Cholesky. The Levenberg shift mu is 0 if H is
    positive definite, else the first of 1e-10, 1e-9, ..., 10 times max |H_ij|
    that makes it so; the last makes the tridiagonal H + mu I diagonally
    dominant. A non-finite H gives a NaN step, which the line search rejects."""
    scale = np.max(np.abs(H))
    for mu in (0.0, *scale * 10.0 ** np.arange(-10, 2)):
        try:
            L = np.linalg.cholesky(H + mu * np.eye(len(g)))
        except np.linalg.LinAlgError:
            continue
        return np.linalg.solve(L.T, np.linalg.solve(L, g))
    return np.full_like(g, np.nan)


def _descend(prob: RadialProblem, init_free, tol, max_iter):
    """Projected Newton (Bertsekas 1982) from one start. Each free value has
    the bounds implied by the cone, (k+1) DELTA_MIN <= x_k <= bv - (K-k)
    DELTA_MIN; rows within eps of a bound that the gradient pushes into get
    a diagonal Hessian, and the step is an Armijo search along the projected
    arc P(x - alpha s)."""
    nodes, bv, K = prob.nodes, prob.boundary_value, prob.K
    k = np.arange(K)
    lo = (k + 1) * DELTA_MIN
    hi = bv - (K - k) * DELTA_MIN

    def evaluate(free):
        return _energy_and_grad(nodes, np.append(free, bv), prob)

    def pg_norm(free, g):
        return float(np.linalg.norm(free - _project_free(free - g, bv)))

    free = _project_free(np.asarray(init_free, dtype=float), bv)
    E, g, H = evaluate(free)
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
        act = np.flatnonzero(((free <= lo + eps) & (g > 0))
                             | ((free >= hi - eps) & (g < 0)))
        Hr = H.copy()
        Hr[act, :] = 0.0
        Hr[:, act] = 0.0
        Hr[act, act] = np.abs(H[act, act])
        step = _newton_step(Hr, g)
        alpha = 1.0
        for _ in range(60):
            cand = _project_free(free - alpha * step, bv)
            Ec, gc, Hc = evaluate(cand)
            dec = float(np.dot(g, free - cand))
            if abs(dec) <= 1e-13 * abs(E):
                # E cannot resolve this step: accept it if it shrinks the
                # projected gradient, else halve until cand == free and stop
                accepted = pg_norm(cand, gc) < pgn
            else:
                accepted = dec > 0 and Ec <= E - 1e-4 * dec
            if accepted:
                break
            alpha *= 0.5
        else:
            status = "line-search-stalled"
            break
        free, E, g, H = cand, Ec, gc, Hc
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
    """Projected Newton on the exact tridiagonal Hessian over monotone radial
    profiles, with a Levenberg shift where the Hessian is indefinite and an
    Armijo search along the projected arc.

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
    profile = RadialProfile(nodes=prob.nodes, values=np.append(free, prob.boundary_value))
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
