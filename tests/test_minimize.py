import math
import tracemalloc

import numpy as np
import pytest

from cavicore.deformation import RadialProfile, radial_deformation
from cavicore.energy import default_density, regularized_energy, subquadratic_density
from cavicore.geometry import Confinement, Domain, FlawConfig, tight_confinement
from cavicore.minimize import (
    DELTA_MIN,
    GammaSweep,
    RadialProblem,
    _default_inits,
    _descend,
    _energy_and_grad,
    _newton_step,
    _node_geometry,
    _project_free,
    flaw_search,
    gamma_sweep,
    minimize_radial,
    radial_reduced_energy,
)

DENS = default_density(2.0)


def _problem(eps=0.1, bv=1.0, lam=(0.0, 0.0), K=16):
    return RadialProblem(eps=eps, outer_radius=1.0, boundary_value=bv,
                         density=DENS, lambdas=lam, K=K)


def _identity_energy(prob):
    prof = RadialProfile(nodes=prob.nodes, values=prob.nodes.copy())
    return radial_reduced_energy(prof, prob).total


def test_problem_validation():
    with pytest.raises(ValueError):
        RadialProblem(eps=1.0, outer_radius=0.5, boundary_value=1.0,
                      density=DENS, lambdas=(0, 0))
    with pytest.raises(ValueError):
        RadialProblem(eps=0.1, outer_radius=1.0, boundary_value=-1.0,
                      density=DENS, lambdas=(0, 0))
    with pytest.raises(ValueError):
        RadialProblem(eps=0.1, outer_radius=1.0, boundary_value=1.0,
                      density=DENS, lambdas=(0, 0), K=4)


def test_problem_core_radius_is_not_negative():
    # eps = 0 is the vanishing-core problem itself; a negative eps made the
    # reduced energy -inf
    assert _problem(eps=0.0).nodes[0] == 0.0
    with pytest.raises(ValueError, match="eps"):
        _problem(eps=-0.1)
    # nor an infinite or NaN outer radius or boundary value, which made the
    # reduced energy NaN
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="outer_radius"):
            RadialProblem(eps=0.1, outer_radius=bad, boundary_value=1.0, density=DENS,
                          lambdas=(0, 0))
        with pytest.raises(ValueError, match="boundary_value"):
            _problem(bv=bad)


def test_projection_restores_feasibility():
    out = _project_free(np.array([0.5, 0.2, 0.9, 0.1]), 1.0)
    assert np.all(np.diff(out) >= DELTA_MIN - 1e-15)
    assert out[0] >= DELTA_MIN - 1e-15
    assert out[-1] <= 1.0 - DELTA_MIN + 1e-15
    # already-feasible input is fixed by the projection
    good = np.array([0.2, 0.4, 0.6, 0.8])
    assert np.allclose(_project_free(good, 1.0), good, atol=1e-15)


def test_reduced_energy_identity_profile():
    prob = _problem(eps=0.5, bv=1.0)
    prof = RadialProfile(nodes=prob.nodes, values=prob.nodes.copy())
    bd = radial_reduced_energy(prof, prob)
    assert bd.elastic == pytest.approx(2.25 * math.pi, rel=1e-12)


def test_reduced_energy_cavity_terms():
    prob = _problem(eps=0.5, bv=1.0, lam=(1.0, 1.0))
    prof = RadialProfile(nodes=prob.nodes, values=prob.nodes.copy())
    bd = radial_reduced_energy(prof, prob)
    assert bd.volume_term == pytest.approx(math.pi * 0.25, rel=1e-12)
    assert bd.perimeter_term == pytest.approx(2 * math.pi * 0.5, rel=1e-12)


def test_reduced_energy_gradient_consistency(rng):
    # analytic gradient used by the solver against finite differences
    prob = _problem(eps=0.2, bv=1.5, lam=(0.7, 1.3))
    geom = _node_geometry(prob.nodes)
    vals = np.sort(rng.uniform(0.3, 1.4, prob.K + 1))
    vals[-1] = prob.boundary_value
    E, g, D = _energy_and_grad(geom, vals, prob)
    h = 1e-6
    for i in (0, 3, prob.K - 1):
        e = np.zeros_like(vals)
        e[i] = h
        fd = (_energy_and_grad(geom, vals + e, prob)[0]
              - _energy_and_grad(geom, vals - e, prob)[0]) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def _dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("dens", [default_density(2.0), subquadratic_density(1.5)])
def test_reduced_energy_hessian_vs_fd(dens, rng):
    # exact tridiagonal Hessian against central differences of the gradient
    prob = RadialProblem(eps=0.2, outer_radius=1.0, boundary_value=1.5,
                         density=dens, lambdas=(0.7, 1.3), K=16)
    geom = _node_geometry(prob.nodes)
    vals = np.sort(rng.uniform(0.3, 1.4, prob.K + 1))
    vals[-1] = prob.boundary_value
    diag, off = _energy_and_grad(geom, vals, prob)[2]
    assert diag.shape == (prob.K,) and off.shape == (prob.K - 1,)
    H = _dense(diag, off)
    h = 1e-6
    fd = np.empty_like(H)
    for j in range(prob.K):
        e = np.zeros_like(vals)
        e[j] = h
        fd[:, j] = (_energy_and_grad(geom, vals + e, prob)[1]
                    - _energy_and_grad(geom, vals - e, prob)[1]) / (2 * h)
    assert np.max(np.abs(H - fd)) <= 1e-6 * np.max(np.abs(H))


def _dense_newton_step(H, g, active):
    """Oracle: decouple the active rows of the full matrix, then Cholesky of
    H + mu I over the Levenberg ladder 0, 1e-10 ... 10 times max |H_ij|."""
    act = np.flatnonzero(active)
    Hr = H.copy()
    Hr[act, :] = 0.0
    Hr[:, act] = 0.0
    Hr[act, act] = np.abs(H[act, act])
    scale = np.max(np.abs(Hr))
    for mu in (0.0, *scale * 10.0 ** np.arange(-10, 2)):
        try:
            L = np.linalg.cholesky(Hr + mu * np.eye(len(g)))
        except np.linalg.LinAlgError:
            continue
        return np.linalg.solve(L.T, np.linalg.solve(L, g)), mu
    raise AssertionError("no shift of the ladder factors")


@pytest.mark.parametrize("case", ["definite", "indefinite", "active"])
def test_banded_step_matches_dense_cholesky(case, rng):
    K = 24
    diag = rng.uniform(2.5, 3.5, K)
    off = rng.uniform(-1.0, 1.0, K - 1)
    g = rng.uniform(-1.0, 1.0, K)
    active = np.zeros(K, dtype=bool)
    if case != "definite":
        diag[[2, 9, 17]] = [-2.0, -0.5, -3.0]
    if case == "active":
        active[[0, 2, 11, K - 1]] = True
        diag[[0, K - 1]] = [-1.5, -0.2]
    step, mu = _newton_step(diag, off, g, active)
    ref, ref_mu = _dense_newton_step(_dense(diag, off), g, active)
    assert mu == ref_mu
    assert (mu == 0.0) == (case == "definite")
    assert np.max(np.abs(step - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_newton_step_nonfinite_hessian_gives_nan():
    diag, off, g = np.full(8, 2.0), np.full(7, 0.5), np.ones(8)
    diag[3] = np.nan
    assert np.all(np.isnan(_newton_step(diag, off, g, np.zeros(8, dtype=bool))[0]))


def test_readme_k512_solve():
    # the README minimize-radial case at K = 512
    res = minimize_radial(_problem(eps=0.1, bv=2.0, lam=(1.0, 1.0), K=512))
    assert res.converged and res.iterations == 7
    assert res.energy.total == pytest.approx(51.80710802069416, rel=1e-12)


def test_k2048_solve_allocates_no_dense_matrix():
    # one K x K float64 matrix at K = 2048 takes 32 MiB; the banded solve
    # allocates a few per-segment arrays of 8 Gauss points
    K = 2048
    prob = _problem(eps=0.1, bv=2.0, lam=(1.0, 1.0), K=K)
    tracemalloc.start()
    try:
        res = minimize_radial(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak < K * K * 8


def test_one_two_dimensional_consistency(rng):
    # the 1-d reduction agrees with the full planar quadrature of the lifted
    # radial map for 20 random monotone profiles
    eps, R = 0.3, 1.0
    dom = Domain(q=2, radius=R)
    cfg = FlawConfig(points=[[0, 0]], eps=eps, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    for _ in range(20):
        K = 8
        nodes = np.linspace(eps, R, K + 1)
        incr = rng.uniform(0.02, 0.2, K)
        v0 = rng.uniform(0.1, 0.6)
        vals = v0 + np.concatenate([[0.0], np.cumsum(incr)])
        prob = RadialProblem(eps=eps, outer_radius=R, boundary_value=vals[-1],
                             density=DENS, lambdas=(1.0, 1.0), K=K)
        prof = RadialProfile(nodes=nodes, values=vals)
        one_d = radial_reduced_energy(prof, prob).total
        bd, ok = regularized_energy(radial_deformation(prof), cfg, dom, DENS,
                                    (1.0, 1.0))
        assert ok
        two_d = bd.total
        assert abs(one_d - two_d) <= 1e-4 * abs(two_d)


def test_descent_trace_nonincreasing():
    res = minimize_radial(_problem(eps=0.1, bv=2.0, lam=(1.0, 1.0)),
                          max_iter=2000)
    assert np.all(np.diff(res.energy_trace) <= 1e-12)


@pytest.mark.parametrize("dens", [default_density(2.0), subquadratic_density(1.5)])
def test_every_default_start_converges(dens):
    # each standard start alone reaches the projected-gradient tolerance
    for bv in (1.0, 2.0, 3.0):
        for eps in (0.2, 0.1, 0.05):
            prob = RadialProblem(eps=eps, outer_radius=1.0, boundary_value=bv,
                                 density=dens, lambdas=(1.0, 1.0), K=16)
            for i, init in enumerate(_default_inits(prob)):
                _, _, _, pg_norm, status, _ = _descend(prob, init, 1e-7, 100_000)
                assert status == "converged", (bv, eps, i, status, pg_norm)
                assert pg_norm < 1e-7


GRID_ENERGIES = {  # standard p = 2, lambda = (1, 1), K = 16
    (1.0, 0.2): 9.792576773092, (1.0, 0.1): 9.544343195088,
    (1.0, 0.05): 9.466787105290,
    (2.0, 0.2): 46.791572855328, (2.0, 0.1): 51.833174775392,
    (2.0, 0.05): 54.506427108902,
    (3.0, 0.2): 118.929001802069, (3.0, 0.1): 145.076551944992,
    (3.0, 0.05): 168.483525122679,
}


@pytest.mark.parametrize("bv, eps", sorted(GRID_ENERGIES))
def test_grid_minimum_energies(bv, eps):
    res = minimize_radial(_problem(eps=eps, bv=bv, lam=(1.0, 1.0)))
    assert res.converged
    assert res.energy.total == pytest.approx(GRID_ENERGIES[bv, eps], rel=1e-9)


def test_multistart_picks_lower_local_minimum():
    # at stretch 2, eps 0.05 the affine start ends in the higher of two minima
    prob = _problem(eps=0.05, bv=2.0, lam=(1.0, 1.0))
    _, first, _, _, status, _ = _descend(prob, next(_default_inits(prob)), 1e-7, 100_000)
    best = minimize_radial(prob)
    assert status == "converged" and best.converged
    assert first == pytest.approx(54.5753, abs=1e-4)
    assert best.energy.total == pytest.approx(54.5064, abs=1e-4)


def test_no_stretch_identity_near_optimal():
    for eps in (0.2, 0.1, 0.05):
        prob = _problem(eps=eps, bv=1.0, lam=(0.0, 0.0))
        res = minimize_radial(prob)
        assert res.energy.total <= _identity_energy(prob) + 1e-8
        assert res.converged


def test_strong_stretch_prefers_cavity():
    for eps in (0.2, 0.1):
        prob = _problem(eps=eps, bv=2.0, lam=(1.0, 1.0))
        res = minimize_radial(prob, max_iter=20_000)
        affine = RadialProfile(nodes=prob.nodes,
                               values=np.maximum(2 * prob.nodes, 1e-6))
        assert res.energy.total < radial_reduced_energy(affine, prob).total
        assert res.profile.cavity_radius > 0.5


def test_huge_lambda_suppresses_cavity():
    prob = _problem(eps=0.1, bv=2.0, lam=(1e6, 1e6))
    res = minimize_radial(prob, max_iter=20_000)
    assert res.profile.cavity_radius <= 100 * DELTA_MIN
    # energetically consistent: shrunken beats an open-cavity candidate
    opened = RadialProfile(nodes=prob.nodes,
                           values=np.linspace(1.0, 2.0, prob.K + 1))
    assert res.energy.total < radial_reduced_energy(opened, prob).total


def test_lambda_scaling_invariance_elastic_only():
    # with lambda = 0 the objective ignores the weights: bitwise equal runs
    r1 = minimize_radial(_problem(eps=0.1, bv=1.5, lam=(0.0, 0.0)))
    r2 = minimize_radial(_problem(eps=0.1, bv=1.5, lam=(0.0, 0.0)))
    assert np.array_equal(r1.profile.values, r2.profile.values)


def test_cavity_radius_monotone_in_lambda():
    rhos = []
    for lam in (0.5, 1.0, 2.0, 4.0):
        prob = _problem(eps=0.1, bv=2.0, lam=(lam, lam))
        res = minimize_radial(prob, max_iter=20_000)
        rhos.append(res.profile.cavity_radius)
    assert all(rhos[i + 1] <= rhos[i] + 1e-9 for i in range(len(rhos) - 1))


def test_minimizer_is_admissible():
    from cavicore.energy import check_admissibility_sampled

    prob = _problem(eps=0.15, bv=2.0, lam=(1.0, 1.0))
    res = minimize_radial(prob, max_iter=20_000)
    y = radial_deformation(res.profile)
    y.domain = Domain(q=2, radius=1.0)
    cfg = FlawConfig(points=[[0, 0]], eps=0.15, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    rep = check_admissibility_sampled(y, cfg, y.domain, [0.4], seed=3)
    assert rep.ok, str(rep)


# --------------------------------------------------------------------------
# flaw search


def _search_grid():
    return Confinement("square", (0, 0), 0.3).grid(3)


def test_flaw_search_symmetry_center_wins():
    fs = flaw_search(_search_grid(), Domain(q=2, radius=1.0),
                     Confinement("square", (0, 0), 0.3), 0.05, 2.0, DENS,
                     (0.0, 0.0))
    assert fs.best.center == (0.0, 0.0)
    # symmetry orbit of the corners ties exactly
    corners = [r.energy_total for r in fs.table
               if r.valid and abs(abs(r.center[0]) - 0.3) < 1e-12
               and abs(abs(r.center[1]) - 0.3) < 1e-12]
    assert len(corners) == 4
    assert max(corners) - min(corners) <= 1e-6


def test_flaw_search_rejects_outside_confinement():
    cands = np.array([[0.0, 0.0], [0.55, 0.0]])
    fs = flaw_search(cands, Domain(q=2, radius=1.0),
                     Confinement("disk", (0, 0), 0.3), 0.05, 2.0, DENS,
                     (0.0, 0.0))
    rejected = [r for r in fs.table if not r.valid]
    assert len(rejected) == 1
    assert "confinement" in rejected[0].reason


def test_flaw_search_reports_full_table():
    fs = flaw_search(_search_grid(), Domain(q=2, radius=1.0),
                     Confinement("square", (0, 0), 0.3), 0.05, 2.0, DENS,
                     (1.0, 1.0))
    assert len(fs.table) == 9
    assert all(r.energy_total is not None for r in fs.table if r.valid)
    best = min(r.energy_total for r in fs.table if r.valid)
    assert fs.best.energy_total == best


# --------------------------------------------------------------------------
# vanishing-core sweep


def test_gamma_sweep_no_stretch_rows_beat_identity():
    template = _problem(eps=0.2, bv=1.0, lam=(0.0, 0.0))
    sweep = gamma_sweep([0.2, 0.1, 0.05], template)
    assert isinstance(sweep, GammaSweep)
    # every row minimum sits at or below the identity-profile energy; the
    # density's pointwise optimum is slightly compressive, so strictly below
    for row in sweep.rows:
        prob = _problem(eps=row.eps, bv=1.0, lam=(0.0, 0.0))
        assert row.min_energy.total <= _identity_energy(prob) + 1e-8
        assert row.converged


def test_gamma_sweep_stretch_gap_trend():
    template = _problem(eps=0.2, bv=2.0, lam=(1.0, 1.0))
    sweep = gamma_sweep([0.2, 0.1, 0.05], template)
    for a, b in zip(sweep.gaps, sweep.gaps[1:]):
        assert b <= a * 1.05 + 1e-9


def test_gamma_sweep_total_monotone_in_lambda_p():
    totals = []
    for lp in (0.5, 1.0, 2.0):
        template = _problem(eps=0.2, bv=2.0, lam=(1.0, lp))
        sweep = gamma_sweep([0.2, 0.1, 0.05], template)
        totals.append([r.min_energy.total for r in sweep.rows])
    for eps_idx in range(3):
        seq = [t[eps_idx] for t in totals]
        assert seq[0] <= seq[1] <= seq[2]


@pytest.mark.parametrize("bv", [1.0, 2.0, 3.0])
def test_gamma_sweep_rows_are_cold_solves(bv):
    # each row is the plain multistart minimum at its core radius
    eps_list = [0.2, 0.1, 0.05]
    sweep = gamma_sweep(eps_list, _problem(eps=0.2, bv=bv, lam=(1.0, 1.0)))
    for row, eps in zip(sweep.rows, eps_list):
        res = minimize_radial(_problem(eps=eps, bv=bv, lam=(1.0, 1.0)))
        assert row.min_energy.total == pytest.approx(res.energy.total, rel=1e-12)
        assert row.iterations == res.iterations
        assert row.converged


def test_gamma_sweep_validation():
    template = _problem()
    with pytest.raises(ValueError):
        gamma_sweep([0.1, 0.2, 0.05], template)
    with pytest.raises(ValueError):
        gamma_sweep([0.2, 0.1], template)
