import dataclasses
import math
import re
import signal

import numpy as np
import pytest

import cavicore.cavity as cavity
import cavicore.energy as energy
import cavicore.recovery as recovery
from cavicore.cavity import cavity_perimeter, cavity_volume, dyadic_ladder, trace_on_circle
from cavicore.deformation import (
    CATALOG_KEYS,
    Deformation,
    EvaluationDomainError,
    RadialProfile,
    compose,
    example_change_of_reference,
    example_radial,
    example_spike,
    example_superposition,
    identity_deformation,
    make_example,
    radial_deformation,
)
from cavicore.energy import (
    EnergyBreakdown,
    bump,
    check_admissibility_sampled,
    default_density,
    density_by_name,
    elastic_energy,
    extended_det_pairing,
    limit_energy,
    regularized_energy,
    stress_control_constant,
    subquadratic_density,
    _polar_integral,
)
from cavicore.geometry import (Confinement, Domain, FlawConfig, det2, gauss_legendre, norm2,
                               tight_confinement, validate_flaw_config)
from cavicore.seams import Arc


def _random_matrices(rng, n, det_lo=0.2, det_hi=5.0):
    """Random 2x2 matrices rescaled to a prescribed positive determinant."""
    out = np.empty((n, 2, 2))
    targets = rng.uniform(det_lo, det_hi, n)
    k = 0
    while k < n:
        F = rng.normal(size=(2, 2))
        d = F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]
        if abs(d) < 1e-3:
            continue
        if d < 0:
            F = F[:, ::-1].copy()
            d = -d
        out[k] = F * math.sqrt(targets[k] / d)
        k += 1
    return out


# --------------------------------------------------------------------------
# densities


def test_default_density_values():
    dens = default_density(2.0)
    assert dens.w(np.eye(2)) == pytest.approx(3.0, abs=1e-15)
    assert dens.w(np.diag([2.0, 0.5])) == pytest.approx(5.25, abs=1e-12)
    assert dens.w(np.diag([1.0, -1.0])) == math.inf


def test_default_density_rejects_small_p():
    for p in (1.5, math.inf, math.nan):  # p < 2 is false for NaN
        with pytest.raises(ValueError):
            default_density(p)
    with pytest.raises(ValueError):
        subquadratic_density(2.5)


def test_density_by_name():
    assert density_by_name("standard", 2.0).name == "standard"
    assert density_by_name("subquadratic", 1.3).name == "subquadratic"
    with pytest.raises(KeyError):
        density_by_name("nope", 2.0)


@pytest.mark.parametrize("dens", [default_density(2.0), default_density(3.0),
                                  subquadratic_density(1.1),
                                  subquadratic_density(1.5)])
def test_density_derivative_vs_fd(dens, rng):
    Fs = _random_matrices(rng, 500)
    D = dens.dw(Fs)
    h = 1e-6
    for i in range(2):
        for j in range(2):
            E = np.zeros((2, 2))
            E[i, j] = h
            fd = (dens.w(Fs + E) - dens.w(Fs - E)) / (2 * h)
            scale = np.maximum(np.abs(dens.w(Fs)), 1.0)
            assert np.max(np.abs(D[..., i, j] - fd) / scale) <= 1e-6


@pytest.mark.parametrize("dens", [default_density(2.0), subquadratic_density(1.5)])
def test_volumetric_derivatives_vs_fd(dens):
    # g' and g'' against first and second central differences of g
    t = np.geomspace(0.05, 20.0, 200)
    h = 1e-6 * t
    fd1 = (dens.g(t + h) - dens.g(t - h)) / (2 * h)
    assert np.allclose(dens.dg(t), fd1, rtol=1e-7, atol=1e-7)
    h = 1e-3 * t
    fd2 = (dens.g(t + h) - 2 * dens.g(t) + dens.g(t - h)) / h**2
    assert np.allclose(dens.ddg(t), fd2, rtol=1e-5)


@pytest.mark.parametrize("dens", [default_density(2.0), subquadratic_density(1.1)])
def test_density_growth_and_coercivity(dens, rng):
    Fs = _random_matrices(rng, 300)
    w = dens.w(Fs)
    fro = np.sqrt(np.sum(Fs * Fs, axis=(1, 2)))
    lower = fro**dens.p + dens.g(det2(Fs))
    assert np.all(w >= lower - 1e-12 * np.maximum(w, 1.0))
    # volumetric blowup at collapse and superlinear growth at infinity
    assert dens.g(1e-6) >= 1e3
    assert dens.g(1e6) / 1e6 >= 10.0


def test_stress_control_constant(rng):
    dens = default_density(2.0)
    Fs = _random_matrices(rng, 400)
    const = stress_control_constant(dens, Fs)
    assert np.isfinite(const)
    assert const <= 10.0


# --------------------------------------------------------------------------
# energy breakdown


def test_breakdown_additivity_and_monotonicity():
    bd = EnergyBreakdown.assemble(1.5, 0.3, 0.7, (2.0, 4.0))
    assert bd.total == pytest.approx(bd.elastic + bd.volume_term + bd.perimeter_term,
                                     abs=1e-12)
    for lv, lp in [(3.0, 4.0), (2.0, 5.0), (6.0, 8.0)]:
        assert EnergyBreakdown.assemble(1.5, 0.3, 0.7, (lv, lp)).total >= bd.total


# --------------------------------------------------------------------------
# polar quadrature


def _disk_indicator(X):
    return (np.linalg.norm(X, axis=-1) < 0.45).astype(float)


@pytest.mark.parametrize("q", [1, 2, math.inf])
@pytest.mark.parametrize("r_in", [0.0, 0.1])
@pytest.mark.parametrize("split", ["breaks", "circles"])
def test_polar_integral_splits_are_euclidean(q, r_in, split):
    # a jump at Euclidean radius 0.45 that the rays are split at is integrated
    # exactly, whatever the norm of the outer ball: declared as an arc whose
    # break is f(t), or as a circle
    f = (lambda t: np.full(np.shape(t), 0.45)) if split == "breaks" else 0.45
    val, ok, _ = _polar_integral(_disk_indicator, (0.0, 0.0), q, r_in, 1.0,
                              n=64, seams=(Arc((0.0, 0.0), f),))
    assert ok
    assert val == pytest.approx(math.pi * (0.45**2 - r_in**2), rel=1e-13)


def test_polar_integral_tangent_rays_are_panel_edges():
    # an off-center bump (1 - |u|^2)^2 is C^1 across its support circle; with
    # the rays tangent to that circle as angular panel edges the integral
    # converges spectrally, without them it stalls near 1e-7
    phi = bump(2, radius=0.25, center=(0.55, 0.1))
    val, ok, _ = _polar_integral(lambda X: phi.value(phi.offset(X)[1]), (0.0, 0.0), 2,
                              0.0, 1.0, seams=(Arc((0.55, 0.1), 0.25),), n=1024)
    assert ok
    assert val == pytest.approx(math.pi * 0.25**2 / 3.0, rel=1e-12)


def test_polar_integral_estimate_sees_an_undeclared_radial_kink():
    # |x| - 0.45 changes sign on a circle that is no seam: each ray's integral
    # is the same, so only the radial panels' estimate sees the kink
    val, ok, err = _polar_integral(lambda X: np.abs(norm2(X) - 0.45), (0.0, 0.0), 2,
                                   0.0, 1.0, n=128)
    exact = 2.0 * math.pi * (1.0 / 3.0 - 0.45 / 2.0 + 0.45**3 / 3.0)
    assert ok and err >= abs(val - exact) > 1e-6 * exact


def test_polar_integral_blocking_is_bit_identical(monkeypatch):
    # about 250 x 3 x 8 points per segment and 250 x 8 per dyadic level: not
    # a multiple of any block size used here
    y = example_change_of_reference(0.5)
    dens = subquadratic_density(1.1)

    def one_pass():
        return _polar_integral(lambda X: dens.w(y.grad(X)), (0.0, 0.0), math.inf,
                               0.0, 1.0, seams=(Arc((0.2, 0.1), 0.3),),
                               singular=True, n=250)

    ref = one_pass()
    for block in (7, 10**9):
        monkeypatch.setattr(energy, "BLOCK", block)
        assert one_pass() == ref


def test_finest_pass_memory_is_blocked():
    # one pass of 2944 x 46 x 8 >= 2^20 points per segment, each evaluated in
    # blocks, so no (N, 2, 2) temporary of the whole segment is ever made
    import tracemalloc

    y = example_radial(0.5)
    dens = subquadratic_density(1.1)
    tracemalloc.start()
    try:
        _polar_integral(lambda X: dens.w(y.grad(X)), (0.0, 0.0), 1, 0.0, 1.0,
                        seams=y.seams, singular=True, n=2944)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20


def test_polar_integral_singular_grading_with_splits():
    # |x|^(-1/2) over the unit disk is 4 pi / 3; the grading stays below the
    # first split on every ray, also on rays that miss the circle
    val, ok, _ = _polar_integral(lambda X: np.linalg.norm(X, axis=-1) ** -0.5,
                              (0.0, 0.0), 2, 0.0, 1.0, n=512, singular=True,
                              seams=(Arc((0.0, 0.0), 0.5), Arc((0.5, 0.0), 0.2)))
    assert ok
    assert val == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)


def test_many_column_pass_memory_is_bounded():
    # a pass of about 2100 rays x 32 panels x 8 nodes per segment column, split
    # at every seam of the superposition map: its columns are grouped only
    # up to 32 blocks of points, so a larger one is evaluated alone
    import tracemalloc

    y = example_superposition()
    tracemalloc.start()
    try:
        val, ok, _ = _polar_integral(lambda X: X[..., 0] * X[..., 0], (0.0, 0.0), math.inf,
                                  0.0, 1.0, seams=y.seams, n=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and val == pytest.approx(4.0 / 3.0, rel=1e-13)
    assert peak < 96 * 2**20


def _dyadic_case(inf_below):
    # (f, center, u, jw, hi): 8 rays about an off-origin center, with f
    # |x - c|^(-1/2), or inf below the radius inf_below
    c = np.array([0.3, -0.2])
    t = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False) + 0.1
    u = np.stack([np.cos(t), np.sin(t)], axis=-1)

    def f(X):
        r = np.linalg.norm(X - c, axis=-1)
        with np.errstate(divide="ignore"):  # the deepest levels' nodes round onto c
            return np.where(r < inf_below, np.inf, r**-0.5)

    return f, c, u, np.full(8, math.pi / 4), np.linspace(0.3, 0.5, 8)


def _dyadic_levels(f, c, u, jw, hi):
    """The graded sum one level at a time, each with its own call of f: the
    oracle of `energy._dyadic_sum`, which evaluates levels in chunks."""
    gx, gw = gauss_legendre(energy.NG)
    total, top = 0.0, hi.copy()
    for _ in range(energy.DYADIC_LEVELS):
        lo = top / 2.0
        width = (top - lo)[:, None, None]
        mid = lo[:, None, None] + 0.5 * width * (gx + 1.0)
        vals = f(c + mid[..., None] * u[:, None, None, :])
        last = float(np.sum(vals * mid * (0.5 * width * gw) * jw[:, None, None]))
        total += last
        top = lo
        if not math.isfinite(last):
            return total, False
        if abs(last) < energy.DYADIC_TOL:
            return total, True
    return total, False


@pytest.mark.parametrize("block", [7, 64, 640, 8192, 10**9])
@pytest.mark.parametrize("inf_below", [0.0, 0.01])
def test_dyadic_sum_is_the_per_level_sum(monkeypatch, block, inf_below):
    # one level per chunk (7, 64), ten (640) or all sixty (8192, 10**9): the
    # same bits and the same converged flag as one level at a time
    monkeypatch.setattr(energy, "BLOCK", block)
    case = _dyadic_case(inf_below)
    total, ok, _ = energy._dyadic_sum(*case)
    want = _dyadic_levels(*case)
    assert ok == want[1] == (inf_below == 0.0)
    assert total == want[0]


def _inf_within_a_tenth(calls):
    def f(X):
        calls.append(len(X))
        return np.where(np.linalg.norm(X, axis=-1) < 0.1, np.inf, 1.0)

    t = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    u = np.stack([np.cos(t), np.sin(t)], axis=-1)
    return energy._dyadic_sum(f, np.zeros(2), u, np.full(8, math.pi / 4), np.full(8, 0.5))


def test_dyadic_sum_ends_at_a_non_finite_level(monkeypatch):
    # f is inf below radius 0.1: the third level (0.0625, 0.125) is the first
    # to reach it. 64-point blocks make each level of 8 rays x 8 nodes its
    # own chunk, so no later level is evaluated
    monkeypatch.setattr(energy, "BLOCK", 64)
    calls = []
    total, ok, _ = _inf_within_a_tenth(calls)
    assert total == math.inf and not ok
    assert len(calls) == 3


def test_dyadic_sum_default_block_takes_one_call():
    # with the default block all sixty levels of 8 rays are one chunk
    calls = []
    total, ok, _ = _inf_within_a_tenth(calls)
    assert total == math.inf and not ok
    assert len(calls) == 1


def _segment_columns(f, c, u, jw, lo, hi, p):
    """Each non-empty column's sums one column at a time, each with its own
    call of f: the oracle of `energy._column_sums`, which evaluates columns
    in groups."""
    gx, gw = gauss_legendre(energy.NG)
    sums = []
    for a, b in zip(lo, hi):
        width = ((b - a) / p)[:, None, None]
        if np.all(width <= 0):
            continue
        mid = (a[:, None, None] + width * np.arange(p)[:, None]
               + 0.5 * width * (gx + 1.0))
        vals = f((c + mid[..., None] * u[:, None, None, :]).reshape(-1, 2))
        sums.append([np.sum(v * mid * (0.5 * width * gw) * jw[:, None, None])
                     for v in vals.reshape((-1,) + mid.shape)])
    return sums


@pytest.mark.parametrize("points", [7, 640, 10**9])
def test_column_sums_are_the_per_column_sums(points):
    # 8 rays x 3 panels x 8 nodes per column: one column per group (7),
    # three (640) or all (10**9). A column empty on every ray is dropped; one
    # empty on half its rays is kept
    c = np.array([0.3, -0.2])
    t = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False) + 0.1
    u = np.stack([np.cos(t), np.sin(t)], axis=-1)
    edges = np.linspace(0.1, 0.9, 6)[:, None] + 0.01 * np.arange(8)
    edges[3] = edges[2]
    edges[5, :4] = edges[4, :4]

    def f(X):
        return np.stack([1.0 / (1.0 + np.sum(X * X, axis=-1)), X[:, 0] ** 3 - X[:, 1]])

    case = (f, c, u, np.full(8, math.pi / 4), edges[:-1], edges[1:], 3)
    got = [sums for sums, _, _ in energy._column_sums(*case, points)]
    want = _segment_columns(*case)
    assert len(got) == len(want) == 4
    assert np.array_equal(got, want)


# --------------------------------------------------------------------------
# elastic energy


def test_elastic_identity_annulus_and_ball():
    dens = default_density(2.0)
    idm = identity_deformation()
    annulus = Domain(q=2, radius=1.0, flaws=FlawConfig(points=[[0, 0]], eps=0.5))
    val, ok = elastic_energy(idm, annulus, dens)
    assert ok and val == pytest.approx(2.25 * math.pi, rel=1e-9)
    ball = Domain(q=2, radius=1.0)
    val, ok = elastic_energy(idm, ball, dens)
    assert ok and val == pytest.approx(3 * math.pi, rel=1e-9)


def test_elastic_refinement_stability():
    # the converged value agrees with a one-shot high-resolution reference
    from cavicore.energy import _integrate_perforated

    dens = default_density(2.0)
    y = example_radial(0.5)
    dom = Domain(q=1, radius=1.0, flaws=FlawConfig(points=[[0, 0]], eps=0.3))
    a, ok = elastic_energy(y, dom, dens)
    assert ok
    ref, _, _ = _integrate_perforated(lambda X: dens.w(y.grad(X)), dom, dom.flaws,
                                   y, n=4096)
    assert abs(a - ref) <= 2e-6 * abs(ref)


def test_elastic_offcenter_flaw_partition_of_unity():
    # off-center hole: partition-of-unity path against the exact area integral
    dens = default_density(2.0)
    idm = identity_deformation()
    dom = Domain(q=2, radius=1.0,
                 flaws=FlawConfig(points=[[0.3, 0.1]], eps=0.12))
    expect = 3.0 * (math.pi - math.pi * 0.12**2)
    val, ok = elastic_energy(idm, dom, dens)
    assert ok and val == pytest.approx(expect, rel=1e-6)


def test_elastic_off_centre_radial_map_converges():
    # a radial map centred at (0.4, 0), flawed there and at (-0.4, 0): the
    # background pass about the origin must split its rays where they cross
    # the profile's node circle about (0.4, 0), or the refinement stalls at
    # 2048 nodes (against a 4096-node pass split by a circle seam)
    y = radial_deformation(RadialProfile([0.0, 0.2, 1.5], [0.1, 0.5, 1.6]),
                           center=(0.4, 0.0))
    dom = Domain(q=2, radius=1.0, flaws=FlawConfig(
        points=TWO_FLAWS, eps=0.1, max_count=2, confinement=tight_confinement(TWO_FLAWS)))
    val, ok = elastic_energy(y, dom, subquadratic_density(1.5))
    assert ok and val == pytest.approx(7.7652795894, rel=2e-7)


def test_elastic_change_of_reference_two_flaws_converges():
    # the change-of-reference seams seen from the background pass and from a
    # flaw off the map's own point
    y = example_change_of_reference(0.5)
    pts = [[0.0, 0.0], [0.3, 0.4]]
    dom = Domain(q=math.inf, radius=1.0, flaws=FlawConfig(
        points=pts, eps=0.05, max_count=2, confinement=tight_confinement(pts)))
    val, ok = elastic_energy(y, dom, subquadratic_density(1.1))
    assert ok and val == pytest.approx(10.167559, rel=1e-6)


def test_elastic_two_flaws():
    dens = default_density(2.0)
    idm = identity_deformation()
    dom = Domain(q=2, radius=1.0,
                 flaws=FlawConfig(points=[[-0.4, 0.0], [0.4, 0.0]], eps=0.1,
                                  max_count=2))
    expect = 3.0 * (math.pi - 2 * math.pi * 0.01)
    val, ok = elastic_energy(idm, dom, dens)
    assert ok and val == pytest.approx(expect, rel=1e-6)


@pytest.mark.parametrize("q", [2, math.inf])
@pytest.mark.parametrize("room", [1.05, 1.1, 1.15, 1.4, 1.45])
def test_flaw_patch_stays_inside_the_domain(q, room):
    # a flaw at distance room * eps from the boundary, in a valid config: the
    # partition-of-unity patch about it must not count area outside the domain.
    # The bulk is refined to 1e-10, below the 1e-9 that the check asks for
    # (elastic_energy's BULK_TOL of 1e-6 would not promise it)
    eps = 0.1
    a = [[1.0 - room * eps, 0.0]]
    cfg = FlawConfig(points=a, eps=eps, confinement=tight_confinement(a))
    dom = Domain(q=q, radius=1.0, flaws=cfg)
    assert validate_flaw_config(cfg, dom).ok
    val, ok = energy._stored_energy(identity_deformation(), default_density(2.0), dom, cfg,
                                    tol=1e-10)
    assert ok and val == pytest.approx(3.0 * (dom.area() - math.pi * eps**2), rel=1e-9)


def test_ungraded_singular_point_is_not_accepted_at_first_order():
    # a singular point of y off every flaw sits in the background pass on
    # plain panels, where the passes converge to first order only (their
    # differences halve at each doubling, about 2e-5 relative at n = 2048):
    # the refinement must report that, not accept a pass
    y = example_radial(0.5)
    pts = [[0.2, 0.0], [-0.2, 0.3]]
    dom = Domain(q=y.domain.q, radius=1.0, flaws=FlawConfig(
        points=pts, eps=0.05, max_count=2, confinement=tight_confinement(pts)))
    val, ok = elastic_energy(y, dom, subquadratic_density(1.1))
    assert not ok and math.isfinite(val)


def test_flaw_patch_without_room_raises():
    # a hole reaching past the boundary leaves no room for a patch
    dom = Domain(q=2, radius=1.0, flaws=FlawConfig(points=[[0.95, 0.0]], eps=0.1))
    with pytest.raises(ValueError, match="no room"):
        elastic_energy(identity_deformation(), dom, default_density(2.0))


# --------------------------------------------------------------------------
# regularized energy


def test_regularized_consistency_with_cavity_module():
    y = example_radial(0.5)
    cfg = FlawConfig(points=[[0, 0]], eps=0.1, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    dens = subquadratic_density(1.5)
    bd, ok = regularized_energy(y, cfg, y.domain, dens, (1.0, 1.0))
    assert ok
    c = trace_on_circle(y, (0, 0), 0.1, 2**14)
    assert bd.volume_term == pytest.approx(cavity_volume(c), rel=1e-6)
    assert bd.perimeter_term == pytest.approx(cavity_perimeter(c), rel=1e-6)


def test_regularized_lambda_zero_is_elastic_only():
    y = example_radial(0.5)
    cfg = FlawConfig(points=[[0, 0]], eps=0.1, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    dens = subquadratic_density(1.5)
    bd, ok = regularized_energy(y, cfg, y.domain, dens, (0.0, 0.0))
    assert ok
    assert bd.volume_term == 0.0 and bd.perimeter_term == 0.0
    assert bd.total == bd.elastic


def test_regularized_radial_profile_circle_geometry():
    prof = RadialProfile(nodes=np.linspace(0.2, 1.0, 9),
                         values=np.linspace(0.5, 1.0, 9))
    y = radial_deformation(prof)
    cfg = FlawConfig(points=[[0, 0]], eps=0.2, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    dens = default_density(2.0)
    bd, ok = regularized_energy(y, cfg, Domain(q=2, radius=1.0), dens, (2.0, 3.0))
    assert ok
    assert bd.volume_term == pytest.approx(2.0 * math.pi * 0.25, rel=1e-8)
    assert bd.perimeter_term == pytest.approx(3.0 * 2 * math.pi * 0.5, rel=1e-8)


def test_regularized_rejects_invalid_config():
    y = example_radial(0.5)
    cfg = FlawConfig(points=[[0, 0], [0.1, 0]], eps=0.1, max_count=2,
                     confinement=tight_confinement([[0, 0], [0.1, 0]]))
    with pytest.raises(ValueError):
        regularized_energy(y, cfg, y.domain, subquadratic_density(1.5), (1, 1))


# --------------------------------------------------------------------------
# limit energy


# The radial map's bulk limit, W(grad y) integrated over the unit 1-norm ball
# (subquadratic p = 1.1, b = 0.5), by nested scipy quad in polar coordinates:
# theta split at the four spokes k pi/2, r from 0 to 1 / (|cos| + |sin|),
# epsrel 1e-12 outer and 1e-13 inner (about 6 s, so kept as a constant)
RADIAL_ELASTIC_QUAD = 4.541143862133694


def test_limit_energy_radial_example():
    y = example_radial(0.5)
    rep = limit_energy(y, y.singular_points, y.domain, subquadratic_density(1.1),
                       (1.0, 1.0), [0.2, 0.1, 0.05, 0.025])
    assert rep.elastic_converged
    assert rep.breakdown.elastic == pytest.approx(RADIAL_ELASTIC_QUAD, rel=energy.BULK_TOL)
    f = rep.flaws[0]
    assert f.volume == pytest.approx(0.5, abs=1e-4)
    assert f.perimeter == pytest.approx(2 * math.sqrt(2), abs=1e-3)
    assert f.conv_perimeter_ok is True
    assert "conv-perimeter-violated" not in rep.flags
    assert f.has_cavity


def test_limit_energy_spike_flags_violation():
    y = example_spike()
    rep = limit_energy(y, y.singular_points, y.domain, subquadratic_density(1.1),
                       (1.0, 1.0), [0.2, 0.1, 0.05, 0.025])
    f = rep.flaws[0]
    assert f.conv_perimeter_ok is False
    assert "conv-perimeter-violated" in rep.flags
    assert f.perimeter == pytest.approx(math.pi + 1.0, abs=1e-2)
    assert f.perimeter_reduced_boundary == pytest.approx(math.pi, abs=0)


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_flaw_limit_flags_only_the_spike_perimeter(key):
    # on the dyadic ladder of the CLI's default radii, only the spike's
    # perimeter limit exceeds its cavity's perimeter: its traces run along
    # both sides of the collapsed spike
    fl = energy.flaw_limit(make_example(key), (0.0, 0.0), dyadic_ladder(0.2))
    assert ("conv-perimeter-violated" in fl.flags) == (key == "spike")
    assert fl.conv_perimeter_ok is (key != "spike")


@pytest.mark.parametrize("key,flags", [
    ("superposition", ("elastic-not-converged",)),
    ("spike", ("elastic-not-converged", "conv-perimeter-violated")),
])
def test_limit_energy_divergent_bulk_takes_one_pass(monkeypatch, key, flags):
    # the bulk energy of these maps diverges, and a pass turns inf where det
    # grad y cancels to <= 0 next to the flaw; the refinement stops at the
    # first such pass, the first of 128 rays for both (superposition's 128
    # rays cancel at level 44)
    real = energy._integrate_perforated
    calls, finite = [], []

    def counting(*args, **kwargs):
        calls.append(kwargs["n"])
        out = real(*args, **kwargs)
        finite.append(math.isfinite(out[0]))
        return out

    monkeypatch.setattr(energy, "_integrate_perforated", counting)
    y = make_example(key)
    rep = limit_energy(y, y.singular_points, y.domain, subquadratic_density(1.1),
                       (1.0, 1.0), [0.2, 0.1, 0.05, 0.025])
    assert calls == [128] and finite == [False]
    assert rep.breakdown.elastic == math.inf and not rep.elastic_converged
    assert rep.flags == flags


def test_limit_energy_flags_unconverged_traces(monkeypatch):
    # a trace sweep stopped by its node cap raises a flag per radius: a
    # superposition trace meets 1e-9 only at 256 nodes
    sweep = energy.converged_trace_metrics
    monkeypatch.setattr(energy, "converged_trace_metrics",
                        lambda y, a, eps, **kw: sweep(y, a, eps, n_max=128, **kw))
    y = example_superposition()
    rep = limit_energy(y, y.singular_points, y.domain, subquadratic_density(1.1),
                       (1.0, 1.0), [0.2, 0.1, 0.05])
    assert [f for f in rep.flags if f.startswith("trace-not-converged")] == [
        f"trace-not-converged at (0, 0), r={r}" for r in (0.2, 0.1, 0.05)]


def test_limit_energy_flags_uncertain_extrapolation(monkeypatch):
    # the flag names its flaw center in plain numbers
    monkeypatch.setattr(energy, "EXTRAP_UNC_TOL", 1e-12)
    y = example_radial(0.5)
    rep = limit_energy(y, y.singular_points, y.domain, subquadratic_density(1.1),
                       (1.0, 1.0), [0.2, 0.1, 0.05])
    assert "extrapolation-uncertain at (0, 0)" in rep.flags


def test_limit_energy_no_flaws():
    idm = identity_deformation()
    rep = limit_energy(idm, np.zeros((0, 2)), Domain(q=2, radius=1.0),
                       default_density(2.0), (1.0, 1.0), [0.2, 0.1, 0.05])
    assert rep.breakdown.volume_term == 0.0
    assert rep.breakdown.perimeter_term == 0.0
    assert rep.breakdown.elastic == pytest.approx(3 * math.pi, rel=1e-6)


TWO_FLAWS = [[0.4, 0.0], [-0.4, 0.0]]


def test_limit_energy_two_flaws_identity():
    # both flaws are regular points of the identity: the elastic term is
    # W(I) |disk| to the refinement tolerance and neither flaw opens a cavity
    dom = Domain(q=2, radius=1.0)
    dens = subquadratic_density(1.5)
    rep = limit_energy(identity_deformation(dom), TWO_FLAWS, dom, dens, (1.0, 1.0),
                       [0.2, 0.1, 0.05, 0.025])
    assert rep.elastic_converged and rep.flags == ()
    assert rep.breakdown.elastic == pytest.approx(float(dens.w(np.eye(2))) * math.pi,
                                                  rel=1e-6)
    assert [f.volume for f in rep.flaws] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert not any(f.has_cavity for f in rep.flaws)


def test_limit_energy_two_flaws_match_single_flaw():
    # a radial cavity at (0.4, 0) and a regular flaw at (-0.4, 0): the second
    # flaw changes only how the bulk integral is split into patches, and its
    # own cavity terms vanish up to the extrapolation's error
    dom = Domain(q=2, radius=1.0)
    dens = subquadratic_density(1.1)
    y = radial_deformation(RadialProfile(nodes=[0.0, 1.5], values=[0.1, 1.6]),
                           center=TWO_FLAWS[0])
    radii = [0.2, 0.1, 0.05, 0.025]
    two = limit_energy(y, TWO_FLAWS, dom, dens, (1.0, 1.0), radii)
    one = limit_energy(y, TWO_FLAWS[:1], dom, dens, (1.0, 1.0), radii)
    assert two.flags == one.flags == ()
    # two refinements, each stopped at an estimated 1e-6 relative error
    assert two.breakdown.elastic == pytest.approx(one.breakdown.elastic, rel=5e-6)
    assert two.flaws[0] == one.flaws[0]
    assert two.flaws[0].volume == pytest.approx(math.pi * 0.1**2, rel=1e-12)
    regular = two.flaws[1]
    assert abs(regular.volume) <= 1e-4 and abs(regular.perimeter) <= 1e-4
    assert not two.flaws[1].has_cavity


def test_limit_energy_offcenter_singular_patch_vs_quad():
    # the radial cavity map of the test above, integrated in polar
    # coordinates about its center by nested scipy quad: W depends on
    # r = |x - a| only, and the unit circle is at R(t) from a along angle t.
    # The punctured patch about a must split its rays at the blend's kink at
    # the first radius, or the refinement stalls near 1e-6 below the value
    from scipy.integrate import quad

    dom = Domain(q=2, radius=1.0)
    dens = subquadratic_density(1.1)
    y = radial_deformation(RadialProfile(nodes=[0.0, 1.5], values=[0.1, 1.6]),
                           center=TWO_FLAWS[0])

    def w(r):  # stretches 1 (radial) and s (hoop)
        s = (0.1 + r) / r
        return math.hypot(1.0, s) ** 1.1 + s * math.log(s) + 1.0 / s - 1.0

    def along_ray(t):
        c = 0.4 * math.cos(t)
        R = -c + math.sqrt(c * c + 1.0 - 0.4**2)
        return quad(lambda r: w(r) * r, 0.0, R, epsabs=0.0, epsrel=1e-13,
                    limit=200)[0]

    ref = quad(along_ray, 0.0, 2.0 * math.pi, epsabs=0.0, epsrel=1e-13,
               limit=200)[0]
    for pts in (TWO_FLAWS[:1], TWO_FLAWS):
        rep = limit_energy(y, pts, dom, dens, (1.0, 1.0), [0.2, 0.1, 0.05, 0.025])
        assert rep.elastic_converged
        assert rep.breakdown.elastic == pytest.approx(ref, rel=1e-9)


def test_limit_energy_two_cavities_match_single_flaws():
    # a radial cavity at each of (+-0.4, 0), the identity outside B(a, 0.35):
    # their union is their composition, and its seams are the concatenation
    # of theirs. The two-cavity elastic term plus one W(I) |disk| is the sum
    # of the single-flaw terms, and each flaw keeps its cavity
    prof = RadialProfile([0.0, 0.2, 0.35, 2.0], [0.1, 0.3, 0.35, 2.0])
    ya, yb = (radial_deformation(prof, center=a) for a in TWO_FLAWS)
    dom = Domain(q=2, radius=1.0)
    y = dataclasses.replace(compose(ya, yb), seams=ya.seams + yb.seams, domain=dom,
                            singular_points=np.array(TWO_FLAWS))
    dens = subquadratic_density(1.1)
    radii = dyadic_ladder(0.1)[:6]
    two = limit_energy(y, TWO_FLAWS, dom, dens, (1.0, 1.0), radii)
    one = [limit_energy(yi, [a], dom, dens, (1.0, 1.0), radii)
           for yi, a in zip((ya, yb), TWO_FLAWS)]
    assert two.elastic_converged and all(r.elastic_converged for r in one)
    # refined to 1e-8, each single flaw gives 5.126856464; without its node
    # circles split, a converged 5.1268360 was reported, 4e-6 off
    for r in one:
        assert r.breakdown.elastic == pytest.approx(5.126856464, rel=1e-6)
    assert two.breakdown.elastic == pytest.approx(
        sum(r.breakdown.elastic for r in one) - 2.0 ** (1.1 / 2) * math.pi, rel=2e-6)
    for f, r in zip(two.flaws, one):
        assert f.volume == pytest.approx(r.flaws[0].volume, rel=1e-12)
        assert f.perimeter == pytest.approx(r.flaws[0].perimeter, rel=1e-12)


# --------------------------------------------------------------------------
# determinant pairing


def test_pairing_identity_closed_form():
    idm = identity_deformation()
    cfg = FlawConfig(points=[[0, 0]], eps=0.3, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    res, = extended_det_pairing(idm, cfg, Domain(q=2, radius=1.0), [bump(2)])
    expect = math.pi * (1 - 0.3**2) ** 3 / 3.0
    assert res.pairing == pytest.approx(expect, abs=1e-6)
    assert res.det_integral == pytest.approx(expect, abs=1e-6)


def test_pairing_support_away_from_flaw():
    # bump supported away from the hole: the sphere term vanishes and the
    # pairing is the plain integral of the test function
    idm = identity_deformation()
    cfg = FlawConfig(points=[[0, 0]], eps=0.1, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    phi = bump(2, radius=0.25, center=(0.55, 0.0))
    res, = extended_det_pairing(idm, cfg, Domain(q=2, radius=1.0), [phi])
    exact = math.pi * 0.25**2 / 3.0  # integral of (1-|u|^2)^2 over the unit disk, scaled
    assert abs(res.sphere_term) <= 1e-12
    assert res.pairing == pytest.approx(exact, rel=1e-6)


def test_pairing_failed_pass_is_reported(monkeypatch):
    # a bulk pass that reports a failure makes the pairing unconverged, and
    # the admissibility report fails its det-identity row instead of raising
    real = energy._integrate_perforated

    def failing(*args, **kwargs):
        val, _, err = real(*args, **kwargs)
        return val, False, err

    monkeypatch.setattr(energy, "_integrate_perforated", failing)
    y = example_radial(0.5)
    cfg = FlawConfig(points=[[0, 0]], eps=0.15, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    res, = extended_det_pairing(y, cfg, y.domain, [bump(2, radius=0.7)])
    assert not res.converged
    assert res.residual_rel <= 1e-4  # the values are still those of the last pass
    rep = check_admissibility_sampled(y, cfg, y.domain, [0.3], seed=1)
    row = next(r for r in rep.rows if r.name == "det-identity")
    assert not row.passed and not rep.ok
    assert row.detail.count("(not converged)") == 3
    # the residuals still parse as "k=<k>: rel residual <number>"
    parsed = re.findall(r"k=(\d+): rel residual ([0-9.eE+-]+)", row.detail)
    assert [k for k, _ in parsed] == ["2", "3", "4"]
    assert all(float(v) <= 1e-4 for _, v in parsed)


def _pairing_case(case):
    # (y, cfg, dom, phi) of one bump on the centred or the partition-of-unity path
    if case == "centred":
        y = example_radial(0.5)
        cfg = FlawConfig(points=[[0, 0]], eps=0.1, max_count=1,
                         confinement=tight_confinement([[0, 0]]))
        return y, cfg, y.domain, bump(2, radius=0.95 / math.sqrt(2.0))
    return _two_flaw_pairing_case() + (bump(3, 0.9, (0.1, 0.0)),)


def _pairing_integrands(y, phi):
    # the [bulk, det] pairing integrands, evaluated at every point
    def f_bulk(X):
        ay = np.einsum("...ij,...j->...i", energy.adj2(y.grad(X)), y.eval(X))
        return -0.5 * np.einsum("...i,...i->...", ay, phi.gradient(*phi.offset(X)))

    def f_det(X):
        return det2(y.grad(X)) * phi.value(phi.offset(X)[1])

    return f_bulk, f_det


@pytest.mark.parametrize("block", [8192, 7])
@pytest.mark.parametrize("case", ["centred", "partition-of-unity"])
def test_vector_pass_matches_scalar_passes(monkeypatch, case, block):
    # one pass of the [bulk, det] pairing integrands gives, component by
    # component, the bits of one pass of each integrand alone; with 7-point
    # blocks some background blocks have no live point before others do
    y, cfg, dom, phi = _pairing_case(case)
    f_bulk, f_det = _pairing_integrands(y, phi)
    monkeypatch.setattr(energy, "BLOCK", block)
    supp = (Arc(phi.center, phi.radius),)
    vec, ok, _ = energy._integrate_perforated(lambda X: np.stack([f_bulk(X), f_det(X)]),
                                              dom, cfg, y, n=128, seams=supp)
    assert ok and vec.shape == (2,)
    for k, f in enumerate((f_bulk, f_det)):
        val, ok, _ = energy._integrate_perforated(f, dom, cfg, y, n=128, seams=supp)
        assert ok and vec[k] == val


@pytest.mark.parametrize("max_refine", [0, 1])
@pytest.mark.parametrize("case", ["centred", "partition-of-unity"])
def test_pairing_on_the_support_matches_the_unmasked_integrands(monkeypatch, case,
                                                                max_refine):
    # the pairing evaluates y only where the bump is positive; its bulk and
    # det terms keep the bits of a pass of the integrands at every point
    y, cfg, dom, phi = _pairing_case(case)
    f_bulk, f_det = _pairing_integrands(y, phi)
    monkeypatch.setattr(energy, "BULK_N_MAX", 128 << max_refine)  # the last pass
    res, = extended_det_pairing(y, cfg, dom, [phi], tol=1e-300)
    vec, _, _ = energy._integrate_perforated(lambda X: np.stack([f_bulk(X), f_det(X)]),
                                             dom, cfg, y, n=128 << max_refine,
                                          seams=(Arc(phi.center, phi.radius),))
    assert not res.converged  # no pass meets 1e-300: the refinement runs to the cap
    assert (res.bulk_term, res.det_integral) == (vec[0], vec[1])


@pytest.mark.parametrize("case", ["centred", "partition-of-unity"])
def test_pairing_evaluates_the_map_only_on_the_support(case):
    y, cfg, dom, phi = _pairing_case(case)
    seen = []

    def spy(fn):
        def g(X):
            seen.append(np.array(X, dtype=float).reshape(-1, 2))
            return fn(X)
        return g

    spied = dataclasses.replace(y, eval=spy(y.eval), grad=spy(y.grad))
    res = extended_det_pairing(spied, cfg, dom, [phi, bump(4, phi.radius, phi.center)])[0]
    assert res == extended_det_pairing(y, cfg, dom, [phi])[0]
    X = np.concatenate(seen)
    assert len(X) > 0
    assert np.max(norm2(X - np.asarray(phi.center))) < phi.radius


def test_pairing_radial_example_identity():
    y = example_radial(0.5)
    cfg = FlawConfig(points=[[0, 0]], eps=0.15, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    for k in (2, 3, 4):
        res = extended_det_pairing(y, cfg, y.domain, [bump(k, radius=0.7)])[0]
        assert res.residual_rel <= 1e-4


def _two_flaw_pairing_case():
    # an off-centre radial map with two flaws: its quadrature takes the
    # partition-of-unity path
    y = radial_deformation(RadialProfile([0.0, 1.5], [0.1, 1.6]), center=(0.4, 0.0))
    cfg = FlawConfig(points=[[0.4, 0.0], [-0.3, 0.1]], eps=0.08, max_count=2,
                     confinement=tight_confinement([[0.4, 0.0], [-0.3, 0.1]]))
    return y, cfg, Domain(q=2, radius=1.0)


# two supports; at tol 1e-7 the narrow bump's pairing takes passes up to 512,
# the others stop at 256
_TWO_FLAW_PHIS = [bump(2, 0.9, (0.1, 0.0)), bump(2, 0.3, (0.45, 0.0)),
                  bump(4, 0.9, (0.1, 0.0))]


@pytest.mark.parametrize("case", ["centred", "partition-of-unity"])
def test_multi_phi_pairing_is_single_phi_pairing(case):
    # test functions paired together give, bit for bit, their one-element
    # pairings: shared nodes where the supports agree, own splits where not,
    # and each refined to its own last pass
    if case == "centred":
        y = example_radial(0.5)
        cfg = FlawConfig(points=[[0, 0]], eps=0.15, max_count=1,
                         confinement=tight_confinement([[0, 0]]))
        dom = y.domain
        phis = [bump(k, radius=0.7) for k in (2, 3, 4)]
    else:
        y, cfg, dom = _two_flaw_pairing_case()
        phis = _TWO_FLAW_PHIS
    together = extended_det_pairing(y, cfg, dom, phis, tol=1e-7)
    assert len(together) == len(phis)
    for phi, res in zip(phis, together):
        alone, = extended_det_pairing(y, cfg, dom, [phi], tol=1e-7)
        assert res == alone


def test_multi_phi_pairing_shares_each_pass(monkeypatch):
    # one bulk quadrature per pass and distinct support, one trace per flaw
    # per pass, and each test function still stops at its own pass; each
    # flaw's circle kinks are derived once per call
    calls, traces, kinks = [], [], []
    real_int, real_tracer = energy._integrate_perforated, energy.panel_tracer
    real_kinks = cavity.circle_kinks

    def spy_int(*args, **kwargs):
        calls.append((kwargs["n"], len(kwargs["seams"])))
        return real_int(*args, **kwargs)

    def spy_tracer(y, a, eps):
        trace = real_tracer(y, a, eps)
        return lambda n: traces.append(n) or trace(n)

    def spy_kinks(seams, c, r):
        kinks.append(tuple(c))
        return real_kinks(seams, c, r)

    y, cfg, dom = _two_flaw_pairing_case()
    monkeypatch.setattr(energy, "_integrate_perforated", spy_int)
    monkeypatch.setattr(energy, "panel_tracer", spy_tracer)
    monkeypatch.setattr(cavity, "circle_kinks", spy_kinks)
    extended_det_pairing(y, cfg, dom, _TWO_FLAW_PHIS, tol=1e-7)
    ns = sorted({n for n, _ in calls})
    assert ns == [128, 256, 512]
    assert sorted(calls) == sorted((n, 1) for n in ns for _ in range(2))
    assert sorted(traces) == sorted(n for n in ns for _ in range(2))
    assert sorted(kinks) == sorted(tuple(a) for a in cfg.points)


def test_pairing_declares_where_its_support_circle_meets_a_seam(monkeypatch):
    # the support circle of change-of-reference's bump crosses its stretch
    # seam at theta = +-1.3798726624, where the ray integral kinks in angle.
    # Declared, the k = 2 pairing at 128 nodes is a 4096-node pass to 1e-13
    # (undeclared, 6.7e-9 off: the passes converged at 4th order)
    y = make_example("change-of-reference")
    cfg = FlawConfig(points=y.singular_points, eps=0.1, max_count=1,
                     confinement=Confinement("disk", (0.0, 0.0), 0.6))
    phi = bump(2, radius=0.95 * float(y.domain.dist_to_boundary(np.zeros(2))))
    pairings = []
    for n in (128, 4096):  # no pass meets 1e-300: each call ends at its cap
        monkeypatch.setattr(energy, "BULK_N_MAX", n)
        pairings.append(extended_det_pairing(y, cfg, y.domain, [phi], tol=1e-300)[0].pairing)
    assert pairings[0] == pytest.approx(pairings[1], rel=1e-13, abs=0)


def _estimate_acceptances(monkeypatch):
    """Spy on the refinements of cavity, energy and recovery. Returns a list
    that collects (tol, values, reference values) of each converged
    refinement whose last pass met tol on its own estimate; the reference is
    a pass of 4096 nodes for traces, 2048 for bulk passes and pairings, run
    at once (a pass may close over loop variables of its caller)."""
    found = []
    real = energy.refine

    def spy_for(ref_n):
        def spy(pass_fn, tol, n_max):
            last = []

            def recorded(n):
                last[:] = [pass_fn(n)]
                return last[0]

            vals, ok = real(recorded, tol, n_max)
            v, _, err = last[0]
            v = np.asarray(v, dtype=float)
            if ok and np.all(err <= tol * np.maximum(np.abs(v), 1e-30)):
                found.append((tol, v, np.asarray(pass_fn(ref_n)[0], dtype=float)))
            return vals, ok
        return spy

    monkeypatch.setattr(cavity, "refine", spy_for(4096))
    monkeypatch.setattr(energy, "refine", spy_for(2048))
    monkeypatch.setattr(recovery, "refine", spy_for(2048))
    return found


def test_no_pass_is_accepted_on_an_estimate_that_misses_its_reference(monkeypatch):
    # the refinements of the benchmark's catalog-limits and admissibility
    # workloads: traces on the ten-rung ladder of every catalog map, the
    # finite limit bulks, the recovery table's annuli and row bulks, and the
    # det-identity pairings. Every pass accepted on its estimate is within
    # its tolerance of a fine pass
    found = _estimate_acceptances(monkeypatch)
    dens, ladder = subquadratic_density(1.1), dyadic_ladder(0.2)
    for key in ("superposition", "spike"):  # their bulk diverges
        energy.flaw_limit(make_example(key), (0.0, 0.0), ladder)
    for key in ("radial", "change-of-reference"):
        y = make_example(key)
        limit_energy(y, y.singular_points, y.domain, dens, (1.0, 1.0), ladder)
        cfg = FlawConfig(points=y.singular_points, eps=0.1, max_count=1,
                         confinement=Confinement("disk", (0.0, 0.0), 0.6))
        check_admissibility_sampled(y, cfg, y.domain, [0.25, 0.4], seed=7)
    y = make_example("radial")
    recovery.recovery_energy_table(y, y.singular_points, [0.2, 0.1, 0.05, 0.025], dens,
                                   (2.5, 2.5))
    # 54 traces, 3 limit bulks (one in the recovery table), 6 pairings and 8 row terms
    assert len(found) >= 71
    for tol, v, ref in found:
        assert np.all(np.abs(v - ref) <= tol * np.abs(ref)), (tol, v, ref)


# --------------------------------------------------------------------------
# admissibility report


def test_admissibility_radial_example_passes():
    y = example_radial(0.5)
    cfg = FlawConfig(points=[[0, 0]], eps=0.1, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    rep = check_admissibility_sampled(y, cfg, y.domain, [0.25, 0.4], seed=1)
    assert rep.ok, str(rep)


def test_admissibility_untraceable_circle_fails_both_rows():
    # r = 0.9 leaves the unit disk: neither its degrees nor its membership
    # can be checked, so both rows fail and name it
    y = example_radial(0.5)
    cfg = FlawConfig(points=[[0, 0]], eps=0.1, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    rep = check_admissibility_sampled(y, cfg, y.domain, [0.25, 0.9], seed=1)
    rows = {r.name: r for r in rep.rows}
    for name in ("degree-range", "interior-exterior"):
        assert not rows[name].passed, str(rep)
        assert "trace at (0, 0), r=0.9: " in rows[name].detail
    assert not rep.ok


def test_admissibility_batches_membership_and_pairing(monkeypatch):
    # per test circle, one crossing count for the degree grid and one for all
    # membership queries; one bulk quadrature per det-identity pass
    queries, ns, circles = {}, [], []
    real_wind, real_int = cavity.winding_numbers_grid, energy._integrate_perforated
    real_trace = energy.trace_on_circle

    def spy_wind(curve, q):
        queries.setdefault(id(curve), []).append(len(np.atleast_2d(q)))
        return real_wind(curve, q)

    def spy_int(*args, **kwargs):
        ns.append(kwargs["n"])
        return real_int(*args, **kwargs)

    def spy_trace(y, a, eps, n):
        curve = real_trace(y, a, eps, n)
        circles.append((curve, eps))  # kept alive, so ids stay unique
        return curve

    monkeypatch.setattr(cavity, "winding_numbers_grid", spy_wind)
    monkeypatch.setattr(energy, "winding_numbers_grid", spy_wind)
    monkeypatch.setattr(energy, "_integrate_perforated", spy_int)
    monkeypatch.setattr(energy, "trace_on_circle", spy_trace)
    y = example_radial(0.5)
    cfg = FlawConfig(points=[[0, 0]], eps=0.1, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    rep = check_admissibility_sampled(y, cfg, y.domain, [0.25, 0.4], seed=1)
    assert rep.ok, str(rep)
    tested = [id(c) for c, eps in circles if eps != cfg.eps]  # the rest: injectivity
    assert len(tested) >= 2
    assert queries == {c: [100 * 100, 200] for c in tested}
    assert ns == [128]  # one pass, accepted on its own estimate


def test_admissibility_detects_folding():
    def ev(x):
        x = np.asarray(x, dtype=float)
        out = x.copy()
        out[..., 0] = np.abs(x[..., 0])
        return out

    def gr(x):
        x = np.asarray(x, dtype=float)
        out = np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()
        out[..., 0, 0] = np.where(x[..., 0] >= 0, 1.0, -1.0)
        return out

    fold = Deformation(eval=ev, grad=gr, domain=Domain(q=2, radius=1.0),
                       name="fold")
    cfg = FlawConfig(points=[[0, 0]], eps=0.1, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    rep = check_admissibility_sampled(fold, cfg, fold.domain, [0.3], seed=1)
    rows = {r.name: r for r in rep.rows}
    assert not rows["orientation"].passed
    assert not rep.ok
    # the fold maps S(0, eps) twice onto one half-circle, so two parameters
    # meet exactly, and points inside S(0, 0.3) map onto degree 0
    assert not rows["trace-injectivity"].passed
    assert rows["trace-injectivity"].detail == "closest distinct-parameter pair 0 at (0, 0)"
    assert not rows["interior-exterior"].passed
    assert rows["interior-exterior"].detail == (
        "point (-0.0127102, 0.198517) maps outside, expected inside (circle (0, 0), r=0.3); "
        "point (0.164425, 0.101358) maps outside, expected inside (circle (0, 0), r=0.3); "
        "point (-0.0793919, 0.240917) maps outside, expected inside (circle (0, 0), r=0.3); "
        "point (-0.0995239, 0.0611125) maps outside, expected inside (circle (0, 0), r=0.3)")
    # points are written as plain numbers, not numpy reprs
    assert "at (0, 0)" in str(rep) and "np." not in str(rep)


def test_admissibility_returns_when_the_holes_leave_nothing_to_sample():
    # a hole of radius 1 covers the unit 1-norm ball: no point can be sampled,
    # and the rows that need samples fail and say so instead of looping
    class Hung(BaseException):  # not an Exception, which the report's rows catch
        pass

    def timeout(*_):
        raise Hung("check_admissibility_sampled did not return in 60 s")

    y = example_radial(0.5)
    cfg = FlawConfig(points=[[0, 0]], eps=1.0, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        rep = check_admissibility_sampled(y, cfg, y.domain, [0.25, 0.4], seed=1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    rows = {r.name: r for r in rep.rows}
    assert not rep.ok
    gave_up = f"{energy.SAMPLE_ROUNDS} rounds of "
    assert rows["orientation"].detail.startswith("check errored: " + gave_up)
    assert rows["degree-range"].detail.startswith("random circle: " + gave_up)
    assert rows["interior-exterior"].detail.startswith("random circle: " + gave_up)
    assert "membership samples (circle (0, 0), r=0.25): " in rows["interior-exterior"].detail
    assert rows["det-identity"].detail == (
        "check errored: invalid flaw configuration: "
        "eps = 1 not below boundary margin 0.707106")
    assert not any(r.passed for r in rep.rows)


def test_pairing_rejects_an_invalid_flaw_configuration():
    # the hole S(0, 1) reaches past the domain's boundary margin 1/sqrt(2)
    y = example_radial(0.5)
    cfg = FlawConfig(points=[[0, 0]], eps=1.0, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    with pytest.raises(ValueError, match="^invalid flaw configuration: eps = 1 not below"):
        extended_det_pairing(y, cfg, y.domain, [bump(2, radius=0.5)])


def test_admissibility_reports_a_map_that_cannot_be_evaluated():
    # the composed map is defined only where its outer map's domain, the disk
    # of radius 0.5, holds the inner image: sampled points beyond it raise,
    # and the rows that evaluate them fail with the error's text
    y = compose(identity_deformation(Domain(q=2, radius=0.5)),
                identity_deformation(Domain(q=2, radius=1.0)))
    with pytest.raises(EvaluationDomainError) as err:
        y.eval(np.array([[0.9, 0.0]]))
    cfg = FlawConfig(points=[[0, 0]], eps=0.1, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    rep = check_admissibility_sampled(y, cfg, y.domain, [0.25], seed=1)
    rows = {r.name: r for r in rep.rows}
    assert not rep.ok
    assert not rows["interior-exterior"].passed
    assert f"membership samples (circle (0, 0), r=0.25): {err.value}" in \
        rows["interior-exterior"].detail
    assert rows["orientation"].detail == f"check errored: {err.value}"


def test_admissibility_membership_skips_points_within_a_node_spacing():
    # at seed 101 a sampled point 3.4e-5 inside S(0, 0.4) maps outside the
    # 512-node polyline of the change-of-reference trace (finer polylines
    # give it degree 1); points within one node spacing are not judged
    y = example_change_of_reference(0.5)
    pts = y.singular_points
    cfg = FlawConfig(points=pts, eps=0.1, max_count=len(pts),
                     confinement=Confinement("disk", (0.0, 0.0), 0.6))
    rep = check_admissibility_sampled(y, cfg, y.domain, [0.25, 0.4], seed=101)
    assert rep.ok, str(rep)


def test_admissibility_non_finite_trace_fails_and_names_the_circle():
    # NaN on part of S(0, 0.3): neither the degrees nor the injectivity of
    # that trace can be checked
    def ev(x):
        x = np.asarray(x, dtype=float)
        return np.where(x[..., :1] > 0.28, np.nan, x)

    idm = identity_deformation()
    y = Deformation(eval=ev, grad=idm.grad, domain=Domain(q=2, radius=1.0), name="nan")
    cfg = FlawConfig(points=[[0, 0]], eps=0.3, max_count=1,
                     confinement=tight_confinement([[0, 0]]))
    rep = check_admissibility_sampled(y, cfg, y.domain, [0.3], seed=1)
    rows = {r.name: r for r in rep.rows}
    for name in ("degree-range", "interior-exterior"):
        assert not rows[name].passed
        assert "trace at (0, 0), r=0.3: map or gradient not finite" in rows[name].detail
    assert not rows["trace-injectivity"].passed
    assert rows["trace-injectivity"].detail.startswith(
        "trace at (0, 0): map or gradient not finite")
    assert not rep.ok


def test_admissibility_identity_no_flaws():
    idm = identity_deformation()
    idm.domain = Domain(q=2, radius=1.0)
    cfg = FlawConfig(points=np.zeros((0, 2)), eps=0.1, max_count=1)
    rep = check_admissibility_sampled(idm, cfg, idm.domain, [0.3], seed=2)
    assert rep.ok, str(rep)
