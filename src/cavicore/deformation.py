"""Deformation contract (value + exact gradient) and the analytic map catalog.

Every map is vectorized: eval takes (..., 2) arrays and returns (..., 2);
grad returns (..., 2, 2). Piecewise formulas evaluate the branch containing
the point, with ties resolved toward the first printed branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .geometry import Domain, mat2, mul2, norm2
from .seams import Arc, Spoke

SQRT3 = math.sqrt(3.0)
_I2 = np.eye(2)


class EvaluationDomainError(ValueError):
    """Raised when a composition is evaluated outside the outer map's domain."""


class NonmonotoneProfileError(ValueError):
    """Raised when a radial profile is not strictly increasing."""


def _sign(x):
    """Sign with the tie 0 -> +1, so seams take the first branch."""
    return np.where(np.asarray(x) >= 0.0, 1.0, -1.0)


def _radial_entries(alpha, beta, e0, e1):
    """Entries of alpha (I - e x e) + beta e x e for the unit vector (e0, e1)."""
    e00, e01, e11 = e0 * e0, e0 * e1, e1 * e1
    off = beta * e01 - alpha * e01
    return alpha * (1.0 - e00) + beta * e00, off, off, alpha * (1.0 - e11) + beta * e11


@dataclass
class Deformation:
    """An evaluable planar map with exact gradient.

    `seams` declares where the gradient jumps: polar arcs and radial segments
    about their own points (`seams.Arc`, `seams.Spoke`). From them the
    quadratures derive, about any center, the ray breaks and angular kinks of
    a bulk pass and the kinks of a trace; they are spectrally accurate only
    if every jump is declared.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    domain: Domain | None = None
    singular_points: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 2))
    )
    name: str = ""
    seams: tuple[Arc | Spoke, ...] = ()
    cavity_exact: dict | None = None  # {"volume": v, "perimeter": p} of the limit cavity

    def __call__(self, x):
        return self.eval(x)


def identity_deformation(domain=None) -> Deformation:
    return Deformation(
        eval=lambda x: np.asarray(x, dtype=float).copy(),
        grad=lambda x: np.broadcast_to(_I2, np.shape(x)[:-1] + (2, 2)).copy(),
        domain=domain,
        name="identity",
    )


# --------------------------------------------------------------------------
# catalog example 1: cavity shaped like a 1-norm ball


def example_radial(b: float) -> Deformation:
    """Map opening a square (1-norm ball) cavity of radius b at the origin of
    the unit 1-norm ball: x -> ((1-b)|x|_1 + b) x / |x|_1."""
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0, 1)")

    def ev(x):
        x = np.asarray(x, dtype=float)
        n1 = np.abs(x[..., :1]) + np.abs(x[..., 1:])
        return ((1.0 - b) * n1 + b) * x / n1

    def gr(x):
        x = np.asarray(x, dtype=float)
        x0, x1 = x[..., 0], x[..., 1]
        a0, a1 = np.abs(x0), np.abs(x1)
        n1 = a0 + a1
        k = b / n1
        return mat2((1.0 - b) + k * (1.0 - a0 / n1), -k * (x0 * _sign(x1) / n1),
                    -k * (x1 * _sign(x0) / n1), (1.0 - b) + k * (1.0 - a1 / n1))

    return Deformation(
        eval=ev,
        grad=gr,
        domain=Domain(q=1, radius=1.0),
        singular_points=np.array([[0.0, 0.0]]),
        name="radial",
        seams=tuple(Spoke((0.0, 0.0), k * math.pi / 2, 0.0, 1.0) for k in range(4)),
        cavity_exact={"volume": 2.0 * b * b, "perimeter": 4.0 * math.sqrt(2.0) * b},
    )


# --------------------------------------------------------------------------
# catalog example 2: stretched reference configuration, round cavity


def _euclid_cavity_map(b: float):
    """z -> ((1-b)|z| + b) z/|z| for 0 < |z| < 1, identity for |z| >= 1."""

    def ev(z):
        z = np.asarray(z, dtype=float)
        n = norm2(z)[..., None]
        ns = np.where(n > 0, n, 1.0)
        rad = ((1.0 - b) * ns + b) * z / ns
        return np.where(n < 1.0, rad, z)

    def gr(z):
        z = np.asarray(z, dtype=float)
        n = norm2(z)
        ns = np.where(n > 0, n, 1.0)
        inside = n < 1.0
        g00, g01, _, g11 = _radial_entries((1.0 - b) + b / ns, 1.0 - b,
                                           z[..., 0] / ns, z[..., 1] / ns)
        off = np.where(inside, g01, 0.0)
        return mat2(np.where(inside, g00, 1.0), off, off, np.where(inside, g11, 1.0))

    return ev, gr


def _half_stretch_map():
    """x -> (2 x1, x2) for x1 >= 0, identity for x1 < 0."""

    def ev(x):
        x = np.asarray(x, dtype=float)
        out = x.copy()
        out[..., 0] = np.where(x[..., 0] >= 0.0, 2.0 * x[..., 0], x[..., 0])
        return out

    def gr(x):
        x = np.asarray(x, dtype=float)
        return mat2(np.where(x[..., 0] >= 0.0, 2.0, 1.0), 0.0, 0.0, 1.0)

    return ev, gr


def _stretch_seam(t):
    """Polar radius of the seam |f(x)| = 1: the ellipse 4 x1^2 + x2^2 = 1 for
    x1 >= 0, the unit circle for x1 < 0."""
    c, s = np.cos(t), np.sin(t)
    A = np.where(c >= 0.0, 4.0, 1.0) * c**2 + s**2
    return np.sqrt(A) / A


def example_change_of_reference(b: float) -> Deformation:
    """Round cavity opened after stretching the right half of the square
    reference configuration: y = u o f with f = (2 x1, x2) for x1 >= 0."""
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0, 1)")
    return replace(
        compose(*change_of_reference_parts(b)),
        singular_points=np.array([[0.0, 0.0]]),
        name="change-of-reference",
        # grad y jumps on the line x1 = 0 and on the seam |f(x)| = 1
        seams=(Spoke((0.0, 0.0), math.pi / 2, 0.0, 1.0),
               Spoke((0.0, 0.0), 3 * math.pi / 2, 0.0, 1.0),
               Arc((0.0, 0.0), _stretch_seam)),
        cavity_exact={"volume": math.pi * b * b, "perimeter": 2.0 * math.pi * b},
    )


def change_of_reference_parts(b: float) -> tuple[Deformation, Deformation]:
    """The (outer, inner) factors of the change-of-reference map."""
    uev, ugr = _euclid_cavity_map(b)
    outer = Deformation(eval=uev, grad=ugr, name="round-cavity")
    fev, fgr = _half_stretch_map()
    inner = Deformation(eval=fev, grad=fgr, domain=Domain(q=np.inf, radius=1.0),
                        name="half-stretch")
    return outer, inner


# --------------------------------------------------------------------------
# catalog example 3: superposition with a piecewise-smooth squeeze


def _superposition_g():
    def branches(z):
        """z, its components and their moduli, and the two squeezed branches."""
        z = np.asarray(z, dtype=float)
        z1, z2 = z[..., 0], z[..., 1]
        a1, a2 = np.abs(z1), np.abs(z2)
        return z, z1, z2, a1, a2, (a1 > a2) & (a2 < 0.5), (a2 > a1) & (a1 < 0.5)

    def ev(z):
        z, z1, z2, a1, a2, b1, b2 = branches(z)
        out = z.copy()
        out[..., 0] = np.where(b1, _sign(z1) * (1.0 - 2.0 * a2) + 2.0 * z1 * a2, z1)
        out[..., 1] = np.where(b2, _sign(z2) * (1.0 - 2.0 * a1) + 2.0 * a1 * z2, z2)
        return out

    def gr(z):
        z, z1, z2, a1, a2, b1, b2 = branches(z)
        s1, s2 = _sign(z1), _sign(z2)
        return mat2(np.where(b1, 2.0 * a2, 1.0), np.where(b1, 2.0 * s2 * (z1 - s1), 0.0),
                    np.where(b2, 2.0 * s1 * (z2 - s2), 0.0), np.where(b2, 2.0 * a1, 1.0))

    return ev, gr


def _supnorm_annulus_map():
    """x -> (|x|_inf + 1)/2 * x/|x|_inf, mapping the punctured sup-ball onto
    the annulus 1/2 < |z|_inf < 1."""

    def ev(x):
        x = np.asarray(x, dtype=float)
        m = np.maximum(np.abs(x[..., :1]), np.abs(x[..., 1:]))
        return 0.5 * (m + 1.0) * x / m

    def gr(x):
        # (I / m - x (x) v / m^2) / 2 + I / 2, v = sign(x_k) e_k for the
        # largest |x_k| (the first one on ties)
        x = np.asarray(x, dtype=float)
        x0, x1 = x[..., 0], x[..., 1]
        a0, a1 = np.abs(x0), np.abs(x1)
        first = a0 >= a1
        m = np.where(first, a0, a1)
        v0 = np.where(first, _sign(x0), 0.0)
        v1 = np.where(first, 0.0, _sign(x1))
        mm = m * m
        return mat2(0.5 + 0.5 * (1.0 / m - x0 * v0 / mm), 0.5 * -(x0 * v1 / mm),
                    0.5 * -(x1 * v0 / mm), 0.5 + 0.5 * (1.0 / m - x1 * v1 / mm))

    return ev, gr


def example_superposition() -> Deformation:
    """Square-annulus cavity map composed with the piecewise squeeze that
    flattens the annulus sides onto the unit diamond."""
    def squeeze_seam(t):
        # |z_minor| = (m+1)/2 * lo/hi = 1/2 at sup-norm radius m = hi/lo - 1,
        # Euclidean distance m / hi: x1 (1 + x0) = x0 in the first octant
        c, s = np.abs(np.cos(t)), np.abs(np.sin(t))
        hi = np.maximum(c, s)
        return (hi / np.minimum(c, s) - 1.0) / hi

    # the gradient of g o u jumps on the axes and diagonals, and where
    # |z_2| = 1/2 (resp. |z_1| = 1/2): in each octant on an arc from the
    # origin (m = 0, on the diagonal) to the boundary (m = 1, tan t = 1/2)
    ex, q = math.atan(0.5), math.pi / 4
    ends = [(k * q + ex, (k + 1) * q) if k % 2 == 0 else (k * q, (k + 1) * q - ex)
            for k in range(8)]
    arcs = tuple(Arc((0.0, 0.0), squeeze_seam, lo, hi) for lo, hi in ends)
    return replace(
        compose(Deformation(*_superposition_g()), Deformation(*_supnorm_annulus_map())),
        domain=Domain(q=np.inf, radius=1.0),
        singular_points=np.array([[0.0, 0.0]]),
        name="superposition",
        seams=tuple(Spoke((0.0, 0.0), k * math.pi / 4, 0.0, math.sqrt(1.0 + k % 2))
                    for k in range(8)) + arcs,
        cavity_exact={"volume": 2.0, "perimeter": 8.0 / math.sqrt(2.0)},
    )


# --------------------------------------------------------------------------
# catalog example 4: round cavity with a collapsed spike


_SPIKE_ALPHA = 4.0 * (5.0 - 2.0 * SQRT3)


def _spike_coef(R):
    """(c, dc/dR): the slope c of the segment the circle |z| = R is flattened
    onto inside the wedge region, written to avoid cancellation near R = 1/2,
    for R > 1/2 (the wedge lies outside |z| = 1/2)."""
    R = np.asarray(R, dtype=float)
    q = np.sqrt(_SPIKE_ALPHA * R * R - 1.0)
    denom = _SPIKE_ALPHA * (R * R - 0.25) / (q + SQRT3 - 1.0)
    dc_dq = (5.0 - 2.0 * SQRT3) / denom**2
    return (-9.0 + 4.0 * SQRT3 + (SQRT3 - 1.0) * q) / denom, dc_dq * _SPIKE_ALPHA * R / q


def example_spike() -> Deformation:
    """Round cavity whose boundary develops an exterior spike: the wedge above
    the chord is squeezed onto segments ending at (0, 1)."""

    def image(x):
        """x, |x|, the annulus image z = (|x| + 1)/2 x/|x| (one rounding for
        eval and grad, so both take the same branch), the wedge mask, |z|, and
        (c, c') at |z| in the wedge."""
        x = np.asarray(x, dtype=float)
        n = norm2(x)[..., None]
        z = 0.5 * (n + 1.0) * x / n
        w = z[..., 1] > (SQRT3 - 1.0) * np.abs(z[..., 0]) + 0.5
        R = norm2(z)
        return x, n[..., 0], z, w, R, *_spike_coef(np.where(w, R, 1.0))

    def ev(x):
        x, n, z, w, R, c, cp = image(x)
        out = z.copy()
        out[..., 1] = np.where(w, c * np.abs(z[..., 0]) + 1.0, z[..., 1])
        return out

    def gr(x):
        x, n, z, w, R, c, cp = image(x)
        e0, e1 = x[..., 0] / n, x[..., 1] / n
        Du = mat2(*_radial_entries(0.5 * (n + 1.0) / n, 0.5, e0, e1))
        z1, z2 = z[..., 0], z[..., 1]
        return mul2(mat2(1.0, 0.0,
                         np.where(w, cp * z1 / R * np.abs(z1) + c * _sign(z1), 0.0),
                         np.where(w, cp * z2 / R * np.abs(z1), 1.0)), Du)

    def wedge_seam(t):
        # the wedge boundary z2 = (sqrt 3 - 1)|z1| + 1/2 at |z| = (|x| + 1)/2
        return 2.0 * (0.5 / (np.sin(t) - (SQRT3 - 1.0) * np.abs(np.cos(t)))) - 1.0

    return Deformation(
        eval=ev,
        grad=gr,
        domain=Domain(q=2, radius=1.0),
        singular_points=np.array([[0.0, 0.0]]),
        name="spike",
        # inside the wedge grad y jumps across x1 = 0; the wedge leaves the
        # unit disk at t = pi/3 and 2 pi/3
        seams=(Spoke((0.0, 0.0), math.pi / 2, 0.0, 1.0),
               Arc((0.0, 0.0), wedge_seam, math.pi / 3, 2 * math.pi / 3)),
        cavity_exact={"volume": math.pi / 4.0, "perimeter": math.pi},
    )


# --------------------------------------------------------------------------
# discrete radial profiles and their lifted deformations


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise-linear strictly increasing radial stretch rho on [nodes[0],
    nodes[-1]]."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        if nodes.ndim != 1 or nodes.shape != values.shape or len(nodes) < 2:
            raise ValueError("profile needs matching 1-d nodes/values, length >= 2")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("profile nodes must be strictly increasing")
        if np.any(np.diff(values) <= 0):
            raise NonmonotoneProfileError("profile values must be strictly increasing")
        if values[0] <= 0:
            raise ValueError("profile values must be positive")

    def __call__(self, r):
        return np.interp(r, self.nodes, self.values)

    def slope(self, r):
        """Derivative of __call__: 0 outside the nodes; nodes take the right segment."""
        r = np.asarray(r, dtype=float)
        seg = np.clip(np.searchsorted(self.nodes, r, side="right") - 1, 0,
                      len(self.nodes) - 2)
        s = np.diff(self.values) / np.diff(self.nodes)
        return np.where((r < self.nodes[0]) | (r > self.nodes[-1]), 0.0, s[seg])

    @property
    def inner_radius(self):
        return float(self.nodes[0])

    @property
    def cavity_radius(self):
        return float(self.values[0])


def radial_deformation(profile: RadialProfile, center=(0.0, 0.0)) -> Deformation:
    """Lift a radial profile to the planar map
    x -> a + rho(|x - a|) (x - a)/|x - a|."""
    a = np.asarray(center, dtype=float)

    def ev(x):
        x = np.asarray(x, dtype=float)
        d = x - a
        r = norm2(d)[..., None]
        return a + profile(r[..., 0])[..., None] * d / r

    def gr(x):
        x = np.asarray(x, dtype=float)
        d = x - a
        r = norm2(d)
        return mat2(*_radial_entries(profile(r) / r, profile.slope(r),
                                     d[..., 0] / r, d[..., 1] / r))

    return Deformation(
        eval=ev,
        grad=gr,
        singular_points=a[None, :],
        name="radial-profile",
        seams=tuple(Arc(tuple(a), float(s)) for s in profile.nodes[1:-1]),
    )


def compose(outer: Deformation, inner: Deformation) -> Deformation:
    """Composition outer(inner(x)) with chain-rule gradient and no
    declarations; eval and grad raise if the inner image leaves the outer
    map's domain (when one is declared)."""

    def image(x):
        z = inner.eval(x)
        if outer.domain is not None and not np.all(outer.domain.contains(z, closed=True)):
            raise EvaluationDomainError("inner image leaves the outer deformation's domain")
        return z

    def ev(x):
        return outer.eval(image(x))

    def gr(x):
        return mul2(outer.grad(image(x)), inner.grad(x))

    return Deformation(
        eval=ev,
        grad=gr,
        domain=inner.domain,
        singular_points=inner.singular_points,
        name=f"{outer.name}*{inner.name}",
    )


# --------------------------------------------------------------------------
# catalog access

_CATALOG = {"radial": example_radial,
            "change-of-reference": example_change_of_reference,
            "superposition": lambda b: example_superposition(),
            "spike": lambda b: example_spike()}
CATALOG_KEYS = tuple(_CATALOG)


def make_example(key: str, b: float = 0.5) -> Deformation:
    """Catalog lookup by CLI key."""
    if key not in _CATALOG:
        raise KeyError(f"unknown example {key!r}; choose from {CATALOG_KEYS}")
    return _CATALOG[key](b)
