"""Seams: the curves across which a deformation's gradient jumps, and the
panel edges that the quadratures derive from them about any center c.

A seam lies about its own point p: an `Arc` p + f(theta) (cos theta,
sin theta) on theta in [lo, hi] (a number f: a circle), or a `Spoke`
p + rho (cos angle, sin angle) on rho in [lo, hi]. A composite Gauss rule
keeps its order only if every jump is a panel edge (Davis & Rabinowitz,
*Methods of Numerical Integration*, 2nd ed., 1984, section 2.12). Circles
and spokes have closed forms from any center, as has an arc from its own
point (its ray break is f(t)). Otherwise an arc is cut into cells of its own
theta on which its direction (for rays) or distance (for circles) from c is
monotone, and its crossings found to adjacent floats, vectorized over rays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
SAMPLES = 64  # cells of an arc's range before refinement and splitting


@dataclass(frozen=True)
class Arc:
    point: tuple[float, float]
    f: Callable[[np.ndarray], np.ndarray] | float
    lo: float = 0.0
    hi: float = TWO_PI

    def __post_init__(self):
        if not callable(self.f) and (self.lo, self.hi) != (0.0, TWO_PI):
            raise ValueError("an arc of constant radius is a full circle")

    def at(self, th):
        rho = self.f(th) if callable(self.f) else np.full(np.shape(th), self.f)
        return np.add(self.point, rho[..., None] * np.stack([np.cos(th), np.sin(th)], -1))


@dataclass(frozen=True)
class Spoke:
    point: tuple[float, float]
    angle: float
    lo: float
    hi: float

    def at(self, rho):
        return np.add(self.point, np.multiply.outer(rho, self.unit()))

    def unit(self):
        return np.array([math.cos(self.angle), math.sin(self.angle)])


def _angle(v):
    return np.arctan2(v[..., 1], v[..., 0])


def _turns(P, Q):  # the direction from c turns counterclockwise from P to Q
    return P[..., 0] * Q[..., 1] - P[..., 1] * Q[..., 0] > 0


def _recedes(P, Q):  # the distance from c grows from P to Q
    return np.sum(Q * Q, axis=-1) > np.sum(P * P, axis=-1)


def _sign_change(g, lo, hi):
    """Where g (vectorized over the brackets) changes sign in [lo, hi], down
    to adjacent floats: the point that bisection finds where g changes sign
    once. Illinois regula falsi steps (the value at an end kept twice in a
    row is halved), moved one float inside the bracket when they land on
    an end, and a midpoint step where the last two steps did not halve it."""
    glo, ghi = g(lo), g(hi)
    neg, mid = glo < 0, 0.5 * (lo + hi)
    last, w1, w2 = 0.0, np.inf, np.inf  # last: +1 moved lo; the widths 1 and 2 steps ago
    while ((lo < mid) & (mid < hi)).any():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = lo - glo * ((hi - lo) / (ghi - glo))
        x = np.clip(x, np.nextafter(lo, hi), np.nextafter(hi, lo))
        x = np.where((hi - lo > 0.5 * w2) | np.isnan(x), mid, x)
        w1, w2 = hi - lo, w1
        gx = g(x)
        up = (gx < 0) == neg
        glo = np.where(up, gx, np.where(last < 0, 0.5 * glo, glo))
        ghi = np.where(up, np.where(last > 0, 0.5 * ghi, ghi), gx)
        lo, hi, last = np.where(up, x, lo), np.where(up, hi, x), np.where(up, 1.0, -1.0)
        mid = 0.5 * (lo + hi)
    return mid


@functools.lru_cache(maxsize=256)
def _cells(arc, c, rises):
    """(nodes, extremes) of the arc seen from the point c (a tuple; the cells
    are cached): SAMPLES equal cells of its range, halved (seen from
    elsewhere) until each chord is shorter than a third of the cell's
    distance from c, so that the cell subtends less than half a radian, and
    split at the extremes of a function g of the arc point, where rises(P, Q)
    says whether g grows from c + P to c + Q. A cell holds an extreme when
    the slopes of g at its ends, by differences 1e-7 of a cell wide
    (one-sided at the ends of the range, so end cells count too), differ in
    sign; bisecting the slope's sign finds it."""
    c = np.array(c)
    th = arc.lo + (arc.hi - arc.lo) * np.linspace(0.0, 1.0, SAMPLES + 1)
    for _ in range(40 if np.any(np.subtract(arc.point, c)) else 0):
        P = arc.at(th) - c
        size = np.hypot(*np.diff(P, axis=0).T)
        near = np.minimum(np.hypot(*P[:-1].T), np.hypot(*P[1:].T))
        if not (long := 3.0 * size > near).any():
            break
        th = np.sort(np.append(th, 0.5 * (th[:-1] + th[1:])[long]))
    h = 1e-7 * (arc.hi - arc.lo) / SAMPLES
    a, b = th - h, th + h
    a[0], b[-1] = th[0], th[-1]
    up = rises(arc.at(a) - c, arc.at(b) - c)
    k = np.flatnonzero(up[:-1] != up[1:])
    lo, hi, grows = th[k], th[k + 1], up[k]
    for _ in range(30 if len(k) else 0):
        mid = 0.5 * (lo + hi)
        P = arc.at(np.concatenate([mid - h, mid + h])) - c
        right = rises(P[:len(k)], P[len(k):]) == grows
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return np.sort(np.append(th, 0.5 * (lo + hi))), 0.5 * (lo + hi)


def ray_breaks(seams, c, t):
    """Distances s > 0 at which the rays c + s (cos t, sin t) cross a seam:
    shape (len(t), m), inf where a ray has fewer crossings."""
    c, e0, e1 = np.asarray(c, dtype=float), np.cos(t), np.sin(t)
    cols = [np.full((len(t), 0), np.inf)]
    for s in seams:
        w = np.subtract(s.point, c)
        if isinstance(s, Spoke):
            d0, d1 = s.unit()
            den = e0 * d1 - e1 * d0
            with np.errstate(divide="ignore", invalid="ignore"):
                dist, rho = (w[0] * d1 - w[1] * d0) / den, (w[0] * e1 - w[1] * e0) / den
            cols.append(np.where((rho >= s.lo) & (rho <= s.hi), dist, np.inf)[:, None])
        elif not callable(s.f):  # the circle's chord on the ray's line
            proj = e0 * w[0] + e1 * w[1]
            disc = proj**2 - (w @ w - s.f * s.f)
            root = np.sqrt(np.maximum(disc, 0.0))
            chord = np.stack([proj - root, proj + root], -1)
            cols.append(np.where(disc[:, None] > 0, chord, np.inf))
        elif not w.any():  # the closed form f(t)
            inside = np.mod(t - s.lo, TWO_PI) <= s.hi - s.lo
            cols.append(np.where(inside, s.f(t), np.inf)[:, None])
        else:  # cells whose ends lie on both sides of a ray; as a cell
            # subtends less than pi, the ray meets it ahead of c when the cell
            # turns toward the side of the ray that its far end lies on
            nodes = _cells(s, tuple(c), _turns)[0]
            P = s.at(nodes) - c
            pos = e0[:, None] * P[:, 1] - e1[:, None] * P[:, 0] > 0
            ahead = pos[:, 1:] == _turns(P[:-1], P[1:])
            i, j = np.nonzero((pos[:, :-1] != pos[:, 1:]) & ahead)

            def side(th, s=s, i=i):  # which side of ray i the arc lies on at th
                Q = s.at(th) - c
                return e0[i] * Q[:, 1] - e1[i] * Q[:, 0]

            Q = s.at(_sign_change(side, nodes[j], nodes[j + 1])) - c
            rank = np.arange(len(i)) - np.searchsorted(i, i)
            cols.append(np.full((len(t), np.max(rank, initial=-1) + 1), np.inf))
            cols[-1][i, rank] = e0[i] * Q[:, 0] + e1[i] * Q[:, 1]
    B = np.concatenate(cols, axis=1)
    return np.where(B > 0, B, np.inf)


def pass_kinks(seams, c):
    """Ray angles from c at which crossings appear, vanish or meet: the rays
    tangent to an arc, the rays through seam ends (from its own point, a
    spoke's angle and an arc's range ends) and the rays through the points
    where a circle (a pass's hole among them) crosses another seam."""
    c = np.asarray(c, dtype=float)
    out, ends = [], []
    for s in seams:
        w = np.subtract(s.point, c)
        tips = [s.lo, s.hi] if isinstance(s, Spoke) or s.hi - s.lo < TWO_PI else []
        if isinstance(s, Arc) and not callable(s.f):
            dist = math.hypot(w[0], w[1])
            if dist >= s.f:
                out += [math.atan2(w[1], w[0]) + k * math.asin(s.f / dist) for k in (-1, 1)]
            # a spoke from c meets the circle on its own ray, a kink already
            others = [o for o in seams if o is not s
                      and not (isinstance(o, Spoke) and not np.subtract(o.point, c).any())]
            ends += list(s.at(np.array(circle_kinks(others, s.point, s.f))) - c)
        elif not w.any():
            out += [s.angle] if isinstance(s, Spoke) else tips
        else:
            if isinstance(s, Arc):
                out += list(_angle(s.at(_cells(s, tuple(c), _turns)[1]) - c))
            ends += list(s.at(np.array(tips)) - c)
    return out + [math.atan2(v[1], v[0]) for v in ends if v.any()]


def circle_kinks(seams, c, r):
    """Angles on the circle S(c, r) at which it crosses a seam."""
    c = np.asarray(c, dtype=float)
    out, brackets = [], {}
    for s in seams:
        w = np.subtract(s.point, c)
        own = not w.any()
        if isinstance(s, Spoke):  # the chord of S(c, r) on the spoke's line
            u = s.unit()
            b = w @ u
            disc = b * b - (w @ w - r * r)
            rhos = {-b - math.sqrt(disc), -b + math.sqrt(disc)} if disc >= 0 else ()
            out += [s.angle if own else math.atan2(*(w + rho * u)[::-1])
                    for rho in rhos if s.lo <= rho <= s.hi]
        elif not callable(s.f):
            D = math.hypot(w[0], w[1])
            if abs(s.f - r) < D < s.f + r:
                half = math.acos((r * r + D * D - s.f * s.f) / (2.0 * r * D))
                out += [math.atan2(w[1], w[0]) + k * half for k in (-1, 1)]
        else:  # cells where the gap changes sign; arcs sharing f and point
            # are bisected together
            nodes = _cells(s, tuple(c), _recedes)[0]
            neg = _gap(s, c, r)(nodes) < 0
            j = np.flatnonzero(neg[:-1] != neg[1:])
            brackets.setdefault((s.f, s.point), []).append((nodes[j], nodes[j + 1]))
    for (f, p), br in brackets.items():
        s = Arc(p, f)
        x = _sign_change(_gap(s, c, r), *np.concatenate(br, axis=1))
        out += list(_angle(s.at(x) - c) if np.subtract(p, c).any() else x)
    return out


def _gap(s, c, r):
    """theta -> the arc's distance from c at theta, less r."""
    if np.subtract(s.point, c).any():
        return lambda th: np.hypot(*(s.at(th) - c).T) - r
    return lambda th: s.f(th) - r
