"""Maps and derivatives that only the tests use."""

import numpy as np

from cavicore.deformation import Deformation


def finite_difference_grad(f, x, h: float = 1e-5):
    """Central finite differences of a vectorized planar map."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (2,))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        out[..., :, j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def affine_deformation(F, domain=None) -> Deformation:
    F = np.asarray(F, dtype=float)
    return Deformation(
        eval=lambda x: np.asarray(x, dtype=float) @ F.T,
        grad=lambda x: np.broadcast_to(F, np.shape(x)[:-1] + (2, 2)).copy(),
        domain=domain,
        name="affine",
    )
