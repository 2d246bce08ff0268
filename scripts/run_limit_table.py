#!/usr/bin/env python3
"""Reproduce the analytic vanishing-core limits of the example catalog.

For each catalog map: per-radius cavity volume/perimeter, the extrapolated
limits, and the exact reduced-boundary values where the catalog knows them.
The spike map is the one whose perimeter limit exceeds the perimeter of its
cavity: the traces run along both sides of the collapsed spike, so its
length enters the limit twice (2 x 1/2 = 1) while the cavity boundary never
sees it.
"""

from cavicore import (
    CATALOG_KEYS,
    converged_trace_metrics,
    extrapolate_limit,
    make_example,
)
from cavicore.cavity import dyadic_ladder
from cavicore.energy import CONV_PERIMETER_TOL

RADII = dyadic_ladder(0.2)


def main():
    for key in CATALOG_KEYS:
        y = make_example(key, 0.5)
        vols, pers = [], []
        for r in RADII:
            m = converged_trace_metrics(y, (0.0, 0.0), r)
            vols.append(m.volume)
            pers.append(m.perimeter)
        v0, vu = extrapolate_limit(RADII, vols)
        p0, pu = extrapolate_limit(RADII, pers)
        print(f"== {key}")
        for r, v, p in zip(RADII, vols, pers):
            print(f"   r={r:<11} volume={v:.8f} perimeter={p:.8f}")
        print(f"   limit  volume={v0:.8f} (+-{vu:.1e}) "
              f"perimeter={p0:.8f} (+-{pu:.1e})")
        if y.cavity_exact:
            ev, ep = y.cavity_exact["volume"], y.cavity_exact["perimeter"]
            ok = abs(p0 - ep) <= CONV_PERIMETER_TOL * max(ep, 1.0)
            tag = "" if ok else "   <-- limit exceeds the cavity perimeter"
            print(f"   exact  volume={ev:.8f}            perimeter={ep:.8f}{tag}")
        print()


if __name__ == "__main__":
    main()
