#!/usr/bin/env python3
"""Reproduce the analytic vanishing-core limits of the example catalog.

For each catalog map: per-radius cavity volume/perimeter, the extrapolated
limits, and the exact reduced-boundary values where the catalog knows them.
The spike map is the one whose perimeter limit exceeds the perimeter of its
cavity: the traces run along both sides of the collapsed spike, so its
length enters the limit twice (2 x 1/2 = 1) while the cavity boundary never
sees it.
"""

from cavicore import CATALOG_KEYS, flaw_limit, make_example
from cavicore.cavity import dyadic_ladder

RADII = dyadic_ladder(0.2)


def main():
    for key in CATALOG_KEYS:
        y = make_example(key, 0.5)
        fl = flaw_limit(y, (0.0, 0.0), RADII)
        print(f"== {key}")
        for r, m in zip(RADII, fl.metrics):
            print(f"   r={r:<11} volume={m.volume:.8f} perimeter={m.perimeter:.8f}")
        print(f"   limit  volume={fl.volume:.8f} (+-{fl.volume_unc:.1e}) "
              f"perimeter={fl.perimeter:.8f} (+-{fl.perimeter_unc:.1e})")
        if y.cavity_exact:
            ev, ep = y.cavity_exact["volume"], y.cavity_exact["perimeter"]
            tag = ("" if fl.conv_perimeter_ok
                   else "   <-- limit exceeds the cavity perimeter")
            print(f"   exact  volume={ev:.8f}            perimeter={ep:.8f}{tag}")
        print()


if __name__ == "__main__":
    main()
