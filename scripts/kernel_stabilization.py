#!/usr/bin/env python3
"""Track the invariance-kernel dimension as the window grows.

For each requested interaction this prints one row per window length with
the unknown count, the constraint rank, and the kernel dimension, so you
can watch the dimension settle at the number of independent conserved
quantities once the window clears the boundary effects.

Example:

    python3 scripts/kernel_stabilization.py --lengths 8 10 12 14 \
        --interactions exclusion multispecies:2 quastel2
"""

import argparse
import time

from latticecalc.cohomology import invariance_kernel
from latticecalc.interaction import builtin_interaction, consv_basis
from latticecalc.sitegraph import lattice_window


def run(names, lengths, radius):
    for name in names:
        phi = builtin_interaction(name)
        base = phi.states.base_index
        target = len(consv_basis(phi, base))
        print(f"{name}  (radius {radius}, dim consv = {target})")
        print(f"  {'length':>6}  {'window':>10}  {'unknowns':>8}  "
              f"{'rank':>5}  {'dim':>4}  {'secs':>6}")
        for length in lengths:
            a = -(length // 2)
            graph = lattice_window(1, a, a + length)
            t0 = time.perf_counter()
            rep = invariance_kernel(phi, radius, graph, base)
            print(f"  {length:>6}  [{a:>3},{a + length:>3}]  "
                  f"{rep.unknown_count:>8}  {rep.constraint_rank:>5}  "
                  f"{rep.dimension:>4}  {time.perf_counter() - t0:>6.2f}")
        print()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--interactions", nargs="+",
        default=["exclusion", "multispecies:2"],
        help="builtin interaction names",
    )
    parser.add_argument(
        "--lengths", nargs="+", type=int, default=[8, 10, 12],
        help="window lengths to sweep",
    )
    parser.add_argument("--radius", type=int, default=1)
    args = parser.parse_args()
    run(args.interactions, args.lengths, args.radius)


if __name__ == "__main__":
    main()
