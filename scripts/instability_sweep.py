"""Sweep the inverted-Morse gain profile and tabulate onset times.

For each (q, nu) pair the onset is where the growing gain norm first
crosses the precession norm; past it the fixed points become complex and
the Bloch flow switches from spiral contraction to bounded wandering.
"""

import argparse

from qdsim.dynamics import inverted_morse_profile
from qdsim.errors import NoCrossingError
from qdsim.rootfind import find_crossing


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega", type=float, default=0.003,
                    help="precession rate norm (default 0.003)")
    ap.add_argument("--q", type=float, nargs="+",
                    default=[0.005, 0.006, 0.007, 0.008, 0.010])
    ap.add_argument("--nu", type=float, nargs="+",
                    default=[0.0003, 0.0005, 0.0008])
    ap.add_argument("--horizon", type=float, default=200000.0)
    args = ap.parse_args()

    print(f"# onset time where |g(t)| = {args.omega}")
    header = "q\\nu " + " ".join(f"{nu:>12g}" for nu in args.nu)
    print(header)
    for q in args.q:
        cells = []
        for nu in args.nu:
            profile = inverted_morse_profile(q, nu)
            try:
                t_in = find_crossing(lambda t: profile(t) - args.omega,
                                     0.0, args.horizon, xtol=1.0)
                cells.append(f"{t_in:12.1f}")
            except NoCrossingError:
                cells.append(f"{'-':>12}")
        print(f"{q:<5g} " + " ".join(cells))


if __name__ == "__main__":
    main()
