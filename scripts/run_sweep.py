#!/usr/bin/env python3
"""Find the strong intensity that minimizes the verified tagged fraction.

For each weak intensity, sweeps a grid of strong intensities on a lossy
channel with dark counts and reports the minimizing value of the finite
bound (or of the asymptotic bound when no pulse budget is given).
"""

import argparse
import sys

from decoyqkd import FluctuationSettings, batch, validate_pair
from decoyqkd.bounds import DEFAULT_MAX_ITER, DEFAULT_TOL


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mu", type=float, nargs="+", default=[0.2, 0.25, 0.3, 0.35])
    parser.add_argument("--mu-prime-start", type=float, default=0.22)
    parser.add_argument("--mu-prime-stop", type=float, default=0.60)
    parser.add_argument("--mu-prime-step", type=float, default=0.01)
    parser.add_argument("--eta", type=float, default=1e-4)
    parser.add_argument("--s0", type=float, default=1e-6)
    parser.add_argument("--n", type=int, default=None,
                        help="pulses per signal class; omit for the asymptotic bound")
    parser.add_argument("--confidence-exponent", type=float, default=25.0)
    args = parser.parse_args()

    steps = int(round((args.mu_prime_stop - args.mu_prime_start) / args.mu_prime_step))
    grid = [round(args.mu_prime_start + k * args.mu_prime_step, 12) for k in range(steps + 1)]
    settings = FluctuationSettings(confidence_exponent=args.confidence_exponent)

    print(f"channel: eta={args.eta:g}, s0={args.s0:g}, "
          f"budget={'asymptotic' if args.n is None else format(args.n, '.2e')}")
    for mu in args.mu:
        pairs = [(mu, mu_prime) for mu_prime in grid if validate_pair(mu, mu_prime)]
        rows = batch.sweep(
            pairs, [args.eta], args.s0, args.n, settings, None, DEFAULT_TOL, DEFAULT_MAX_ITER
        )
        best = None
        for (_, mu_prime), delta, vacuous in zip(pairs, rows.delta_upper, rows.vacuous):
            if not vacuous and (best is None or delta < best[1]):
                best = (mu_prime, delta)
        if best is None:
            print(f"  mu={mu:<5}: no admissible non-vacuous strong intensity in grid")
            continue
        print(f"  mu={mu:<5}: optimal mu'={best[0]:.3g}  delta_upper={100 * best[1]:.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
