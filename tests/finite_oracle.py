"""High-precision reference for the finite-budget multi-photon bound.

Solves the sc/s1 constraint system described in ``bounds._solve_sc`` in
mpmath at 40 digits, from plain floats: its own Poisson weights,
multi-photon ratio, asymptotic seed and fluctuations, and no package
helper.  With y = sqrt(s1):

- weak class:   S_mu = e^{-mu} s0 + P1(mu) s1 + c sc;
- strong class: S_mu' - e^{-mu'} s0
                = P1(mu') (1 - k1/y) y^2 + ratio c F (1 - kc/sqrt(F)),

where c = 1 - P0(mu) - P1(mu), ratio = P2(mu') / P2(mu), and F(sc) is the
multi-photon rate the strong class allows once the weak class fixes s1 at
sc; the observed s0 counts as exact.  The bound is the largest sc on
[asymptotic sc, floor] with F(sc) >= sc, where the floor is the sc at which
s1 = k1^2 (r1 = 1).  A coarse scan from the floor down finds the top sign
change and bisection refines it; the scan would see a second root that a
bracketed search started at the seed skips.
"""

from __future__ import annotations

import mpmath as mp

DPS = 40
SCAN_POINTS = 64
# Bisection stops at this relative width in sc, far below float resolution.
REL_WIDTH = mp.mpf("1e-20")

VACUOUS, SEED, INTERIOR = "vacuous", "seed", "interior"


def finite_oracle(
    s0: float,
    s_mu: float,
    s_mu_prime: float,
    mu: float,
    mu_prime: float,
    n_mu: int,
    n_mu_prime: int,
    exponent: float,
    min_over_classes: bool = False,
) -> tuple[float, str]:
    """Return (delta_upper, label) with label VACUOUS, SEED or INTERIOR.

    delta_upper is 1.0 when the bound is vacuous: the floor is not above
    the asymptotic seed, F(floor) >= floor, s1 <= k1^2, or delta >= 1.
    """
    with mp.workdps(DPS):
        mu, mu_prime, s0, s_mu, s_mu_prime = map(mp.mpf, (mu, mu_prime, s0, s_mu, s_mu_prime))
        p1 = mu * mp.exp(-mu)
        p1_prime = mu_prime * mp.exp(-mu_prime)
        c = 1 - mp.exp(-mu) - p1
        ratio = (mu_prime**2 * mp.exp(-mu_prime)) / (mu**2 * mp.exp(-mu))

        n_singles = n_mu * p1
        n_multi = n_mu * c
        if min_over_classes:
            n_singles = min(n_singles, n_mu_prime * p1_prime)
            n_multi = min(n_multi, n_mu_prime * c * ratio)
        k1 = 2 * mp.sqrt(exponent / n_singles)
        kc = 2 * mp.sqrt(exponent / n_multi)

        weak = s_mu - mp.exp(-mu) * s0
        strong = s_mu_prime - mp.exp(-mu_prime) * s0

        # Asymptotic seed: both constraints exact (k1 = kc = 0) are linear
        # in sc; its tagged fraction is clamped to [0, 1].
        sc_raw = (strong - p1_prime * weak / p1) / (c * (ratio - p1_prime / p1))
        sc_seed = min(max(c * sc_raw / s_mu, 0), 1) * s_mu / c
        sc_floor = (weak - p1 * k1**2) / c
        if sc_floor <= sc_seed:
            return 1.0, VACUOUS

        def excess(sc):
            """F(sc) - sc."""
            s1 = (weak - c * sc) / p1
            y = mp.sqrt(s1)
            # No room left for multi-photon counts leaves F at kc^2, where
            # c F (1 - kc/sqrt(F)) = 0.
            room = max((strong - p1_prime * (1 - k1 / y) * s1) / ratio, 0)
            return ((kc + mp.sqrt(kc**2 + 4 * room / c)) / 2) ** 2 - sc

        if excess(sc_floor) >= 0:
            return 1.0, VACUOUS
        step = (sc_floor - sc_seed) / SCAN_POINTS
        hi = sc_floor
        for i in range(1, SCAN_POINTS + 1):
            lo = max(sc_floor - i * step, sc_seed)
            if excess(lo) >= 0:
                break
            hi = lo
        else:
            # No sc on [seed, floor] is consistent: the seed stands.
            lo = hi = sc_seed
        # excess(lo) >= 0 > excess(hi): bisect down to REL_WIDTH.
        while hi - lo > REL_WIDTH * hi:
            mid = (lo + hi) / 2
            if excess(mid) >= 0:
                lo = mid
            else:
                hi = mid
        sc = lo
        label = INTERIOR if sc > sc_seed else SEED

        s1 = (weak - c * sc) / p1
        delta = c * sc / s_mu
        if s1 <= k1**2 or delta >= 1:
            return 1.0, VACUOUS
        return float(delta), label
