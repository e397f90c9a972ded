"""Exact linear-programming reference for the asymptotic tagged-fraction bounds.

Given the observed rates, the largest tagged fraction that any yields
y_1..y_N in [0, 1] (with y_0 = s0) can produce is a linear program:

    maximise   sum_{n>=2} P_n(x) y_n / S_x
    subject to sum_n P_n(mu) y_n = S_mu  and  sum_n P_n(mu') y_n = S_mu',

with x = mu for the weak class's fraction delta and x = mu' for the strong
class's delta'.  This is the view of Ma, Qi, Zhao and Lo (PRA 72, 012326,
2005).  Each row is scaled by 1/S_x so its residual is relative, HiGHS
solves it at feasibility tolerances of 1e-10, and the optimal vertex it
finds is then solved exactly.  A bound that claims to hold whatever the
eavesdropper does may not fall below this optimum.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

# Photon numbers past the table: at mu' <= 1, P_31 < 1e-34.
N_MAX = 30
TOLERANCE = 1e-10


def _weights(x: float) -> list[float]:
    """P_0(x) .. P_N_MAX(x)."""
    return [math.exp(-x) * x**n / math.factorial(n) for n in range(N_MAX + 1)]


def lp_fraction(s0: float, s_mu: float, s_mu_prime: float, mu: float, mu_prime: float,
                at: float) -> float:
    """The largest n >= 2 share of the class at intensity ``at`` (mu or mu')."""
    rows, rhs = [], []
    for x, rate in ((mu, s_mu), (mu_prime, s_mu_prime)):
        p = _weights(x)
        rows.append([p_n / rate for p_n in p[1:]])
        rhs.append(1.0 - p[0] * s0 / rate)
    p, rate = _weights(at), s_mu if at == mu else s_mu_prime
    # linprog minimises; y_1 does not enter the objective.
    objective = [0.0] + [-p_n / rate for p_n in p[2:]]
    result = linprog(
        objective,
        A_eq=rows,
        b_eq=rhs,
        bounds=(0.0, 1.0),
        method="highs",
        options={"primal_feasibility_tolerance": TOLERANCE,
                 "dual_feasibility_tolerance": TOLERANCE},
    )
    assert result.status == 0, result.message
    return float(-np.dot(objective, _polished(np.array(rows), np.array(rhs), result.x)))


def _polished(rows: np.ndarray, rhs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The vertex of HiGHS's optimal basis, with its equalities solved exactly.

    HiGHS applies its tolerances to its own scaling of the problem, so a row
    of the point it returns can miss by 1e-9, and the objective moves as
    much.  The optimal vertex has one yield strictly inside [0, 1] per row
    and the others at a bound; the inside ones are solved from the rows.
    """
    inside = np.flatnonzero((y > 0.0) & (y < 1.0))
    assert len(inside) == len(rhs), y
    vertex = y.copy()
    vertex[inside] = 0.0
    vertex[inside] = np.linalg.solve(rows[:, inside], rhs - rows @ vertex)
    assert np.all((vertex >= 0.0) & (vertex <= 1.0)), vertex[inside]
    return vertex
