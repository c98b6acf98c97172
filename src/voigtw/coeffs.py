"""Exact integer coefficient tables for the small-y Taylor series.

Three families of coefficients are needed:

* ``h[n]``  -- odd-order (physicists') Hermite polynomials written on the
  odd-power basis, H_n(x) = sum_k h[n][k] x^(2k+1).
* ``p[m]``  -- even polynomials P_m(x) = sum_k p[m][k] x^(2k).
* ``q[m]``  -- odd polynomials Q_m(x) = sum_k q[m][k] x^(2k+1).

P and Q satisfy the same three-term recurrence
    R_m = (8m - 6 - 4x^2) R_{m-1} - 8(m-1)(2m-3) R_{m-2}
with bases P_0 = 2, P_1 = 4 - 8x^2 and Q_0 = 0, Q_1 = 4x.

Everything here is exact arbitrary-width integer arithmetic: the entries
grow factorially (q[7][1] = -373416960 already) and overflow 64 bits well
before m = 16.  Conversion to floating point happens downstream, when the
tables are folded with powers of y.
"""

from functools import lru_cache
from math import factorial
from typing import NamedTuple


DEFAULT_M_MAX = 16


def hermite_coeffs(n):
    """Coefficients [h_0, ..., h_{(n-1)/2}] of the odd Hermite polynomial H_n.

    H_n(x) = sum_k h_k x^(2k+1), exact integers.  n must be odd and positive.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be an odd positive integer, got {n}")
    half = (n - 1) // 2
    return [
        (-1) ** (half - k)
        * factorial(n)
        // (factorial(half - k) * factorial(2 * k + 1))
        * 2 ** (2 * k + 1)
        for k in range(half + 1)
    ]


def build_pq_tables(m_max):
    """Rows 0..m_max of the P and Q coefficient tables, by exact recurrence.

    Returns (p_rows, q_rows).  p_rows[m] has m+1 entries (even powers),
    q_rows[m] has m entries (odd powers); q_rows[0] is empty (Q_0 = 0).
    """
    if m_max < 0:
        raise ValueError(f"m_max must be non-negative, got {m_max}")
    p_rows = [[2]]
    q_rows = [[]]
    if m_max >= 1:
        p_rows.append([4, -8])
        q_rows.append([4])
    for m in range(2, m_max + 1):
        p_rows.append(_recurrence_step(p_rows[m - 1], p_rows[m - 2], m))
        q_rows.append(_recurrence_step(q_rows[m - 1], q_rows[m - 2], m))
    return p_rows, q_rows


def _recurrence_step(prev, prev2, m):
    """One step of R_m = (8m-6-4x^2) R_{m-1} - 8(m-1)(2m-3) R_{m-2}.

    Rows are coefficient vectors on a fixed-parity power basis, so the
    -4x^2 term shifts indices up by one.
    """
    a = 8 * m - 6
    b = 8 * (m - 1) * (2 * m - 3)
    out = [0] * (len(prev) + 1)
    for k, c in enumerate(prev):
        out[k] += a * c
        out[k + 1] -= 4 * c
    for k, c in enumerate(prev2):
        out[k] -= b * c
    return out


def _double_factorial(n):
    # n!! with the 0!! = (-1)!! = 1 convention
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def p_closed_form(m, k):
    """Closed-form value of p[m][k]: (-1)^k (2m)! 2^(k+1) / ((m-k)! k! (2k-sign k)!!).

    sign(0) = 0, so the double factorial at k = 0 is 0!! = 1.  Used as an
    independent cross-check of the recurrence-built table.
    """
    if not 0 <= k <= m:
        raise ValueError(f"k must lie in [0, m]; got k={k}, m={m}")
    n = 2 * m
    sgn = 1 if k > 0 else 0
    num = (-1) ** k * factorial(n) * 2 ** (k + 1)
    den = factorial(m - k) * factorial(k) * _double_factorial(2 * k - sgn)
    assert num % den == 0
    return num // den


class CoeffTables(NamedTuple):
    """Immutable bundle of the exact integer tables up to a given m_max.

    h_rows maps odd n = 1, 3, ..., 2*m_max+1 to the Hermite rows.
    """

    h_rows: dict
    p_rows: tuple
    q_rows: tuple
    m_max: int


@lru_cache(maxsize=None)
def get_tables(m_max=DEFAULT_M_MAX):
    """Build (once) and memoize the coefficient tables up to m_max."""
    p_rows, q_rows = (tuple(map(tuple, rows)) for rows in build_pq_tables(m_max))
    h_rows = {n: hermite_coeffs(n) for n in range(1, 2 * m_max + 2, 2)}
    return CoeffTables(h_rows, p_rows, q_rows, m_max)
