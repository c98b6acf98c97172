"""Internal-domain evaluator: the small-y Taylor series for K and L.

For a fixed y the exact integer tables are folded with powers of y into
six coefficient vectors (alpha, beta, gamma for L; their primed partners
for K).  Each evaluation is then three even-polynomial Horner sums in x^2
plus one Dawson continued fraction and one exp(-x^2):

    L = (1/sqrt(pi)) F(x) * A(x^2) + x e^{-x^2} B(x^2) + (1/sqrt(pi)) x G(x^2)
    K = (1/sqrt(pi)) (F(x)/x) A'(x^2) + e^{-x^2} B'(x^2) + (1/sqrt(pi)) G'(x^2)

where F(x)/x takes its limit 1 at x = 0, so the same sum gives K(0, y) =
e^{y^2} erfc y.  Both are assembled by one function, `eval_w_internal`,
which shares x^2, F(x) and exp(-x^2) between them.  The fold is O(N^2)
but x-independent, so it is shared by batch evaluation and kept in a
bounded LRU cache keyed by (y, params), holding the 128 most recent sets.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .coeffs import DEFAULT_M_MAX, get_tables
from .dawson import dawson_cf

_ONE_OVER_SQRT_PI = 1.0 / np.sqrt(np.pi)

Y_MAX = 0.1


class SeriesParams(NamedTuple):
    """Truncation triple: Taylor order N, Dawson depth N_D, Laplace depth N_C."""

    n: int
    n_d: int
    n_c: int


class VoigtValue(NamedTuple):
    """Real part K (the Voigt function) and imaginary part L of w(z)."""

    k: float
    l: float


class YCoefficientSet(NamedTuple):
    """Per-y folded series coefficients for a fixed truncation order N."""

    alpha: tuple
    beta: tuple
    gamma: tuple
    alpha_p: tuple
    beta_p: tuple
    gamma_p: tuple


def build_y_coefficients(y, params):
    """Fold the integer tables with powers of y into a YCoefficientSet.

    Accumulation runs in descending m (smallest terms first) and the
    scaled powers y^(2m)/(2m)! are formed by iterative multiplication, so
    no large factorial is ever evaluated in floating point.
    """
    if not 0.0 <= y <= Y_MAX:
        raise ValueError(f"y must lie in [0, {Y_MAX}], got {y}")
    tables = get_tables(max(DEFAULT_M_MAX, params.n))
    n_max = params.n
    y = float(y)
    y2 = y * y

    # even[m] = y^(2m)/(2m)!,  odd[m] = y^(2m+1)/(2m+1)!,
    # evm1[m] = y^(2m-1)/(2m-1)!  (evm1[0] unused, sign(0) = 0)
    even = [1.0]
    odd = [y]
    evm1 = [0.0]
    for m in range(1, n_max + 1):
        evm1.append(even[m - 1] * y / (2 * m - 1))
        even.append(evm1[m] * y / (2 * m))
        odd.append(even[m] * y / (2 * m + 1))

    p, q, h = tables.p_rows, tables.q_rows, tables.h_rows
    alpha, beta, gamma = [], [], []
    alpha_p, beta_p, gamma_p = [], [], []
    for n in range(n_max + 1):
        a = b = ap = bp = 0.0
        g = gp = 0.0
        for m in range(n_max, n - 1, -1):
            pmn = float(p[m][n])
            hmn = float(h[2 * m + 1][n])
            sgn = -1.0 if m % 2 == 0 else 1.0  # (-1)^(m+1)
            a += pmn * even[m]
            b += sgn * hmn * odd[m]
            bp += sgn * hmn * even[m]
            if m >= 1:
                ap += pmn * evm1[m]
            if m >= n + 1:
                qmn = float(q[m][n])
                g += qmn * even[m]
                gp += qmn * evm1[m]
        alpha.append(a)
        beta.append(b)
        alpha_p.append(y * a - 0.5 * ap)
        beta_p.append(y * b - 0.5 * bp)
        if n <= n_max - 1:
            gamma.append(g)
            gamma_p.append(y * g - 0.5 * gp)
    return YCoefficientSet(
        tuple(alpha), tuple(beta), tuple(gamma),
        tuple(alpha_p), tuple(beta_p), tuple(gamma_p),
    )


@lru_cache(maxsize=128)
def cached_y_coefficients(y, params):
    """Memoized build_y_coefficients; the sets are immutable, so sharing is safe."""
    return build_y_coefficients(y, params)


def _horner(coeffs, x2):
    """Evaluate sum_k coeffs[k] * x2^k; empty coefficient list is zero."""
    if not coeffs:
        return np.zeros_like(x2)
    acc = np.full_like(x2, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * x2 + c
    return acc


def eval_w_internal(x, y, params):
    """Internal-branch evaluation of (K, L) at x >= 0, 0 <= y <= 0.1.

    Reuses the cached coefficient fold for y; x^2, the Dawson fraction
    and exp(-x^2) are computed once and shared between K and L.  F(x)/x
    takes its limit 1 at x = 0, where the quotient itself is 0/0.
    """
    c = cached_y_coefficients(float(y), params)
    x = np.asarray(x, dtype=np.float64)
    f = dawson_cf(x, params.n_d)
    x2 = x * x
    ex = np.exp(-x2)
    # K before L, and F(x)/x freed as soon as it is used: fewer large
    # temporaries live at once, so big batches fault fewer heap pages
    k = (
        _ONE_OVER_SQRT_PI
        * np.divide(f, x, out=np.ones_like(x), where=x != 0.0)
        * _horner(c.alpha_p, x2)
        + ex * _horner(c.beta_p, x2)
        + _ONE_OVER_SQRT_PI * _horner(c.gamma_p, x2)
    )
    l = (
        _ONE_OVER_SQRT_PI * f * _horner(c.alpha, x2)
        + x * ex * _horner(c.beta, x2)
        + _ONE_OVER_SQRT_PI * x * _horner(c.gamma, x2)
    )
    if k.ndim == 0:
        return VoigtValue(float(k), float(l))
    return VoigtValue(k, l)
