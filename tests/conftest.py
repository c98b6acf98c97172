import mpmath as mp
import numpy as np


def dawson_maclaurin(x, dps=40):
    """Independent Dawson oracle: Maclaurin series of D' = 1 - 2xD, D(0) = 0.

    D(x) = sum_n (-1)^n 2^n x^(2n+1) / (2n+1)!!, summed in extended
    precision with enough guard digits to absorb the alternating-series
    cancellation at large x.
    """
    with mp.workdps(dps + int(3 * x * x) + 30):
        xm = mp.mpf(x)
        s = mp.mpf(0)
        term = xm
        n = 0
        while n < 5 or abs(term) > mp.mpf(10) ** (-dps - 20) * max(1, abs(s)):
            s += term
            n += 1
            term = term * (-2) * xm * xm / (2 * n + 1)
            if n > 20000:  # pragma: no cover
                raise RuntimeError("Dawson Maclaurin oracle did not converge")
        return +s


# rel_err's floor: the smallest normal double
_TINY = mp.mpf(2) ** -1022


def rel_err(approx, ref):
    """|approx - ref| / max(|ref|, 2^-1022) at 40 digits, as a float.

    `oracle.rel_errors`' measure: an mpmath reference is taken at the
    precision it carries, never rounded to a double first, and a
    reference below the smallest normal counts as 2^-1022.
    """
    with mp.workdps(40):
        return float(abs(mp.mpmathify(approx) - ref) / max(abs(mp.mpmathify(ref)), _TINY))


def ulps(n=1):
    """n units of double-precision relative rounding (n * 2^-52)."""
    return n * np.finfo(float).eps
