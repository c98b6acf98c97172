"""Laplace continued fraction for w(z) in the external domain.

    w(z) ~ (i/sqrt(pi)) / (z - (1/2)/(z - 1/(z - (3/2)/(z - ... - (N/2)/z))))

with partial numerators k/2 for k = 1..N, evaluated bottom-up in complex
arithmetic.  Convergence collapses for tiny Im(z) at moderate |z|; the
dispatcher keeps this branch outside the computing boundary, this module
itself never restricts its domain.

The array level loop, `run_levels`, has two callers.  `laplace_w` runs
it at one depth for the whole call.  The evaluator's external branch
(`scheme._external`) gives each point its own depth: `deepest_first`
orders its points deepest first, so level k updates, in place, the
prefix of points whose depth is at least k, and every point sees
exactly the levels and arithmetic of its own depth-N fraction.
`scheme` says why that branch runs on one float64 block per call (page
faults).

`laplace_point` is the one-point form, on numpy complex128 scalars: the
same bits as the array loop.  Python's `complex` division rounds
differently on about two of five random quotients, and a Smith
division written in floats, though it matched numpy's bits, cost more.
"""

import numbers

import numpy as np

_I_SQRT_PI = 1j / np.sqrt(np.pi)

# Largest call whose level quotients get a buffer of their own.  On small
# arrays numpy's overlap check makes an in-place ufunc call cost more than
# the buffer; on large ones the fresh buffer's page faults cost more (the
# two cross between 2048 and 4096 points on a 2-vCPU x86 VM, numpy 2.4).
_OWN_QUOTIENT_MAX = 2048


def deepest_first(depth):
    """Order a non-empty 1-d int8 row of depths 1..127 deepest first.

    Returns (order, top, joins): order is None when every point has the
    same depth, else the permutation putting deeper points first; top is
    the greatest depth; joins maps each depth k present to the number m
    of points of depth >= k, so level k and the levels below it, down to
    the next join, update the first m ordered points.
    """
    top = int(depth.max())
    if depth.min() == top:  # one depth: no sort
        return None, top, {top: depth.size}
    # a one-byte key, complemented so that ascending is deepest first:
    # numpy's stable sort on it is a radix sort, and the order comes out
    # contiguous, which keeps the gather and the scatter back cheap
    key = ~depth.view(np.uint8)
    order = np.argsort(key, kind="stable")
    # the points of depth >= k lead the order: find where they end in the sorted keys
    ends = np.searchsorted(key, ~np.arange(top, 0, -1, dtype=np.uint8), "right", order).tolist()
    joins, m = {}, 0
    for k, end in zip(range(top, 0, -1), ends):
        if end > m:
            joins[k] = m = end
    return order, top, joins


def run_levels(z, t, order, top, joins):
    """The fraction at the points z, ordered and cut as `deepest_first` gave.

    z holds the points deepest first, and t, like z, is the workspace;
    both are contiguous complex128.  Level k is t = z - (k/2)/t over
    the points of depth >= k.  Returns w in the points' own order: t,
    or z, overwritten, when `order` sorted them.
    """
    np.copyto(t, z)
    u = np.empty_like(t) if t.size <= _OWN_QUOTIENT_MAX else t
    for k in range(top, 0, -1):
        if k in joins:
            m = joins[k]
            th, uh, zh = t[:m], u[:m], z[:m]
        np.divide(0.5 * k, th, out=uh)
        np.subtract(zh, uh, out=th)
    np.divide(_I_SQRT_PI, t, out=t)
    if order is None:
        return t
    z[order] = t  # one scatter back, into the spent z
    return z


def laplace_point(z, n):
    """laplace_w(z, n) at one complex z != 0, on numpy complex128 scalars."""
    z = t = np.complex128(z)
    for k in range(n, 0, -1):
        t = z - (0.5 * k) / t
    return _I_SQRT_PI / t


def laplace_w(z, n_c):
    """Truncated Laplace continued fraction for w(z), depth n_c.

    z may be a complex scalar or ndarray; n_c is one positive integer for
    the whole call.  z = 0 is rejected (the leading denominator vanishes).
    """
    if not isinstance(n_c, numbers.Integral) or n_c < 1:
        raise ValueError(f"n_c must be a positive integer, got {n_c!r}")
    n_c = int(n_c)
    z = np.asarray(z, dtype=np.complex128)
    if (z == 0).any():
        raise ValueError("laplace_w is undefined at z = 0")
    zs = z.ravel()
    w = run_levels(zs, np.empty_like(zs), None, n_c, {n_c: zs.size})
    return w.reshape(z.shape) if z.ndim else complex(w[0])


def laplace_rel_error(z, n_c, ref):
    """Componentwise worst relative error of the depth-n_c fraction vs ref.

    max(|Re - Re_ref|/|Re_ref|, |Im - Im_ref|/|Im_ref|); undefined (raises)
    when either reference component is zero.
    """
    ref = complex(ref)
    if ref.real == 0.0 or ref.imag == 0.0:
        raise ValueError("reference components must both be nonzero")
    approx = laplace_w(z, n_c)
    return max(
        abs(approx.real - ref.real) / abs(ref.real),
        abs(approx.imag - ref.imag) / abs(ref.imag),
    )
