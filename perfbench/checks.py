"""Correctness check of a workload's outputs, run outside the timed region.

On a seeded subsample of the points a pass evaluated, each output is
compared with the multiprecision oracle `voigtw.oracle.ref_w` at the
paper's bounds, and the batch and scalar entry points must agree bit for
bit.  Finiteness of every output is checked by the timing loop itself.
"""

import mpmath as mp
import numpy as np

#: The paper's accuracy bounds: relative error of the real and imaginary part.
RE_TOL = 5e-13
IM_TOL = 2e-15

#: Oracle calls cost about a millisecond each.
SAMPLE = 200

# Below the smallest normal double a relative error stops meaning
# anything; the error is taken against this floor instead (K underflows
# to 0 for large |x| on the y = 0 axis).
_TINY = np.finfo(np.float64).tiny


def sample_points(calls, outputs, seed, size=SAMPLE):
    """A seeded subsample of (x, y, k, l) from one pass and its outputs."""
    xs = np.concatenate([np.atleast_1d(x) for x, _ in calls])
    ys = np.concatenate([np.full(np.size(x), y) for x, y in calls])
    ks = np.concatenate([np.atleast_1d(k) for k, _ in outputs])
    ls = np.concatenate([np.atleast_1d(l) for _, l in outputs])
    rng = np.random.default_rng([seed, 99])
    idx = rng.choice(xs.size, min(size, xs.size), replace=False)
    return xs[idx], ys[idx], ks[idx], ls[idx]


def _rel(approx, ref):
    return float(abs(mp.mpf(approx) - ref) / max(abs(ref), mp.mpf(_TINY)))


def check_sample(api, xs, ys, ks, ls, scalar):
    """Compare sampled outputs with the oracle and the other entry point.

    `scalar` says the outputs came from `eval_w`; they are then compared
    with `eval_w_batch` over the sampled points, and otherwise with
    `eval_w` point by point.  Returns the number of failing points and
    the worst errors, plus the oracle values for reuse.
    """
    from voigtw.oracle import ref_w

    failed = 0
    worst_re = worst_im = 0.0
    mismatches = 0
    refs = [None] * xs.size
    for y in np.unique(ys):
        sel = np.flatnonzero(ys == y)
        if scalar:
            other_k, other_l = api.eval_w_batch(xs[sel], float(y))
        else:
            pairs = [api.eval_w(float(x), float(y)) for x in xs[sel]]
            other_k = np.array([p[0] for p in pairs])
            other_l = np.array([p[1] for p in pairs])
        same = (np.asarray(other_k).view(np.uint64) == ks[sel].view(np.uint64)) & (
            np.asarray(other_l).view(np.uint64) == ls[sel].view(np.uint64)
        )
        for j, i in enumerate(sel):
            refs[i] = ref = ref_w(float(xs[i]), float(y))
            d_re = _rel(ks[i], ref.real)
            d_im = _rel(ls[i], ref.imag)
            worst_re = max(worst_re, d_re)
            worst_im = max(worst_im, d_im)
            ok = d_re <= RE_TOL and d_im <= IM_TOL and bool(same[j])
            mismatches += not same[j]
            failed += not ok
    return {
        "failed": failed,
        "worst_re": worst_re,
        "worst_im": worst_im,
        "bit_mismatches": mismatches,
        "refs": refs,
    }


def reference_errors(ks, ls, refs):
    """Worst real and imaginary relative error of any outputs against refs."""
    worst_re = max(_rel(k, r.real) for k, r in zip(ks, refs))
    worst_im = max(_rel(l, r.imag) for l, r in zip(ls, refs))
    return worst_re, worst_im
