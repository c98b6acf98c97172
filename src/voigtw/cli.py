"""Command-line front end: point evaluation, error maps, benchmarks,
and the empirical boundary search.

Subcommands:

* ``eval``     -- evaluate K and L at one point, optionally with oracle deltas
* ``errmap``   -- CSV of per-point relative errors vs the oracle over a grid,
                  with per-y max/mean aggregates
* ``bench``    -- seeded throughput report for internal / external points
* ``boundary`` -- bisection for the empirical computing boundary at a given
                  accuracy target

Exit status is 0 on success and 2 on a domain/validation error.  CSV output
is byte-deterministic for fixed flags and seed (timing fields excluded).
"""

import argparse
import csv
import hashlib
import math
import sys
import time

import numpy as np

from .laplace import laplace_rel_error
from .oracle import ref_w, rel_errors
from .scheme import boundary_z_c, eval_w, eval_w_batch, select_params
from .taylor import Y_MAX

_EXIT_DOMAIN = 2


def _fmt(v):
    # shortest decimal that round-trips to the same double
    return repr(float(v))


def _grid(lo, hi, count, scale):
    if count < 1:
        raise ValueError("grid count must be >= 1")
    if lo > hi:
        raise ValueError("grid min must not exceed max")
    if count == 1:
        return np.asarray([lo], dtype=np.float64)
    if scale == "log":
        if lo <= 0:
            raise ValueError("log scale requires a positive minimum")
        return np.logspace(np.log10(lo), np.log10(hi), count)
    return np.linspace(lo, hi, count)


def _point_deltas(k, l, ref):
    """Per-component relative errors, tolerating an exactly-zero reference
    component (then 0 if the approximation is also zero, inf otherwise)."""
    ref_re, ref_im = float(ref.real), float(ref.imag)
    if ref_im == 0.0:
        d_im = 0.0 if l == 0.0 else float("inf")
        return abs(k - ref_re) / abs(ref_re), d_im
    rep = rel_errors(complex(k, l), ref)
    return rep.delta_re, rep.delta_im


def cmd_eval(args):
    value = eval_w(args.x, args.y)
    print(f"K = {value.k:.16e}")
    print(f"L = {value.l:.16e}")
    if args.check:
        ref = ref_w(args.x, args.y)
        d_re, d_im = _point_deltas(value.k, value.l, ref)
        print(f"delta_re = {d_re:.3e}")
        print(f"delta_im = {d_im:.3e}")
    return 0


def cmd_errmap(args):
    xs = _grid(args.x_min, args.x_max, args.x_count, args.x_scale)
    ys = _grid(args.y_min, args.y_max, args.y_count, args.y_scale)
    if ys.min() < 0 or ys.max() > Y_MAX:
        raise ValueError(f"y grid must stay inside [0, {Y_MAX}]")
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y", "delta_re", "delta_im"])
        summary = []
        for y in ys:
            k_arr, l_arr = eval_w_batch(xs, float(y))
            d_res, d_ims = [], []
            for x, k, l in zip(xs, k_arr, l_arr):
                d_re, d_im = _point_deltas(k, l, ref_w(float(x), float(y)))
                d_res.append(d_re)
                d_ims.append(d_im)
                writer.writerow([_fmt(x), _fmt(y), _fmt(d_re), _fmt(d_im)])
            summary.append(
                (
                    _fmt(y),
                    _fmt(max(d_res)),
                    _fmt(max(d_ims)),
                    _fmt(sum(d_res) / len(d_res)),
                    _fmt(sum(d_ims) / len(d_ims)),
                )
            )
        writer.writerow(["y", "e_re", "e_im", "mean_re", "mean_im"])
        writer.writerows(summary)
    return 0


def bench_points(y, domain, count, seed):
    """Seeded log-uniform x sample for one bench domain.

    Internal points satisfy |z| < z_c(y), external z_c(y) <= |z| <= 4000,
    with |z| = hypot(x, y) as the dispatcher computes it.  At y = 0 every
    point takes the series: internal spans [1e-6, 4000], external is an error.
    """
    rng = np.random.default_rng(seed)
    x_max = math.sqrt(4000.0**2 - y * y)
    x_in = x_c = x_max  # y = 0: no boundary, every point takes the series
    if y > 0.0:
        # x_c: the smallest x the dispatcher sends to the Laplace fraction
        z_c = boundary_z_c(y)
        x_c = math.sqrt(z_c * z_c - y * y)
        while np.hypot(x_c, y) < z_c:
            x_c = math.nextafter(x_c, math.inf)
        while np.hypot(x_in := math.nextafter(x_c, 0.0), y) >= z_c:
            x_c = x_in
    elif domain == "external":
        raise ValueError("y = 0 has no external domain")
    lo, hi = (1e-6, x_in) if domain == "internal" else (x_c, x_max)
    xs = np.exp(rng.uniform(math.log(lo), math.log(hi), count))
    # keep strictly inside the requested band despite rounding at the edges
    return np.clip(xs, lo, hi)


def cmd_bench(args):
    if args.count < 1:
        raise ValueError("count must be >= 1")
    domains = ["internal", "external"] if args.domain == "both" else [args.domain]
    for y in args.y:
        if not 0.0 <= y <= Y_MAX:
            raise ValueError(f"y must lie in [0, {Y_MAX}], got {y}")
        for domain in domains if y > 0.0 else domains[:1]:  # y = 0: no external
            xs = bench_points(y, domain, args.count, args.seed)
            t0 = time.perf_counter()
            k_arr, l_arr = eval_w_batch(xs, y)
            seconds = time.perf_counter() - t0
            digest = hashlib.sha256()
            digest.update(xs.tobytes())
            digest.update(np.asarray(k_arr).tobytes())
            digest.update(np.asarray(l_arr).tobytes())
            print(
                f"bench,{_fmt(y)},{domain},{args.count},"
                f"{digest.hexdigest()[:16]},{seconds:.6f},"
                f"{args.count / seconds:.1f}"
            )
    return 0


_BOUNDARY_EPS_RANGE = (1e-13, 1e-6)
_BOUNDARY_DEPTH_GRID = tuple(range(2, 42, 2))


def best_laplace_error(r, y, extra_depth):
    """Smallest achievable Delta_C at radius r, minimized over a depth grid.

    Measured against the oracle, never against the internal branch.
    """
    x = float(np.sqrt(r * r - y * y))
    ref = complex(ref_w(x, y))
    z = complex(x, y)
    depths = set(_BOUNDARY_DEPTH_GRID) | {extra_depth}
    return min(laplace_rel_error(z, n, ref) for n in sorted(depths))


def find_boundary(y, eps, r_lo=1.0, r_hi=30.0, tol=0.005):
    """Empirical z_c: bisection for the smallest radius with Delta_C <= eps."""
    if not 0.0 < y <= Y_MAX:
        raise ValueError(f"y must lie in (0, {Y_MAX}], got {y}")
    if not _BOUNDARY_EPS_RANGE[0] <= eps <= _BOUNDARY_EPS_RANGE[1]:
        raise ValueError(
            f"eps must lie in [{_BOUNDARY_EPS_RANGE[0]}, {_BOUNDARY_EPS_RANGE[1]}]"
        )
    n_c = select_params(y, 1e-16).n_c
    if best_laplace_error(r_hi, y, n_c) > eps:
        raise ValueError(f"Delta_C above {eps} everywhere up to r={r_hi}")
    lo, hi = r_lo, r_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if best_laplace_error(mid, y, n_c) <= eps:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def cmd_boundary(args):
    z_c = find_boundary(args.y, args.eps)
    print(f"boundary,{_fmt(args.y)},{_fmt(args.eps)},{z_c:.4f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="voigtw",
        description="Voigt/complex error function for small imaginary argument",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate K and L at one point")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--check", action="store_true", help="also print oracle deltas")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("errmap", help="CSV error map vs the oracle")
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--x-count", type=int, required=True)
    p.add_argument("--x-scale", choices=["linear", "log"], default="linear")
    p.add_argument("--y-min", type=float, required=True)
    p.add_argument("--y-max", type=float, required=True)
    p.add_argument("--y-count", type=int, required=True)
    p.add_argument("--y-scale", choices=["linear", "log"], default="log")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_errmap)

    p = sub.add_parser("bench", help="seeded throughput report")
    p.add_argument("--count", type=int, default=1_000_000)
    p.add_argument("--y", type=float, action="append", required=True)
    p.add_argument("--domain", choices=["internal", "external", "both"],
                   default="both")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("boundary", help="empirical computing boundary")
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=cmd_boundary)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
