"""Command-line front end: point evaluation, error maps, benchmarks,
and the empirical boundary search.

Subcommands:

* ``eval``     -- evaluate K and L at one point, optionally with oracle deltas,
                  and print the boundary z_c(y), x_c(y), the truncations
                  (N, N_D, N_C), the branch taken and its Dawson bin or
                  fraction depth
* ``errmap``   -- CSV of per-point relative errors vs the oracle over a grid,
                  with per-y max/mean aggregates
* ``bench``    -- seeded throughput report for internal / external points:
                  a batch line, then a scalar line timing eval_w on the first
                  2000 of the points, whose digest must equal the batch's
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

from .laplace import laplace_w
from .oracle import ref_w, rel_errors
from .scheme import (
    boundary_x_c,
    boundary_z_c,
    eval_w,
    eval_w_batch,
    point_branch,
    select_params,
)
from .taylor import Y_MAX

_EXIT_DOMAIN = 2


def _fmt(v):
    # shortest decimal that round-trips to the same double
    return repr(float(v))


def _grid(lo, hi, count, scale):
    if count < 1:
        raise ValueError("grid count must be >= 1")
    if not math.isfinite(hi - lo):  # NaN, inf or a span past the float range
        raise ValueError("grid bounds and their span must be finite")
    if lo > hi:
        raise ValueError("grid min must not exceed max")
    if count == 1:
        return np.asarray([lo], dtype=np.float64)
    if scale == "log":
        if lo <= 0:
            raise ValueError("log scale requires a positive minimum")
        return np.logspace(np.log10(lo), np.log10(hi), count)
    return np.linspace(lo, hi, count)


def cmd_eval(args):
    value = eval_w(args.x, args.y)
    print(f"K = {value.k:.16e}")
    print(f"L = {value.l:.16e}")
    if args.check:
        d_re, d_im = rel_errors(complex(value.k, value.l), ref_w(args.x, args.y))
        print(f"delta_re = {d_re:.3e}")
        print(f"delta_im = {d_im:.3e}")
    # y = 0 has no boundary: every x takes the series on the axis
    z_c, x_c = (boundary_z_c(args.y), boundary_x_c(args.y)) if args.y > 0.0 else (math.inf,) * 2
    print(f"z_c = {_fmt(z_c)}")
    print(f"x_c = {_fmt(x_c)}")
    print("N, N_D, N_C = {}, {}, {}".format(*select_params(args.y)))
    branch, evaluator, n = point_branch(args.x, args.y)
    print(f"branch = {branch}")
    print(f"{evaluator} = {n}")
    return 0


def cmd_errmap(args):
    xs = _grid(args.x_min, args.x_max, args.x_count, args.x_scale)
    ys = _grid(args.y_min, args.y_max, args.y_count, args.y_scale)
    if not 0.0 <= ys.min() <= ys.max() <= Y_MAX:  # both grids pass before --out is opened
        raise ValueError(f"y grid must stay inside [0, {Y_MAX}]")
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y", "delta_re", "delta_im"])
        summary = []
        for y in ys:
            k_arr, l_arr = eval_w_batch(xs, float(y))
            d_res, d_ims = [], []
            for x, k, l in zip(xs, k_arr, l_arr):
                d_re, d_im = rel_errors(complex(k, l), ref_w(float(x), float(y)))
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

    Internal points lie in [1e-6, x_c(y)) and external ones in
    [x_c(y), sqrt(4000^2 - y^2)], split at x_c(y) as the dispatcher splits
    them, so external points have |z| <= 4000.  At y = 0 every point takes
    the series: internal spans [1e-6, 4000], external is an error.
    """
    rng = np.random.default_rng(seed)
    x_max = math.sqrt(4000.0**2 - y * y)
    x_in = x_c = x_max  # y = 0: no boundary, every point takes the series
    if y > 0.0:
        x_c = boundary_x_c(y)  # the smallest x the dispatcher sends outside
        x_in = math.nextafter(x_c, 0.0)
    elif domain == "external":
        raise ValueError("y = 0 has no external domain")
    lo, hi = (1e-6, x_in) if domain == "internal" else (x_c, x_max)
    xs = np.exp(rng.uniform(math.log(lo), math.log(hi), count))
    # keep strictly inside the requested band despite rounding at the edges
    return np.clip(xs, lo, hi)


_BENCH_SCALAR_MAX = 2000


def _digest(xs, k, l):
    """First 16 hex digits of sha256 over the bytes of xs, K and L."""
    digest = hashlib.sha256()
    for a in (xs, k, l):
        digest.update(np.asarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()[:16]


def cmd_bench(args):
    """Per (y, domain): `bench,y,domain,count,digest,seconds,points/s` for
    one eval_w_batch call, then `bench-scalar,y,domain,m,digest,batch
    digest,us/call` for eval_w over the first m = min(count, 2000) points.
    The scalar line's two digests, over the same m inputs and outputs,
    are equal whenever eval_w gives eval_w_batch's bits.
    """
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
            print(
                f"bench,{_fmt(y)},{domain},{args.count},"
                f"{_digest(xs, k_arr, l_arr)},{seconds:.6f},"
                f"{args.count / seconds:.1f}"
            )
            m = min(args.count, _BENCH_SCALAR_MAX)
            head = xs[:m].tolist()
            t0 = time.perf_counter()
            values = [eval_w(x, y) for x in head]
            seconds = time.perf_counter() - t0
            k_pt, l_pt = zip(*values)
            print(
                f"bench-scalar,{_fmt(y)},{domain},{m},"
                f"{_digest(head, k_pt, l_pt)},{_digest(head, k_arr[:m], l_arr[:m])},"
                f"{seconds / m * 1e6:.3f}"
            )
    return 0


_BOUNDARY_EPS_RANGE = (1e-13, 1e-6)
_BOUNDARY_DEPTH_GRID = tuple(range(3, 42, 2))
_BOUNDARY_R_LO, _BOUNDARY_R_HI = 1.0, 30.0
_BOUNDARY_TOL = 0.005


def best_laplace_error(r, y):
    """Smallest achievable Delta_C at radius r, minimized over the depths 3, 5, ..., 41.

    Measured against the oracle, never against the internal branch.
    """
    x = float(np.sqrt(r * r - y * y))
    ref = ref_w(x, y)
    z = complex(x, y)
    return min(max(rel_errors(laplace_w(z, n), ref)) for n in _BOUNDARY_DEPTH_GRID)


def find_boundary(y, eps):
    """Empirical z_c: bisection for the smallest radius with Delta_C <= eps.

    The bracket starts at the radii [1, 30] and stops 0.005 wide; raises
    if Delta_C exceeds eps even at radius 30.
    """
    if not 0.0 < y <= Y_MAX:
        raise ValueError(f"y must lie in (0, {Y_MAX}], got {y}")
    if not _BOUNDARY_EPS_RANGE[0] <= eps <= _BOUNDARY_EPS_RANGE[1]:
        raise ValueError(
            f"eps must lie in [{_BOUNDARY_EPS_RANGE[0]}, {_BOUNDARY_EPS_RANGE[1]}]"
        )
    if best_laplace_error(_BOUNDARY_R_HI, y) > eps:
        raise ValueError(f"Delta_C above {eps} everywhere up to r={_BOUNDARY_R_HI}")
    lo, hi = _BOUNDARY_R_LO, _BOUNDARY_R_HI
    while hi - lo > _BOUNDARY_TOL:
        mid = 0.5 * (lo + hi)
        if best_laplace_error(mid, y) <= eps:
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

    p = sub.add_parser("errmap", help="CSV error map vs the oracle", description=(
        "Per-point errors vs the oracle over an x-y grid, then each y row's max and mean: "
        "per component |approx - ref| / max(|ref|, 2^-1022), ref unrounded (oracle.rel_errors)."))
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

    p = sub.add_parser("bench", help="seeded throughput report, batch and scalar")
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
