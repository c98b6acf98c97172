"""Benchmark of the voigtw evaluator: closed loop, one process, one thread.

    python3 perfbench/run.py --workload core --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, each in a fresh process

Runs from the root of a source checkout and imports voigtw from its
`src/` directory; it exits with status 1 when that package is missing.
One run measures one workload (see workloads.py) and does, in order:

1. set-up: SETUP_PROBES fresh interpreters each time `import voigtw`
   to the first result (setup_probe.py); the median is `setup_s`;
2. one untimed warm-up pass, then, with --trace 0, one untimed pass
   under tracemalloc for `peak_mem_mb`;
3. timed passes until --seconds have gone by, with at least MIN_PASSES
   passes and MIN_CALLS calls.  Each call into the public API is timed
   on its own and every output is checked to be finite.  With --trace 1
   the passes alternate between untraced and traced (tracing.py);
4. the correctness check (checks.py) on a seeded sample of the first
   timed pass and, with --trace 0 on the batch workloads, the
   scipy.special.wofz reference where scipy exists.

Every time is scaled to the reference machine speed with the speed
factor taken right after the pass or probe it belongs to (speed.py);
the unscaled throughput is printed beside it.  The metrics returned are
those BENCHMARK.json declares, with its units, for --trace 0 its
end-to-end metrics and for --trace 1 its per-layer ones.

It prints the metrics by name with their units, then, as the last line,
one JSON object with keys correct, attempted, failed and metrics.
`attempted` counts the points evaluated by the timed passes and `failed`
those that were not finite or failed the check; their ratio is the
failure fraction.  Spans of a traced run go to .bench_out/ as CSV.
"""

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import checks
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 15
MIN_PASSES = 3
#: Of a thousand calls, ten lie beyond the 99th percentile.
MIN_CALLS = 1000

#: Printed but not gated, so not in BENCHMARK.json: on a shared machine
#: other tenants' stalls set the slowest percent of calls, and the run's
#: p99 moved by a quarter between runs of the same code.
UNGATED = {"call_us_p99": "us"}


def declared_metrics():
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def load_program():
    """Import voigtw from the checkout's src/, never from anywhere else."""
    if not (SRC / "voigtw" / "__init__.py").is_file():
        sys.exit(f"run.py: no voigtw package under {SRC}; run from a voigtw checkout")
    sys.path.insert(0, str(SRC))
    import voigtw
    import voigtw.scheme
    import voigtw.taylor

    if Path(voigtw.__file__).resolve().parent != SRC / "voigtw":
        sys.exit(f"run.py: imported voigtw from {voigtw.__file__}, not from {SRC}")
    return voigtw, {m: sys.modules[m] for m in ("voigtw", "voigtw.scheme", "voigtw.taylor")}


def probe_setup(count=SETUP_PROBES):
    """Run the set-up probe in `count` fresh interpreters; one dict per probe."""
    results = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        results.append(json.loads(done.stdout.splitlines()[-1]))
    return results


def run_pass(api, calls, scalar, latencies=None, keep=False):
    """Evaluate one pass.

    Returns (outputs or None, summed call time in ns, non-finite points).
    Per-call latencies in ns are appended to `latencies` when given.
    """
    clock = time.perf_counter_ns
    # looked up per pass, so a tracer entered around the pass is seen
    evaluate = api.eval_w if scalar else api.eval_w_batch
    outputs = [] if keep else None
    total_ns = 0
    bad = 0
    for x, y in calls:
        t0 = clock()
        k, l = evaluate(x, y)
        dt = clock() - t0
        bad += int(np.size(k) - np.count_nonzero(np.isfinite(k) & np.isfinite(l)))
        total_ns += dt
        if latencies is not None:
            latencies.append(dt)
        if keep:
            outputs.append((k, l))
    return outputs, total_ns, bad


class Measurement:
    """Results of the timed passes of one run; times scaled to the reference speed."""

    def __init__(self):
        self.latencies = []
        self.rates = []
        self.raw_rates = []
        self.factors = []
        self.traced_rates = []
        self.profiles = []
        self.attempted = 0
        self.nonfinite = 0
        self.first_calls = None
        self.first_outputs = None


def measure(api, modules, workload, seconds, trace):
    """Timed passes for `seconds`; with `trace`, every other pass is traced."""
    m = Measurement()
    tracer = tracing.Tracer(modules) if trace else None
    gc.collect()
    start = time.perf_counter()
    n = 0
    while (
        n < MIN_PASSES * (2 if trace else 1)
        or (not trace and len(m.latencies) < MIN_CALLS)
        or time.perf_counter() - start < seconds
    ):
        calls = workload.next_pass()
        points = workloads.pass_points(calls)
        traced = trace and n % 2 == 1
        if traced:
            with tracer:
                first = len(tracer.spans)
                before = dict(tracer.counts)
                _, ns, bad = run_pass(api, calls, workload.scalar)
            factor = speed.factor()
            m.profiles.append(
                tracing.pass_profile(tracer.spans, first, before, tracer.counts, points, factor)
            )
            m.traced_rates.append(points / ns * 1e9 / factor)
        else:
            keep = m.first_calls is None
            latencies = []
            outputs, ns, bad = run_pass(api, calls, workload.scalar, latencies, keep)
            factor = speed.factor()
            if keep:
                m.first_calls, m.first_outputs = calls, outputs
            m.latencies.extend(dt * factor for dt in latencies)
            m.raw_rates.append(points / ns * 1e9)
            m.rates.append(m.raw_rates[-1] / factor)
            m.factors.append(factor)
        m.attempted += points
        m.nonfinite += bad
        n += 1
    return m, tracer


def peak_memory_mb(api, workload):
    """tracemalloc peak of one untimed pass, in MB."""
    calls = workload.next_pass()
    gc.collect()
    tracemalloc.start()
    try:
        run_pass(api, calls, workload.scalar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def scipy_reference(calls, sample, refs):
    """Throughput and worst errors of scipy.special.wofz on the same inputs."""
    try:
        from scipy.special import wofz
    except ImportError:
        return None
    rates = []
    for _ in range(3):
        total_ns = 0
        for x, y in calls:
            z = x + 1j * y
            t0 = time.perf_counter_ns()
            wofz(z)
            total_ns += time.perf_counter_ns() - t0
        rates.append(workloads.pass_points(calls) / total_ns * 1e9 / speed.factor())
    xs, ys = sample[0], sample[1]
    w = wofz(xs + 1j * ys)
    worst_re, worst_im = checks.reference_errors(w.real, w.imag, refs)
    return {"pts_per_s": statistics.median(rates), "worst_re": worst_re, "worst_im": worst_im}


def run_workload(name, seed, seconds, trace):
    """One workload in this process; returns (result dict, report lines)."""
    api, modules = load_program()
    end_to_end, per_layer = declared_metrics()
    phases = {}
    t0 = time.perf_counter()
    setup = probe_setup()
    workload = workloads.Workload(name, seed, api.boundary_z_c)
    run_pass(api, workload.next_pass(), workload.scalar)  # warm-up
    t1 = time.perf_counter()
    # before the timed passes, so the coefficient cache is the same size on every run
    peak_mb = None if trace else peak_memory_mb(api, workload)
    t2 = time.perf_counter()
    m, tracer = measure(api, modules, workload, seconds, trace)
    t3 = time.perf_counter()
    phases.update(setup=t1 - t0, memory=t2 - t1, timed=t3 - t2)

    if trace:
        computed = {key: statistics.median(p[key] for p in m.profiles) for key in m.profiles[0]}
        computed["coeffs.tables_s"] = statistics.median(s["tables_s"] * s["speed"] for s in setup)
        computed["trace.overhead"] = statistics.median(m.traced_rates) / statistics.median(m.rates)
        units = per_layer
    else:
        latency_us = np.array(m.latencies) * 1e-3
        computed = {
            "setup_s": statistics.median(s["setup_s"] * s["speed"] for s in setup),
            "pts_per_s": statistics.median(m.rates),
            "call_us_p50": float(np.median(latency_us)),
            "call_us_p99": float(np.percentile(latency_us, 99)),
            "peak_mem_mb": peak_mb,
        }
        units = end_to_end
    metrics = {key: computed[key] for key in units}
    ungated = {key: value for key, value in computed.items() if key in UNGATED and key not in units}

    sample = checks.sample_points(m.first_calls, m.first_outputs, seed)
    check = checks.check_sample(api, *sample, workload.scalar)
    failed = int(m.nonfinite + check["failed"])
    phases["check"] = time.perf_counter() - t3

    lines = [
        f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}",
        f"  timed passes {len(m.rates) + len(m.traced_rates)}  calls timed {len(m.latencies)}"
        f"  points {m.attempted}",
    ]
    lines += [f"  {key:<24} {value:.6g} {units[key]}" for key, value in metrics.items()]
    lines += [f"  {key:<24} {value:.6g} {UNGATED[key]} (not gated)" for key, value in ungated.items()]
    if m.factors:
        lines.append(
            f"  machine speed factor {statistics.median(m.factors):.3f} (median over passes);"
            f" unscaled pts_per_s {statistics.median(m.raw_rates):.6g} points/s"
        )
    lines += [
        f"  fail_frac                {failed / m.attempted:.6g} ratio"
        f"  ({failed} of {m.attempted} points: {m.nonfinite} not finite,"
        f" {check['failed']} of {sample[0].size} sampled failed the oracle or bit-identity check)",
        f"  check: worst re err {check['worst_re']:.3g} (bound {checks.RE_TOL:g}),"
        f" worst im err {check['worst_im']:.3g} (bound {checks.IM_TOL:g}),"
        f" batch/scalar bit mismatches {check['bit_mismatches']}",
    ]
    if trace:
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans_{name}_seed{seed}.csv"
        tracer.write(span_file)
        lines.append(f"  spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
        absent = list(tracer.absent)
        if not all(s["tables_found"] for s in setup):
            absent.append("taylor.get_tables")
        if absent:
            lines.append(f"  absent spans or counts (reported as 0): {', '.join(absent)}")
    elif not workload.scalar:
        ref = scipy_reference(m.first_calls, sample, check["refs"])
        if ref is not None:
            lines += [
                "  reference (scipy.special.wofz, same inputs, not gated):",
                f"    pts_per_s {ref['pts_per_s']:.6g} points/s,"
                f" worst re err {ref['worst_re']:.3g}, worst im err {ref['worst_im']:.3g}",
            ]
    phases["total"] = time.perf_counter() - t0
    lines.append("  phase seconds: " + ", ".join(f"{k} {v:.2f}" for k, v in phases.items()))
    result = {
        "correct": failed == 0,
        "attempted": int(m.attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def run_all(seed, seconds, trace):
    """Every workload, each in a fresh process so no state crosses between them."""
    results = {}
    for name in workloads.NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        out = done.stdout.splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not out:
            sys.exit(f"run.py: workload {name} exited with status {done.returncode}")
        print("\n".join(out[:-1]), flush=True)
        results[name] = json.loads(out[-1])
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        results = run_all(args.seed, args.seconds, args.trace)
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
