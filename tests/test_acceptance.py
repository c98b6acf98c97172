"""Acceptance gate: 12 criteria, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
are produced; under plain ``pytest`` they appear in captured output.

The grid criteria (3 and 4) are oracle-bound and take a few minutes;
everything else is seconds.
"""

import math
import time

import numpy as np
import pytest

from conftest import rel_err, ulps
from voigtw.cli import find_boundary, main
from voigtw.coeffs import get_tables, hermite_coeffs, p_closed_form
from voigtw.dawson import dawson_cf
from voigtw.laplace import laplace_w
from voigtw.oracle import ref_dawson, ref_erfcx, ref_w
from voigtw.scheme import (
    _PARAM_BANDS,
    boundary_z_c,
    eval_w,
    eval_w_batch,
    external_depth,
    select_params,
)
from voigtw.taylor import SeriesParams, eval_w_internal


def report(num, name, ok):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_coefficient_exactness():
    tables = get_tables(16)
    ok = all(
        tables.p_rows[m][k] == p_closed_form(m, k)
        for m in range(17)
        for k in range(m + 1)
    )
    q_expect = {
        0: [],
        1: [4],
        2: [40, -16],
        3: [528, -448, 64],
        4: [8928, -11840, 3456, -256],
        5: [185280, -337920, 150528, -22528, 1024],
        6: [4567680, -10671360, 6429696, -1456128, 133120, -4096],
        7: [
            130556160,
            -373416960,
            284691456,
            -86630400,
            11939840,
            -737280,
            16384,
        ],
    }
    ok = ok and all(list(tables.q_rows[m]) == q_expect[m] for m in range(8))

    # three-term recurrence oracle for the odd Hermite rows
    h_prev, h_cur = [1], [0, 2]
    rec = {1: list(h_cur)}
    for n in range(2, 34):
        nxt = [0] * (n + 1)
        for k, c in enumerate(h_cur):
            nxt[k + 1] += 2 * c
        for k, c in enumerate(h_prev):
            nxt[k] -= 2 * (n - 1) * c
        h_prev, h_cur = h_cur, nxt
        if n % 2 == 1:
            rec[n] = list(nxt)
    ok = ok and all(
        list(hermite_coeffs(n)) == rec[n][1::2] and all(c == 0 for c in rec[n][0::2])
        for n in range(1, 34, 2)
    )
    report(1, "coefficient exactness", ok)


# ---------------------------------------------------------------- criterion 2


def test_criterion_02_dawson_accuracy():
    rng = np.random.default_rng(2)
    xs = np.concatenate(
        [
            np.linspace(1e-4, 22.0, 5000),
            np.exp(rng.uniform(np.log(1e-6), np.log(22.0), 5000)),
        ]
    )
    vals = dawson_cf(xs, 61)
    worst = max(rel_err(v, ref_dawson(float(x))) for x, v in zip(xs, vals))
    # the fraction's depth-independent rounding floor over 1e4 points
    # reaches ~2.8 ulp at a handful of them
    report(2, "Dawson accuracy over 1e4 points", worst <= ulps(3))


# ---------------------------------------------------------- criteria 3 and 4

_GRID_CACHE = {}


def _grid_errors():
    """Componentwise relative errors of the full scheme on the 200x30 grid."""
    if "rows" in _GRID_CACHE:
        return _GRID_CACHE["rows"]
    xs = np.concatenate(
        [np.linspace(0.0, 4000.0, 100), np.logspace(-6, np.log10(4000.0), 100)]
    )
    ys = np.logspace(-100, np.log10(0.1), 30)
    rows = []
    for y in ys:
        k_arr, l_arr = eval_w_batch(xs, float(y))
        d_res, d_ims = [], []
        for x, k, l in zip(xs, k_arr, l_arr):
            ref = ref_w(float(x), float(y))
            d_res.append(float(abs(k - ref.real) / abs(ref.real)))
            if x != 0.0:  # L vanishes on the imaginary axis
                d_ims.append(float(abs(l - ref.imag) / abs(ref.imag)))
        rows.append((float(y), d_res, d_ims))
    _GRID_CACHE["rows"] = rows
    return rows


def test_criterion_03_real_part_accuracy():
    rows = _grid_errors()
    worst = max(max(d_res) for _, d_res, _ in rows)
    worst_mean = max(sum(d_res) / len(d_res) for _, d_res, _ in rows)
    report(3, "real part max/mean on 200x30 grid", worst <= 5e-13 and worst_mean <= 1e-15)


def test_criterion_04_imag_part_accuracy():
    rows = _grid_errors()
    worst = max(max(d_ims) for _, _, d_ims in rows)
    worst_mean = max(sum(d_ims) / len(d_ims) for _, _, d_ims in rows)
    report(4, "imag part max/mean on 200x30 grid", worst <= 2e-15 and worst_mean <= 1e-15)


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_boundary_continuity():
    ok = True
    for y in (1e-1, 1e-4, 1e-10, 1e-30):
        z_c = boundary_z_c(y, 1e-16)
        params = select_params(y, 1e-16)
        for dr in np.linspace(-1e-6, 1e-6, 100):
            r = z_c + dr
            x = float(np.sqrt(r * r - y * y))
            ki, li = eval_w_internal(x, y, params)
            we = laplace_w(complex(x, y), max(external_depth(r), params.n_c))
            ok = ok and abs(ki - we.real) / abs(we.real) <= 1e-13
            ok = ok and abs(li - we.imag) / abs(we.imag) <= 1e-15
    report(5, "internal/external continuity at z_c", ok)


# ---------------------------------------------------------------- criterion 6


def test_criterion_06_derivative_relation():
    h = 1e-6
    ok = True
    for y in (0.01, 0.05, 0.09):
        for x in (0.5, 1.0, 2.0, 5.0):
            k, l = eval_w(x, y)
            fd = (eval_w(x, y + h).l - eval_w(x, y - h).l) / (2 * h)
            expect = 2 * y * l - 2 * x * k
            ok = ok and abs(fd - expect) / abs(expect) <= 1e-6
    report(6, "derivative relation at 12 points", ok)


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_axis_exactness():
    xs = np.linspace(0.0, 4000.0, 1000)
    k, l = eval_w_batch(xs, 0.0)
    n_d = select_params(0.0, 1e-16).n_d
    ok = np.array_equal(k, np.exp(-xs * xs))
    ok = ok and np.array_equal(l, (2 / np.sqrt(np.pi)) * dawson_cf(xs, n_d))
    ys = np.logspace(-30, np.log10(0.1), 100)
    ok = ok and all(
        rel_err(eval_w(0.0, float(y)).k, ref_erfcx(float(y))) <= 1e-15 for y in ys
    )
    report(7, "axis exactness", ok)


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_parameter_table_fidelity():
    ok = True
    for level, bands in _PARAM_BANDS.items():
        for i, band in enumerate(bands[1:], start=1):
            lower = band[0]
            ok = ok and select_params(lower, level) == SeriesParams(*band[1:])
            below = np.nextafter(lower, 0)
            ok = ok and select_params(below, level) == SeriesParams(*bands[i - 1][1:])
    report(8, "parameter table row boundaries", ok)


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_boundary_formula_fidelity():
    ok = abs(boundary_z_c(0.1, 1e-16) - 6.6507) <= 0.01
    ok = ok and abs(boundary_z_c(1e-20, 1e-100) - 16.79) <= 0.01
    report(9, "computing boundary spot values", ok)


# --------------------------------------------------------------- criterion 10


def test_criterion_10_boundary_finder_sanity():
    found = find_boundary(0.1, 1e-13)
    ok = found <= boundary_z_c(0.1, 1e-16) + 0.01
    # looser targets never push the boundary outward
    ok = ok and find_boundary(1e-4, 1e-7) <= find_boundary(1e-4, 1e-12) + 0.005
    # smaller y never pulls it inward
    ok = ok and find_boundary(1e-6, 1e-13) >= found - 0.005
    report(10, "empirical boundary finder", ok)


# --------------------------------------------------------------- criterion 11


def test_criterion_11_throughput(capsys):
    ok = True
    rng = np.random.default_rng(11)
    y = 1e-8
    for lo, hi in [(1e-6, 21.9), (22.0, 4000.0)]:
        xs = np.exp(rng.uniform(np.log(lo), np.log(hi), 1_000_000))
        t0 = time.perf_counter()
        k, l = eval_w_batch(xs, y)
        seconds = time.perf_counter() - t0
        ok = ok and seconds <= 10.0
        ok = ok and bool(np.all(np.isfinite(k)) and np.all(np.isfinite(l)))
    code = main(["bench", "--count", "1000000", "--y", "1e-8"])
    out = capsys.readouterr().out
    with capsys.disabled():
        # one batch line per domain, each followed by its bench-scalar line
        lines = out.splitlines()
        ok = ok and code == 0 and len(lines) == 4
        ok = ok and [line.split(",")[0] for line in lines] == ["bench", "bench-scalar"] * 2
        for line in lines[::2]:
            ok = ok and float(line.split(",")[5]) <= 10.0
        report(11, "1e6-point throughput per domain", ok)


# --------------------------------------------------------------- criterion 12


def test_criterion_12_determinism(tmp_path, capsys):
    argv = [
        "errmap",
        "--x-min", "0.1", "--x-max", "100.0", "--x-count", "5",
        "--x-scale", "log",
        "--y-min", "1e-10", "--y-max", "0.1", "--y-count", "3",
    ]
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(argv + ["--out", str(path)]) == 0
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1]

    bench_argv = ["bench", "--count", "500", "--y", "0.05", "--seed", "42"]
    lines = []
    for _ in range(2):
        assert main(bench_argv) == 0
        lines.append(capsys.readouterr().out.splitlines())
    for a, b in zip(*lines):
        # everything up to the checksum must match; timing fields may not
        ok = ok and a.split(",")[:5] == b.split(",")[:5]
    with capsys.disabled():
        report(12, "seeded determinism of errmap/bench", ok)
