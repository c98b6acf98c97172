
import mpmath as mp
import numpy as np
import pytest

from voigtw.cli import bench_points, find_boundary, main
from voigtw.scheme import (
    boundary_x_c,
    boundary_z_c,
    eval_w,
    external_depth,
    select_params,
)


class TestEval:
    def test_prints_k_and_l(self, capsys):
        assert main(["eval", "--x", "1.0", "--y", "0.05"]) == 0
        out = capsys.readouterr().out.splitlines()
        k, l = eval_w(1.0, 0.05)
        assert out[0] == f"K = {k:.16e}"
        assert out[1] == f"L = {l:.16e}"

    def test_check_reports_small_deltas(self, capsys):
        assert main(["eval", "--x", "2.0", "--y", "0.01", "--check"]) == 0
        out = capsys.readouterr().out.splitlines()
        deltas = [float(line.split("=")[1]) for line in out[2:4]]
        assert out[2].startswith("delta_re = ")
        assert out[3].startswith("delta_im = ")
        assert all(d <= 1e-13 for d in deltas)

    def test_y_zero_check_handles_exact_axis(self, capsys):
        # K(3, 0) is the double nearest e^-9, and the check reads its
        # rounding error against the unrounded reference, not 0
        assert main(["eval", "--x", "3.0", "--y", "0.0", "--check"]) == 0
        out = capsys.readouterr().out.splitlines()
        with mp.workdps(40):
            k = mp.exp(-9)
            want = abs(mp.mpf(float(k)) - k) / k
        assert out[2] == f"delta_re = {float(want):.3e}" == "delta_re = 9.494e-17"

    def test_check_where_k_underflows(self, capsys):
        # K(1e12, 1e-300) is far below the smallest normal: its error is
        # measured against 2^-1022, not against the underflowing K
        assert main(["eval", "--x", "1e12", "--y", "1e-300", "--check"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[2].split("=")[1]) <= 5e-13

    def test_check_past_the_dawson_table(self, capsys):
        # below y = 8.29e-191 the series stops at the table's end, 27.3046875,
        # and the fraction takes (60, 1e-300) to within 2e-15
        assert main(["eval", "--x", "60", "--y", "1e-300", "--check"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[5] == "x_c = 27.3046875" and out[-2] == "branch = external"
        assert float(out[2].split("=")[1]) <= 2e-15

    @pytest.mark.parametrize(
        "x, y, branch, line",
        [
            (1.0, 0.05, "internal", "dawson_bin = 128"),
            (-5.0, 1e-8, "internal", "dawson_bin = 640"),
            # a bin past 17.5, inside z_c only for y below about 1e-110
            (20.0, 1e-300, "internal", "dawson_bin = 2560"),
            # the profile's depth, rounded up to odd as the fraction runs it
            (30.0, 0.01, "external", f"laplace_depth = {external_depth(30.0) | 1}"),
            # the first x outside, at the deepest Laplace step
            (boundary_x_c(0.05), 0.05, "external", "laplace_depth = 21"),
            (3.0, 0.0, "axis", "dawson_depth = 61"),
        ],
    )
    @pytest.mark.parametrize("check", [[], ["--check"]])
    def test_reports_branch_and_depth(self, x, y, branch, line, check, capsys):
        assert main(["eval", f"--x={x!r}", "--y", repr(y), *check]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == [f"branch = {branch}", line]
        assert len(out) == 7 + len(check) * 2

    @pytest.mark.parametrize("y", [1e-300, 1e-8, 0.05, 0.1, 0.0])
    def test_reports_boundary_and_truncations(self, y, capsys):
        assert main(["eval", "--x", "1.0", "--y", repr(y)]) == 0
        out = capsys.readouterr().out.splitlines()
        z_c, x_c = (boundary_z_c(y), boundary_x_c(y)) if y > 0.0 else (float("inf"),) * 2
        n = select_params(y)
        # repr round-trips, so the printed x_c is the first x sent outside
        assert out[2:5] == [f"z_c = {z_c!r}", f"x_c = {x_c!r}", f"N, N_D, N_C = {n.n}, {n.n_d}, {n.n_c}"]

    @pytest.mark.parametrize("command", ["eval", "errmap"])
    def test_no_accuracy_flag(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = capsys.readouterr().out
        assert "--y" in help_text and "--accuracy" not in help_text

    @pytest.mark.parametrize("y", ["0.2", "-0.01"])
    def test_domain_error_exits_2(self, y, capsys):
        assert main(["eval", "--x", "1.0", "--y", y]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("y", ["0.0", "1e-3"])
    @pytest.mark.parametrize("x", ["inf", "-inf", "nan"])
    def test_nonfinite_x_exits_2_without_a_branch(self, x, y, capsys):
        assert main(["eval", f"--x={x}", "--y", y]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: x must be finite\n"


def run_errmap(tmp_path, name, extra=()):
    out = tmp_path / name
    argv = [
        "errmap",
        "--x-min", "0.5", "--x-max", "5.0", "--x-count", "4",
        "--y-min", "1e-4", "--y-max", "0.1", "--y-count", "3",
        "--out", str(out),
        *extra,
    ]
    assert main(argv) == 0
    return out.read_bytes()


class TestErrmap:
    def test_structure_and_aggregates(self, tmp_path):
        lines = run_errmap(tmp_path, "m.csv").decode().splitlines()
        assert lines[0] == "x,y,delta_re,delta_im"
        data = [line.split(",") for line in lines[1 : 1 + 12]]
        assert len(data) == 12
        assert lines[13] == "y,e_re,e_im,mean_re,mean_im"
        summary = [line.split(",") for line in lines[14:]]
        assert len(summary) == 3
        # aggregates must be recomputable from the data rows
        for row in summary:
            y = row[0]
            d_res = [float(r[2]) for r in data if r[1] == y]
            d_ims = [float(r[3]) for r in data if r[1] == y]
            assert len(d_res) == 4
            assert float(row[1]) == max(d_res)
            assert float(row[2]) == max(d_ims)
            assert float(row[3]) == sum(d_res) / 4
            assert float(row[4]) == sum(d_ims) / 4

    def test_errors_within_advertised_bounds(self, tmp_path):
        lines = run_errmap(tmp_path, "b.csv").decode().splitlines()
        for line in lines[1:13]:
            _, _, d_re, d_im = line.split(",")
            assert float(d_re) <= 5e-13
            assert float(d_im) <= 2e-15

    def test_axis_where_k_underflows(self, tmp_path):
        # on y = 0, K = e^-x^2 underflows to 0 from |x| = 27.3 on, the
        # correctly rounded value: it reads no error there
        out = tmp_path / "axis.csv"
        argv = ["errmap", "--x-min", "0", "--x-max", "40", "--x-count", "9",
                "--y-min", "0", "--y-max", "0", "--y-count", "1", "--out", str(out)]
        assert main(argv) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:10]]
        assert [float(r[0]) for r in rows] == list(range(0, 41, 5))
        assert all(float(r[2]) <= 5e-13 for r in rows)

    def test_byte_deterministic(self, tmp_path):
        a = run_errmap(tmp_path, "a.csv")
        b = run_errmap(tmp_path, "b.csv")
        assert a == b

    def test_single_cell_grid(self, tmp_path):
        out = tmp_path / "one.csv"
        argv = [
            "errmap",
            "--x-min", "1.0", "--x-max", "1.0", "--x-count", "1",
            "--y-min", "0.05", "--y-max", "0.05", "--y-count", "1",
            "--out", str(out),
        ]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        d_re = float(lines[1].split(",")[2])
        assert float(lines[3].split(",")[1]) == d_re

    def test_rejects_y_above_limit(self, tmp_path, capsys):
        argv = [
            "errmap",
            "--x-min", "0.0", "--x-max", "1.0", "--x-count", "2",
            "--y-min", "0.01", "--y-max", "0.2", "--y-count", "2",
            "--out", str(tmp_path / "x.csv"),
        ]
        assert main(argv) == 2
        assert "y grid" in capsys.readouterr().err

    def test_rejects_log_grid_from_zero(self, tmp_path, capsys):
        argv = [
            "errmap",
            "--x-min", "0.0", "--x-max", "1.0", "--x-count", "2",
            "--x-scale", "log",
            "--y-min", "0.01", "--y-max", "0.1", "--y-count", "2",
            "--out", str(tmp_path / "x.csv"),
        ]
        assert main(argv) == 2

    @pytest.mark.parametrize(
        "grid, message",
        [
            (["--x-count", "0"], "grid count must be >= 1"),
            (["--x-min", "2", "--x-max", "1"], "grid min must not exceed max"),
        ],
    )
    def test_rejects_bad_grid_before_writing(self, tmp_path, grid, message, capsys):
        out = tmp_path / "x.csv"
        argv = [
            "errmap", "--x-min", "0.5", "--x-max", "5.0", "--x-count", "3",
            "--y-min", "1e-4", "--y-max", "0.1", "--y-count", "3", *grid,
            "--out", str(out),
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["linear", "log"])
    @pytest.mark.parametrize(
        "bound, value",
        [
            ("--x-min", "nan"), ("--x-max", "nan"), ("--x-min", "-inf"), ("--x-max", "inf"),
            ("--y-min", "nan"), ("--y-max", "nan"), ("--y-min", "-inf"), ("--y-max", "inf"),
        ],
    )
    def test_rejects_nonfinite_bound_before_writing(self, tmp_path, bound, value, scale, capsys):
        out = tmp_path / "x.csv"
        bounds = {"--x-min": "0.5", "--x-max": "5.0", "--y-min": "1e-4", "--y-max": "0.1"}
        bounds[bound] = value
        argv = [
            "errmap", *(f"{flag}={v}" for flag, v in bounds.items()),
            "--x-count", "3", "--y-count", "3", "--x-scale", scale, "--y-scale", scale,
            "--out", str(out),
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestBench:
    def test_report_format_and_determinism(self, capsys):
        argv = ["bench", "--count", "200", "--y", "1e-8", "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out.splitlines()
        assert main(argv) == 0
        second = capsys.readouterr().out.splitlines()
        assert len(first) == len(second) == 4
        for a, b in zip(first[::2], second[::2]):
            fa, fb = a.split(","), b.split(",")
            assert fa[0] == "bench"
            assert fa[1] == "1e-08"
            assert fa[2] in ("internal", "external")
            assert fa[3] == "200"
            # checksum over inputs and outputs matches across runs; only
            # the trailing timing fields may differ
            assert fa[:5] == fb[:5]
            assert float(fa[5]) > 0 and float(fa[6]) > 0
        # each batch line is followed by eval_w over the same points: its
        # digest equals the batch's, and the batch line's own at count <= 2000
        for line, a, b in zip(first[::2], first[1::2], second[1::2]):
            fa, fb = a.split(","), b.split(",")
            assert fa[0] == "bench-scalar"
            assert fa[1:4] == line.split(",")[1:4]
            assert fa[4] == fa[5] == line.split(",")[4]
            assert fa[:6] == fb[:6]
            assert float(fa[6]) > 0

    def test_scalar_line_takes_the_first_2000_points(self, capsys):
        assert main(["bench", "--count", "2500", "--y", "0.05", "--domain", "external"]) == 0
        batch, scalar = (line.split(",") for line in capsys.readouterr().out.splitlines())
        assert batch[3] == "2500" and scalar[3] == "2000"
        assert scalar[4] == scalar[5] != batch[4]

    def test_single_domain_single_point(self, capsys):
        assert main(["bench", "--count", "1", "--y", "0.1",
                     "--domain", "internal"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[:4] for line in lines] == [
            ["bench", "0.1", "internal", "1"], ["bench-scalar", "0.1", "internal", "1"]]

    def test_rejects_zero_count(self, capsys):
        assert main(["bench", "--count", "0", "--y", "0.05"]) == 2

    def test_rejects_bad_y(self, capsys):
        assert main(["bench", "--count", "10", "--y", "0.5"]) == 2

    def test_points_respect_domains(self):
        # split at x_c(y), exactly where the dispatcher splits: at z_c(y),
        # or at the Dawson table's end where that is nearer (y = 1e-300)
        for y in (1e-300, 1e-8, 1e-3, 0.05, 0.1):
            z_c, x_c = boundary_z_c(y), boundary_x_c(y)
            internal = bench_points(y, "internal", 500, 3)
            external = bench_points(y, "external", 500, 3)
            assert np.all(internal < x_c) and np.all(external >= x_c)
            assert np.all(np.hypot(internal, y) < z_c)
            assert y == 1e-300 or np.all(np.hypot(external, y) >= z_c)
            assert np.all(external <= 4000.0)
            # seeded, hence reproducible
            assert np.array_equal(internal, bench_points(y, "internal", 500, 3))

    def test_y0_has_only_the_internal_domain(self, capsys):
        assert bench_points(0.0, "internal", 500, 3).max() > 22.0
        assert main(["bench", "--count", "10", "--y", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[2] for line in lines] == ["internal", "internal"]
        assert main(["bench", "--count", "10", "--y", "0", "--domain", "external"]) == 2
        assert "no external domain" in capsys.readouterr().err


class TestBoundary:
    def test_matches_calibrated_boundary_at_y01(self, capsys):
        assert main(["boundary", "--y", "0.1", "--eps", "1e-13"]) == 0
        out = capsys.readouterr().out.strip()
        fields = out.split(",")
        assert fields[0] == "boundary"
        z_c = float(fields[3])
        assert z_c <= boundary_z_c(0.1, 1e-16) + 0.01

    def test_looser_eps_moves_boundary_inward(self):
        tight = find_boundary(1e-4, 1e-12)
        loose = find_boundary(1e-4, 1e-7)
        assert loose <= tight + 0.005
        # the bisection's exact results, so a change to how Delta_C is
        # measured cannot move them unseen
        assert (tight, loose) == (6.32244873046875, 5.39141845703125)

    def test_rejects_eps_outside_range(self, capsys):
        assert main(["boundary", "--y", "0.1", "--eps", "1e-20"]) == 2
        assert main(["boundary", "--y", "0.1", "--eps", "1e-3"]) == 2

    def test_rejects_bad_y(self, capsys):
        assert main(["boundary", "--y", "0.0", "--eps", "1e-10"]) == 2


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
