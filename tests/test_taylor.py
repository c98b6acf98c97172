import math
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from conftest import rel_err, ulps
from voigtw.coeffs import get_tables, hermite_coeffs
from voigtw.dawson import BINS_PER_UNIT, Q_TAIL, _Q_COEFFS
from voigtw.oracle import ref_dawson, ref_erfcx, ref_w
from voigtw.scheme import _y_record, boundary_x_c, eval_w, eval_w_batch, select_params
from voigtw.taylor import SeriesParams, build_y_coefficients, eval_w_internal

P16 = SeriesParams(n=4, n_d=61, n_c=6)


class TestCoefficientFold:
    def test_y_zero_collapse(self):
        c = build_y_coefficients(0.0, P16)
        # A/2 = 1 and H = G = G' = 0 leave K = e^{-x^2} and L = x q: the identity
        assert c.alpha == (1.0, 0.0, 0.0, 0.0, 0.0)
        for name in ("h", "gamma", "gamma_p"):
            assert getattr(c, name) == (0.0, 0.0, 0.0, 0.0)

    def test_lengths(self):
        c = build_y_coefficients(0.03, SeriesParams(7, 61, 6))
        assert len(c.alpha) == 8
        assert len(c.h) == len(c.gamma) == len(c.gamma_p) == 7

    def test_gamma_empty_at_n0(self):
        c = build_y_coefficients(0.01, SeriesParams(0, 61, 6))
        assert c.gamma == () and c.gamma_p == ()

    @pytest.mark.parametrize("n", [-1, 17])
    def test_rejects_n_outside_the_bands(self, n):
        # 16 is the order of the last calibrated band; no N builds a table of its own
        tables = get_tables.cache_info().currsize
        with pytest.raises(ValueError, match="N must lie in 0..16"):
            build_y_coefficients(0.05, SeriesParams(n, 61, 6))
        with pytest.raises(ValueError, match="N must lie in 0..16"):
            eval_w_internal(1.0, 0.05, SeriesParams(n, 61, 6))
        assert get_tables.cache_info().currsize == tables

    def test_alpha0_telescopes_to_exponential(self):
        # p[m][0] y^(2m)/(2m)! = 2 y^(2m)/m!, so 2 alpha_0 (exact) truncates 2 e^(y^2)
        n = 7
        y = 0.1
        c = build_y_coefficients(y, SeriesParams(n, 61, 6))
        expect = sum(2.0 * y ** (2 * m) / math.factorial(m) for m in range(n + 1))
        assert rel_err(2 * c.alpha[0], expect) <= 5e-16

    def test_alpha0_remainder_bound(self):
        for y in (1e-6, 1e-3, 0.02, 0.1):
            for n in (1, 4, 7):
                c = build_y_coefficients(y, SeriesParams(n, 61, 6))
                # Lagrange remainder of the exponential tail; the 1e-15
                # slack absorbs double rounding of values ~ 2
                bound = 2 * y ** (2 * n + 2) / math.factorial(n + 1) * math.exp(y * y)
                assert abs(2 * c.alpha[0] - 2 * math.exp(y * y)) <= bound + 1e-15

    def test_all_finite(self):
        for y in (0.0, 1e-100, 1e-30, 1e-8, 0.05, 0.1):
            c = build_y_coefficients(y, SeriesParams(16, 344, 65))
            for name in c._fields:
                assert np.all(np.isfinite(getattr(c, name)))

    @pytest.mark.parametrize("bad", [-1e-12, 0.10001, 1.0])
    def test_rejects_y_outside_domain(self, bad):
        with pytest.raises(ValueError):
            build_y_coefficients(bad, P16)

    def test_matches_the_integer_table_fold(self):
        # the fold reads float rows prebuilt from the exact tables; the
        # reference converts each integer term by term
        ys = [0.0, 5e-324, 1e-300, 1e-100, 0.1]
        ys += np.exp(np.random.default_rng(12).uniform(np.log(1e-20), np.log(0.1), 200)).tolist()
        for y in ys:
            for n in range(17):
                got = build_y_coefficients(y, SeriesParams(n, 61, 6))
                assert [list(map(float.hex, v)) for v in got] == _reference_fold(y, n), (y, n)


def _reference_fold(y, n_max):
    """The fold as four lists of float.hex, each integer table entry converted where it is used.

    Every sum runs over m = N..n with a branch per term; A and H are halved last.
    """
    tables = get_tables()
    even, odd = [1.0], [y]
    for m in range(1, n_max + 1):
        even.append(odd[m - 1] * y / (2 * m))
        odd.append(even[m] * y / (2 * m + 1))
    alpha, h, gamma, gamma_p = [], [], [], []
    for n in range(n_max + 1):
        a = ap = g = gp = 0.0
        for m in range(n_max, n - 1, -1):
            pmn = float(tables.p_rows[m][n])
            a += pmn * even[m]
            if m >= 1:
                ap += pmn * odd[m - 1]
            if m >= n + 1:
                qmn = float(tables.q_rows[m][n])
                g += qmn * even[m]
                gp += qmn * odd[m - 1]
        alpha.append(0.5 * a)
        if n >= 1:
            h.append(0.5 * (y * a - 0.5 * ap))
        if n <= n_max - 1:
            gamma.append(g)
            gamma_p.append(y * g - 0.5 * gp)
    return [list(map(float.hex, v)) for v in (alpha, h, gamma, gamma_p)]


def _lowest_power(terms):
    """Least power of y with a nonzero coefficient in (power, Fraction) terms; inf if none."""
    poly = Counter()
    for power, c in terms:
        poly[power] += c
    return min((power for power, c in poly.items() if c), default=math.inf)


@pytest.mark.parametrize("n_max", range(1, 17))
def test_hermite_terms_are_the_p_fold(n_max):
    # The paper's series also folds the odd Hermite rows, sh[m] = (-1)^(m+1) h_{2m+1},
    # into the e^{-x^2} terms of L and K: beta[n] = sum_m sh[m][n] y^(2m+1)/(2m+1)!
    # and beta_p[n] = y beta[n] - sum_m sh[m][n] y^(2m)/(2 (2m)!).  In exact
    # rationals, beta_p = alpha/2 and beta[n - 1] = -alpha_p[n]/2 = -h[n - 1]/2 up to
    # powers of y past the truncation, and alpha_p[0] vanishes there too, so the
    # fold keeps alpha and h = alpha_p[1:] alone and loses nothing
    p = get_tables().p_rows
    sh = [[(-1) ** (m + 1) * c for c in hermite_coeffs(2 * m + 1)] for m in range(n_max + 1)]
    f = math.factorial

    def alpha(n):
        return [(2 * m, Fraction(p[m][n], f(2 * m))) for m in range(n, n_max + 1)]

    def alpha_p(n):
        if n > n_max:
            return []
        y_alpha = [(power + 1, c) for power, c in alpha(n)]
        return y_alpha + [(2 * m - 1, -Fraction(p[m][n], 2 * f(2 * m - 1)))
                          for m in range(max(n, 1), n_max + 1)]

    def beta(n):
        return [(2 * m + 1, Fraction(sh[m][n], f(2 * m + 1))) for m in range(n, n_max + 1)]

    def beta_p(n):
        y_beta = [(power + 1, c) for power, c in beta(n)]
        return y_beta + [(2 * m, -Fraction(sh[m][n], 2 * f(2 * m))) for m in range(n, n_max + 1)]

    def times(s, terms):
        return [(power, s * c) for power, c in terms]

    assert _lowest_power(alpha_p(0)) >= 2 * n_max + 1
    for n in range(n_max + 1):
        assert _lowest_power(alpha(n) + times(-2, beta_p(n))) >= 2 * n_max + 2, n
        # at n = n_max, beta[n] stands alone: alpha_p has no entry n_max + 1
        assert _lowest_power(alpha_p(n + 1) + times(2, beta(n))) >= 2 * n_max + 1, n


def test_fold_cache_is_bounded():
    # the batch path's fold lives in the per-y record that scalar calls share
    _y_record.cache_clear()
    for y in np.linspace(1e-4, 0.1, 300):
        eval_w_batch([1.0], float(y))
    info = _y_record.cache_info()
    assert info.misses == 300
    assert info.currsize <= 128
    eval_w(2.0, 0.1)
    assert _y_record.cache_info().hits == info.hits + 1


class TestEvalL:
    def test_zero_at_origin(self):
        assert eval_w_internal(0.0, 0.05, P16).l == 0.0

    def test_parity(self):
        xs = np.array([0.3, 2.0, 6.1, 17.0, 17.5, 27.3])
        k, l = eval_w_internal(xs, 1e-300, P16)
        km, lm = eval_w_internal(-xs, 1e-300, P16)
        assert np.array_equal(km, k) and np.array_equal(lm, -l)

    def test_y0_is_scaled_dawson_exact(self):
        # at y = 0 the series collapses to L = x (2/sqrt(pi)) Q(x), from the
        # bin polynomials: within criterion 2's 3 ulp of 2 D(x)/sqrt(pi)
        xs = np.linspace(0, 25, 301)
        l = eval_w_internal(xs, 0.0, P16).l
        assert l[0] == 0.0
        two = 2 / mp.sqrt(mp.pi)
        assert max(rel_err(v, two * ref_dawson(x)) for x, v in zip(xs[1:], l[1:])) <= ulps(3)

    @pytest.mark.parametrize("y", [1e-300, 1e-100, 1e-8, 1e-3, 0.1])
    def test_subnormal_x(self, y):
        # where L is subnormal it is good to 2e-15 relative or one subnormal
        # ulp (2^-1074), whichever is larger
        rng = np.random.default_rng(153)
        xs = np.exp(rng.uniform(np.log(5e-324), np.log(2.2250738585072014e-308), 153))
        l = eval_w_batch(xs, y).l
        for x, v in zip(xs.tolist(), l.tolist()):
            ref = ref_w(x, y).imag
            assert abs(v - ref) <= max(2e-15 * abs(ref), mp.mpf(2) ** -1074), (x, y)

    def test_interior_point_vs_oracle(self):
        p = SeriesParams(6, 61, 6)  # the 0.039811 <= y < 0.063096 band
        ref = ref_w(1, 0.05)
        assert rel_err(eval_w_internal(1.0, 0.05, p).l, ref.imag) <= 1e-15


class TestEvalK:
    def test_y0_is_gaussian(self):
        xs = np.linspace(0, 25, 301)
        assert np.array_equal(eval_w_internal(xs, 0.0, P16).k, np.exp(-xs * xs))
        assert eval_w_internal(1.0, 0.0, P16).k == math.exp(-1)

    def test_x0_y0(self):
        assert eval_w_internal(0.0, 0.0, P16).k == 1.0

    def test_x0_matches_erfcx(self):
        p = SeriesParams(7, 61, 6)
        assert rel_err(eval_w_internal(0.0, 0.1, p).k, ref_erfcx(0.1)) <= 1e-15


class TestEvalWInternal:
    def test_at_1_0(self):
        k, l = eval_w_internal(1.0, 0.0, SeriesParams(1, 61, 6))
        assert k == math.exp(-1)
        assert rel_err(l, 0.6071577058413937) <= 3e-16

    def test_origin(self):
        assert eval_w_internal(0.0, 0.0, SeriesParams(1, 61, 6)) == (1.0, 0.0)

    def test_tiny_y_vs_oracle(self):
        ref = ref_w(5, 1e-30)
        k, l = eval_w_internal(5.0, 1e-30, SeriesParams(1, 61, 6))
        assert rel_err(k, ref.real) <= 3e-13
        assert rel_err(l, ref.imag) <= 1e-15

    def test_batch_matches_scalar_bitwise(self):
        # the array series against the scalar evaluator's float path, at
        # series orders N = 1..7, from x = 0 to the last x inside z_c(y)
        for y in (1e-300, 1e-30, 1e-5, 1e-3, 0.01, 0.02, 0.05, 0.1):
            x_c = boundary_x_c(y)
            xs = np.r_[0.0, 5e-324, 1e-8, 0.5, 2.0, 6.0, np.linspace(0.0, x_c, 60)[1:-1]]
            xs = np.r_[xs, np.nextafter(x_c, 0)]
            kb, lb = eval_w_internal(xs, y, select_params(y))
            for i, x in enumerate(xs):
                want = np.array([kb[i], lb[i]]).view(np.uint64)
                assert np.array_equal(np.array(eval_w(float(x), y)).view(np.uint64), want), (x, y)
                one = eval_w_internal(float(x), y, select_params(y))
                assert np.array_equal(np.array(one).view(np.uint64), want), (x, y)

    @pytest.mark.parametrize("y", [1e-300, 5e-324])
    def test_batch_matches_scalar_at_dawson_bins(self, y):
        # every bin edge of the Dawson polynomials up to Q_TAIL and its
        # neighbours, and the last x inside z_c(y); the edges past x_c(y)
        # take the Laplace fraction
        edges = np.arange(_Q_COEFFS.shape[1] + 1) / BINS_PER_UNIT
        xs = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
                             [np.nextafter(boundary_x_c(y), 0)]])
        assert edges[-1] == Q_TAIL
        k, l = eval_w_batch(xs, y)
        want = np.array([k, l]).T.view(np.uint64)
        got = np.array([eval_w(float(x), y) for x in xs]).view(np.uint64)
        assert np.array_equal(got, want)


# one y per series order N = 1..7, then y = 0 and the least y > 0; at
# N = 1 each gamma sum is one float, which the array series adds as one
# scalar product
_KERNEL_YS = [(1e-30, 1), (1e-5, 2), (1e-3, 3), (0.01, 4), (0.03, 5), (0.05, 6), (0.1, 7),
              (0.0, 1), (5e-324, 1)]


@pytest.mark.parametrize("y, n", _KERNEL_YS)
def test_array_kernel_at_loop_edges(y, n):
    # numpy runs the body of an array in vector loops and its last few
    # elements apart; at lengths around the vector widths and a few powers
    # of two, every point must come out as the float path gives it
    params = select_params(y)
    assert params.n == n
    x_c = boundary_x_c(y) if y else 6.0
    xs = np.random.default_rng(n).uniform(-x_c, x_c, 16387)
    batch_point = np.array([eval_w(x, y) for x in xs.tolist()]).view(np.uint64)
    # off the axis every x takes the series, so eval_w's floats are the
    # series'; at y = 0 eval_w takes the axis, and the series is held to
    # its own full-length call
    point = batch_point
    if not y:
        k, l = eval_w_internal(xs, y, params)
        point = np.c_[k, l].view(np.uint64)
    for size in [*range(1, 18), 4095, 4096, 4097, 16387]:
        k, l = eval_w_internal(xs[:size], y, params)
        assert np.array_equal(np.c_[k, l].view(np.uint64), point[:size]), size
        k, l = eval_w_batch(xs[:size], y)
        assert np.array_equal(np.c_[k, l].view(np.uint64), batch_point[:size]), size


@pytest.mark.parametrize("x", [Q_TAIL, -Q_TAIL, 1e160, 1e200, np.inf, -np.inf, np.nan])
def test_eval_w_internal_rejects_x_outside_the_table(x):
    # the bin polynomials end at Q_TAIL; past it, and at inf or NaN, the
    # series has no Q to read, as a scalar or anywhere in an array
    with pytest.raises(ValueError):
        eval_w_internal(x, 0.0, P16)
    with pytest.raises(ValueError):
        eval_w_internal(np.array([1.0, x]), 1e-8, P16)


def test_eval_w_internal_takes_the_last_x_of_the_table():
    x = np.nextafter(Q_TAIL, 0)
    k, l = eval_w_internal(np.array([-x, x]), 5e-324, P16)
    assert np.all(np.isfinite(k)) and l[1] == -l[0] > 0.0


def test_derivative_relation():
    # dL/dy = 2y L - 2x K, checked by central finite differences
    h = 1e-6
    for y in (0.01, 0.05, 0.09):
        for x in (0.5, 1.0, 2.0, 5.0):
            p = SeriesParams(7, 61, 6)
            k, l = eval_w_internal(x, y, p)
            lp = eval_w_internal(x, y + h, p).l
            lm = eval_w_internal(x, y - h, p).l
            fd = (lp - lm) / (2 * h)
            expect = 2 * y * l - 2 * x * k
            assert abs(fd - expect) / abs(expect) <= 1e-6, (x, y)


def test_truncation_monotone_at_small_y():
    y = 1e-4
    xs = np.concatenate([np.linspace(0.05, 21.9, 40), np.logspace(-3, 1, 20)])
    refs = [ref_w(float(x), y) for x in xs]
    errs = []
    for n in (1, 4, 8, 12):
        p = SeriesParams(n, 61, 6)
        k, l = eval_w_internal(xs, y, p)
        worst = max(
            max(rel_err(k[i], r.real), rel_err(l[i], r.imag))
            for i, r in enumerate(refs)
        )
        errs.append(worst)
    for prev, nxt in zip(errs, errs[1:]):
        assert nxt <= prev * 1.05 + 5e-16


def test_no_catastrophic_output():
    rng = np.random.default_rng(7)
    for y in (1e-100, 1e-20, 1e-4, 0.1):
        xs = rng.uniform(0, 6, 200)
        k, l = eval_w_internal(xs, y, SeriesParams(7, 61, 6))
        assert np.all(np.isfinite(k)) and np.all(np.isfinite(l))
        assert np.all(k > 0)
