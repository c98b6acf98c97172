import math

import mpmath as mp
import numpy as np
import pytest

from conftest import rel_err
from voigtw import oracle
from voigtw.laplace import _EXT_DEPTH_EDGES, _EXT_DEPTHS, laplace_w
from voigtw.oracle import (
    ErrorReport,
    OracleError,
    _w_closed_form,
    laplace_depth_steps,
    quad_w,
    ref_dawson,
    ref_erfcx,
    ref_w,
    rel_errors,
)


class TestRefW:
    def test_origin(self):
        assert ref_w(0, 0) == mp.mpc(1, 0)

    def test_real_axis(self):
        w = ref_w(1, 0)
        assert rel_err(math.exp(-1), w.real) < 1e-15
        assert rel_err(0.6071577058413937, w.imag) < 1e-15

    def test_imag_axis(self):
        w = ref_w(0, 0.1)
        assert w.imag == 0
        assert rel_err(0.8964569799691267, w.real) < 1e-15

    def test_parity(self):
        wp = ref_w(2, 0.05)
        wm = ref_w(-2, 0.05)
        assert wm.real == wp.real
        # negation under default precision would round, so test via the sum
        assert wm.imag + wp.imag == 0

    def test_adaptive_precision_tiny_component(self):
        # Re(w) sits ~104 orders below Im(w) here; a fixed 40-digit run
        # would return cancellation noise
        w = ref_w(4000, 1e-100)
        asym = 1e-100 / (math.sqrt(math.pi) * (4000.0**2))
        assert rel_err(asym, w.real) < 1e-5

    @pytest.mark.parametrize("x,y", [(19.3, 1e-200), (25.0, 5e-324)])
    def test_escalates_past_200_digit_deficit(self, x, y):
        # Re(w) sits ~160 and ~270 orders below Im(w), so the working
        # precision has to climb past 200 digits
        w = ref_w(x, y)
        r = _w_closed_form(x, y, 400)
        with mp.workdps(400):
            assert abs(w.real - r.real) <= mp.mpf("1e-35") * abs(r.real)
            assert abs(w.imag - r.imag) <= mp.mpf("1e-35") * abs(r.imag)

    def test_huge_x(self):
        # exp(-z^2) erfc(-iz) loses 2 log10|z| digits to the rounding of z^2:
        # at 106 digits both components came out wrong by 7.4e-5; far out
        # w = i/(sqrt(pi) z) to about 1e-110
        x, y = 3.454e54, 8.597e-3
        w = ref_w(x, y)
        with mp.workdps(60):
            z = mp.mpc(x, y)
            a = 1j / (mp.sqrt(mp.pi) * z)
            assert abs(w.real - a.real) <= mp.mpf("1e-35") * abs(a.real)
            assert abs(w.imag - a.imag) <= mp.mpf("1e-35") * abs(a.imag)

    def test_precision_ceiling_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_DPS", 150)
        with pytest.raises(OracleError):
            ref_w(19.3, 1e-200)

    def test_rejects_y_outside(self):
        with pytest.raises(ValueError):
            ref_w(1, 0.2)


def test_laplace_depth_steps_reproduce_the_profile():
    # two far-field steps of the committed profile, each with the grid
    # radius just below its left edge, where one more level is needed
    for i in (15, 17):  # the steps [52, 100) and [288, 1536)
        lo, hi = _EXT_DEPTH_EDGES[i - 1], _EXT_DEPTH_EDGES[i]
        below = lo - 2.0 ** (math.floor(math.log2(lo)) - 4)
        assert laplace_depth_steps([below, lo, hi]) == [_EXT_DEPTHS[i] + 1, _EXT_DEPTHS[i]]


class TestQuadW:
    def test_vs_closed_form(self):
        for x, y in [(0.5, 0.1), (2, 0.05), (7, 0.01), (0.05, 1e-3)]:
            q = quad_w(x, y)
            r = ref_w(x, y)
            assert float(abs(q.real - r.real) / abs(r.real)) < 1e-20
            assert float(abs(q.imag - r.imag) / abs(r.imag)) < 1e-20

    def test_two_configurations_agree(self):
        # node counts differ by 2x between the two runs
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = float(np.exp(rng.uniform(np.log(0.05), np.log(8.0))))
            y = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.1))))
            a = quad_w(x, y, maxdegree=5)
            b = quad_w(x, y, maxdegree=6)
            assert float(abs(a.real - b.real) / abs(b.real)) <= 1e-16
            assert float(abs(a.imag - b.imag) / abs(b.imag)) <= 1e-16

    def test_quadrature_on_axes_matches_analytic(self):
        for x in (0.5, 2.0, 5.0):
            q = quad_w(x, 0.0)
            assert rel_err(math.exp(-x * x), q.real) < 1e-15
            d = 2 / mp.sqrt(mp.pi) * ref_dawson(x)
            assert float(abs(q.imag - d) / d) < 1e-15
        q0 = quad_w(0.0, 0.05)
        assert q0.imag == 0
        assert float(abs(q0.real - ref_erfcx(0.05)) / ref_erfcx(0.05)) < 1e-15

    def test_rejects_negative_x(self):
        with pytest.raises(ValueError):
            quad_w(-1, 0.05)

    @pytest.mark.parametrize("y", [0.2, -1e-3])
    def test_rejects_y_outside(self, y):
        with pytest.raises(ValueError, match=r"y must lie in \[0, 0.1\]"):
            quad_w(1.0, y)


def test_three_way_corroboration_with_laplace():
    # erfc route vs quadrature vs the production continued fraction
    for x, y in [(30, 0.01), (60, 0.1), (35, 1e-3)]:
        r = ref_w(x, y)
        w = laplace_w(complex(x, y), 65)
        assert rel_err(w.real, r.real) <= 1e-15
        assert rel_err(w.imag, r.imag) <= 1e-15
        q = quad_w(x, y, maxdegree=7)
        assert float(abs(q.real - r.real) / abs(r.real)) < 1e-14


class TestRelErrors:
    def test_exact(self):
        rep = rel_errors(complex(0.3, 0.4), mp.mpc(0.3, 0.4))
        assert rep == ErrorReport(0.0, 0.0)

    def test_definition(self):
        ref = mp.mpc(0.5, 0.25)
        approx = complex(0.5 * (1 + 2.0**-40), 0.25)
        rep = rel_errors(approx, ref)
        assert rep.delta_re == pytest.approx(2.0**-40, rel=1e-6)
        assert rep.delta_im == 0.0

    def test_floor_at_smallest_normal(self):
        # the denominator is max(|ref|, 2^-1022): a zero component needs no
        # special case, and one subnormal ulp reads 2^-52
        assert rel_errors(1 + 0j, mp.mpc(1, 0)) == ErrorReport(0.0, 0.0)
        assert rel_errors(complex(1, 2.0**-1074), mp.mpc(1, 0)) == ErrorReport(0.0, 2.0**-52)

    def test_correctly_rounded_reads_its_rounding_error(self):
        # the reference is not rounded to a double before the subtraction
        ref = ref_w(1.3, 0.05)
        approx = complex(ref)  # each component correctly rounded
        with mp.workdps(40):
            want = [float(abs(mp.mpf(a) - r) / abs(r))
                    for a, r in ((approx.real, ref.real), (approx.imag, ref.imag))]
        assert list(rel_errors(approx, ref)) == want
        assert [f"{e:.2e}" for e in want] == ["1.19e-17", "5.97e-17"]

    def test_production_point(self):
        from voigtw.scheme import eval_w

        k, l = eval_w(1, 0.05)
        rep = rel_errors(complex(k, l), ref_w(1, 0.05))
        assert rep.delta_re <= 1e-15
        assert rep.delta_im <= 2.3e-16


def test_quadrature_failure_is_flagged():
    # at maxdegree=2 the panels are far from resolved and the error
    # estimate is ~1e-3; the guard must refuse to return it
    with pytest.raises(OracleError):
        quad_w(2.0, 0.05, maxdegree=2)
    # a single level carries no error estimate, so it is rejected outright
    with pytest.raises(ValueError):
        quad_w(2.0, 0.05, maxdegree=1)
