import pytest

from voigtw.coeffs import (
    build_pq_tables,
    get_tables,
    hermite_coeffs,
    p_closed_form,
)

# Published q table, rows m = 0..7 (odd-power coefficients of Q_m)
Q_TABLE = [
    [],
    [4],
    [40, -16],
    [528, -448, 64],
    [8928, -11840, 3456, -256],
    [185280, -337920, 150528, -22528, 1024],
    [4567680, -10671360, 6429696, -1456128, 133120, -4096],
    [130556160, -373416960, 284691456, -86630400, 11939840, -737280, 16384],
]


def hermite_recurrence_rows(n_max):
    """Oracle: full Hermite coefficient rows via H_{n+1} = 2x H_n - 2n H_{n-1}.

    rows[n][j] is the coefficient of x^j in H_n.
    """
    rows = [[1], [0, 2]]
    for n in range(1, n_max):
        prev, prev2 = rows[n], rows[n - 1]
        nxt = [0] * (n + 2)
        for j, c in enumerate(prev):
            nxt[j + 1] += 2 * c
        for j, c in enumerate(prev2):
            nxt[j] -= 2 * n * c
        rows.append(nxt)
    return rows


class TestHermite:
    def test_h1(self):
        assert hermite_coeffs(1) == [2]

    def test_h3(self):
        assert hermite_coeffs(3) == [-12, 8]

    def test_h5(self):
        assert hermite_coeffs(5) == [120, -160, 32]

    def test_matches_recurrence_up_to_33(self):
        rows = hermite_recurrence_rows(33)
        for n in range(1, 34, 2):
            expect = [rows[n][2 * k + 1] for k in range((n + 1) // 2)]
            assert hermite_coeffs(n) == expect

    @pytest.mark.parametrize("bad", [0, -3, 2, 10])
    def test_rejects_even_or_nonpositive(self, bad):
        with pytest.raises(ValueError):
            hermite_coeffs(bad)


class TestPQ:
    def test_base_cases(self):
        p, q = build_pq_tables(1)
        assert p == [[2], [4, -8]]
        assert q == [[], [4]]

    def test_m2(self):
        p, q = build_pq_tables(2)
        # (10 - 4x^2)(4 - 8x^2) - 16*2 expanded by hand
        assert p[2] == [24, -96, 32]
        assert q[2] == [40, -16]

    def test_q_table_rows(self):
        _, q = build_pq_tables(7)
        assert q == Q_TABLE

    def test_row_lengths(self):
        p, q = build_pq_tables(16)
        for m in range(17):
            assert len(p[m]) == m + 1
            assert len(q[m]) == m

    def test_p_matches_closed_form(self):
        p, _ = build_pq_tables(16)
        for m in range(17):
            for k in range(m + 1):
                assert p[m][k] == p_closed_form(m, k), (m, k)

    def test_q_leading_sign_alternates(self):
        _, q = build_pq_tables(7)
        for m in range(1, 8):
            assert q[m][m - 1] * (-1) ** (m - 1) > 0

    def test_recurrence_reapplied(self):
        # recompute each row from the two previous and compare
        p, q = build_pq_tables(16)
        for rows in (p, q):
            for m in range(2, 17):
                a, b = 8 * m - 6, 8 * (m - 1) * (2 * m - 3)
                redo = [0] * (len(rows[m - 1]) + 1)
                for k, c in enumerate(rows[m - 1]):
                    redo[k] += a * c
                    redo[k + 1] -= 4 * c
                for k, c in enumerate(rows[m - 2]):
                    redo[k] -= b * c
                assert redo == list(rows[m])

    def test_rejects_negative_m_max(self):
        with pytest.raises(ValueError):
            build_pq_tables(-1)


class TestClosedForm:
    @pytest.mark.parametrize("m,k,want", [(0, 0, 2), (2, 2, 32), (3, 0, 240)])
    def test_values(self, m, k, want):
        assert p_closed_form(m, k) == want

    @pytest.mark.parametrize("m,k", [(2, 3), (2, -1), (0, 1)])
    def test_rejects_out_of_range_k(self, m, k):
        with pytest.raises(ValueError):
            p_closed_form(m, k)


def test_get_tables_cached_and_covers_m16():
    t = get_tables()
    assert t.m_max == 16
    assert t is get_tables()
    assert len(t.p_rows) == len(t.q_rows) == 17
