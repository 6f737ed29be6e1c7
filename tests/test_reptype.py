import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_value_type, pairing_oracle, tor_table_oracle
from ghk.errors import AsymmetricTable, BadParameters, DimensionMismatch
from ghk.reptype import TorTable, a_tor_table, eghk_a, eghk_from_type


class TestTable:
    def test_equal_entries_make_equal_tables(self):
        assert_value_type(lambda: TorTable(((1, 2), (2, 1))), TorTable(((1, 2), (2, 2))))
        assert a_tor_table(5) == TorTable(tor_table_oracle(5))

    def test_index_three(self):
        assert a_tor_table(3).entries == ((1, 1), (1, 1))

    def test_index_five(self):
        assert a_tor_table(5).entries == (
            (1, 1, 1, 1),
            (1, 2, 2, 1),
            (1, 2, 2, 1),
            (1, 1, 1, 1),
        )

    def test_index_two(self):
        assert a_tor_table(2).entries == ((1,),)

    def test_rows_match_entrywise_formula(self):
        for r in [*range(2, 61), 1000]:
            assert a_tor_table(r).entries == tor_table_oracle(r), f"r={r}"

    def test_symmetries(self):
        for r in range(2, 31):
            table = a_tor_table(r)
            n = table.dim
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert table.entry(i, j) == table.entry(j, i)
                    assert table.entry(i, j) == table.entry(n + 1 - i, n + 1 - j)

    def test_bad_index(self):
        with pytest.raises(BadParameters):
            a_tor_table(1)
        with pytest.raises(BadParameters, match="index r = 1001 is over 1000"):
            a_tor_table(1001)

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricTable, match=r"^entries \(2,1\) and \(1,2\) differ$"):
            TorTable(((1, 2), (3, 1)))
        # the message names the first differing pair, row by row below the diagonal
        table = ((1, 2, 3, 4), (2, 1, 5, 6), (3, 7, 1, 9), (4, 6, 8, 1))
        with pytest.raises(AsymmetricTable, match=r"^entries \(3,2\) and \(2,3\) differ$"):
            TorTable(table)
        with pytest.raises(AsymmetricTable, match=r"^entries \(2,1\) and \(1,2\) differ$"):
            TorTable([[0, 1], [2, 0]])
        TorTable([[0, 1], [1, 0]])

    def test_malformed_rejected(self):
        with pytest.raises(BadParameters):
            TorTable(((1, 2),))
        with pytest.raises(BadParameters):
            TorTable(())
        with pytest.raises(BadParameters):
            TorTable(((1, -2), (-2, 1)))


class TestPairing:
    def test_single_module_examples(self):
        assert eghk_a(3, [1, 0]) == Fraction(2, 3)
        assert eghk_a(5, [0, 1, 0, 0]) == Fraction(6, 5)

    def test_full_decomposition(self):
        # multiplicity one on every indecomposable sums the whole table
        value = eghk_a(4, [1, 1, 1])
        total = sum(sum(row) for row in a_tor_table(4).entries)
        assert value == Fraction(total, 4)

    def test_zero_multiplicities(self):
        assert eghk_a(6, [0] * 5) == 0

    def test_weighted_pairing(self):
        table = a_tor_table(3)
        assert eghk_from_type([2, 1], [Fraction(1, 3), Fraction(1, 6)], table) == (
            2 * Fraction(1, 3)
            + 2 * Fraction(1, 6)
            + Fraction(1, 3)
            + Fraction(1, 6)
        )

    def test_accepts_integer_weights(self):
        table = a_tor_table(3)
        assert eghk_from_type([1, 1], [1, 1], table) == 4

    def test_pairing_matches_oracle(self):
        # random symmetric tables, zero rows, integer weights and mixed denominators
        rng = random.Random(59)
        for _ in range(200):
            dim = rng.randint(1, 9)
            rows = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                for j in range(i + 1):
                    rows[i][j] = rows[j][i] = rng.randint(0, 9)
            table = TorTable(tuple(map(tuple, rows)))
            u = [rng.choice((0, rng.randint(0, 9))) for _ in range(dim)]
            v = [
                rng.choice((rng.randint(0, 3), Fraction(rng.randint(0, 30), rng.randint(1, 24))))
                for _ in range(dim)
            ]
            value = eghk_from_type(u, v, table)
            assert type(value) is Fraction and value == pairing_oracle(u, v, table)
        for r in (2, 7, 60):
            u = [rng.randint(0, 3) for _ in range(r - 1)]
            weights = [Fraction(1, r)] * (r - 1)
            assert eghk_a(r, u) == pairing_oracle(u, weights, a_tor_table(r))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eghk_a(5, [1, 0])
        with pytest.raises(DimensionMismatch):
            eghk_from_type([1, 1], [Fraction(1, 3)], a_tor_table(3))

    def test_negative_inputs_rejected(self):
        with pytest.raises(BadParameters):
            eghk_a(3, [-1, 0])
        with pytest.raises(BadParameters):
            eghk_from_type([1, 0], [Fraction(-1, 3), 0], a_tor_table(3))

    @settings(max_examples=40)
    @given(
        st.integers(2, 9),
        st.data(),
    )
    def test_linearity_in_multiplicities(self, r, data):
        dim = r - 1
        u = data.draw(st.lists(st.integers(0, 5), min_size=dim, max_size=dim))
        w = data.draw(st.lists(st.integers(0, 5), min_size=dim, max_size=dim))
        table = a_tor_table(r)
        weights = [Fraction(1, r)] * dim
        left = eghk_from_type([a + b for a, b in zip(u, w)], weights, table)
        assert left == eghk_from_type(u, weights, table) + eghk_from_type(
            w, weights, table
        )

    def test_row_sum_identity(self):
        # each module row sums to m (r - m) against equal weights
        for r in range(2, 51):
            for m in range(1, r):
                row = [min(m, j, r - m, r - j) for j in range(1, r)]
                assert sum(row) == m * (r - m)
