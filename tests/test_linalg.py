from fractions import Fraction

import pytest

from wittforge.linalg import (int_matrix_det, int_matrix_inverse, rank,
                              row_echelon, solve_in_span)


class TestRowEchelon:
    def test_pivots_and_zero_rows(self):
        rows = [[Fraction(1), Fraction(2)],
                [Fraction(2), Fraction(4)],
                [Fraction(0), Fraction(1)]]
        ech, pivots = row_echelon(rows)
        assert pivots == [0, 1]
        assert ech[2] == [Fraction(0), Fraction(0)]

    def test_rank(self):
        assert rank([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]) == 1


class TestSolveInSpan:
    def test_solves(self):
        basis = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
        coeffs = solve_in_span(basis, [Fraction(3), Fraction(2)])
        assert coeffs == [Fraction(1), Fraction(2)]

    def test_outside_span(self):
        basis = [[Fraction(1), Fraction(0), Fraction(0)]]
        assert solve_in_span(basis, [Fraction(0), Fraction(1), Fraction(0)]) is None


class TestIntegerMatrices:
    def test_det_and_inverse(self):
        m = ((1, 1), (0, 1))
        assert int_matrix_det(m) == 1
        assert int_matrix_inverse(m) == [[1, -1], [0, 1]]

    def test_inverse_of_non_unimodular_rejected(self):
        with pytest.raises(Exception):
            int_matrix_inverse(((2, 0), (0, 1)))
