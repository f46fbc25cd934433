import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittforge.lie import AlgebraError, LatticeAutomorphism
from wittforge.linalg import (int_matrix_inverse, matrix_mul, rank,
                              row_echelon, solve_in_span, span_frame)


def _leibniz_det(m) -> int:
    """The determinant as the signed sum over permutations, independent of
    any elimination."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        prod = 1
        for i, j in enumerate(perm):
            prod *= m[i][j]
        total += -prod if inversions % 2 else prod
    return total


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
        coeffs = solve_in_span(basis, [[Fraction(3), Fraction(2)]])
        assert coeffs == [[Fraction(1), Fraction(2)]]

    def test_outside_span(self):
        basis = [[Fraction(1), Fraction(0), Fraction(0)]]
        assert solve_in_span(basis, [[Fraction(0), Fraction(1), Fraction(0)]]) == [None]

    def test_span_frame(self):
        # the second row is twice the first: a rank-1 basis, whose transform
        # makes it from the rows, and each row's coordinates over it
        rows = [[Fraction(2), Fraction(4)], [Fraction(4), Fraction(8)]]
        basis, transform, coords, pivots = span_frame(rows)
        assert basis == [[Fraction(1), Fraction(2)]] and pivots == [0]
        assert matrix_mul(transform, rows) == basis
        assert matrix_mul(coords, basis) == rows


SMALL = st.sampled_from(sorted({Fraction(n, d) for n in range(-3, 4)
                                 for d in (1, 2, 3)}))


@st.composite
def families(draw):
    """Rows of a small rational matrix, some of them combinations of the
    others, and target vectors in and out of their span."""
    width = draw(st.integers(1, 4))
    vector = st.lists(SMALL, min_size=width, max_size=width)
    rows = draw(st.lists(vector, max_size=3))
    if rows:
        # dependent rows: combinations of the drawn ones
        for _ in range(draw(st.integers(0, 2))):
            c = draw(st.lists(SMALL, min_size=len(rows), max_size=len(rows)))
            rows.append([sum((a * r[i] for a, r in zip(c, rows)), Fraction(0))
                         for i in range(width)])
    targets = draw(st.lists(vector, max_size=3))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        c = draw(st.lists(SMALL, min_size=len(rows), max_size=len(rows)))
        targets.append([sum((a * r[i] for a, r in zip(c, rows)), Fraction(0))
                        for i in range(width)])
    return rows, draw(st.permutations(targets))


class TestSolveInSpanProperties:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(family=families())
    def test_batched_solve(self, family):
        rows, targets = family
        got = solve_in_span(rows, targets)
        # one elimination for the batch answers as one per target
        assert got == [solve_in_span(rows, [t])[0] for t in targets]
        for target, coeffs in zip(targets, got):
            outside = rank(rows + [target]) > rank(rows)
            assert (coeffs is None) == outside
            if coeffs is not None:
                assert len(coeffs) == len(rows)
                assert [sum((c * r[i] for c, r in zip(coeffs, rows)),
                            Fraction(0))
                        for i in range(len(target))] == target


def _integer_matrices(n):
    return st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                    min_size=n, max_size=n)


def _unimodular_matrices(n):
    """Lower times upper triangular, with units on both diagonals."""
    def triangular(lower):
        return st.tuples(_integer_matrices(n), st.lists(
            st.sampled_from([1, -1]), min_size=n, max_size=n)).map(
            lambda md: [[md[1][i] if i == j else
                         md[0][i][j] if (j < i) == lower else 0
                         for j in range(n)] for i in range(n)])
    return st.tuples(triangular(True), triangular(False)).map(
        lambda lu: matrix_mul(*lu)).map(
        lambda m: [[int(x) for x in row] for row in m])


class TestIntegerMatrices:
    def test_det_and_inverse(self):
        m = ((1, 1), (0, 1))
        assert _leibniz_det(m) == 1
        assert int_matrix_inverse(m) == [[1, -1], [0, 1]]

    def test_inverse_of_non_unimodular_rejected(self):
        with pytest.raises(Exception):
            int_matrix_inverse(((2, 0), (0, 1)))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(m=st.integers(2, 3).flatmap(lambda n: st.one_of(
        _integer_matrices(n), _unimodular_matrices(n))))
    def test_unimodular_exactly_when_det_is_a_unit(self, m):
        n = len(m)
        unimodular = abs(_leibniz_det(m)) == 1
        try:
            inv = int_matrix_inverse(m)
        except ValueError:
            assert not unimodular
            with pytest.raises(AlgebraError):
                LatticeAutomorphism(m)
            return
        assert unimodular
        assert matrix_mul(m, inv) == [[int(i == j) for j in range(n)]
                                      for i in range(n)]
        g = LatticeAutomorphism(m)
        assert g.inverse().matrix == tuple(map(tuple, inv))
        assert (LatticeAutomorphism(matrix_mul(g.matrix, g.inverse().matrix))
                == LatticeAutomorphism.identity(n))
