from fractions import Fraction
from math import comb

import pytest

from wittforge.modules import (ModuleError, check_de_rham_chain, de_rham_d,
                               de_rham_homology, omega_forms)


class TestDifferential:
    def test_on_functions(self):
        M0 = omega_forms(2, 0, (Fraction(0), Fraction(0)))
        v = M0.basis_vector((2, 1), "1")
        got = de_rham_d(v)
        assert got.terms == {((2, 1), "e1"): Fraction(2),
                             ((2, 1), "e2"): Fraction(1)}

    def test_constant_function_is_closed(self):
        M0 = omega_forms(2, 0, (Fraction(0), Fraction(0)))
        assert de_rham_d(M0.basis_vector((0, 0), "1")).is_zero()

    def test_d_squared_zero_samples(self):
        for n in (2, 3, 4):
            M0 = omega_forms(n, 0, (Fraction(0),) * n)
            v = M0.basis_vector(tuple(range(1, n + 1)), "1")
            assert de_rham_d(de_rham_d(v)).is_zero()

    def test_linear_across_calls(self):
        # every image of one module's vectors lies in one target module
        M0 = omega_forms(2, 0, (Fraction(0), Fraction(0)))
        a = M0.basis_vector((2, 1), "1")
        b = M0.basis_vector((-1, 3), "1").scale(Fraction(5))
        assert de_rham_d(a + b) == de_rham_d(a) + de_rham_d(b)
        assert de_rham_d(a) == de_rham_d(a)

    def test_top_degree_rejected(self):
        # there is no Omega^{n+1} to map into
        M = omega_forms(2, 2, (Fraction(0), Fraction(0)))
        with pytest.raises(ModuleError):
            de_rham_d(M.basis_vector((3, -1), "e1^e2"))


class TestHomology:
    def test_binomial_ranks_at_zero_weight(self):
        for n in (1, 2, 3):
            ranks = de_rham_homology(n, (Fraction(0),) * n, (0,) * n)
            assert ranks == [comb(n, k) for k in range(n + 1)]

    def test_vanishes_at_nonzero_weight(self):
        assert de_rham_homology(2, (Fraction(0), Fraction(0)), (1, 0)) == [0, 0, 0]
        assert de_rham_homology(3, (Fraction(0),) * 3, (0, -2, 1)) == [0, 0, 0, 0]

    @pytest.mark.parametrize("n, beta, w", [
        (1, (0, 0), (0,)), (2, (0, 0), (0, 0, 5)), (2, (0, 0), (1,))])
    def test_wrong_lengths_are_refused(self, n, beta, w):
        # zip would truncate the longer of beta and w without a word
        with pytest.raises(ModuleError, match=f"must have length {n}"):
            de_rham_homology(n, beta, w)

    def test_vanishes_for_nonintegral_beta(self):
        assert de_rham_homology(2, (Fraction(1, 2), Fraction(0)), (0, 0)) == [0, 0, 0]


class TestChainStructure:
    def test_d_squared_and_equivariance(self):
        for n in (2, 3):
            report = check_de_rham_chain(n, mbox=1)
            assert report.passed, report.to_json()

    def test_with_nonzero_beta(self):
        report = check_de_rham_chain(2, beta=(Fraction(1, 3), Fraction(0)), mbox=1)
        assert report.passed
