import itertools
from fractions import Fraction

import pytest

from _values import assert_types_never_equal, assert_value_semantics
from wittforge.lie import (AlgebraError, IndexLattice, JacobiReport,
                           LatticeAutomorphism, LieElement, Rank1Algebra,
                           WnAlgebra, bracket, jacobi_check,
                           solenoidal_algebra, solenoidal_embed,
                           symbolic_witt_algebra, witt_algebra)
from wittforge.scalars import PolyContext

WITT = witt_algebra()


class TestWittBrackets:
    def test_examples(self):
        e = lambda k: WITT.basis((k,))
        assert bracket(e(1), e(-1)) == e(0).scale(-2)
        assert bracket(e(2), e(3)) == e(5)
        assert bracket(e(0), e(4)) == e(4).scale(4)
        assert bracket(e(3), e(3)).is_zero()

    def test_antisymmetry(self):
        e = lambda k: WITT.basis((k,))
        for r, s in itertools.product(range(-3, 4), repeat=2):
            assert bracket(e(r), e(s)) == -bracket(e(s), e(r))

    def test_linearity(self):
        e = lambda k: WITT.basis((k,))
        x = e(1).scale(2) - e(-2)
        y = e(0) + e(2).scale(Fraction(1, 3))
        assert bracket(x, y) == bracket(e(1), y).scale(2) - bracket(e(-2), y)


class TestWnBrackets:
    def test_rank_two_examples(self):
        alg = WnAlgebra(2)
        b = alg.basis
        # [t^(1,0) d_1, t^(0,1) d_2]: both structure coefficients vanish.
        assert bracket(b((1, 0), 1), b((0, 1), 2)).is_zero()
        # [t^(1,0) d_2, t^(0,1) d_1] = t^(1,1) d_1 - t^(1,1) d_2
        got = bracket(b((1, 0), 2), b((0, 1), 1))
        assert got == b((1, 1), 1) - b((1, 1), 2)
        # Cartan element t^0 d_1 reads off the first exponent.
        assert bracket(b((0, 0), 1), b((3, -2), 2)) == b((3, -2), 2).scale(3)

    def test_rank_one_matches_witt(self):
        alg = WnAlgebra(1)
        b = alg.basis
        for r, s in itertools.product(range(-2, 3), repeat=2):
            got = bracket(b((r,), 1), b((s,), 1))
            assert got == b((r + s,), 1).scale(s - r)


class TestJacobi:
    def test_witt_box_exhaustive(self):
        pts = [(k,) for k in range(-3, 4)]
        report = jacobi_check(WITT, itertools.combinations(pts, 3))
        assert report.passed and report.checked == 35

    def test_w2_box_exhaustive(self):
        alg = WnAlgebra(2)
        gens = [(r, a) for r in itertools.product(range(-1, 2), repeat=2)
                for a in (1, 2)]
        report = jacobi_check(alg, itertools.combinations(gens, 3))
        assert report.passed

    def test_w3_box_sampled_combinations(self):
        alg = WnAlgebra(3)
        gens = [(r, a) for r in itertools.product(range(-1, 2), repeat=3)
                for a in (1, 2, 3)]
        triples = list(itertools.combinations(gens, 3))[::37]
        report = jacobi_check(alg, triples)
        assert report.passed and report.checked == len(triples)

    def test_symbolic_triples(self):
        alg = symbolic_witt_algebra(("k", "s", "p"))
        pts = [alg.lattice.generator(n) for n in ("k", "s", "p")]
        report = jacobi_check(alg, [tuple(pts)])
        assert report.passed

    def test_solenoidal_box(self):
        alg = solenoidal_algebra((Fraction(2), Fraction(3)))
        pts = list(itertools.product(range(-1, 2), repeat=2))
        report = jacobi_check(alg, itertools.combinations(pts, 3))
        assert report.passed

    def test_non_additive_phi_fails(self):
        # phi(x) = x^2 is not additive, so its bracket is no Lie bracket
        class Squared(Rank1Algebra):
            __slots__ = ()

            def phi(self, point):
                return point[0] ** 2

        alg = Squared(WITT.lattice, (1,))
        report = jacobi_check(alg, [((0,), (1,), (2,))])
        assert not report.passed and report.checked == 1
        assert report.failures == [(((0,), (1,), (2,)),
                                    alg.basis((3,)).scale(14))]


class TestSolenoidalEmbed:
    def test_bracket_compatibility(self):
        mu = (Fraction(2), Fraction(3))
        alg = solenoidal_algebra(mu)
        target = WnAlgebra(2)
        pts = list(itertools.product(range(-1, 2), repeat=2))
        for r, s in itertools.product(pts, repeat=2):
            x, y = alg.basis(r), alg.basis(s)
            lhs = solenoidal_embed(bracket(x, y), target)
            rhs = bracket(solenoidal_embed(x, target),
                          solenoidal_embed(y, target))
            assert lhs == rhs


# text of each index kind, as window-failure records carry it
_TEXT_POLY = PolyContext(("k", "s"))
_TEXT_COEFFS = [1, -2, Fraction(1, 3),
                _TEXT_POLY.sym("k") ** 2 - _TEXT_POLY.sym("s") * Fraction(1, 2)]
_TEXT_CASES = [
    (witt_algebra, (3,), "e[3]"),
    (lambda: solenoidal_algebra((Fraction(2), Fraction(3))), (1, -2),
     "e[1,-2]"),
    (lambda: symbolic_witt_algebra(("k", "s")), (1, -1), "e[1,-1]"),
    (lambda: WnAlgebra(1), ((-2,), 1), "e[-2]"),
    (lambda: WnAlgebra(2), ((1, -1), 2), "t[1,-1]d2"),
]


class TestText:
    @pytest.mark.parametrize("make, index, base", _TEXT_CASES,
                             ids=["witt", "solenoidal", "symbolic", "w1",
                                  "w2"])
    def test_basis_text(self, make, index, base):
        texts = [str(LieElement(make(), {index: c})) for c in _TEXT_COEFFS]
        assert texts == [base, f"(-2)*{base}", f"(1/3)*{base}",
                         f"(k^2 - 1/2*s)*{base}"]

    def test_sum_text_is_sorted_by_index(self):
        alg = WnAlgebra(2)
        x = LieElement(alg, {((1, -1), 2): 1, ((0, 0), 1): -2,
                             ((2, 0), 1): _TEXT_COEFFS[3]})
        assert str(x) == ("(-2)*t[0,0]d1 + t[1,-1]d2 + "
                          "(k^2 - 1/2*s)*t[2,0]d1")
        assert repr(x) == f"LieElement({x})"
        assert str(LieElement(alg, {})) == "0"


class TestAutomorphisms:
    def test_non_unimodular_rejected(self):
        with pytest.raises(AlgebraError):
            LatticeAutomorphism([[2, 0], [0, 1]])

    @pytest.mark.parametrize("entry", [Fraction(3, 2), Fraction(-1, 2), 1.0,
                                       True, "1"], ids=repr)
    def test_non_integral_entry_rejected(self, entry):
        # int() used to truncate 3/2 to 1, a silent twist by the identity
        with pytest.raises(AlgebraError, match="not an integer"):
            LatticeAutomorphism([[entry, 0], [0, 1]])

    def test_integral_fraction_entries_read_as_ints(self):
        g = LatticeAutomorphism([[Fraction(1), Fraction(2)], [0, Fraction(1)]])
        assert g.matrix == ((1, 2), (0, 1))
        assert all(type(x) is int for row in g.matrix for x in row)


class TestAlgebraRank:
    @pytest.mark.parametrize("n", [1.5, 2.0, 0, -1, True, "2", None],
                             ids=repr)
    def test_bad_rank_rejected(self, n):
        with pytest.raises(AlgebraError, match="positive integer"):
            WnAlgebra(n)

    def test_keyword_rank(self):
        assert WnAlgebra(n=3).n == 3


_SYMBOLIC = PolyContext(("k",))

VALUES = [
    (lambda: IndexLattice(("k", "1")), {"generator_names": ("k", "1")}),
    (witt_algebra, {"lattice": IndexLattice(("1",)), "phi_values": (1,)}),
    (lambda: symbolic_witt_algebra(("k",)),
     {"lattice": IndexLattice(("k",)), "phi_values": (_SYMBOLIC.sym("k"),)}),
    (lambda: WnAlgebra(2), {"n": 2}),
    (lambda: LatticeAutomorphism([[1, 1], [0, 1]]),
     {"matrix": ((1, 1), (0, 1))}),
]


class TestValueSemantics:
    @pytest.mark.parametrize("make, fields", VALUES,
                             ids=["lattice", "witt", "symbolic", "wn",
                                  "automorphism"])
    def test_value(self, make, fields):
        assert_value_semantics(make, fields)

    def test_types_never_equal(self):
        assert_types_never_equal([make() for make, _ in VALUES]
                                 + [WnAlgebra(1), IndexLattice((1,)),
                                    LatticeAutomorphism.identity(1)])

    def test_repr_names_the_fields(self):
        assert repr(witt_algebra()) == (
            "Rank1Algebra(lattice=IndexLattice(generator_names=('1',)), "
            "phi_values=(1,))")
        assert repr(WnAlgebra(2)) == "WnAlgebra(n=2)"

    def test_equal_algebras_are_one_dict_key(self):
        table = {witt_algebra(): "w1", WnAlgebra(2): "w2"}
        assert table[Rank1Algebra(IndexLattice(("1",)), (1,))] == "w1"
        assert table[WnAlgebra(2)] == "w2"

    def test_jacobi_report_keywords(self):
        rep = JacobiReport(checked=3, failures=[])
        assert rep.checked == 3 and rep.passed
        assert not JacobiReport(1, [("x", "r")]).passed

