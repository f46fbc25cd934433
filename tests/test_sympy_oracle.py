"""sympy as an independent oracle for the exact arithmetic.

Polynomials cross over through their text: `str` of a `PolyScalar` is read
by `sympy.sympify`, where `^` is a power and `sqrt(19)` is sympy's own
radical. Matrices cross over entry by entry. sympy is a test dependency
only (`pip install .[test]`); without it this file shows as one skip.
"""

import itertools
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from wittforge import enveloping, linalg  # noqa: E402
from wittforge.modules import de_rham_homology  # noqa: E402
from wittforge.scalars import PolyContext, PolyScalar, QuadExtScalar  # noqa: E402

CTX = PolyContext(("a", "b", "c"))
# Hypothesis's explain phase traces every line run, sympy's included, which
# makes shrinking a failing example take minutes; the other phases stay.
ORACLE = settings(deadline=None,
                  phases=[p for p in Phase if p is not Phase.explain])

RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=6)
QUADS = st.builds(QuadExtScalar, RATIONALS, RATIONALS, st.just(19))
COEFFS = st.one_of(RATIONALS, QUADS)
EXPONENTS = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
POLYS = st.dictionaries(EXPONENTS, COEFFS, max_size=4).map(
    lambda terms: PolyScalar(CTX, terms))


def to_sympy(x):
    """A scalar of any type read by sympy from its own text."""
    return sympy.sympify(str(x))


def same(x, expr) -> bool:
    return sympy.expand(to_sympy(x) - expr) == 0


@settings(ORACLE, max_examples=30)
@given(POLYS, POLYS)
def test_ring_operations_match_expand(p, q):
    sp, sq = to_sympy(p), to_sympy(q)
    assert same(p + q, sp + sq)
    assert same(p - q, sp - sq)
    assert same(p * q, sp * sq)
    assert same(p ** 2, sp ** 2)


@settings(ORACLE, max_examples=30)
@given(POLYS, st.lists(COEFFS, min_size=3, max_size=3), POLYS)
def test_specialize_matches_subs(p, values, q):
    mapping = dict(zip(CTX.symbols, values))
    subs = {sympy.Symbol(k): to_sympy(v) for k, v in mapping.items()}
    assert same(p.specialize(mapping), to_sympy(p).subs(subs))
    # a partial substitution by a polynomial keeps the other symbols
    assert same(p.substitute({"a": q}),
                to_sympy(p).subs(sympy.Symbol("a"), to_sympy(q)))


def matrices(max_rows=4, max_cols=5):
    return st.integers(1, max_cols).flatmap(lambda cols: st.lists(
        st.lists(st.one_of(st.just(Fraction(0)), RATIONALS),
                 min_size=cols, max_size=cols),
        min_size=1, max_size=max_rows))


def sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows])


@settings(ORACLE, max_examples=50)
@given(matrices())
def test_rank_and_frame_match_rref(rows):
    A = sympy_matrix(rows)
    rref, sym_pivots = A.rref()
    rank = len(sym_pivots)
    assert linalg.rank(rows) == A.rank() == rank
    basis, transform, coordinates, pivots = linalg.span_frame(rows)
    assert pivots == list(sym_pivots)
    if rank:
        B = sympy_matrix(basis)
        assert B == rref[:rank, :]
        assert sympy_matrix(transform) * A == B
        assert sympy_matrix(coordinates) * B == A
    else:
        assert basis == transform == [] and all(c == [] for c in coordinates)


def sympy_de_rham_ranks(n: int, s) -> list:
    """Homology ranks of the de Rham complex on the slice of absolute weight
    s, from sympy ranks of its d matrices: d maps the basis k-form e_S to
    sum_a s_a e_a ^ e_S, and e_a moves past the members of S below a."""
    forms = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    d_ranks = [0]  # rank of d into degree k, for k = 0..n, then 0 out of n
    for k in range(n):
        d = sympy.zeros(len(forms[k + 1]), len(forms[k]))
        for j, S in enumerate(forms[k]):
            for a in set(range(n)) - set(S):
                i = forms[k + 1].index(tuple(sorted(S + (a,))))
                d[i, j] = (-1) ** sum(x < a for x in S) * s[a]
        d_ranks.append(d.rank())
    d_ranks.append(0)
    return [len(forms[k]) - d_ranks[k] - d_ranks[k + 1]
            for k in range(n + 1)]


@settings(ORACLE, max_examples=40)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.fractions(-2, 2, max_denominator=2), min_size=n,
             max_size=n),
    st.lists(st.integers(-2, 2), min_size=n, max_size=n))))
def test_de_rham_homology_matches_rank(case):
    beta, w = case
    s = [sympy.Rational(b.numerator, b.denominator) + x
         for b, x in zip(beta, w)]
    assert de_rham_homology(len(beta), beta, w) == sympy_de_rham_ranks(
        len(beta), s)



def test_shift_recurrences_match_expand():
    """The m-step and the r-step of the identity's closed form, re-derived
    in sympy with m and r symbolic: F_{m,r} = x[(y + 2rh) - (y + 2mh)T],
    and `enveloping._rhs_factor` on sympy symbols is that F."""
    x, y, h, m, r, T = sympy.symbols("x y h m r T")

    def F(m, r, x=x, y=y):
        return x * ((y + 2 * r * h) - (y + 2 * m * h) * T)

    assert sympy.expand(enveloping._rhs_factor(m, r, x, y, h, T)
                        - F(m, r)) == 0
    shifted = F(m, r, x + h, y + h) + F(m, r, x - h, y + h)
    m_step = (F(m + 1, r) * (1 - T) ** 2
              - (F(m, r) - shifted * T + F(m, r, y=y + 2 * h) * T ** 2))
    r_step = (F(m, r + 1) * (1 - T) ** 2
              - (F(m, r) * T ** 2 - shifted * T + F(m, r, y=y + 2 * h)))
    assert sympy.expand(m_step) == 0 and sympy.expand(r_step) == 0

    # at concrete orders, the steps are the shifts acting on the whole
    # closed form G = F T^(-2r) (1 - T)^(2m+2r-1): sigma1 and tau2 move
    # x -> x + h, sigma2 and tau1 x -> x - h, each y -> y + h, and the
    # sigmas multiply by T, the taus by 1/T
    def G(m, r):
        return F(m, r) * T ** (-2 * r) * (1 - T) ** (2 * m + 2 * r - 1)

    def shift(g, dx, power):
        return g.subs({x: x + dx, y: y + h}, simultaneous=True) * T ** power

    for mi, ri in itertools.product((1, 2, 3), repeat=2):
        g = G(mi, ri)
        sigma = g - shift(g, h, 1)
        sigma = sigma - shift(sigma, -h, 1)
        tau = g - shift(g, -h, -1)
        tau = tau - shift(tau, h, -1)
        assert sympy.expand(G(mi + 1, ri) - sigma) == 0
        assert sympy.expand(G(mi, ri + 1) - tau) == 0
