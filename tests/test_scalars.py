import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from wittforge.scalars import (ContextMismatchError, MissingSymbolError,
                               PolyContext, PolyScalar, QuadExtScalar,
                               ScalarError, format_rational, parse_poly,
                               parse_rational, parse_scalar)

CTX = PolyContext(("a", "b", "c"))


def rationals():
    return st.fractions(min_value=-50, max_value=50, max_denominator=7)


def quadexts():
    return st.builds(QuadExtScalar, rationals(),
                     st.one_of(st.just(0), rationals()), st.just(19))


EXPONENTS = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))


@st.composite
def polys(draw, coeffs=rationals()):
    terms = draw(st.dictionaries(EXPONENTS, coeffs, max_size=4))
    return PolyScalar(CTX, terms)


# integral, fractional and Q(sqrt(19)) coefficients
MIXED_POLYS = st.one_of(polys(st.integers(-9, 9).map(Fraction)), polys(),
                        polys(quadexts()))


def _pair(c):
    """A coefficient as (a, b) for a + b*sqrt(19)."""
    if isinstance(c, QuadExtScalar):
        return c.a, c.b
    return Fraction(c), Fraction(0)


def _reference_product(p, q):
    """Schoolbook product on dicts of Fraction pairs."""
    out: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            (a1, b1), (a2, b2) = _pair(c1), _pair(c2)
            e = tuple(x + y for x, y in zip(e1, e2))
            a, b = out.get(e, (Fraction(0), Fraction(0)))
            out[e] = (a + a1 * a2 + 19 * b1 * b2, b + a1 * b2 + b1 * a2)
    return {e: ab for e, ab in out.items() if ab != (0, 0)}


def _reference_sum(p, q):
    out: dict = {}
    for poly in (p, q):
        for e, c in poly.terms.items():
            (a, b), (a1, b1) = out.get(e, (0, 0)), _pair(c)
            out[e] = (a + a1, b + b1)
    return {e: ab for e, ab in out.items() if ab != (0, 0)}


class TestRationals:
    def test_format_round_trip(self):
        for x in [Fraction(0), Fraction(3), Fraction(-7, 2), Fraction(22, 7)]:
            assert parse_rational(format_rational(x)) == x


class TestQuadExt:
    def test_conjugate_product(self):
        a = QuadExtScalar(Fraction(7, 2), Fraction(-1, 2), 19)
        b = QuadExtScalar(Fraction(7, 2), Fraction(1, 2), 19)
        assert a * b == QuadExtScalar(Fraction(15, 2), 0, 19)

    def test_inverse(self):
        x = QuadExtScalar(Fraction(3), Fraction(2), 19)
        assert x * (1 / x) == QuadExtScalar(1, 0, 19)

    def test_mixed_field_ops(self):
        x = QuadExtScalar(1, 1, 19)
        assert x + Fraction(1, 2) == QuadExtScalar(Fraction(3, 2), 1, 19)
        assert Fraction(2) * x == QuadExtScalar(2, 2, 19)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            1 / QuadExtScalar(0, 0, 19)


class TestRadicand:
    """sqrt(d) stays formal, so a rational sqrt(d) would read as a value it
    does not equal: sqrt(4) - 2 would be nonzero."""

    @pytest.mark.parametrize("d", [4, 1, 0, -3, 9, (10 ** 40 + 7) ** 2])
    def test_rational_root_refused(self, d):
        with pytest.raises(ScalarError, match="not a perfect square"):
            QuadExtScalar(0, 1, d)

    @pytest.mark.parametrize("d", [19.0, Fraction(19), "19", True])
    def test_non_integer_refused(self, d):
        with pytest.raises(ScalarError, match="integer >= 2"):
            QuadExtScalar(0, 1, d)

    @pytest.mark.parametrize("d", [2, 8, 19, 10 ** 4000 + 1])
    def test_irrational_root_accepted(self, d):
        # d is not factored: 8 is not square-free, and a huge d costs one
        # integer square root
        x = QuadExtScalar(1, 1, d)
        assert x.d == d and x * x.conjugate() == 1 - d

    @pytest.mark.parametrize("text", ["sqrt(4)", "s + sqrt(1)*m", "sqrt(0)"])
    def test_parse_refuses_rational_roots(self, text):
        with pytest.raises(ScalarError, match="not a perfect square"):
            parse_poly(text, PolyContext(("m", "s")))


class _PairRef:
    """a + b*sqrt(19) as a pair of Fractions, with the Fraction-pair
    formulas the packed QuadExtScalar has to agree with."""

    D = 19

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return _PairRef(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return _PairRef(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return _PairRef(self.a * o.a + self.D * self.b * o.b,
                        self.a * o.b + self.b * o.a)

    def __neg__(self):
        return _PairRef(-self.a, -self.b)

    def conjugate(self):
        return _PairRef(self.a, -self.b)

    def norm(self):
        return self.a * self.a - self.D * self.b * self.b

    def inverse(self):
        n = self.norm()
        return _PairRef(self.a / n, -self.b / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def hash(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.D))

    def text(self):
        a, b = self.a, self.b
        if b == 0:
            return format_rational(a)
        bpart = (f"sqrt({self.D})" if abs(b) == 1
                 else f"{format_rational(abs(b))}*sqrt({self.D})")
        if a == 0:
            return bpart if b > 0 else f"-{bpart}"
        return f"{format_rational(a)} {'-' if b < 0 else '+'} {bpart}"


def wide_rationals():
    """Negative values and large denominators, zero included."""
    return st.one_of(st.just(Fraction(0)),
                     st.fractions(min_value=-10**6, max_value=10**6,
                                  max_denominator=10**12))


def _operand(value, kind):
    """`value` (a Fraction) as an int, a Fraction or a QuadExtScalar."""
    if kind == "int":
        return int(value)
    return value if kind == "fraction" else QuadExtScalar(value, 0, 19)


def _agrees(x, ref):
    assert isinstance(x, QuadExtScalar) and x.d == 19
    assert (x.a, x.b) == (ref.a, ref.b)
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert x.n > 0 and gcd(x.p, x.q, x.n) == 1
    assert hash(x) == ref.hash() and bool(x) == (ref.a != 0 or ref.b != 0)
    assert str(x) == ref.text()


class TestPackedQuadExt:
    """The integer-packed QuadExtScalar against Fraction-pair formulas."""

    @settings(max_examples=200, deadline=None)
    @given(wide_rationals(), wide_rationals(), wide_rationals(),
           wide_rationals())
    def test_field_operations(self, a1, b1, a2, b2):
        x, y = QuadExtScalar(a1, b1, 19), QuadExtScalar(a2, b2, 19)
        rx, ry = _PairRef(a1, b1), _PairRef(a2, b2)
        _agrees(x, rx)
        _agrees(x + y, rx + ry)
        _agrees(x - y, rx - ry)
        _agrees(x * y, rx * ry)
        _agrees(-x, -rx)
        _agrees(x.conjugate(), rx.conjugate())
        assert x.norm() == rx.norm() and type(x.norm()) is Fraction
        if ry.norm():
            _agrees(y.inverse(), ry.inverse())
            _agrees(x / y, rx / ry)
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        assert (x == y) == ((a1, b1) == (a2, b2))

    @settings(max_examples=200, deadline=None)
    @given(wide_rationals(), wide_rationals(), wide_rationals(),
           st.sampled_from(["int", "fraction"]))
    def test_rational_operands_on_both_sides(self, a, b, r, kind):
        x, rx = QuadExtScalar(a, b, 19), _PairRef(a, b)
        k = _operand(r, kind)
        rk = _PairRef(k)
        for got, ref in ((x + k, rx + rk), (k + x, rk + rx),
                         (x - k, rx - rk), (k - x, rk - rx),
                         (x * k, rx * rk), (k * x, rk * rx)):
            _agrees(got, ref)
        if k:
            _agrees(x / k, rx / rk)
        if rx.norm():
            _agrees(k / x, rk / rx)
        assert (x == k) == (k == x) == (rx.b == 0 and rx.a == k)

    @settings(max_examples=100, deadline=None)
    @given(wide_rationals(), st.sampled_from(["int", "fraction", "quad"]))
    def test_rational_values_match_rationals(self, r, kind):
        # b == 0 compares and hashes like the rational itself
        k = _operand(r, kind)
        x = QuadExtScalar(k if kind == "int" else r, 0, 19)
        assert x == k and k == x and hash(x) == hash(k)
        assert x != k + 1 and x + QuadExtScalar(0, 1, 19) != k

    @settings(max_examples=100, deadline=None)
    @given(wide_rationals(), wide_rationals(), wide_rationals(),
           wide_rationals())
    def test_equal_values_have_equal_fields(self, a, b, c, e):
        x, y = QuadExtScalar(a, b, 19), QuadExtScalar(c, e, 19)
        for other in ((x + y) - y, (x * 6) / 6, x + QuadExtScalar(0, 0, 19),
                      -(-x), x.conjugate().conjugate()):
            assert (other.p, other.q, other.n, other.d) == (x.p, x.q, x.n, 19)
            assert other == x and hash(other) == hash(x)

    def test_zero_and_canonical_sign(self):
        zero = QuadExtScalar(Fraction(1, 3), -2, 19) * 0
        assert (zero.p, zero.q, zero.n) == (0, 0, 1) and not zero
        x = QuadExtScalar(0, 1, 19).inverse()   # sqrt(19)/19
        assert (x.p, x.q, x.n) == (0, 1, 19)
        y = QuadExtScalar(1, 1, 19).inverse()   # (1 - sqrt19)/(-18)
        assert (y.p, y.q, y.n) == (-1, 1, 18)

    def test_immutable(self):
        x = QuadExtScalar(1, 2, 19)
        for name in ("a", "b", "p", "q", "n", "d"):
            with pytest.raises(AttributeError):
                setattr(x, name, 5)

    def test_mixed_radicands_raise(self):
        x, y = QuadExtScalar(1, 1, 19), QuadExtScalar(1, 1, 5)
        for op in (lambda: x + y, lambda: x - y, lambda: x * y,
                   lambda: x / y, lambda: y * x):
            with pytest.raises(ContextMismatchError):
                op()
        assert x != y and QuadExtScalar(2, 0, 19) != QuadExtScalar(2, 0, 5)


class TestProductPaths:
    @settings(max_examples=150, deadline=None)
    @given(MIXED_POLYS, MIXED_POLYS)
    def test_sum_and_product_match_reference(self, p, q):
        for result, reference in ((p * q, _reference_product(p, q)),
                                  (p + q, _reference_sum(p, q))):
            assert {e: _pair(c) for e, c in result.terms.items()} == reference
            for expo, c in result.terms.items():
                assert type(c) in (Fraction, QuadExtScalar) and c
                assert len(expo) == len(CTX.symbols)

    @settings(max_examples=100, deadline=None)
    @given(MIXED_POLYS, st.one_of(st.integers(-5, 5), rationals(), quadexts()))
    def test_scalar_factor_matches_reference(self, p, k):
        for prod in (p * k, k * p):
            assert {e: _pair(c) for e, c in prod.terms.items()} \
                == _reference_product(p, CTX.const(k))
            assert all(type(c) in (Fraction, QuadExtScalar) and c
                       for c in prod.terms.values())

    @settings(max_examples=100, deadline=None)
    @given(quadexts(), quadexts(), st.booleans())
    def test_quadext_product_with_rational_factor(self, x, y, rational_side):
        # b == 0 on one side (or a plain rational) takes the short form
        if rational_side:
            y = QuadExtScalar(y.a, 0, 19)
        full = QuadExtScalar(x.a * y.a + 19 * x.b * y.b,
                             x.a * y.b + x.b * y.a, 19)
        for prod in (x * y, y * x):
            assert prod == full and hash(prod) == hash(full)
        if rational_side:
            for prod in (x * y.a, y.a * x):
                assert prod == full and hash(prod) == hash(full)


class TestPolyRing:
    @settings(max_examples=60, deadline=None)
    @given(polys(), polys(), polys())
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=40, deadline=None)
    @given(polys(), polys())
    def test_specialize_is_a_homomorphism(self, p, q):
        vals = {"a": Fraction(2), "b": Fraction(-1, 3), "c": Fraction(5)}
        assert (p * q).specialize(vals) == p.specialize(vals) * q.specialize(vals)
        assert (p + q).specialize(vals) == p.specialize(vals) + q.specialize(vals)

    @settings(max_examples=40, deadline=None)
    @given(polys())
    def test_str_parse_round_trip(self, p):
        assert parse_poly(str(p), CTX) == p

    def test_substitute(self):
        a, b = CTX.sym("a"), CTX.sym("b")
        p = a ** 2 + 3 * b
        assert p.substitute({"a": b + 1}) == (b + 1) ** 2 + 3 * b

    def test_context_mismatch(self):
        other = PolyContext(("x",))
        with pytest.raises(ContextMismatchError):
            CTX.sym("a") + other.sym("x")

    def test_missing_symbol(self):
        with pytest.raises(MissingSymbolError):
            (CTX.sym("a") + CTX.sym("b")).specialize({"a": 1})

    def test_division_by_a_constant_only(self):
        a, b = CTX.sym("a"), CTX.sym("b")
        assert (a * 4 + b) / CTX.const(2) == a * 2 + b * Fraction(1, 2)
        assert (a * 3) / Fraction(3, 2) == a * 2
        with pytest.raises(ScalarError):
            (a * b) / a
        with pytest.raises(ZeroDivisionError):
            a / CTX.zero()


class TestParsing:
    def test_literal(self):
        p = parse_poly("3*a^2*b - 1/2", CTX)
        a, b = CTX.sym("a"), CTX.sym("b")
        assert p == 3 * a ** 2 * b - Fraction(1, 2)

    def test_sqrt_coefficients(self):
        ctx = PolyContext(("m",))
        p = parse_poly("(7/2 - 1/2*sqrt(19))*m", ctx)
        coeff = p.coefficient_of("m", 1).constant_value()
        assert coeff == QuadExtScalar(Fraction(7, 2), Fraction(-1, 2), 19)
        assert parse_poly(str(p), ctx) == p

    def test_parse_scalar_plain(self):
        assert parse_scalar("-5/3") == Fraction(-5, 3)

    @pytest.mark.parametrize("text", ["sqrt(19)", "7/2 - 1/2*sqrt(19)", "m"])
    def test_parse_scalar_without_context_rejects_non_rationals(self, text):
        with pytest.raises(ScalarError):
            parse_scalar(text)

    @pytest.mark.parametrize("text", ["1.5", "a b", "1 2", "a^2 (b)", "a;b",
                                      "- -3", "--a", "a -", "a + -b", "",
                                      "()", "a*( )"])
    def test_malformed_polynomial_rejected(self, text):
        # a character outside the grammar, two factors with no operator
        # between them, a sign with no term of its own or an empty
        # expression is an error, never a silently different polynomial
        with pytest.raises(ScalarError):
            parse_poly(text, CTX)


_ROUND_TRIPS = [copy.copy, copy.deepcopy,
                lambda x: pickle.loads(pickle.dumps(x))]


class TestCopyAndPickle:
    """The immutable scalar types rebuild through their constructors, so
    copy, deepcopy and pickle keep value, hash and text."""

    @pytest.mark.parametrize("trip", _ROUND_TRIPS)
    @pytest.mark.parametrize("x", [
        QuadExtScalar(1, 2), QuadExtScalar(Fraction(-3, 4), Fraction(5, 6)),
        QuadExtScalar(Fraction(7, 2)), PolyContext(("m", "s")),
        parse_poly("(3/2 - 1/2*sqrt(19))*a^2*b - 1/3*c + 4", CTX),
        CTX.zero()])
    def test_round_trip(self, trip, x):
        y = trip(x)
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x) and str(y) == str(x)

    def test_deepcopy_of_a_quadratic_module_vector(self):
        from wittforge.modules import act, build_preset
        M = build_preset("feigin_fuks_length2")
        v = act(M.algebra.basis((2,)), M.basis_vector((1,), M.fiber[0]))
        assert any(isinstance(c, QuadExtScalar) and c.b
                   for c in v.terms.values())
        w = copy.deepcopy(v)
        assert w.module is not M and w.terms == v.terms and str(w) == str(v)
        # the copied module acts as the original does
        assert act(w.module.algebra.basis((-1,)), w).terms == act(
            M.algebra.basis((-1,)), v).terms


# values mapped onto CTX's symbols: a polynomial of another context
_VALUE_CTX = PolyContext(("x", "y"))


@st.composite
def value_polys(draw):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.one_of(rationals(), quadexts()), max_size=3))
    return PolyScalar(_VALUE_CTX, terms)


def _term_by_term(p, mapping, power):
    """`p` at `mapping`, each monomial evaluated on its own with `power`."""
    total = Fraction(0)
    for expo, coeff in p.terms.items():
        term = coeff
        for sym, e in zip(p.ctx.symbols, expo):
            if e:
                term = term * power(mapping[sym], e)
        total = total + term
    return total


def _repeated_product(value, e):
    out = value
    for _ in range(e - 1):
        out = out * value
    return out


class TestSpecializePowerTable:
    """`specialize` tables each symbol's powers once per call; its value
    is that of the term-by-term evaluation."""

    @settings(max_examples=80, deadline=None)
    @given(MIXED_POLYS, st.sampled_from(["int", "fraction", "poly"]),
           st.data())
    def test_matches_term_by_term_powers(self, p, kind, data):
        values = {"int": st.integers(-6, 6), "fraction": rationals(),
                  "poly": value_polys()}[kind]
        mapping = {sym: data.draw(values) for sym in CTX.symbols}
        got = p.specialize(mapping)
        want = _term_by_term(p, mapping, lambda v, e: v ** e)
        assert got == want and type(got) is type(want)

    @settings(max_examples=80, deadline=None)
    @given(MIXED_POLYS, st.lists(quadexts(), min_size=3, max_size=3))
    def test_quadratic_values_match_repeated_products(self, p, values):
        # QuadExtScalar has no `**`: the table multiplies
        mapping = dict(zip(CTX.symbols, values))
        got = p.specialize(mapping)
        assert got == _term_by_term(p, mapping, _repeated_product)

    def test_missing_symbol_still_raises(self):
        p = parse_poly("a^3*b + c", CTX)
        with pytest.raises(MissingSymbolError, match="'c'"):
            p.specialize({"a": QuadExtScalar(1, 1), "b": 2})
