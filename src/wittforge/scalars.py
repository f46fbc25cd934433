"""Exact scalar arithmetic: rationals, sparse multivariate polynomials
over them, and a quadratic extension Q(sqrt(d)).

All values are immutable; operations are pure. Polynomials are kept in a
canonical sparse form so that equality is decidable by direct comparison:
every key of `PolyScalar.terms` is an exponent tuple of the context's arity,
and every value is a nonzero Fraction or QuadExtScalar, never an int.
`PolyScalar.__init__` establishes this for outside input; ring operations
whose results keep it by construction return through `PolyScalar._clean`.
Products of polynomials whose coefficients are all integral multiply plain
int numerators and wrap the sums back into Fractions. A QuadExtScalar holds
integer numerators over one denominator, so its arithmetic is integer
products and one gcd per result rather than Fraction operations.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Mapping, Union


class ScalarError(Exception):
    pass


class ContextMismatchError(ScalarError):
    pass


class MissingSymbolError(ScalarError):
    pass


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


class QuadExtScalar:
    """Element a + b*sqrt(d) of a real quadratic extension of Q.

    Stored as integers: (p + q*sqrt(d))/n with n > 0 and gcd(p, q, n) = 1,
    so equal values have equal fields and a product costs a few integer
    products and one gcd. `a` and `b` give the rational parts as Fractions.
    The radicand d is an integer >= 2 that is not a perfect square, so
    sqrt(d) is irrational and a + b*sqrt(d) is zero only when a = b = 0; d
    is not factored, so a huge d costs one integer square root. Mixing
    distinct radicands raises ContextMismatchError.
    """

    __slots__ = ("p", "q", "n", "d")

    def __new__(cls, a, b=0, d: int = 19):
        if type(d) is not int or d < 2 or isqrt(d) ** 2 == d:
            raise ScalarError(f"the radicand of sqrt(d) must be an integer "
                              f">= 2 that is not a perfect square, got {d!r}")
        a, b = Fraction(a), Fraction(b)
        return _quad(a.numerator * b.denominator, b.numerator * a.denominator,
                     a.denominator * b.denominator, d)

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.n)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.n)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExtScalar is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, since the
        # default protocol sets slots through the blocked __setattr__
        return QuadExtScalar, (self.a, self.b, self.d)

    def _parts(self, other):
        """(p, q, n) of an operand in this field, or None for another type."""
        if isinstance(other, QuadExtScalar):
            if other.d != self.d:
                raise ContextMismatchError(
                    f"mixed radicands sqrt({self.d}) and sqrt({other.d})"
                )
            return other.p, other.q, other.n
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, n = o
        return _quad(self.p * n + p * self.n, self.q * n + q * self.n,
                     self.n * n, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self.p, -self.q, self.n, self.d)

    def __sub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, n = o
        return _quad(self.p * n - p * self.n, self.q * n - q * self.n,
                     self.n * n, self.d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, n = o
        return _quad(self.p * p + self.d * self.q * q, self.p * q + self.q * p,
                     self.n * n, self.d)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExtScalar":
        return _quad(self.p, -self.q, self.n, self.d)

    def norm(self) -> Fraction:
        # (a + b sqrt(d)) (a - b sqrt(d)) = a^2 - d b^2
        return Fraction(self.p * self.p - self.d * self.q * self.q,
                        self.n * self.n)

    def inverse(self) -> "QuadExtScalar":
        # n / (p + q sqrt(d)) = n (p - q sqrt(d)) / (p^2 - d q^2)
        m = self.p * self.p - self.d * self.q * self.q
        if m == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        s = self.n if m > 0 else -self.n
        return _quad(s * self.p, -s * self.q, abs(m), self.d)

    def __truediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self * _quad(*o, self.d).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, QuadExtScalar):
            return (self.d == other.d and self.p == other.p
                    and self.q == other.q and self.n == other.n)
        if isinstance(other, (int, Fraction)):
            return (not self.q
                    and self.p * other.denominator == other.numerator * self.n)
        return NotImplemented

    def __hash__(self):
        if not self.q:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.p or self.q)

    def __repr__(self):
        return f"QuadExtScalar({self!s})"

    def __str__(self):
        if self.b == 0:
            return format_rational(self.a)
        bpart = f"sqrt({self.d})" if abs(self.b) == 1 else f"{format_rational(abs(self.b))}*sqrt({self.d})"
        sign = "-" if self.b < 0 else "+"
        if self.a == 0:
            return bpart if self.b > 0 else f"-{bpart}"
        return f"{format_rational(self.a)} {sign} {bpart}"


_set_p, _set_q, _set_n, _set_d = (getattr(QuadExtScalar, f).__set__
                                  for f in QuadExtScalar.__slots__)


def _quad(p: int, q: int, n: int, d: int) -> QuadExtScalar:
    """(p + q*sqrt(d))/n with n > 0, in canonical form. The slot setters
    get past the blocked __setattr__ faster than object.__setattr__."""
    g = gcd(p, q, n)
    if g != 1:
        p, q, n = p // g, q // g, n // g
    x = object.__new__(QuadExtScalar)
    _set_p(x, p)
    _set_q(x, q)
    _set_n(x, n)
    _set_d(x, d)
    return x


BaseScalar = Union[int, Fraction, QuadExtScalar]


class PolyContext:
    """Fixed ordered symbol set plus a base coefficient field."""

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if len(set(syms)) != len(syms):
            raise ScalarError(f"duplicate symbols in context: {syms}")
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(syms)})

    def __setattr__(self, name, value):
        raise AttributeError("PolyContext is immutable")

    def __reduce__(self):
        return PolyContext, (self.symbols,)

    def __eq__(self, other):
        return isinstance(other, PolyContext) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return f"PolyContext{self.symbols}"

    def zero(self) -> "PolyScalar":
        return PolyScalar(self, {})

    def const(self, value) -> "PolyScalar":
        if isinstance(value, PolyScalar):
            if value.ctx != self:
                raise ContextMismatchError(f"{value.ctx} vs {self}")
            return value
        if isinstance(value, int):
            value = Fraction(value)
        if not value:
            return self.zero()
        return PolyScalar(self, {(0,) * len(self.symbols): value})

    def sym(self, name: str) -> "PolyScalar":
        if name not in self._index:
            raise MissingSymbolError(f"symbol {name!r} not in context {self.symbols}")
        expo = [0] * len(self.symbols)
        expo[self._index[name]] = 1
        return PolyScalar(self, {tuple(expo): Fraction(1)})


class PolyScalar:
    """Sparse multivariate polynomial with exact coefficients.

    Coefficients are Fractions or QuadExtScalars; term keys are exponent
    tuples aligned with the context's symbol order.
    """

    __slots__ = ("ctx", "terms", "_hash")

    def __init__(self, ctx: PolyContext, terms: Mapping[tuple, BaseScalar]):
        clean = {}
        n = len(ctx.symbols)
        for expo, coeff in terms.items():
            if isinstance(coeff, int):
                coeff = Fraction(coeff)
            if not coeff:
                continue
            if len(expo) != n:
                raise ScalarError(f"exponent {expo} does not match context {ctx}")
            clean[expo] = coeff
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _clean(cls, ctx: PolyContext, terms: dict) -> "PolyScalar":
        """Wrap `terms` without re-validating it. The caller guarantees the
        canonical form: exponent tuples of the context's arity and nonzero
        Fraction/QuadExtScalar values, as the ring operations produce from
        canonical operands. Outside input goes through __init__."""
        self = object.__new__(cls)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("PolyScalar is immutable")

    def __reduce__(self):
        return PolyScalar, (self.ctx, self.terms)

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other) -> "PolyScalar":
        if isinstance(other, PolyScalar):
            if other.ctx != self.ctx:
                raise ContextMismatchError(f"{self.ctx} vs {other.ctx}")
            return other
        if isinstance(other, (int, Fraction, QuadExtScalar)):
            return self.ctx.const(other)
        return NotImplemented

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.terms:
            return self
        if not self.terms:
            return o
        terms = dict(self.terms)
        for expo, coeff in o.terms.items():
            c = terms.get(expo)
            if c is None:
                terms[expo] = coeff
                continue
            if (type(c) is Fraction and type(coeff) is Fraction
                    and c.denominator == 1 == coeff.denominator):
                c = Fraction(c.numerator + coeff.numerator)
            else:
                c = c + coeff
            if c:
                terms[expo] = c
            else:
                del terms[expo]
        return PolyScalar._clean(self.ctx, terms)

    __radd__ = __add__

    def __neg__(self):
        return PolyScalar._clean(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadExtScalar)):
            # a scalar factor keeps every exponent and the term order
            if not other:
                return self.ctx.zero()
            if type(other) is int and _integral(self.terms):
                terms = {e: Fraction(c.numerator * other)
                         for e, c in self.terms.items()}
            else:
                terms = {e: c * other for e, c in self.terms.items()}
            return PolyScalar._clean(self.ctx, terms)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        left, right = self.terms, o.terms
        if _integral(left) and _integral(right):
            # Fraction arithmetic normalizes by a gcd on every operation;
            # integral coefficients multiply and add as plain ints.
            terms = _mul_terms({e: c.numerator for e, c in left.items()},
                               {e: c.numerator for e, c in right.items()})
            terms = {e: Fraction(c) for e, c in terms.items()}
        else:
            terms = _mul_terms(left, right)
        return PolyScalar._clean(self.ctx, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ScalarError("negative polynomial power")
        result = self.ctx.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        # Division by a base-field scalar only.
        if isinstance(other, PolyScalar):
            if not other.is_constant():
                raise ScalarError(f"division by a non-constant polynomial: "
                                  f"{other}")
            other = other.constant_value()
        if isinstance(other, int):
            other = Fraction(other)
        if not other:
            raise ZeroDivisionError("division by zero scalar")
        if isinstance(other, QuadExtScalar):
            inv = other.inverse()
        else:
            inv = Fraction(1) / other
        return PolyScalar(self.ctx, {e: c * inv for e, c in self.terms.items()})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in expo) for expo in self.terms)

    def constant_value(self) -> BaseScalar:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ScalarError(f"not a constant polynomial: {self}")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def coefficient_of(self, name: str, power: int) -> "PolyScalar":
        """Coefficient of name**power, a polynomial in the remaining symbols
        (kept in the same context with exponent 0 at name)."""
        i = self.ctx._index[name]
        terms = {}
        for e, c in self.terms.items():
            if e[i] == power:
                e2 = e[:i] + (0,) + e[i + 1:]
                terms[e2] = terms.get(e2, Fraction(0)) + c
        return PolyScalar(self.ctx, terms)

    def symbols_used(self) -> set:
        used = set()
        for e in self.terms:
            for i, p in enumerate(e):
                if p:
                    used.add(self.ctx.symbols[i])
        return used

    def __eq__(self, other):
        if isinstance(other, PolyScalar):
            return self.ctx == other.ctx and self.terms == other.terms
        if isinstance(other, (int, Fraction, QuadExtScalar)):
            if not other:
                return not self.terms
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ctx.symbols, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- substitution -----------------------------------------------------

    def specialize(self, mapping: Mapping[str, object]):
        """Evaluate by substituting every used symbol from `mapping`.

        Values may be base scalars or PolyScalars of any context; the result
        type follows the values, and a constant polynomial gives its base
        coefficient. A call tables each used symbol's powers [v, v^2, ...]
        once, by repeated multiplication, so no value needs a `**`.
        """
        powers: dict = {}
        total = None
        for expo, coeff in self.terms.items():
            term = coeff
            for sym, e in zip(self.ctx.symbols, expo):
                if not e:
                    continue
                table = powers.get(sym)
                if table is None:
                    if sym not in mapping:
                        raise MissingSymbolError(f"no value for symbol {sym!r}")
                    table = powers[sym] = [mapping[sym]]
                while len(table) < e:
                    table.append(table[-1] * table[0])
                term = term * table[e - 1]
            total = term if total is None else total + term
        return Fraction(0) if total is None else total

    def substitute(self, mapping: Mapping[str, "PolyScalar | BaseScalar"]) -> "PolyScalar":
        """Replace some symbols by polynomials of this same context (or by
        scalars); the others stay."""
        full = {name: self.ctx.sym(name) for name in self.symbols_used()}
        full.update(mapping)
        return self.ctx.const(self.specialize(full))

    # -- text form --------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            factors = []
            for i, p in enumerate(e):
                if p == 1:
                    factors.append(self.ctx.symbols[i])
                elif p > 1:
                    factors.append(f"{self.ctx.symbols[i]}^{p}")
            cstr, negative = _coeff_str(c)
            if factors:
                body = "*".join(factors)
                if cstr == "1":
                    text = body
                else:
                    text = f"{cstr}*{body}"
            else:
                text = cstr
            parts.append(("-" if negative else "+", text))
        sign, first = parts[0]
        out = ("-" if sign == "-" else "") + first
        for sign, text in parts[1:]:
            out += f" {sign} {text}"
        return out

    def __repr__(self):
        return f"PolyScalar({self!s})"


def _integral(terms: dict) -> bool:
    return all(type(c) is Fraction and c.denominator == 1
               for c in terms.values())


def _mul_terms(left: dict, right: dict) -> dict:
    """Sparse product of two term dicts whose values form a ring without
    zero divisors; a sum that cancels is deleted as soon as it does."""
    terms: dict = {}
    get = terms.get
    add = operator.add
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(map(add, e1, e2))
            prev = get(e)
            if prev is None:
                terms[e] = c1 * c2
            else:
                c = prev + c1 * c2
                if c:
                    terms[e] = c
                else:
                    del terms[e]
    return terms


def _grlex_key(expo: tuple) -> tuple:
    return (sum(expo), expo)


def _coeff_str(c) -> tuple[str, bool]:
    """Text of |c| plus a negativity flag (for sign placement)."""
    if isinstance(c, QuadExtScalar):
        if c.b == 0:
            return _coeff_str(c.a)
        neg = c.a < 0 or (c.a == 0 and c.b < 0)
        cc = -c if neg else c
        return f"({cc})", neg
    c = Fraction(c)
    return format_rational(abs(c)), c < 0


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9']*)"
    r"|(?P<op>[-+*^()])|(?P<end>$))"
)


def parse_poly(text: str, ctx: PolyContext) -> PolyScalar:
    """Parse the canonical emitted polynomial grammar, e.g. '3*k^2*s - 1/2'.
    Quadratic coefficients appear parenthesized: '(7/2 - 1/2*sqrt(19))*k'.
    """
    pos = 0
    text = text.strip()
    if not text:
        raise ScalarError("empty polynomial; zero is written 0")
    result = ctx.zero()
    sign = None  # the sign read before the next term, if any
    n = len(text)

    def token(pos):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ScalarError(f"cannot parse {text!r} at position {pos}")
        return m

    def read_factor(pos):
        # one factor: rational | name[^int] | (quadext)
        m = token(pos)
        if m.group("num"):
            return ctx.const(Fraction(m.group("num"))), m.end()
        if m.group("name"):
            name = m.group("name")
            pos2 = m.end()
            if name == "sqrt":
                m2 = re.match(r"\s*\(\s*(\d+)\s*\)", text[pos2:])
                if not m2:
                    raise ScalarError(f"bad sqrt at {pos2} in {text!r}")
                return ctx.const(QuadExtScalar(0, 1, int(m2.group(1)))), pos2 + m2.end()
            base = ctx.sym(name)
            m2 = re.match(r"\s*\^\s*(\d+)", text[pos2:])
            if m2:
                return base ** int(m2.group(1)), pos2 + m2.end()
            return base, pos2
        if m.group("op") == "(":
            depth, j = 1, m.end()
            while j < n and depth:
                if text[j] == "(":
                    depth += 1
                elif text[j] == ")":
                    depth -= 1
                j += 1
            if depth:
                raise ScalarError(f"unbalanced parens in {text!r}")
            inner = parse_poly(text[m.end():j - 1], ctx)
            return inner, j
        raise ScalarError(f"cannot parse {text!r} at position {pos}")

    while pos < n:
        m = token(pos)
        if m.group("op") in ("+", "-"):
            if sign is not None:
                raise ScalarError(f"two signs in a row in {text!r} at "
                                  f"position {pos}")
            sign = 1 if m.group("op") == "+" else -1
            pos = m.end()
            continue
        if m.group("end") is not None and not m.group(0).strip():
            break
        term, pos = read_factor(pos)
        while pos < n:
            m2 = token(pos)
            if m2.group("op") == "*":
                factor, pos = read_factor(m2.end())
                term = term * factor
            elif m2.group("op") in ("+", "-") or m2.group("end") is not None:
                break
            else:
                raise ScalarError(f"expected an operator in {text!r} at "
                                  f"position {pos}")
        result = result + (-term if sign == -1 else term)
        sign = None
    if sign is not None:
        raise ScalarError(f"a sign with no term after it in {text!r}")
    return result


def parse_scalar(text: str, ctx: PolyContext | None = None) -> BaseScalar | PolyScalar:
    """Parse an emitted scalar string: a rational without a context, any
    polynomial over Q or Q(sqrt d) in the context `ctx`."""
    text = text.strip()
    if re.fullmatch(r"[+-]?\d+(?:/\d+)?", text):
        return Fraction(text)
    if ctx is None:
        raise ScalarError(f"need a PolyContext to parse {text!r}")
    return parse_poly(text, ctx)


def scalar_str(x) -> str:
    if isinstance(x, (int, Fraction)):
        return format_rational(Fraction(x))
    return str(x)


def is_zero_scalar(x) -> bool:
    if isinstance(x, PolyScalar):
        return x.is_zero()
    return not x


class Frozen:
    """Immutable value whose fields are its `__slots__`, in constructor
    order; a subclass's `__init__` sets them with `object.__setattr__`.
    Values of one type are equal when their fields are, the hash is that of
    the field tuple, and copy and pickle rebuild through the constructor."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Combination:
    """Finite formal sum {key: coefficient} over a parent, an algebra or a
    module. Zero coefficients are dropped, so equal sums have equal terms.
    Sums of different parents raise the subclass's `_mismatch` error;
    parents are equal when they are the same object or compare equal."""

    __slots__ = ("parent", "terms")
    _mismatch: tuple  # (exception class, message)

    def __init__(self, parent, terms: Mapping):
        self.parent = parent
        self.terms = {k: v for k, v in terms.items() if not is_zero_scalar(v)}

    def _same_parent(self, other) -> bool:
        return other.parent is self.parent or other.parent == self.parent

    def _check(self, other):
        if not self._same_parent(other):
            error, message = self._mismatch
            raise error(message)

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms[k] + v if k in terms else v
        return type(self)(self.parent, terms)

    def __neg__(self):
        return type(self)(self.parent, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms[k] - v if k in terms else -v
        return type(self)(self.parent, terms)

    def scale(self, c):
        return type(self)(self.parent, {k: c * v for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (type(other) is type(self) and self._same_parent(other)
                and other.terms == self.terms)
