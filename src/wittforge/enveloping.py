"""Universal enveloping algebra of the rank-1 family: free tensor
expressions, PBW normal forms, differentiators, and the quadratic
differentiator identities.

Monomials are flat tuples of lattice points; normal form sorts them into
nondecreasing lattice order via the rewriting rule

    e_y e_x  ->  e_x e_y + phi(x - y) e_{x+y}      (when y > x).

Normal forms rewrite over packed coefficient tables, memoised for one call
only. The identity is proved once per (m, r) over a formal lattice with a
formal step h. Its grid records (h -> 1 on W_1) and solenoidal records
(h -> (h1, ..., hn) on the symbolic algebra over k, s, p, q, mu1..mun) are
specialisations of that proof, emitted by one loop over their cases.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .lie import (AlgebraError, Rank1Algebra, add_points, scale_point,
                  sub_points, symbolic_witt_algebra, witt_algebra)
from .scalars import Combination, ContextMismatchError, Frozen, PolyScalar

Monomial = tuple  # tuple of lattice points (each a tuple of ints)


class UEAElement(Combination):
    """Finite scalar combination of monomials in the generators e_x."""

    __slots__ = ()
    _mismatch = (AlgebraError, "elements belong to different algebras")
    algebra = property(lambda self: self.parent)

    def __repr__(self):
        if not self.terms:
            return "UEA(0)"
        parts = []
        for m in sorted(self.terms):
            name = "".join(map(self.algebra._text, m)) or "1"
            parts.append(f"({self.terms[m]})*{name}")
        return "UEA(" + " + ".join(parts) + ")"


def generator(algebra: Rank1Algebra, point) -> UEAElement:
    return UEAElement(algebra, {(algebra.point(point),): 1})


def one(algebra: Rank1Algebra) -> UEAElement:
    return UEAElement(algebra, {(): 1})


def multiply(x: UEAElement, y: UEAElement) -> UEAElement:
    """Free (concatenation) product; the result is generally not normal."""
    x._check(y)
    terms: dict = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            m = mx + my
            terms[m] = terms.get(m, 0) + cx * cy
    return UEAElement(x.algebra, terms)


def _find_descent(mono: Monomial, strategy: str):
    n = len(mono)
    if strategy == "leftmost":
        for i in range(n - 1):
            if mono[i] > mono[i + 1]:
                return i
        return None
    for i in range(n - 2, -1, -1):
        if mono[i] > mono[i + 1]:
            return i
    return None


def _mac(out: dict, c: dict, nf: dict, shared: bool = False) -> None:
    """out[w] += c * nf[w] over the words w of nf, where c is a table and
    out and nf map words to tables. Entries and words that cancel are
    deleted. With `shared`, the tables of out also belong to a memoised
    normal form, so each is copied before it changes."""
    for mono, t in nf.items():
        acc = out.get(mono) or {}
        if shared:
            acc = dict(acc)
        for e1, v1 in c.items():
            for e2, v2 in t.items():
                e = e1 + e2
                v = acc.get(e, 0) + v1 * v2
                if v:
                    acc[e] = v
                else:
                    del acc[e]
        if acc:
            out[mono] = acc
        else:
            out.pop(mono, None)


def _narrow(v):
    """The int value of an integral Fraction; any other value as it is."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def pbw_normal_form(x: UEAElement, strategy: str = "leftmost") -> UEAElement:
    """Unique PBW normal form (nondecreasing monomials).

    The default strategy fixes the leftmost descent; 'rightmost' is kept as
    an independent route for confluence testing. Coefficients are rewritten
    as tables {packed exponent: value}: the exponents over the one
    PolyContext of the phi values and the coefficients are packed into one
    int (0 alone without a context), and integral values are ints. A word
    of length L takes at most L - 1 phi factors, so fields of `width` bits
    never carry. The memos of words and phi values live for this call only.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise AlgebraError(f"unknown strategy {strategy!r}")
    alg = x.algebra
    polys = [v for v in (*alg.phi_values, *x.terms.values())
             if isinstance(v, PolyScalar)]
    ctx = polys[0].ctx if polys else None
    for v in polys:
        if v.ctx != ctx:
            raise ContextMismatchError(f"{ctx} vs {v.ctx}")

    def top(values) -> int:
        return max((a for v in values if isinstance(v, PolyScalar)
                    for e in v.terms for a in e), default=0)

    merges = max([0, *(len(w) - 1 for w in x.terms)])
    bound = top(x.terms.values()) + merges * top(alg.phi_values)
    width = max(1, bound.bit_length())
    shifts = range(0, width * len(ctx.symbols), width) if ctx else ()

    def table(c) -> dict:
        if isinstance(c, PolyScalar):
            return {sum(a << s for a, s in zip(e, shifts)): _narrow(v)
                    for e, v in c.terms.items()}
        return {0: _narrow(c)} if c else {}

    phis: dict = {}
    memo: dict = {}

    def rec(m: Monomial) -> dict:
        res = memo.get(m)
        if res is None:
            i = _find_descent(m, strategy)
            if i is None:
                res = {m: {0: 1}}
            else:
                y, z = m[i], m[i + 1]
                d = sub_points(z, y)
                c = phis.get(d)
                if c is None:
                    c = phis[d] = table(alg.phi(d))
                res = dict(rec(m[:i] + (z, y) + m[i + 2:]))
                if c:
                    _mac(res, c, rec(m[:i] + (add_points(z, y),) + m[i + 2:]),
                         shared=True)
            memo[m] = res
        return res

    out: dict = {}
    for m, c in x.terms.items():
        _mac(out, table(c), rec(m))
    if ctx is None:
        return UEAElement(alg, {m: t[0] for m, t in out.items()})
    mask = (1 << width) - 1
    return UEAElement(alg, {m: PolyScalar(ctx, {
        tuple(e >> s & mask for s in shifts): v for e, v in t.items()})
        for m, t in out.items()})


def differentiator(algebra: Rank1Algebra, m: int, k, s, h) -> UEAElement:
    """The m-th difference derivative of e_k e_s with step h:

        sum_{i=0..m} (-1)^i C(m,i) e_{k - i h} e_{s + i h}
    """
    if m < 0:
        raise AlgebraError("differentiator order must be nonnegative")
    k, s, h = map(algebra.point, (k, s, h))
    terms: dict = {}
    for i in range(m + 1):
        mono = (sub_points(k, scale_point(i, h)), add_points(s, scale_point(i, h)))
        terms[mono] = terms.get(mono, 0) + (-1) ** i * comb(m, i)
    return UEAElement(algebra, terms)


class IdentityRecord(Frozen):
    __slots__ = ("mode", "m", "r", "tuple_values", "h", "residue_term_count",
                 "passed")

    def to_json(self) -> dict:
        out = {"mode": self.mode, "m": self.m, "r": self.r,
               "residue_term_count": self.residue_term_count, "pass": self.passed}
        if self.tuple_values is not None:
            out["tuple"] = list(self.tuple_values)
        if self.h is not None:
            out["h"] = list(self.h)
        return out


class IdentityReport(Frozen):
    __slots__ = ("records",)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)


def _identity_lhs(algebra, m, r, k, s, p, q, h) -> UEAElement:
    """Double alternating sum of differences of symmetric products xy + yx
    of differentiators with step h (the left side of the quadratic identity).

    The four concatenation products of every (i, j) term are summed into
    one dict, and one element is built from it at the end."""
    terms: dict = {}
    for i in range(m + 1):
        for j in range(r + 1):
            sign = (-1) ** (i + j) * comb(m, i) * comb(r, j)
            ih, jh = scale_point(i, h), scale_point(j, h)
            om1 = differentiator(algebra, m, sub_points(k, ih), sub_points(s, jh), h)
            om2 = differentiator(algebra, r, add_points(q, ih), add_points(p, jh), h)
            om3 = differentiator(algebra, m, sub_points(k, ih), sub_points(q, jh), h)
            om4 = differentiator(algebra, r, add_points(s, ih), add_points(p, jh), h)
            for x, y, c in ((om1, om2, sign), (om2, om1, sign),
                            (om3, om4, -sign), (om4, om3, -sign)):
                for mx, cx in x.terms.items():
                    for my, cy in y.terms.items():
                        mono = mx + my
                        terms[mono] = terms.get(mono, 0) + c * cx * cy
    return UEAElement(algebra, terms)


def _identity_rhs(algebra, m, r, k, s, p, q, h) -> UEAElement:
    """(q-s) ( (p-k+2rh) Omega^{(2m+2r-1)}_{k+p+2rh, s+q-2rh}
               - (p-k+2mh) Omega^{(2m+2r-1)}_{k+p+(2r-1)h, s+q-(2r-1)h} )."""
    phi = algebra.phi
    qs = phi(sub_points(q, s))
    pk = sub_points(p, k)
    c1 = phi(add_points(pk, scale_point(2 * r, h)))
    c2 = phi(add_points(pk, scale_point(2 * m, h)))
    o1 = differentiator(algebra, 2 * m + 2 * r - 1,
                        add_points(add_points(k, p), scale_point(2 * r, h)),
                        sub_points(add_points(s, q), scale_point(2 * r, h)), h)
    o2 = differentiator(algebra, 2 * m + 2 * r - 1,
                        add_points(add_points(k, p), scale_point(2 * r - 1, h)),
                        sub_points(add_points(s, q), scale_point(2 * r - 1, h)), h)
    return (o1.scale(c1) - o2.scale(c2)).scale(qs)


def _identity_difference(algebra, m, r, k, s, p, q, h) -> UEAElement:
    """lhs - rhs of the identity as a tensor element, before normal form."""
    return (_identity_lhs(algebra, m, r, k, s, p, q, h)
            - _identity_rhs(algebra, m, r, k, s, p, q, h))


# The lattice of the one proof per (m, r): k, s, p, q and the step h are
# free generators, and phi sends each to its own polynomial variable. The
# lattice order is lexicographic in this generator order. Listing p first
# leaves fewer inversions in the words of lhs - rhs: over the nine
# symbolic proofs with m, r <= 4, with (2, 2) and (3, 3) counted twice,
# normal ordering takes 15,803 rewrites, against 26,797 in the order
# k, s, p, q, h.
_FORMAL_GENERATORS = ("p", "s", "k", "q", "h")


def formal_identity_residue(m: int, r: int) -> UEAElement:
    """PBW residue of lhs - rhs over the formal lattice k, s, p, q, h, with
    step h.

    Sending k, s, p, q to lattice points and h to a step, and each
    phi-symbol to the phi of its image, is a Lie algebra homomorphism. It
    extends to the enveloping algebras and maps the formal lhs - rhs onto
    the concrete one, and PBW holds over the polynomial coefficients. So a
    zero residue proves the identity at every specialisation: the W_1 grid
    tuples with h -> 1, and the solenoidal steps h -> (h1, ..., hn) with
    phi(h) -> mu . h.
    """
    alg = symbolic_witt_algebra(_FORMAL_GENERATORS)
    k, s, p, q, h = (alg.lattice.generator(x) for x in "kspqh")
    return pbw_normal_form(_identity_difference(alg, m, r, k, s, p, q, h))


def _check_orders(m: int, r: int) -> None:
    if m < 2 or r < 2:
        raise AlgebraError("the identity requires m, r >= 2")


def _specialised_records(proof: UEAElement, mode: str, m: int, r: int,
                         algebra: Rank1Algebra, cases) -> IdentityReport:
    """One record per case (tuple values, h, point): the formal proof
    specialised at point = (k, s, p, q, step) of `algebra`. Its count is 0
    when the proof holds, otherwise that of the concrete PBW residue at the
    point, so that a failing record keeps a real witness."""
    records = []
    for values, h, point in cases:
        count = 0 if proof.is_zero() else len(pbw_normal_form(
            _identity_difference(algebra, m, r, *point)).terms)
        records.append(IdentityRecord(mode, m, r, values, h, count, not count))
    return IdentityReport(records)


def verify_key_identity(m: int, r: int, mode: str = "symbolic",
                        grid_range: tuple = (-2, 2),
                        intro_form: bool = False) -> IdentityReport:
    """Check the quadratic differentiator identity in U(W_1), with step 1.

    Both modes rest on one formal proof, `formal_identity_residue`, whose
    step h is a free generator. symbolic mode emits that proof as one
    record: the identity for formal k, s, p, q and step h, so for W_1 at
    h = 1. grid mode emits one record per integer tuple (k, s, p, q) in
    grid_range^4, each the specialisation of the proof at h -> 1; only when
    the formal residue is nonzero does it normal-order each tuple
    concretely. intro_form=True (requires m == r) asks for the single-term
    form (q-s)(p-k+2mh) Omega^{(4m)}_{k+p+2mh, s+q-2mh}. At m == r both
    terms of the right side share one coefficient, and Pascal's rule
    Omega^{(n)}_{a,b} - Omega^{(n)}_{a-h,b+h} = Omega^{(n+1)}_{a,b} makes
    the two right sides one tensor, so the same proof certifies it.
    """
    _check_orders(m, r)
    if intro_form and m != r:
        raise AlgebraError("the single-term form requires m == r")
    if mode not in ("symbolic", "grid"):
        raise AlgebraError(f"unknown mode {mode!r}")
    lo, hi = grid_range
    if mode == "grid" and lo > hi:
        raise AlgebraError(f"empty grid range {lo}..{hi}")
    proof = formal_identity_residue(m, r)
    if mode == "symbolic":
        return IdentityReport([IdentityRecord(
            "symbolic", m, r, None, None, len(proof.terms), proof.is_zero())])
    return _specialised_records(proof, "grid", m, r, witt_algebra(), (
        (t, None, tuple((v,) for v in t) + ((1,),))
        for t in itertools.product(range(lo, hi + 1), repeat=4)))


def verify_solenoidal_identity(m: int, r: int, n: int = 2,
                               h_box: int = 2) -> IdentityReport:
    """Solenoidal variant: symbolic mu in C^n (generic), formal k,s,p,q in
    Gamma_mu, and the step h ranging over lattice points with sup-norm at
    most h_box. Each record is the specialisation of the formal proof at
    h -> (h1, ..., hn) on the axes mu1..mun, with phi(h) -> mu . h; only
    when the formal residue is nonzero is each step normal-ordered
    concretely."""
    _check_orders(m, r)
    if n < 1:
        raise AlgebraError("the solenoidal rank n must be positive")
    if h_box < 0:
        raise AlgebraError("the step box h_box must be nonnegative")
    proof = formal_identity_residue(m, r)
    alg = symbolic_witt_algebra([*"kspq", *(f"mu{i+1}" for i in range(n))])
    points = tuple(alg.lattice.generator(x) for x in "kspq")
    return _specialised_records(proof, "solenoidal", m, r, alg, (
        (None, h, points + ((0, 0, 0, 0) + h,))
        for h in itertools.product(range(-h_box, h_box + 1), repeat=n)))
