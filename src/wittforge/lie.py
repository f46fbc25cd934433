"""Lie algebras of vector fields on tori.

A single rank-1 family covers the Witt algebra and the solenoidal algebras:
basis elements are indexed by points of an integer lattice and the bracket
is [e_x, e_y] = phi(y - x) e_{x+y} for an additive weight functional phi.
Lattice generators may be formal symbols (k, s, p, q, ...) whose phi-images
are polynomial variables, which makes fully symbolic index computations
possible.

W_n is kept separate: its basis elements are pairs (r, a) with r in Z^n and
a direction index a in 1..n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .scalars import Combination, PolyContext, is_zero_scalar, scalar_str


class AlgebraError(Exception):
    pass


@dataclass(frozen=True)
class IndexLattice:
    """Free abelian group Z^rank with named generators.

    A generator name is either a formal symbol (mapped by the algebra's
    weight functional to a polynomial variable) or a concrete axis. The
    total group order is lexicographic on coordinate tuples, which is
    translation invariant.
    """

    generator_names: tuple

    def __init__(self, generator_names: Iterable[str]):
        object.__setattr__(self, "generator_names", tuple(generator_names))

    @property
    def rank(self) -> int:
        return len(self.generator_names)

    def zero(self) -> tuple:
        return (0,) * self.rank

    def generator(self, name: str) -> tuple:
        i = self.generator_names.index(name)
        return tuple(int(i == j) for j in range(self.rank))


def add_points(x: tuple, y: tuple) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def sub_points(x: tuple, y: tuple) -> tuple:
    return tuple(a - b for a, b in zip(x, y))


def scale_point(c: int, x: tuple) -> tuple:
    return tuple(c * a for a in x)


@dataclass(frozen=True)
class Rank1Algebra:
    """Witt-type algebra: basis e_x for lattice points x, with
    [e_x, e_y] = phi(y - x) e_{x+y}.

    phi is given by its values on the lattice generators; it extends
    additively. The Witt algebra W_1 is the rank-1 lattice with phi = (1,).
    A solenoidal algebra W_mu uses concrete axes with phi = mu.
    """

    lattice: IndexLattice
    phi_values: tuple

    def __init__(self, lattice: IndexLattice, phi_values: Sequence):
        if len(phi_values) != lattice.rank:
            raise AlgebraError("phi must assign one value per lattice generator")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "phi_values", tuple(phi_values))

    def phi(self, point: tuple):
        total = None
        for c, v in zip(point, self.phi_values):
            if not c:
                continue
            term = c * v
            total = term if total is None else total + term
        if total is None:
            return 0 * self.phi_values[0] if self.phi_values else 0
        return total

    def basis(self, point: tuple) -> "LieElement":
        return LieElement(self, {point: 1})


def witt_algebra() -> Rank1Algebra:
    """W_1: indices in Z, phi the identity."""
    return Rank1Algebra(IndexLattice(("1",)), (1,))


def symbolic_witt_algebra(symbols: Sequence[str],
                          with_unit: bool = True) -> Rank1Algebra:
    """Rank-1 algebra over a lattice with formal symbol generators (plus a
    unit axis for integer offsets); phi maps each symbol to the same-named
    polynomial variable."""
    ctx = PolyContext(tuple(symbols))
    names = tuple(symbols) + (("1",) if with_unit else ())
    phi = tuple(ctx.sym(s) for s in symbols) + ((ctx.const(1),) if with_unit else ())
    return Rank1Algebra(IndexLattice(names), phi)


def solenoidal_algebra(mu: Sequence) -> Rank1Algebra:
    """W_mu viewed as a rank-1 family: lattice Z^n of Fourier exponents,
    phi(r) = mu . r."""
    n = len(mu)
    names = tuple(f"a{i+1}" for i in range(n))
    return Rank1Algebra(IndexLattice(names), tuple(mu))


@dataclass(frozen=True)
class WnAlgebra:
    """Vector fields on the n-torus; basis t^r d_a indexed by (r, a)."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise AlgebraError("n must be positive")

    def basis(self, r: Sequence[int], a: int) -> "LieElement":
        r = tuple(int(x) for x in r)
        if len(r) != self.n or not (1 <= a <= self.n):
            raise AlgebraError(f"bad W_{self.n} index ({r}, {a})")
        return LieElement(self, {(r, a): 1})


class LieElement(Combination):
    """Finite formal sum of basis vector fields with scalar coefficients."""

    __slots__ = ()
    _mismatch = (AlgebraError, "elements belong to different algebras")
    algebra = property(lambda self: self.parent)

    def __repr__(self):
        return f"LieElement({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            if isinstance(self.algebra, WnAlgebra):
                r, a = k
                base = f"t[{','.join(map(str, r))}]d{a}"
            else:
                base = f"e[{','.join(map(str, k))}]"
            cs = scalar_str(c)
            parts.append(base if cs == "1" else f"({cs})*{base}")
        return " + ".join(parts)


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Lie bracket, bilinear over the scalar context."""
    x._check(y)
    alg = x.algebra
    terms: dict = {}
    if isinstance(alg, Rank1Algebra):
        for kx, cx in x.terms.items():
            for ky, cy in y.terms.items():
                coeff = alg.phi(sub_points(ky, kx)) * cx * cy
                if is_zero_scalar(coeff):
                    continue
                key = add_points(kx, ky)
                terms[key] = terms.get(key, 0) + coeff
    elif isinstance(alg, WnAlgebra):
        # [t^r d_a, t^s d_b] = s_a t^{r+s} d_b - r_b t^{r+s} d_a
        for (r, a), cx in x.terms.items():
            for (s, b), cy in y.terms.items():
                rs = add_points(r, s)
                c = cx * cy
                if s[a - 1]:
                    key = (rs, b)
                    terms[key] = terms.get(key, 0) + s[a - 1] * c
                if r[b - 1]:
                    key = (rs, a)
                    terms[key] = terms.get(key, 0) - r[b - 1] * c
    else:
        raise AlgebraError(f"unknown algebra {alg!r}")
    return LieElement(alg, terms)


@dataclass
class JacobiReport:
    checked: int
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


def jacobi_check(algebra, triples) -> JacobiReport:
    """Assert [[x,y],z] + [[y,z],x] + [[z,x],y] == 0 on each triple.

    Triples may contain LieElements or raw basis indices.
    """
    failures = []
    count = 0
    for triple in triples:
        elems = []
        for item in triple:
            if isinstance(item, LieElement):
                elems.append(item)
            elif isinstance(algebra, WnAlgebra):
                elems.append(algebra.basis(*item))
            else:
                elems.append(algebra.basis(item))
        x, y, z = elems
        residue = (bracket(bracket(x, y), z) + bracket(bracket(y, z), x)
                   + bracket(bracket(z, x), y))
        count += 1
        if not residue.is_zero():
            failures.append((triple, residue))
    return JacobiReport(checked=count, failures=failures)


def solenoidal_embed(x: LieElement, target: WnAlgebra) -> LieElement:
    """Embed W_mu into W_n: t^r d_mu -> sum_a mu_a t^r d_a."""
    alg = x.algebra
    if not isinstance(alg, Rank1Algebra):
        raise AlgebraError("solenoidal_embed expects a rank-1 element")
    if alg.lattice.rank != target.n:
        raise AlgebraError(
            f"lattice rank {alg.lattice.rank} does not match W_{target.n}")
    mu = alg.phi_values
    terms: dict = {}
    for r, c in x.terms.items():
        for a in range(1, target.n + 1):
            coeff = c * mu[a - 1]
            if is_zero_scalar(coeff):
                continue
            key = (r, a)
            terms[key] = terms.get(key, 0) + coeff
    return LieElement(target, terms)


@dataclass(frozen=True)
class LatticeAutomorphism:
    """Unimodular integer matrix acting on the torus by t^r -> t^{gr}."""

    matrix: tuple

    def __init__(self, matrix):
        rows = tuple(tuple(int(x) for x in row) for row in matrix)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise AlgebraError("automorphism matrix must be square")
        try:  # an integer matrix is unimodular when its inverse is integral
            linalg.int_matrix_inverse(rows)
        except ValueError as e:
            raise AlgebraError(f"matrix must be unimodular: {e}")
        object.__setattr__(self, "matrix", rows)

    @property
    def n(self) -> int:
        return len(self.matrix)

    def apply_point(self, r: Sequence[int]) -> tuple:
        return tuple(sum(row[j] * r[j] for j in range(self.n)) for row in self.matrix)

    def inverse(self) -> "LatticeAutomorphism":
        return LatticeAutomorphism(linalg.int_matrix_inverse(self.matrix))

    def compose(self, other: "LatticeAutomorphism") -> "LatticeAutomorphism":
        """Matrix product self @ other."""
        m = [[sum(self.matrix[i][k] * other.matrix[k][j] for k in range(self.n))
              for j in range(self.n)] for i in range(self.n)]
        return LatticeAutomorphism(m)

    @staticmethod
    def identity(n: int) -> "LatticeAutomorphism":
        return LatticeAutomorphism([[int(i == j) for j in range(n)] for i in range(n)])


def apply_automorphism(g: LatticeAutomorphism, x: LieElement) -> LieElement:
    """Pushforward of vector fields under t^r -> t^{gr}:

        t^m d_a -> sum_b (g^{-1})_{a b} t^{g m} d_b.

    This is the derivation conjugation sigma . D . sigma^{-1}; it preserves
    the bracket and satisfies apply(g, apply(h, x)) == apply(g h, x).
    """
    alg = x.algebra
    if not isinstance(alg, WnAlgebra):
        raise AlgebraError("automorphisms act on W_n elements")
    if g.n != alg.n:
        raise AlgebraError(f"matrix size {g.n} does not match W_{alg.n}")
    ginv = g.inverse()
    terms: dict = {}
    for (r, a), c in x.terms.items():
        gr = g.apply_point(r)
        for b in range(1, alg.n + 1):
            f = ginv.matrix[a - 1][b - 1]
            if not f:
                continue
            key = (gr, b)
            val = terms.get(key, 0) + f * c
            terms[key] = val
    return LieElement(alg, terms)


def parse_element(text: str, algebra) -> LieElement:
    """Parse the emitted element grammar: 'e[3]', 't[1,-2]d2', with optional
    scalar prefixes '(c)*' and ' + ' separators."""
    import re as _re

    terms: dict = {}
    for part in text.split("+"):
        part = part.strip()
        m = _re.fullmatch(r"(?:\((?P<c>[^)]*)\)\*)?(?:e\[(?P<e>[-0-9,\s]+)\]"
                          r"|t\[(?P<t>[-0-9,\s]+)\]d(?P<d>\d+))", part)
        if not m:
            raise AlgebraError(f"cannot parse element term {part!r}")
        coeff = Fraction(m.group("c")) if m.group("c") else Fraction(1)
        if m.group("e") is not None:
            key = tuple(int(x) for x in m.group("e").split(","))
        else:
            r = tuple(int(x) for x in m.group("t").split(","))
            key = (r, int(m.group("d")))
        terms[key] = terms.get(key, 0) + coeff
    return LieElement(algebra, terms)
