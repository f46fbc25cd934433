"""Lie algebras of vector fields on tori.

A single rank-1 family covers the Witt algebra and the solenoidal algebras:
basis elements are indexed by points of an integer lattice and the bracket
is [e_x, e_y] = phi(y - x) e_{x+y} for an additive weight functional phi.
Lattice generators may be formal symbols (k, s, p, q, ...) whose phi-images
are polynomial variables, which makes fully symbolic index computations
possible.

W_n is kept separate: its basis elements are pairs (r, a) with r in Z^n and
a direction index a in 1..n. Modules are over W_n alone, W_1 included as
WnAlgebra(1); the rank-1 family serves the enveloping algebra.

Each algebra class owns its basis: `_bracket(x, y)` lists the (index,
coefficient) pairs of the bracket of two basis indices and `_text(index)`
names a basis element, so `bracket` and `LieElement`'s text are written
once. `modules.twist` transports a module by a `LatticeAutomorphism`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .scalars import Combination, Frozen, PolyContext


class AlgebraError(Exception):
    pass


class IndexLattice(Frozen):
    """Free abelian group Z^rank with named generators.

    A generator name is either a formal symbol (mapped by the algebra's
    weight functional to a polynomial variable) or a concrete axis. The
    total group order is lexicographic on coordinate tuples, which is
    translation invariant.
    """

    __slots__ = ("generator_names",)

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


class Rank1Algebra(Frozen):
    """Witt-type algebra: basis e_x for lattice points x, with
    [e_x, e_y] = phi(y - x) e_{x+y}.

    phi is given by its values on the lattice generators; it extends
    additively. The Witt algebra W_1 is the rank-1 lattice with phi = (1,).
    A solenoidal algebra W_mu uses concrete axes with phi = mu.
    """

    __slots__ = ("lattice", "phi_values")

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

    def point(self, x) -> tuple:
        """`x` as a tuple, refused unless it has the lattice's rank."""
        x = tuple(x)
        if len(x) != self.lattice.rank:
            raise AlgebraError(f"lattice point {x} does not have the "
                               f"lattice's rank {self.lattice.rank}")
        return x

    def basis(self, point: tuple) -> "LieElement":
        return LieElement(self, {self.point(point): 1})

    def _bracket(self, x: tuple, y: tuple) -> list:
        c = self.phi(sub_points(self.point(y), self.point(x)))
        return [(add_points(x, y), c)] if c else []

    def _text(self, point: tuple) -> str:
        return f"e[{','.join(map(str, point))}]"


def witt_algebra() -> Rank1Algebra:
    """W_1: indices in Z, phi the identity."""
    return Rank1Algebra(IndexLattice(("1",)), (1,))


def symbolic_witt_algebra(symbols: Sequence[str]) -> Rank1Algebra:
    """Rank-1 algebra over a lattice with formal symbol generators; phi
    maps each symbol to the same-named polynomial variable."""
    ctx = PolyContext(symbols)
    return Rank1Algebra(IndexLattice(ctx.symbols),
                        tuple(map(ctx.sym, ctx.symbols)))


def solenoidal_algebra(mu: Sequence) -> Rank1Algebra:
    """W_mu viewed as a rank-1 family: lattice Z^n of Fourier exponents,
    phi(r) = mu . r."""
    n = len(mu)
    names = tuple(f"a{i+1}" for i in range(n))
    return Rank1Algebra(IndexLattice(names), tuple(mu))


class WnAlgebra(Frozen):
    """Vector fields on the n-torus; basis t^r d_a indexed by (r, a)."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if type(n) is not int or n < 1:
            raise AlgebraError(f"n must be a positive integer, got {n!r}")
        object.__setattr__(self, "n", n)

    def basis(self, r: Sequence[int], a: int) -> "LieElement":
        r = tuple(int(x) for x in r)
        if len(r) != self.n or not (1 <= a <= self.n):
            raise AlgebraError(f"bad W_{self.n} index ({r}, {a})")
        return LieElement(self, {(r, a): 1})

    def _bracket(self, x: tuple, y: tuple) -> list:
        # [t^r d_a, t^s d_b] = s_a t^{r+s} d_b - r_b t^{r+s} d_a
        (r, a), (s, b) = x, y
        rs = add_points(r, s)
        return [(key, f) for key, f in (((rs, b), s[a - 1]),
                                         ((rs, a), -r[b - 1])) if f]

    def _text(self, index: tuple) -> str:
        r, a = index
        if self.n == 1:  # W_1 in its Witt basis e_k = t^k d
            return f"e[{r[0]}]"
        return f"t[{','.join(map(str, r))}]d{a}"


class LieElement(Combination):
    """Finite formal sum of basis vector fields with scalar coefficients."""

    __slots__ = ()
    _mismatch = (AlgebraError, "elements belong to different algebras")
    algebra = property(lambda self: self.parent)

    def __repr__(self):
        return f"LieElement({self})"

    def __str__(self):
        parts = []
        for k in sorted(self.terms):
            base, cs = self.algebra._text(k), str(self.terms[k])
            parts.append(base if cs == "1" else f"({cs})*{base}")
        return " + ".join(parts) or "0"


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Lie bracket, bilinear over the scalar context."""
    x._check(y)
    alg = x.algebra
    terms: dict = {}
    for kx, cx in x.terms.items():
        for ky, cy in y.terms.items():
            c = cx * cy
            for key, f in alg._bracket(kx, ky):
                terms[key] = terms.get(key, 0) + f * c
    return LieElement(alg, terms)


class JacobiReport(Frozen):
    __slots__ = ("checked", "failures")

    @property
    def passed(self) -> bool:
        return not self.failures


def jacobi_check(algebra, triples) -> JacobiReport:
    """Assert [[x,y],z] + [[y,z],x] + [[z,x],y] == 0 on each triple of
    basis indices: lattice points of a Rank1Algebra, (point, axis) pairs of
    a WnAlgebra.
    """
    failures = []
    count = 0
    for triple in triples:
        x, y, z = (LieElement(algebra, {index: 1}) for index in triple)
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
            if not coeff:
                continue
            key = (r, a)
            terms[key] = terms.get(key, 0) + coeff
    return LieElement(target, terms)


def _integer_entry(x) -> int:
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    if type(x) is not int:
        raise AlgebraError(f"automorphism entry {x!r} is not an integer")
    return x


class LatticeAutomorphism(Frozen):
    """Unimodular integer matrix acting on the torus by t^r -> t^{gr}.
    Entries are ints or integral Fractions."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        rows = tuple(tuple(_integer_entry(x) for x in row) for row in matrix)
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

    @staticmethod
    def identity(n: int) -> "LatticeAutomorphism":
        return LatticeAutomorphism([[int(i == j) for j in range(n)] for i in range(n)])

