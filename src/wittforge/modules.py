"""Weight modules presented by polynomial action coefficients.

A PolyWeightModule fixes a fiber basis and, per direction, a list of action
terms (source fiber, target fiber, coefficient polynomial in the generator
exponent(s) m and the weight s). Every module is over W_n, with W_1 the
case n = 1. A W_1 term may carry one affine constraint on (m, s) — enough
to express delta-supported couplings like the central term of the Virasoro
adjoint module — and the module may declare punctured weight components
and labels supported on finitely many weights.

Symbolic checkers turn the module axioms into polynomial identities in the
generator exponents and the weight; the module's exceptional locus
(punctures, finite supports, and where `constraint_modes` says a constraint
line fires) is swept concretely, not proved, on one shared window,
`PolyWeightModule.window`: the weights within a radius of zero or of an
exceptional weight, under generators that include the exponents where a
line fires at offset 0.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from types import MappingProxyType
from typing import Mapping, Sequence

from . import linalg
from .lie import LatticeAutomorphism, LieElement, WnAlgebra, bracket
from .scalars import (Combination, Frozen, PolyContext, PolyScalar, QuadExtScalar,
                      parse_poly, parse_scalar, symbol_names)


class ModuleError(Exception):
    pass


class Constraint(Frozen):
    """Affine condition sum_i m_coeffs[i]*m_i + sum_i s_coeffs[i]*s_i == const,
    where s is the absolute weight of the source vector. W_1 only: over
    W_n a line fires on a hyperplane of offsets, which no window covers."""

    __slots__ = ("m_coeffs", "s_coeffs", "const")

    def satisfied(self, mvals, svals) -> bool:
        return (self.m_coeffs[0] * mvals[0] + self.s_coeffs[0] * svals[0]
                == self.const)


class ActionTerm(Frozen):
    # direction is 1-based; always 1 for W_1-modules
    __slots__ = ("direction", "src", "tgt", "poly", "constraint")

    def __init__(self, direction: int, src: str, tgt: str, poly: PolyScalar,
                 constraint: Constraint | None = None):
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "constraint", constraint)


def _rational(x):
    """x as a Fraction when it is rational, else None."""
    if isinstance(x, PolyScalar):
        x = x.constant_value() if x.is_constant() else None
    if isinstance(x, QuadExtScalar):
        x = None if x.b else x.a
    return None if x is None else Fraction(x)


def _radicands(x) -> set:
    """The radicands d of the Q(sqrt(d)) values in a scalar, or in the
    coefficients of a polynomial."""
    values = x.terms.values() if isinstance(x, PolyScalar) else (x,)
    return {c.d for c in values if isinstance(c, QuadExtScalar)}


def _coordinate_symbols(n: int) -> tuple:
    """The coefficient variables of a module over W_n, as the pair
    (generator exponents, weight): (("m",), ("s",)) over W_1 and
    (("m1".."mn"), ("s1".."sn")) for n >= 2."""
    if n == 1:
        return ("m",), ("s",)
    return (tuple(f"m{i+1}" for i in range(n)),
            tuple(f"s{i+1}" for i in range(n)))


class PolyWeightModule:
    """Weight module over `algebra`, a WnAlgebra, with polynomial action
    coefficients.

    The coefficient variables are `m_symbols` and `s_symbols`, as
    `_coordinate_symbols` names them. Extra parameter symbols (alpha,
    beta, ...) may precede them in the context.
    """

    __slots__ = ("algebra", "n", "m_symbols", "s_symbols", "beta", "fiber",
                 "terms", "name", "punctures", "restricted_support",
                 "_by_dir_src", "_cell_actions", "_exceptional")

    def __init__(self, algebra, beta, fiber: Sequence[str],
                 terms: Sequence[ActionTerm],
                 punctures: Sequence[tuple] = (),
                 restricted_support: Mapping[str, Sequence] | None = None,
                 name: str = ""):
        self.algebra = algebra
        self.n = algebra.n
        self.m_symbols, self.s_symbols = _coordinate_symbols(self.n)
        self.beta = tuple(beta)
        if len(self.beta) != self.n:
            raise ModuleError(f"beta must have length {self.n}")
        coordinates = self.m_symbols + self.s_symbols
        for b in self.beta:
            if isinstance(b, PolyScalar) and b.symbols_used() & {*coordinates}:
                raise ModuleError(f"beta may not name a coordinate symbol "
                                  f"({', '.join(coordinates)}), got {b}")
        self.fiber = tuple(fiber)
        if len(set(self.fiber)) != len(self.fiber):
            raise ModuleError(f"fiber labels must be distinct, got "
                              f"{list(self.fiber)}")
        self.terms = tuple(terms)
        self.name = name
        self.punctures = tuple((self._offset(off), tuple(labels))
                               for off, labels in punctures)
        self.restricted_support = MappingProxyType({
            lab: frozenset(self._offset(o) for o in offs)
            for lab, offs in (restricted_support or {}).items()})
        for t in self.terms:
            if t.src not in self.fiber or t.tgt not in self.fiber:
                raise ModuleError(f"action term uses unknown fiber label: {t}")
            if not 1 <= t.direction <= self.n:
                raise ModuleError(f"action term direction {t.direction} is "
                                  f"not in 1..{self.n}")
            c = t.constraint
            if c is not None and (self.n != 1 or not
                                  len(c.m_coeffs) == len(c.s_coeffs) == 1):
                raise ModuleError(f"constraint terms are rank-1 only, with "
                                  f"one m and one s coefficient: {t.src} "
                                  f"-> {t.tgt} in direction {t.direction}")
        # one field: values over two radicands cannot be added or multiplied
        radicands = sorted(set().union(*map(
            _radicands, [t.poly for t in self.terms] + list(self.beta))))
        if len(radicands) > 1:
            raise ModuleError("coefficients and beta use more than one "
                              "radicand: " + ", ".join(
                                  f"sqrt({d})" for d in radicands))
        unknown = ({lab for _, labels in self.punctures for lab in labels}
                   | set(self.restricted_support)) - set(self.fiber)
        if unknown:
            raise ModuleError(f"punctures or restricted support use unknown "
                              f"fiber labels: {sorted(unknown)}")
        self._by_dir_src: dict = {}
        for t in self.terms:
            self._by_dir_src.setdefault((t.direction, t.src), []).append(t)
        # (generator index, offset, label) -> image of that basis cell; see
        # `_cell_action`.
        self._cell_actions: dict = {}
        # solved once: a module is not changed after construction
        self._exceptional = frozenset().union(
            [off for off, _ in self.punctures],
            *self.restricted_support.values(),
            [(m,) for m in self.constraint_modes((0, 0), (0, 1))])

    def __setattr__(self, name, value):
        # each field is set once, by __init__: `act` memoises cell images
        # and `_exceptional` is solved on the fields as built
        if hasattr(self, name):
            raise AttributeError(f"module field {name!r} is read-only")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"module field {name!r} is read-only")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return PolyWeightModule, (
            self.algebra, self.beta, self.fiber, self.terms, self.punctures,
            dict(self.restricted_support), self.name)

    # -- coordinates --------------------------------------------------------

    def _offset(self, off) -> tuple:
        if isinstance(off, int):
            off = (off,)
        off = tuple(off)
        if len(off) != self.n:
            raise ModuleError(f"offset {off} must have length {self.n}")
        return off

    def param_symbols(self) -> tuple:
        mv, sv = set(self.m_symbols), set(self.s_symbols)
        out = []
        for t in self.terms:
            for sym in sorted(t.poly.symbols_used()):
                if sym not in mv and sym not in sv and sym not in out:
                    out.append(sym)
        for b in self.beta:
            if isinstance(b, PolyScalar):
                for sym in sorted(b.symbols_used()):
                    if sym not in out:
                        out.append(sym)
        return tuple(sorted(out))

    def weight_value(self, off) -> tuple:
        off = self._offset(off)
        return tuple(b + o for b, o in zip(self.beta, off))

    def terms_for(self, direction: int, src: str):
        return self._by_dir_src.get((direction, src), ())

    # -- component structure -------------------------------------------------

    def component_is_zero(self, off, label: str) -> bool:
        off = self._offset(off)
        for poff, labels in self.punctures:
            if poff == off and label in labels:
                return True
        supp = self.restricted_support.get(label)
        if supp is not None and off not in supp:
            return True
        return False

    def labels_at(self, off) -> tuple:
        return tuple(lab for lab in self.fiber if not self.component_is_zero(off, lab))

    def constraint_modes(self, gen: tuple, src: tuple) -> set:
        """Integer modes m where some constraint term fires when the
        generator of exponent gen[0] + gen[1]*m acts on the vector at
        offset src[0] + src[1]*m. A zero-slope line fires at all modes or
        none, which `_generic_action_matrix` decides."""
        out = set()
        for t in self.terms:
            c = t.constraint
            if c is None:
                continue
            (cm,), (cs,) = c.m_coeffs, c.s_coeffs
            # cm*(gen0 + gen1*m) + cs*(beta + src0 + src1*m) == const
            slope = cm * gen[1] + cs * src[1]
            if slope == 0:
                continue
            m = _rational((c.const - cm * gen[0]
                           - cs * (self.beta[0] + src[0])) / slope)
            if m is not None and m.denominator == 1:
                out.add(int(m))
        return out

    def exceptional_offsets(self) -> frozenset:
        """Weight offsets where the action departs from its generic
        polynomials: the punctures, the finite supports, and the offsets
        where a constraint line fires for e_0."""
        return self._exceptional

    def window(self, radius: int) -> list:
        """Sorted (offset, label, basis vector) cells of the concrete sweep:
        the nonzero components at offsets within `radius` (in every
        coordinate) of zero or of an exceptional offset."""
        ring = list(itertools.product(range(-radius, radius + 1), repeat=self.n))
        offsets = {tuple(o + d for o, d in zip(off, delta))
                   for off in self.exceptional_offsets() | {(0,) * self.n}
                   for delta in ring}
        return [(off, lab, self.basis_vector(off, lab))
                for off in sorted(offsets) for lab in self.labels_at(off)]

    # -- vectors -------------------------------------------------------------

    def vector(self, terms: Mapping) -> "ModuleVector":
        return ModuleVector(self, {(self._offset(off), lab): c
                                   for (off, lab), c in terms.items()})

    def basis_vector(self, off, label: str) -> "ModuleVector":
        off = self._offset(off)
        if label not in self.fiber:
            raise ModuleError(f"unknown fiber label {label!r}")
        if self.component_is_zero(off, label):
            return ModuleVector(self, {})
        return ModuleVector(self, {(off, label): Fraction(1)})

    def __repr__(self):
        return f"PolyWeightModule({self.name or 'anonymous'}, fiber={self.fiber})"


class ModuleVector(Combination):
    """Sparse weight vector: terms keyed by (integer weight offset tuple,
    fiber label)."""

    __slots__ = ()
    _mismatch = (ModuleError, "vectors from different modules")
    module = property(lambda self: self.parent)

    def __repr__(self):
        if not self.terms:
            return "ModuleVector(0)"
        parts = [f"({c})*{lab}[{','.join(map(str, off))}]"
                 for (off, lab), c in sorted(self.terms.items(),
                                             key=lambda kv: str(kv[0]))]
        return "ModuleVector(" + " + ".join(parts) + ")"


class LabelMatrix(Combination):
    """Sparse matrix {(src, tgt): coefficient} between fiber labels, the
    symbolic checkers' form of a generic action or de Rham slice. It has no
    parent: d composes matrices of different modules."""

    __slots__ = ()

    def __matmul__(self, first: "LabelMatrix") -> "LabelMatrix":
        """The composite with `first` applied first."""
        out: dict = {}
        for (src, mid), a in first.terms.items():
            for (row, tgt), b in self.terms.items():
                if row == mid:
                    key = (src, tgt)
                    out[key] = out[key] + b * a if key in out else b * a
        return LabelMatrix(None, out)

    def entries(self) -> list:
        """The nonzero entries as ((src, tgt), text), sorted by (src, tgt)."""
        return sorted((key, str(c)) for key, c in self.terms.items())


# -- concrete action ---------------------------------------------------------


def _cell_action(M: PolyWeightModule, idx, off: tuple, lab: str) -> tuple:
    """Image of the basis cell (off, lab) under the basis generator `idx`,
    the index (r, a) of t^r d_a: ((new_off, tgt), coeff) pairs in term
    order, skipping unmet constraints, zero target components and zero
    coefficients. Memoised in `M._cell_actions`."""
    key = (idx, off, lab)
    cell = M._cell_actions.get(key)
    if cell is not None:
        return cell
    shift, direction = idx
    mvals = tuple(map(Fraction, shift))
    svals = M.weight_value(off)
    mapping = dict(zip(M.m_symbols, mvals))
    mapping.update(zip(M.s_symbols, svals))
    new_off = tuple(o + d for o, d in zip(off, shift))
    pairs = []
    for term in M.terms_for(direction, lab):
        if term.constraint is not None and not term.constraint.satisfied(
                mvals, svals):
            continue
        if M.component_is_zero(new_off, term.tgt):
            continue
        for sym in term.poly.symbols_used():
            if sym not in mapping:
                mapping[sym] = term.poly.ctx.sym(sym)
        coeff = term.poly.specialize(mapping)
        if coeff:
            pairs.append(((new_off, term.tgt), coeff))
    cell = M._cell_actions[key] = tuple(pairs)
    return cell


def _act_into(out: dict, x: LieElement, v: ModuleVector, sign=1) -> dict:
    """Add sign * x v into `out`, a dict (offset, label) -> coefficient
    that keeps zero sums, from the `_cell_action` images; return `out`."""
    M = v.module
    for idx, c in x.terms.items():
        unit, neg = c == sign, c == -sign
        for (off, lab), val in v.terms.items():
            val = val if unit else (-val if neg else sign * c * val)
            one = type(val) is Fraction and val == 1  # coeff is val * coeff
            for key, coeff in _cell_action(M, idx, off, lab):
                term = coeff if one else val * coeff
                out[key] = out[key] + term if key in out else term
    return out


def act(x: LieElement, v: ModuleVector) -> ModuleVector:
    """Concrete module action, bilinear; honors constraints, punctures and
    restricted supports: the core `_act_into` on an empty dict, wrapped in
    a ModuleVector. `_cell_action` memoises each cell image on the module,
    sound because a module cannot change after construction: its
    `__slots__` admit no new attribute, its fields cannot be reassigned or
    deleted, and its `restricted_support` is a read-only mapping."""
    M = v.module
    if x.algebra is not M.algebra and x.algebra != M.algebra:
        raise ModuleError("element and module algebras differ")
    return ModuleVector(M, _act_into({}, x, v))


# -- jet-algebra representation data -----------------------------------------


def _mat(rows):
    """A matrix as a tuple of rows of field elements: QuadExtScalar entries
    stay as they are, anything else becomes a Fraction."""
    return tuple(tuple(x if isinstance(x, QuadExtScalar) else Fraction(x)
                       for x in row) for row in rows)


def _unit(n: int, p: int) -> tuple:
    """The unit exponent e_p of Z^n, p in 1..n."""
    return tuple(int(i == p - 1) for i in range(n))


class JPlusRepData:
    """Finite-dimensional representation of the nonnegative part of the jet
    algebra: matrices rho(t^k d/dt_j) for 1 <= |k| <= cutoff, zero beyond,
    with rational or `QuadExtScalar` entries.

    The relations [t^k d_i, t^l d_j] = l_i t^{k+l-e_i} d_j - k_j t^{k+l-e_j} d_i
    are validated exactly. A gl_n-module is the cutoff-1 case: under
    E_pa <-> t^(e_p) d_a, the relations at |k| = |l| = 1 are
    [E_pq, E_rs] = d_qr E_ps - d_sp E_rq.
    """

    def __init__(self, n: int, dim: int, cutoff: int, matrices: Mapping,
                 labels=None):
        if n < 1 or dim < 1 or cutoff < 0:
            raise ModuleError(f"need n >= 1, dim >= 1 and cutoff >= 0, got "
                              f"n={n}, dim={dim}, cutoff={cutoff}")
        self.n = n
        self.dim = dim
        self.cutoff = cutoff
        self.labels = (tuple(labels) if labels is not None
                       else tuple(f"v{i+1}" for i in range(dim)))
        if len(self.labels) != dim or len(set(self.labels)) != dim:
            raise ModuleError(f"need {dim} distinct labels, got "
                              f"{list(self.labels)}")
        # the exponents k with 1 <= |k| <= cutoff, in lexicographic order
        self.exponents = tuple(
            k for k in itertools.product(range(cutoff + 1), repeat=n)
            if 1 <= sum(k) <= cutoff)
        self._zero = _mat([[0] * dim] * dim)
        self.matrices = {}
        for key, m in matrices.items():
            k, j = tuple(key[0]), key[1]
            if k not in self.exponents or not 1 <= j <= n:
                raise ModuleError(f"bad jet index {key}")
            m = _mat(m)
            if len(m) != dim or any(len(row) != dim for row in m):
                raise ModuleError(f"matrix {(k, j)} is not {dim} x {dim}")
            self.matrices[(k, j)] = m
        self._validate()

    def rho(self, k: tuple, j: int):
        """rho(t^k d_j); zero beyond the cutoff, as `_validate` needs."""
        if len(k) != self.n or any(x < 0 for x in k) or sum(k) < 1:
            raise ModuleError(f"invalid jet exponent {k}")
        if not 1 <= j <= self.n:
            raise ModuleError(f"jet direction {j} is not in 1..{self.n}")
        return self.matrices.get((k, j), self._zero)

    def _validate(self):
        """Each relation once, on the unordered pairs of distinct generators
        in (k, l, i, j) sweep order: swapping a pair negates both sides, and
        a diagonal pair is zero on both."""
        for k, l in itertools.product(self.exponents, repeat=2):
            for i, j in itertools.product(range(1, self.n + 1), repeat=2):
                if (l, j) <= (k, i):
                    continue
                a, b = self.rho(k, i), self.rho(l, j)
                res = linalg.matrix_add(linalg.matrix_mul(a, b),
                                        linalg.matrix_mul(b, a), -1)
                if l[i - 1]:
                    kl = tuple(x + y - z for x, y, z
                               in zip(k, l, _unit(self.n, i)))
                    res = linalg.matrix_add(res, self.rho(kl, j), -l[i - 1])
                if k[j - 1]:
                    kl = tuple(x + y - z for x, y, z
                               in zip(k, l, _unit(self.n, j)))
                    res = linalg.matrix_add(res, self.rho(kl, i), k[j - 1])
                if any(any(row) for row in res):
                    raise ModuleError(
                        f"jet relations fail for [t^{k} d_{i}, t^{l} d_{j}]")


def _wedge_label(subset: tuple) -> str:
    return "^".join(f"e{i}" for i in subset) if subset else "1"


def wedge_rep(n: int, k: int) -> JPlusRepData:
    """k-th exterior power of the natural gl_n-module, as first-order jet
    data: the lexicographic wedge basis, and E_pa = rho(t^(e_p) d_a) acting
    as a derivation."""
    if not 0 <= k <= n:
        raise ModuleError(f"k must lie in 0..{n}")
    basis = sorted(itertools.combinations(range(1, n + 1), k))
    index = {b: i for i, b in enumerate(basis)}
    dim = len(basis)
    mats = {}
    for p in range(1, n + 1):
        for a in range(1, n + 1):
            rows = [[Fraction(0)] * dim for _ in range(dim)]
            for col, subset in enumerate(basis):
                # E_pa acts as a derivation: replace one factor e_a by e_p.
                for pos, elem in enumerate(subset):
                    if elem != a:
                        continue
                    rest = subset[:pos] + subset[pos + 1:]
                    if p in rest:
                        continue
                    new = tuple(sorted(rest + (p,)))
                    # sign: move e_p from position pos to its sorted slot
                    newpos = new.index(p)
                    sign = (-1) ** (pos + newpos)
                    rows[index[new]][col] += sign
            mats[(_unit(n, p), a)] = rows
    return JPlusRepData(n, dim, 1, mats,
                        labels=tuple(_wedge_label(b) for b in basis))


def natural_rep(n: int) -> JPlusRepData:
    """The natural gl_n-module: basis e1..en, E_pa e_b = d_ab e_p."""
    return wedge_rep(n, 1)


def trivial_rep(n: int) -> JPlusRepData:
    """The one-dimensional trivial gl_n-module, labelled "1"."""
    return wedge_rep(n, 0)


# -- module constructors ------------------------------------------------------


def _param_value(value, ctx_symbols: list):
    """Resolve a numeric-or-symbol constructor parameter; a symbol name is
    appended to ctx_symbols. It is one name of the polynomial grammar, so a
    module file reads it back, and not the coordinate m or s."""
    if isinstance(value, str):
        if symbol_names(value) != {value}:
            raise ModuleError(f"a parameter must be one symbol name, got "
                              f"{value!r}")
        coordinates = sum(_coordinate_symbols(1), ())
        if value in coordinates:
            raise ModuleError(f"a parameter may not name a coordinate symbol "
                              f"({', '.join(coordinates)}), got {value!r}")
        if value not in ctx_symbols:
            ctx_symbols.append(value)
        return value
    return Fraction(value)


def tensor_density(alpha, beta) -> PolyWeightModule:
    """W_1 tensor-density module: e_k v_s = (s + alpha*k) v_{s+k}.

    alpha and beta may be Fractions or symbol names (fully symbolic
    parameters).
    """
    params: list = []
    alpha_v = _param_value(alpha, params)
    beta_v = _param_value(beta, params)
    coordinates = sum(_coordinate_symbols(1), ())
    ctx = PolyContext(tuple(params) + coordinates)
    m, s = map(ctx.sym, coordinates)
    a = ctx.sym(alpha_v) if isinstance(alpha_v, str) else ctx.const(alpha_v)
    poly = s + a * m
    b = ctx.sym(beta_v) if isinstance(beta_v, str) else beta_v
    return PolyWeightModule(
        WnAlgebra(1), (b,), ("v",),
        [ActionTerm(1, "v", "v", poly)],
        name=f"tensor_density({alpha},{beta})")


def _rationals_text(values) -> str:
    """A tuple of rationals as a module name shows it: (1/3, 0)."""
    return "(" + ", ".join(str(Fraction(v)) for v in values) + ")"


def tensor_field(U: JPlusRepData, beta, name: str | None = None
                 ) -> PolyWeightModule:
    """W_n-module of tensor fields of the gl_n-module U, given as
    first-order jet data with E_pa = U.rho(e_p, a):
    (t^m d_a)(t^s x u) = s_a t^{s+m} x u + sum_p m_p t^{s+m} x E_pa u,
    which is the jets module of U. `name` replaces the default name, which
    shows dim U and beta."""
    if U.cutoff > 1:
        raise ModuleError(f"tensor fields take first-order jet data, got "
                          f"cutoff {U.cutoff}")
    return jets_module(U, beta, name or (
        f"tensor_field(dim {U.dim}, beta {_rationals_text(beta)})"))


def omega_forms(n: int, k: int, beta) -> PolyWeightModule:
    """Module of differential k-forms on the n-torus (logarithmic frame)."""
    return tensor_field(wedge_rep(n, k), beta, name=(
        f"omega^{k}(beta {_rationals_text(beta)}) on T^{n}"))


def _de_rham_matrix(n: int, k: int, svals) -> LabelMatrix:
    """Matrix of d: Omega^k -> Omega^{k+1} on the weight slice with
    absolute weight svals, between wedge labels:
    d(t^s x e_S) = sum_a s_a t^s x (e_a wedge e_S)."""
    return LabelMatrix(None, {
        (_wedge_label(subset), _wedge_label(tuple(sorted(subset + (a,))))):
            (-1) ** sum(1 for x in subset if x < a) * svals[a - 1]
        for subset in itertools.combinations(range(1, n + 1), k)
        for a in range(1, n + 1) if a not in subset})


def de_rham_homology(n: int, beta, w) -> list:
    """Ranks of ker d / im d on the weight-(beta+w) slices of the de Rham
    complex, k = 0..n, by exact row reduction."""
    if len(beta) != n or len(w) != n:
        raise ModuleError(f"beta and w must have length {n}")
    beta = tuple(Fraction(b) for b in beta)
    svals = tuple(b + x for b, x in zip(beta, w))
    labels = [[_wedge_label(b)
               for b in itertools.combinations(range(1, n + 1), k)]
              for k in range(n + 1)]
    ranks = []
    prev_rank = 0
    for k in range(n + 1):
        r = 0
        if k < n:
            d = _de_rham_matrix(n, k, svals)
            r = linalg.rank([[d.terms.get((src, tgt), Fraction(0))
                              for src in labels[k]] for tgt in labels[k + 1]])
        ranks.append(len(labels[k]) - r - prev_rank)
        prev_rank = r
    return ranks


def jets_module(rho: JPlusRepData, beta, name: str | None = None
                ) -> PolyWeightModule:
    """Cuspidal AW-module built from a jet-algebra representation:

    (t^m d_j)(t^s x v) = s_j t^{s+m} x v
                         + sum_{k != 0} (m^k / k!) t^{s+m} x rho(t^k d_j) v.
    `name` replaces the default name, which shows dim rho and the cutoff.
    """
    n = rho.n
    beta = tuple(Fraction(b) for b in beta)
    msyms, ssyms = _coordinate_symbols(n)
    ctx = PolyContext(msyms + ssyms)
    terms = []
    for j in range(1, n + 1):
        for src_i, src in enumerate(rho.labels):
            for tgt_i, tgt in enumerate(rho.labels):
                poly = ctx.zero()
                if src_i == tgt_i:
                    poly = poly + ctx.sym(ssyms[j - 1])
                for k in rho.exponents:
                    c = rho.rho(k, j)[tgt_i][src_i]
                    if not c:
                        continue
                    fact = 1
                    for ki in k:
                        fact *= factorial(ki)
                    mono = ctx.const(c / fact)
                    for i, ki in enumerate(k):
                        if ki:
                            mono = mono * ctx.sym(msyms[i]) ** ki
                    poly = poly + mono
                if poly:
                    terms.append(ActionTerm(j, src, tgt, poly))
    return PolyWeightModule(WnAlgebra(n), beta, rho.labels, terms, name=(
        name or f"jets(dim {rho.dim}, N {rho.cutoff})"))


def build_preset(name: str) -> PolyWeightModule:
    """The named W_1-module presets."""
    ctx = PolyContext(sum(_coordinate_symbols(1), ()))
    m, s = map(ctx.sym, ctx.symbols)
    if name == "punctured_functions":
        # functions on the circle modulo constants: e_k u_s = s u_{s+k},
        # u_0 = 0 (a hole at weight zero)
        return PolyWeightModule(
            WnAlgebra(1), (Fraction(0),), ("u",),
            [ActionTerm(1, "u", "u", s)],
            punctures=[((0,), ("u",))],
            name="punctured_functions")
    if name == "virasoro_adjoint":
        # adjoint module of the Virasoro algebra as a W_1-module:
        # e_k u_j = (j-k) u_{j+k} + [j+k=0] k^3 z,  e_k z = 0
        central = Constraint(m_coeffs=(Fraction(1),), s_coeffs=(Fraction(1),),
                             const=Fraction(0))
        return PolyWeightModule(
            WnAlgebra(1), (Fraction(0),), ("u", "z"),
            [ActionTerm(1, "u", "u", s - m),
             ActionTerm(1, "u", "z", m ** 3, constraint=central)],
            restricted_support={"z": [(0,)]},
            name="virasoro_adjoint")
    if name == "feigin_fuks_length2":
        # a length-2 self-extension family over Q(sqrt(19)):
        # 0 -> T((7-sqrt19)/2, b) -> M -> T((-5-sqrt19)/2, b) -> 0
        r19 = QuadExtScalar(0, 1, 19)
        a1 = (7 - r19) / 2
        a2 = (-5 - r19) / 2
        c7 = -(22 + 5 * r19) / 4
        c6 = -(31 + 7 * r19) / 2
        c5 = -(25 + 7 * r19) / 2
        coupling = (c7 * m ** 7 + c6 * m ** 6 * s + c5 * m ** 5 * s ** 2
                    - 5 * m ** 4 * s ** 3 + 5 * m ** 3 * s ** 4
                    + 2 * m ** 2 * s ** 5)
        return PolyWeightModule(
            WnAlgebra(1), (Fraction(0),), ("u", "w"),
            [ActionTerm(1, "u", "u", s + a1 * m),
             ActionTerm(1, "w", "w", s + a2 * m),
             ActionTerm(1, "w", "u", coupling)],
            name="feigin_fuks_length2")
    raise ModuleError(f"unknown preset {name!r}")


PRESET_NAMES = ("punctured_functions", "virasoro_adjoint", "feigin_fuks_length2")


# -- dual and twist -----------------------------------------------------------


def graded_dual(M: PolyWeightModule) -> PolyWeightModule:
    """Restricted dual with the sign convention (x f)(v) = -f(x v), graded so
    that the weight-nu dual slice pairs with the weight-(-nu) slice."""
    msyms, ssyms = M.m_symbols, M.s_symbols
    terms = []
    for t in M.terms:
        ctx = t.poly.ctx
        poly = -t.poly.substitute({ss: -ctx.sym(ss) - ctx.sym(ms)
                                   for ms, ss in zip(msyms, ssyms)})
        c = t.constraint
        if c is not None:  # cm*m + cs*s' = const at s' = -s - m
            (cm,), (cs,) = c.m_coeffs, c.s_coeffs
            c = Constraint((cm - cs,), (-cs,), c.const)
        terms.append(ActionTerm(t.direction, t.tgt, t.src, poly, c))
    return _transported(M, "dual", tuple(-b for b in M.beta), terms,
                        lambda off: tuple(-x for x in off))


def twist(M: PolyWeightModule, g: LatticeAutomorphism) -> PolyWeightModule:
    """Pullback of the module structure along the torus automorphism
    t^r -> t^{gr}: the twisted module has w_s := v_{gs} and

        poly'_a(m, s) = sum_b (g^{-1})_{a b} poly_b(g m, g s),

    with beta' = g^{-1} beta. Satisfies twist(twist(M, h), g) == twist(M, hg).
    At n = 1, g is 1 or -1. A constraint term is not transformed, so a
    module with one is refused.
    """
    if any(t.constraint is not None for t in M.terms):
        raise ModuleError("twist does not transform constraint terms")
    n = M.n
    if g.n != n:
        raise ModuleError(f"matrix size {g.n} does not match W_{n}")
    ginv = g.inverse()
    msyms, ssyms = M.m_symbols, M.s_symbols
    terms = []
    for t in M.terms:
        ctx = t.poly.ctx
        base = t.poly.substitute({
            syms[i]: sum((g.matrix[i][j] * ctx.sym(syms[j]) for j in range(n)),
                         ctx.zero())
            for syms in (msyms, ssyms) for i in range(n)})
        b = t.direction
        for a in range(1, n + 1):
            f = ginv.matrix[a - 1][b - 1]
            if f:
                terms.append(ActionTerm(a, t.src, t.tgt, f * base))
    beta_new = tuple(sum(Fraction(ginv.matrix[i][j]) * M.beta[j]
                         for j in range(n)) for i in range(n))
    return _transported(M, "twist", beta_new, terms, ginv.apply_point)


def _transported(M: PolyWeightModule, kind: str, beta, terms,
                 move) -> PolyWeightModule:
    """The module on M's fiber with `beta` and `terms`, M's punctures and
    finite supports moved by `move` (an offset map) and the name
    kind(M.name): the common tail of `graded_dual` and `twist`."""
    return PolyWeightModule(
        M.algebra, beta, M.fiber, terms,
        punctures=[(move(off), labs) for off, labs in M.punctures],
        restricted_support={lab: [move(o) for o in offs]
                            for lab, offs in M.restricted_support.items()},
        name=f"{kind}({M.name})" if M.name else kind)


def action_polynomials(M: PolyWeightModule) -> dict:
    """Canonical form of the unconstrained action: summed coefficient
    polynomial (as a string) per (direction, src, tgt)."""
    acc: dict = {}
    for t in M.terms:
        if t.constraint is not None:
            continue
        key = (t.direction, t.src, t.tgt)
        acc[key] = acc[key] + t.poly if key in acc else t.poly
    return {k: str(v) for k, v in acc.items() if v}


# -- checkers -----------------------------------------------------------------


class CheckReport(Frozen):
    __slots__ = ("kind", "module", "symbolic_failures", "window_failures",
                 "symbolic_checked", "window_checked")

    @property
    def passed(self) -> bool:
        return not self.symbolic_failures and not self.window_failures

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "module": self.module,
            "passed": self.passed,
            "symbolic_checked": self.symbolic_checked,
            "window_checked": self.window_checked,
            "symbolic_failures": [str(f) for f in self.symbolic_failures],
            "window_failures": [str(f) for f in self.window_failures],
        }


def _generic_labels(M: PolyWeightModule) -> list:
    return [lab for lab in M.fiber if M.restricted_support.get(lab) is None]


def _symbolic_frame(M: PolyWeightModule, names: Sequence[str]):
    """Context of a symbolic check: the module's parameters followed by the
    checker's own symbols `names`. Returns the context, the parameter
    mapping and the checker symbols as polynomials."""
    params = M.param_symbols()
    clash = sorted(set(params) & set(names))
    if clash:
        raise ModuleError(f"parameter names collide with checker symbols: {clash}")
    ctx = PolyContext(params + tuple(names))
    return ctx, {p: ctx.sym(p) for p in params}, [ctx.sym(x) for x in names]


def _require_radius(window: int) -> None:
    """A negative window samples nothing, and its report would read as a
    pass."""
    if window < 0:
        raise ModuleError(f"window radius must be nonnegative, got {window}")


def _window_generators(M: PolyWeightModule, window: int):
    """Exponents and generators of the concrete sweep: for W_1, the
    exponents in [-window, window] and those where a constraint line fires
    at offset 0; in [-1, 1]^n for W_n, each generator in every direction.
    Returns (exponents, generators)."""
    if M.n == 1:
        exps = [(k,) for k in sorted(set(range(-window, window + 1))
                                     | M.constraint_modes((0, 1), (0, 0)))]
    else:
        exps = list(itertools.product(range(-1, 2), repeat=M.n))
    return exps, [M.algebra.basis(e, a) for e in exps
                  for a in range(1, M.n + 1)]


def _generic_action_matrix(M: PolyWeightModule, direction: int,
                           mapping_base: Mapping, mvals, svals,
                           sources: Sequence[str] | None = None
                           ) -> LabelMatrix:
    """Generic-slice action matrix of the generator of exponents `mvals`
    in `direction` at absolute weight `svals`, from the labels `sources`
    (by default the generically supported ones) to the generically
    supported labels; exponents and weight may be polynomials. A
    constraint term is kept exactly where `Constraint.satisfied` holds
    identically on the slice, as the dual's -s = 0 does at weight 0;
    isolated hits are `PolyWeightModule.constraint_modes`."""
    labels = _generic_labels(M)
    mapping = dict(mapping_base)
    mapping.update(zip(M.m_symbols, mvals))
    mapping.update(zip(M.s_symbols, svals))
    out: dict = {}
    for src in labels if sources is None else sources:
        for t in M.terms_for(direction, src):
            if t.tgt not in labels or (
                    t.constraint is not None
                    and not t.constraint.satisfied(mvals, svals)):
                continue
            val = t.poly.specialize(mapping)
            key = (src, t.tgt)
            out[key] = out[key] + val if key in out else val
    return LabelMatrix(None, out)


def check_module_axioms(M: PolyWeightModule, window: int = 2) -> CheckReport:
    """Verify [x, y] v = x(y v) - y(x v).

    Generic part: a polynomial identity in symbolic exponents and weight,
    restricted to unconstrained terms on generically-supported labels.
    Window part: a concrete sweep over generators with exponents in
    [-window, window] and weights near the exceptional set, which exercises
    constraints, punctures and restricted supports. It computes x v once
    per generator and cell, and sums the defect [x, y] v - x(y v) + y(x v)
    once per unordered pair of distinct generators and cell, in one dict
    through the action core `_act_into`; only a failing defect becomes a
    ModuleVector. As [y, x] = -[x, y] and the action is bilinear, the
    defect of (y, x) is its negative, and a diagonal pair has none.
    Failures are reported in (x, y), then cell, order.
    """
    _require_radius(window)
    n = M.n
    _, base, syms = _symbolic_frame(
        M, [f"{g}{i+1}" for g in ("gm", "gp", "gw") for i in range(n)])
    mv, pv, wv = syms[:n], syms[n:2 * n], syms[2 * n:]
    mp = [a + b for a, b in zip(mv, pv)]
    wp = [a + b for a, b in zip(wv, pv)]
    wm = [a + b for a, b in zip(wv, mv)]

    def A(direction, mvals, svals):
        return _generic_action_matrix(M, direction, base, mvals, svals)

    symbolic_failures = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            # [t^m d_a, t^p d_b] = p_a t^{m+p} d_b - m_b t^{m+p} d_a; at
            # n = 1 this is the Witt bracket (p - m) e_{m+p}
            lhs = A(b, mp, wv).scale(pv[a - 1]) - A(a, mp, wv).scale(mv[b - 1])
            rhs = A(a, mv, wp) @ A(b, pv, wv) - A(b, pv, wm) @ A(a, mv, wv)
            symbolic_failures += [(a, b) + key + (res,)
                                  for key, res in (lhs - rhs).entries()]

    _, gens = _window_generators(M, window)
    cells = M.window(window)
    first = [[act(g, v) for _, _, v in cells] for g in gens]
    found = []
    for i, j in itertools.combinations(range(len(gens)), 2):
        x, y = gens[i], gens[j]
        z = bracket(x, y)
        for c, (off, lab, v) in enumerate(cells):
            diff = _act_into(_act_into(_act_into(
                {}, z, v), x, first[j][c], -1), y, first[i][c])
            if any(diff.values()):
                diff = ModuleVector(M, diff)
                found.append((i * len(gens) + j, c,
                              (str(x), str(y), off, lab, repr(diff))))
                found.append((j * len(gens) + i, c,
                              (str(y), str(x), off, lab, repr(-diff))))
    return CheckReport(
        "module_axioms", M.name or repr(M), symbolic_failures,
        [f for _, _, f in sorted(found, key=lambda f: f[:2])], n * n,
        len(gens) ** 2 * len(cells))


def _a_shift_into(out: dict, v: ModuleVector, r: tuple, c=1) -> dict:
    """Add c * t^r v into `out` as `_act_into` adds x v; return `out`."""
    for (off, lab), val in v.terms.items():
        key, term = (tuple(o + x for o, x in zip(off, r)), lab), c * val
        out[key] = out[key] + term if key in out else term
    return out


def _a_shift(v: ModuleVector, r: tuple) -> ModuleVector:
    """Multiplication by the Laurent monomial t^r on an AW-module."""
    return ModuleVector(v.module, _a_shift_into({}, v, r))


def check_aw_compat(M: PolyWeightModule, window: int = 2) -> CheckReport:
    """Verify compatibility with the function-algebra action:
    (t^m d_a)(t^r v) = t^r ((t^m d_a) v) + r_a t^{m+r} v, i.e. the action
    polynomial satisfies poly_a(m, s + r) = poly_a(m, s) + r_a * delta.
    The window part computes (t^m d_a) v once per generator and cell and
    reuses it for every shift r; it sums lhs - rhs in one dict through the
    cores `_act_into` and `_a_shift_into`."""
    _require_radius(window)
    name = M.name or repr(M)
    n = M.n
    _, base, syms = _symbolic_frame(
        M, [f"{g}{i+1}" for g in ("gm", "gw", "gr") for i in range(n)])
    mv, wv, rv = syms[:n], syms[n:2 * n], syms[2 * n:]
    wr = [a + b for a, b in zip(wv, rv)]
    labels = _generic_labels(M)
    symbolic_failures = []
    if len(labels) != len(M.fiber) or M.punctures:
        symbolic_failures.append(
            ("structure", "punctures or finitely-supported labels are "
                          "incompatible with an invertible t^r action"))
    for a in range(1, n + 1):
        shifted = _generic_action_matrix(M, a, base, mv, wr)
        plain = _generic_action_matrix(M, a, base, mv, wv)
        delta = LabelMatrix(None, {(lab, lab): rv[a - 1] for lab in labels})
        symbolic_failures += [(a,) + key + (res,) for key, res
                              in (shifted - plain - delta).entries()]
    if symbolic_failures:
        return CheckReport("aw_compat", name, symbolic_failures, [], n, 0)

    # the structure check above leaves no puncture or finite support, so
    # the radius-0 window is the fiber at offset 0 and at each offset where
    # a constraint line fires for e_0
    shifts, gens = _window_generators(M, window)
    cells = M.window(0)
    window_failures = []
    for x in gens:
        e, a = next(iter(x.terms))
        images = [act(x, v) for _, _, v in cells]
        for r in shifts:
            mr = tuple(me + re for me, re in zip(e, r))
            for (_, lab, v), xv in zip(cells, images):
                diff = _a_shift_into(_a_shift_into(_act_into(
                    {}, x, _a_shift(v, r)), xv, r, -1), v, mr, -r[a - 1])
                if any(diff.values()):
                    window_failures.append(
                        (str(x), r, lab, repr(ModuleVector(M, diff))))
    return CheckReport("aw_compat", name, [], window_failures, n,
                       len(gens) * len(shifts) * len(cells))


# -- differentiator annihilation certificates ---------------------------------


class AnnihilationCertificate(Frozen):
    __slots__ = ("order", "module", "annihilates", "symbolic_residues",
                 "window_failures", "witness", "symbolic_checked",
                 "window_checked")

    def to_json(self) -> dict:
        return {
            "kind": "annihilation",
            "order": self.order,
            "module": self.module,
            "annihilates": self.annihilates,
            "symbolic_residues": [
                {"src": s, "tgt": t, "weight": w, "coeff": c}
                for s, t, w, c in self.symbolic_residues],
            "window_failures": [str(f) for f in self.window_failures],
            "witness": list(self.witness) if self.witness else None,
            "symbolic_checked": self.symbolic_checked,
            "window_checked": self.window_checked,
        }


def require_rank1(M: PolyWeightModule) -> None:
    """Differentiator certificates are defined over W_1."""
    if M.n != 1:
        raise ModuleError("differentiator certificates are rank-1 only")


def annihilates(order: int, M: PolyWeightModule, window: int = 3
                ) -> AnnihilationCertificate:
    """Decide whether every order-`order` differentiator
    sum_i (-1)^i C(order, i) e_{k-i} e_{s+i} kills the module.

    Symbolic part: k, s, the starting weight wt and the index i are
    formal and the step is 1. One composite of two generic action
    matrices, e_{s+i} at weight wt and then e_{k-i} at weight wt + s + i,
    covers all generic placements and every term at once. Its entries
    have some degree d in i, and sum_i (-1)^i C(order, i) f(i) vanishes
    whenever deg f < order, so an order above d leaves a clean residue
    table; a lower order sums the composite at i = 0..order. Window part:
    concrete k, s and weights near the exceptional set, which covers the
    constraint/puncture cases the generic computation skips. It goes one
    cell v at a time and computes each composite e_a e_b v once per cell:
    the terms (k, s, i) with the same a = k - i and b = s + i share it.
    Failures are reported in (k, s), then cell, order, and the witness is
    the first of them.
    """
    require_rank1(M)
    if order < 0:
        raise ModuleError(f"differentiator order must be nonnegative, "
                          f"got {order}")
    _require_radius(window)
    coeffs = [1]  # (-1)^i C(order, i), each from the one before
    for j in range(order):
        coeffs.append(-coeffs[-1] * (order - j) // (j + 1))
    _, base, (k, s, wt, i) = _symbolic_frame(M, ("k", "s", "wt", "i"))
    composite = (_generic_action_matrix(M, 1, base, [k - i], [wt + s + i])
                 @ _generic_action_matrix(M, 1, base, [s + i], [wt]))
    # i is the last symbol of the context
    degree = max((e[-1] for c in composite.terms.values()
                  if isinstance(c, PolyScalar) for e in c.terms), default=0)
    omega = LabelMatrix(None, {})
    if order <= degree:
        for j, coeff in enumerate(coeffs):
            omega += LabelMatrix(None, {
                key: c.substitute({"i": j}) if isinstance(c, PolyScalar) else c
                for key, c in composite.terms.items()}).scale(coeff)
    symbolic_residues = [(src, tgt, str(wt + k + s), str(c))
                         for src in M.fiber for tgt in M.fiber
                         if (c := omega.terms.get((src, tgt))) is not None]

    gen = {x: M.algebra.basis((x,), 1)
           for x in range(-window - order, window + order + 1)}
    points = list(itertools.product(range(-window, window + 1), repeat=2))
    cells = M.window(window)
    found = []
    for c, (off, lab, v) in enumerate(cells):
        inner: dict = {}  # b -> e_b v
        two: dict = {}  # (a, b) -> terms of e_a e_b v
        for index, (kv, sv) in enumerate(points):
            total: dict = {}
            for i, coeff in enumerate(coeffs):
                a, b = kv - i, sv + i
                terms = two.get((a, b))
                if terms is None:
                    if b not in inner:
                        inner[b] = act(gen[b], v)
                    terms = two[(a, b)] = act(gen[a], inner[b]).terms
                for key, val in terms.items():
                    total[key] = total.get(key, 0) + coeff * val
            total_v = ModuleVector(M, total)
            if not total_v.is_zero():
                found.append((index, c, (kv, sv, off, lab, repr(total_v))))
    window_failures = [f for _, _, f in sorted(found, key=lambda f: f[:2])]
    witness = next(((kv, sv, off[0], lab)
                    for kv, sv, off, lab, _ in window_failures), None)
    return AnnihilationCertificate(
        order, M.name or repr(M),
        not symbolic_residues and not window_failures, symbolic_residues,
        window_failures, witness, len(M.fiber), len(points) * len(cells))


def weight_report(M: PolyWeightModule, radius: int = 4) -> dict:
    """Componentwise dimensions on a window of weights, plus the uniform
    bound over that window."""
    _require_radius(radius)
    offsets = itertools.product(range(-radius, radius + 1), repeat=M.n)
    rows = [{"offset": list(off),
             "weight": [str(w) for w in M.weight_value(off)],
             "dim": len(M.labels_at(off))} for off in offsets]
    dims = [r["dim"] for r in rows]
    return {"module": M.name or repr(M), "rows": rows,
            "max_dim": max(dims),
            "generic_dim": len(M.fiber)}


# -- serialization ------------------------------------------------------------


def module_to_json(M: PolyWeightModule) -> dict:
    def constraint_json(c):
        return {"m_coeffs": [str(Fraction(x)) for x in c.m_coeffs],
                "s_coeffs": [str(Fraction(x)) for x in c.s_coeffs],
                "const": str(Fraction(c.const))}

    return {
        "algebra": {"type": "witt" if M.n == 1 else "wn", "n": M.n},
        "beta": [str(b) for b in M.beta],
        "fiber": list(M.fiber),
        "terms": [{"direction": t.direction, "src": t.src, "tgt": t.tgt,
                   "poly": str(t.poly),
                   **({"constraint": constraint_json(t.constraint)}
                      if t.constraint is not None else {})}
                  for t in M.terms],
        "punctures": [{"offset": list(off), "labels": list(labs)}
                      for off, labs in M.punctures],
        "restricted_support": {lab: sorted(list(o) for o in offs)
                               for lab, offs in M.restricted_support.items()},
        "name": M.name,
    }


def _text(value, field: str) -> str:
    """A scalar field of a module file, which must be written as a string."""
    if not isinstance(value, str):
        raise ModuleError(f"{field} must be a string, got {value!r}")
    return value


def _typed(value, kind: type, field: str):
    """A list or object field of a module file; a string in place of a list
    would otherwise be read character by character."""
    if not isinstance(value, kind):
        raise ModuleError(f"{field} must be a {kind.__name__}, got {value!r}")
    return value


def _offset_json(value, field: str = "offset") -> tuple:
    """A weight offset of a module file: a list of integers."""
    if not all(type(x) is int for x in _typed(value, list, field)):
        raise ModuleError(f"{field} must be a list of integers, got {value!r}")
    return tuple(value)


def _labels_json(value, field: str) -> tuple:
    """A list of fiber labels of a module file: strings, which a label of
    another type equal to one of them (1 == True) cannot pass for."""
    return tuple(_text(lab, f"{field} entry")
                 for lab in _typed(value, list, field))


def _integer(value, field: str) -> int:
    """An integer field of a module file; a bool, a float or a numeric
    string would otherwise be read as an integer."""
    if type(value) is not int:
        raise ModuleError(f"{field} must be an integer, got {value!r}")
    return value


def module_from_json(data: Mapping) -> PolyWeightModule:
    n = _integer(data["algebra"]["n"], "n")
    kind = data["algebra"]["type"]
    if kind not in ("witt", "wn"):
        raise ModuleError(f"algebra type must be 'witt' or 'wn', got {kind!r}")
    # W_1 has one file kind; a "wn" file's m1, s1 would read as parameters
    if (kind == "witt") != (n == 1) or n < 1:
        raise ModuleError(f"W_1 module files use type 'witt' with n = 1, and "
                          f"'wn' needs n >= 2; got {kind!r} with n = {n}")
    msyms, ssyms = _coordinate_symbols(n)
    betas = [_text(b, "beta") for b in _typed(data["beta"], list, "beta")]
    polys = [_text(t["poly"], "poly")
             for t in _typed(data["terms"], list, "terms")]
    extra = set().union(*map(symbol_names, betas + polys)) - {*msyms, *ssyms}
    ctx = PolyContext(tuple(sorted(extra)) + msyms + ssyms)
    # a constant beta is its coefficient, as `module_to_json` wrote it
    beta = [b.constant_value() if isinstance(b, PolyScalar)
            and b.is_constant() else b
            for b in (parse_scalar(text, ctx) for text in betas)]
    terms = []
    for t, poly in zip(data["terms"], polys):
        c = t.get("constraint")
        constraint = None
        if c is not None:
            m_coeffs, s_coeffs = (
                tuple(Fraction(_text(x, key))
                      for x in _typed(c[key], list, key))
                for key in ("m_coeffs", "s_coeffs"))
            constraint = Constraint(m_coeffs, s_coeffs,
                                    Fraction(_text(c["const"], "const")))
        terms.append(ActionTerm(_integer(t["direction"], "direction"),
                                _text(t["src"], "src"), _text(t["tgt"], "tgt"),
                                parse_poly(poly, ctx), constraint))
    support = _typed(data.get("restricted_support", {}), dict,
                     "restricted_support")
    return PolyWeightModule(
        WnAlgebra(n), beta, _labels_json(data["fiber"], "fiber"), terms,
        punctures=[(_offset_json(p["offset"]),
                    _labels_json(p["labels"], "labels"))
                   for p in _typed(data.get("punctures", []), list,
                                   "punctures")],
        restricted_support={lab: [_offset_json(o)
                                  for o in _typed(offs, list, "offsets")]
                            for lab, offs in support.items()},
        name=_text(data.get("name", ""), "name"))


def jets_rep_from_json(data: Mapping) -> JPlusRepData:
    """A jet-algebra representation file, checked like a module file:
    integer n, dim and cutoff, string labels, matrix entries that are
    integers or rational strings (not bools or floats), and each (k, j) at
    most once (a repeated one would silently replace the first)."""
    matrices = {}
    for e in _typed(data["matrices"], list, "matrices"):
        key = (_offset_json(e["k"], "k"), _integer(e["j"], "j"))
        if key in matrices:
            raise ModuleError(f"matrix {key} is given twice")
        matrices[key] = [[Fraction(x) if type(x) is int
                          else Fraction(_text(x, "matrix entry"))
                          for x in _typed(row, list, "matrix row")]
                         for row in _typed(e["matrix"], list, "matrix")]
    labels = data.get("labels")
    return JPlusRepData(
        _integer(data["n"], "n"), _integer(data["dim"], "dim"),
        _integer(data["cutoff"], "cutoff"), matrices,
        labels=None if labels is None else _labels_json(labels, "labels"))


def check_de_rham_chain(n: int, beta=None, mbox: int = 1) -> CheckReport:
    """Verify d^2 = 0 and W_n-equivariance of the de Rham differential,
    symbolically in the weight, for generator exponents with |m|_inf <= mbox.
    Each matrix is built once: d per degree and per (m, degree), and each
    Omega^k action slice per (m, direction)."""
    _require_radius(mbox)
    beta = tuple(Fraction(b) for b in (beta or (0,) * n))
    mods = [omega_forms(n, k, beta) for k in range(n + 1)]
    ctx = PolyContext(mods[0].s_symbols)
    sv = [ctx.sym(x) for x in mods[0].s_symbols]
    d = [_de_rham_matrix(n, k, sv) for k in range(n)]

    failures = [("d^2", k) + key + (res,) for k in range(n - 1)
                for key, res in (d[k + 1] @ d[k]).entries()]
    for mvec in itertools.product(range(-mbox, mbox + 1), repeat=n):
        mv = [ctx.const(Fraction(x)) for x in mvec]
        smv = [s + m for s, m in zip(sv, mv)]
        A = {(k, a): _generic_action_matrix(mods[k], a, {}, mv, sv)
             for k in range(n + 1) for a in range(1, n + 1)}
        for k in range(n):
            d_shifted = _de_rham_matrix(n, k, smv)
            for a in range(1, n + 1):
                lhs = A[k + 1, a] @ d[k]
                rhs = d_shifted @ A[k, a]
                failures += [(mvec, a, k) + key + (res,)
                             for key, res in (lhs - rhs).entries()]
    return CheckReport("de_rham_chain", f"omega(beta {beta}) on T^{n}",
                       failures, [], n - 1 + (2 * mbox + 1) ** n * n * n, 0)

