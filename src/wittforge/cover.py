"""A-covers of rank-1 weight modules.

An element of the coinduced space Hom(A, M) at weight w assigns to each
Laurent mode t^m a vector in the weight-(w+m) space of M. The cover is the
span of the generators psi(e_k, u) with psi(e_k, u)(t^m) = e_{k+m} u; for a
module with polynomial action coefficients these values are quasi-polynomial
in m: a polynomial part per fiber label plus finitely many exceptional
modes. That makes the cover amenable to exact finite linear algebra: a
weight space of the cover is a subspace of a finite coordinate space.

The cover is a module over A as well: t^w is invertible on it and maps the
weight-0 space onto the weight-w one. So only the weight-0 space is built
from psi generators, and every other weight space is its t^w-translate;
the rank is uniform and the A-action invertible by construction.

Cover vectors are exact. The polynomial part of psi(e_k, u) and of
e_p theta is the module's generic action matrix applied to label
polynomials in m. The module's exceptional offsets and constraint modes,
where its action departs from that matrix, get their values from the
concrete action; the cover decides none of them itself. Every span
question is one `linalg` elimination of its family, shared by all the
vectors asked about it: the reference's basis and frame (whose coordinates
put every generator in the span, so none is expanded again), a weight
space's frame, the images of one e_p, the pi rows against the action rows.
The induced action comes from c_p, the matrix of e_p on the weight-0 space
over its t^p-translate, one expansion per exponent p: since
[e_p, t^w] = w t^(w+p), c_p and the weights' frames give e_p from any
weight w to w + p, and the frames alone give t^p. The emitted module
interpolates these matrices in (p, w), at one degree fixed by the module;
samples beyond that grid check the interpolant, and a mismatch raises
DegreeBoundError, never a silent wrong answer.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from . import linalg
from .modules import (ActionTerm, ModuleError, ModuleVector, PolyWeightModule,
                      _generic_action_matrix, act)
from .scalars import Frozen, PolyContext, PolyScalar


class CoverError(Exception):
    pass


class DegreeBoundError(CoverError):
    """An interpolation failed verification at its degree bound: the result
    is inconclusive, not a refutation."""


_MCTX = PolyContext(("m",))


def require_coverable(M: PolyWeightModule) -> None:
    """A-covers are built for rank-1 modules with concrete parameters and a
    rational beta."""
    if M.n != 1:
        raise ModuleError("covers are implemented for rank-1 modules")
    if M.param_symbols():
        raise ModuleError("covers need concrete (non-symbolic) parameters")
    if not all(isinstance(b, (int, Fraction)) for b in M.beta):
        raise ModuleError(f"covers need a rational beta, got "
                          f"{[str(b) for b in M.beta]}")


def base_degree(M: PolyWeightModule) -> int:
    return max((t.poly.total_degree() for t in M.terms), default=0) or 1


class QuasiPolyVector:
    """Weight-w element of the coinduced space with quasi-polynomial values.

    value(m) is a fiber vector of M at weight offset w+m: per label, the
    polynomial part evaluated at m, except at the explicitly overridden
    modes, where the stored exact value applies.
    """

    __slots__ = ("module", "weight", "poly", "overrides")

    def __init__(self, module: PolyWeightModule, weight: int,
                 poly: Mapping[str, PolyScalar], overrides: Mapping):
        self.module = module
        self.weight = int(weight)
        self.poly = {lab: p for lab, p in poly.items() if p}
        self.overrides = dict(overrides)

    def override_modes(self) -> set:
        return {m for (m, _lab) in self.overrides}

    def component(self, m: int, lab: str):
        if (m, lab) in self.overrides:
            return self.overrides[(m, lab)]
        p = self.poly.get(lab)
        return Fraction(0) if p is None else p.specialize({"m": Fraction(m)})

    def value(self, m: int) -> ModuleVector:
        return ModuleVector(self.module, {((self.weight + m,), lab):
                                          self.component(m, lab)
                                          for lab in self.module.fiber})

    def is_zero(self) -> bool:
        return not self.poly and not any(self.overrides.values())

    def __repr__(self):
        parts = [f"{lab}: {p}" for lab, p in sorted(self.poly.items())]
        ov = {k: str(v) for k, v in sorted(self.overrides.items())
              if v}
        return (f"QuasiPolyVector(w={self.weight}, poly={{{', '.join(parts)}}},"
                f" overrides={ov})")


def _first_clear_mode(modes) -> int:
    """The first positive integer beyond |m| for every m in `modes`."""
    return max((abs(m) for m in modes), default=0) + 1


def qpv_from_function(M: PolyWeightModule, w: int,
                      fn: Callable[[int], ModuleVector],
                      poly: Mapping[str, PolyScalar],
                      extra_modes: Sequence[int] = ()) -> QuasiPolyVector:
    """The weight-w quasi-polynomial vector whose value at mode m is the
    label polynomials `poly` in m, except at M's exceptional modes and at
    `extra_modes`, where it is fn(m), a weight-(w+m) vector of M."""
    exc = {off[0] - w for off in M.exceptional_offsets()} | set(extra_modes)
    overrides = {}
    for m in sorted(exc):
        comp = {lab: Fraction(0) for lab in M.fiber}
        for ((off,), lab), c in fn(m).terms.items():
            if off != w + m:
                raise CoverError(
                    f"value at mode {m} is not homogeneous of weight offset "
                    f"{w + m}")
            comp[lab] = c
        overrides.update(((m, lab), comp[lab]) for lab in M.fiber)
    return QuasiPolyVector(M, w, poly, overrides)


def _generic_image(M: PolyWeightModule, k, s, coeffs: Mapping) -> dict:
    """Label polynomials in m of e_k applied at absolute weight s to the
    vector with label polynomials `coeffs`; k and s may be polynomials in m.
    Off the module's exceptional offsets and constraint modes this is the
    concrete action: the module's generic matrix from the labels of
    `coeffs`, summed against them."""
    out: dict = {}
    for (src, tgt), c in _generic_action_matrix(M, 1, {}, [k], [s],
                                                coeffs).terms.items():
        out[tgt] = out.get(tgt, _MCTX.zero()) + c * coeffs[src]
    return out


class PsiGenerator(Frozen):
    """Descriptor of psi(e_k, u_{j,t}); its cover weight is j + k."""

    __slots__ = ("k", "j", "label")

    @property
    def weight(self) -> int:
        return self.k + self.j

    def __str__(self):
        return f"psi(e[{self.k}], {self.label}[{self.j}])"


def psi_evaluate(M: PolyWeightModule, g: PsiGenerator) -> QuasiPolyVector:
    """psi(e_k, u)(t^m) = e_{k+m} u, materialized."""
    require_coverable(M)
    u = M.basis_vector((g.j,), g.label)
    poly = _generic_image(M, g.k + _MCTX.sym("m"), M.beta[0] + g.j,
                          {lab: c for (_, lab), c in u.terms.items()})

    def fn(m):
        return act(M.algebra.basis((g.k + m,), 1), u)

    extra = M.constraint_modes((g.k, 1), (g.j, 0))
    return qpv_from_function(M, g.weight, fn, poly, extra)


# -- linear algebra over quasi-polynomial coordinates -------------------------


def _common_frame(vectors: Sequence[QuasiPolyVector]):
    """The largest polynomial degree and the sorted union of the override
    modes of `vectors`: the (degree, label) and (mode, label) slots of
    `_coordinates`."""
    degree = max((p.total_degree() for v in vectors for p in v.poly.values()),
                 default=0)
    return degree, sorted(set().union(*(v.override_modes() for v in vectors)))


def _coordinates(v: QuasiPolyVector, degree: int, modes) -> list:
    fiber = v.module.fiber
    return [v.poly[lab].terms.get((d,), Fraction(0))
            if lab in v.poly else Fraction(0)
            for d in range(degree + 1) for lab in fiber] + [
        v.component(m, lab) for m in modes for lab in fiber]


def _from_coordinates(M: PolyWeightModule, w: int, row, degree: int,
                      modes) -> QuasiPolyVector:
    n = len(M.fiber)
    poly = {lab: PolyScalar(_MCTX, {(d,): row[d * n + i]
                                    for d in range(degree + 1)})
            for i, lab in enumerate(M.fiber)}
    start = (degree + 1) * n
    overrides = {(m, lab): row[start + k * n + i]
                 for k, m in enumerate(modes) for i, lab in enumerate(M.fiber)}
    return QuasiPolyVector(M, w, poly, overrides)


def expand_in_family(vectors: Sequence[QuasiPolyVector],
                     family: Sequence[QuasiPolyVector]) -> list:
    """For each vector, its coefficients over a linearly independent family,
    or None if it is outside the span: one frame and one elimination of the
    family for all the vectors."""
    deg, modes = _common_frame(list(family) + list(vectors))
    return linalg.solve_in_span([_coordinates(b, deg, modes) for b in family],
                                [_coordinates(v, deg, modes) for v in vectors])


# -- the cover ----------------------------------------------------------------


class CoverWeightSpace(Frozen):
    """A weight space of the cover and its frame over the vectors v it was
    spanned from: basis = transform (v), and row k of `inverse` holds the
    coordinates of v_k over the basis. For independent v, such as the
    translates t^w b of the reference basis, the two are inverse matrices."""

    __slots__ = ("weight", "basis", "transform", "inverse")

    @property
    def rank(self) -> int:
        return len(self.basis)


def span_basis(M: PolyWeightModule, w: int, vectors: Sequence[QuasiPolyVector]
               ) -> CoverWeightSpace:
    """The row-echelon basis of the span of the nonzero weight-w `vectors`,
    with its transform and inverse from one `linalg.span_frame` of their
    coordinate rows."""
    degree, modes = _common_frame(vectors)
    basis, transform, inverse, _ = linalg.span_frame(
        [_coordinates(v, degree, modes) for v in vectors])
    return CoverWeightSpace(
        w, tuple(_from_coordinates(M, w, r, degree, modes) for r in basis),
        tuple(map(tuple, transform)), tuple(map(tuple, inverse)))


class CoverModule:
    """Finite per-weight bases of the A-cover of a rank-1 module.

    Only the weight-0 space (the reference) is built, as the span of its
    psi generator pool. t^w is invertible on Hom(A, M) and maps the weight-0
    pool onto the weight-w one, so the weight-w space is the t^w-translate
    of the reference, in row-echelon form in its own coordinate frame.
    Uniform rank and an invertible A-action hold by construction.
    """

    def __init__(self, M: PolyWeightModule):
        require_coverable(M)
        self.module = M
        vectors = [psi_evaluate(M, g) for g in _generator_pool(M)]
        self.reference = span_basis(M, 0, [v for v in vectors
                                           if not v.is_zero()])
        self.spaces: dict = {}

    def weight_space(self, w: int) -> CoverWeightSpace:
        if w not in self.spaces:
            self.spaces[w] = span_basis(self.module, w, [
                a_action(b, w) for b in self.reference.basis])
        return self.spaces[w]

    def rank(self, w: int) -> int:
        return self.weight_space(w).rank


def _generator_pool(M: PolyWeightModule) -> list:
    """The weight-0 psi generators whose span is provably the full weight-0
    space: degree+1 consecutive generic j (Vandermonde-extraction of the
    polynomial coefficient family) plus every exceptional j."""
    d = base_degree(M)
    exc_offsets = sorted(off[0] for off in M.exceptional_offsets())
    start = _first_clear_mode(exc_offsets)
    js = list(range(start, start + d + 2)) + exc_offsets
    return [PsiGenerator(-j, j, lab) for j in js for lab in M.labels_at((j,))]


# -- induced action ------------------------------------------------------------


def lie_action(theta: QuasiPolyVector, p: int) -> QuasiPolyVector:
    """(e_p theta)(t^m) = e_p(theta(t^m)) - m * theta(t^{m+p})."""
    M = theta.module
    w = theta.weight
    mvar = _MCTX.sym("m")
    poly = _generic_image(M, Fraction(p), M.beta[0] + w + mvar, theta.poly)
    for lab, q in a_action(theta, p).poly.items():
        poly[lab] = poly.get(lab, _MCTX.zero()) - mvar * q

    def fn(m):
        first = act(M.algebra.basis((p,), 1), theta.value(m))
        second = theta.value(m + p).scale(Fraction(m))
        return first - second

    extra = set()
    for m0 in theta.override_modes():
        extra.add(m0)
        extra.add(m0 - p)
    extra |= M.constraint_modes((p, 0), (w, 1))
    return qpv_from_function(M, w + p, fn, poly, extra)


def a_action(theta: QuasiPolyVector, p: int) -> QuasiPolyVector:
    """(t^p theta)(t^m) = theta(t^{m+p})."""
    M = theta.module
    poly = {}
    mvar = _MCTX.sym("m")
    for lab, q in theta.poly.items():
        poly[lab] = q.substitute({"m": mvar + Fraction(p)})
    overrides = {(m - p, lab): v for (m, lab), v in theta.overrides.items()}
    return QuasiPolyVector(M, theta.weight + p, poly, overrides)


def pi_map(theta: QuasiPolyVector) -> ModuleVector:
    """Evaluation at the unit function (mode 0)."""
    return theta.value(0)


class ActionMatrices(Frozen):
    """Induced action of e_p and t^p from weight w to weight w+p, columns
    over the weight-w basis, rows over the weight-(w+p) basis."""

    __slots__ = ("p", "weight", "lie_matrix", "a_matrix")


def induced_action(C: CoverModule, p: int, w: int) -> ActionMatrices:
    """e_p from `_leibniz_columns` on c_p, and t^p from the frames alone:
    t^p t^w b = t^(w+p) b, so its matrix is T_w T_(w+p)^-1."""
    return ActionMatrices(
        p, w, _leibniz_columns(C, _e_p_matrix(C, p), p, w),
        linalg.matrix_mul(C.weight_space(w).transform,
                          C.weight_space(w + p).inverse))


def cuspidality_certificate(C: CoverModule, window: Sequence[int]) -> dict:
    """The cover's record at each weight of `window`. Every weight space is
    the t^w-translate of the weight-0 reference, so the rank is the
    reference rank at every weight and t^w is invertible: uniform rank and
    an invertible A-action hold by construction, and nothing is sampled."""
    window = sorted(window)
    return {
        "kind": "cuspidality",
        "module": C.module.name or repr(C.module),
        "window": window,
        "ranks": {str(w): C.reference.rank for w in window},
        "uniform_rank": True,
        "a_action_invertible": True,
        "failing_weight": None,
        "passed": True,
    }


def pi_surjectivity_check(C: CoverModule, w: int) -> dict:
    """Check that the algebra's action landing in the weight-w space of M
    (generators e_k with |k| <= 4) lies in the span of pi on the weight-w
    cover basis. Three eliminations: one for each reported rank, of the pi
    rows and of the action rows, and one of the pi rows that solves every
    action row over them."""
    M = C.module
    labels = list(M.fiber)

    def as_row(vec: ModuleVector):
        return [vec.terms.get(((w,), lab), Fraction(0)) for lab in labels]

    pi_rows = [as_row(pi_map(b)) for b in C.weight_space(w).basis]
    act_rows = [as_row(act(M.algebra.basis((k,), 1),
                           M.basis_vector((w - k,), lab)))
                for k in range(-4, 5) for lab in M.labels_at((w - k,))]
    return {"weight": w, "pi_rank": linalg.rank(pi_rows),
            "action_rank": linalg.rank(act_rows),
            "surjective_onto_action": None not in linalg.solve_in_span(
                pi_rows, act_rows)}


def pi_homomorphism_check(C: CoverModule, w: int) -> bool:
    """pi(e_p . c) == e_p . pi(c) on every basis vector of the weight-w
    space, for |p| <= 2."""
    basis = C.weight_space(w).basis
    return all(pi_map(lie_action(b, p))
               == act(C.module.algebra.basis((p,), 1), pi_map(b))
               for p in range(-2, 3) for b in basis)


# -- emission as a weight module ------------------------------------------------


def _emission_grid(M: PolyWeightModule):
    """The degree d of the emitted entries and the (p, w) sample axes: d + 1
    interpolation nodes and two spare samples on each, away from the
    source module's exceptional weights."""
    d = base_degree(M) + 2
    start = _first_clear_mode(off[0] for off in M.exceptional_offsets()) \
        + d + 2
    ps = list(range(-(d // 2) - 1, d // 2 + d % 2 + 3))
    return d, ps, list(range(start, start + d + 3))


def _e_p_matrix(C: CoverModule, p: int) -> list:
    """c_p: row k holds the coordinates of e_p b_k over the translates
    t^p b_l, for the reference basis b."""
    ref = C.reference.basis
    rows = expand_in_family([lie_action(b, p) for b in ref],
                            [a_action(b, p) for b in ref])
    if None in rows:
        raise CoverError(f"e_{p} image of a weight-0 basis vector is outside "
                         f"the weight-{p} cover basis")
    return rows


def _leibniz_columns(C: CoverModule, c_p: list, p: int, w: int) -> list:
    """The matrix of e_p from weight w to w + p, columns over the weight-w
    basis, from c_p: [e_p, t^w] = w t^(w+p) gives e_p t^w b_k =
    sum_l (c_p + w I)_kl t^(w+p) b_l, and the matrix is
    T_w (c_p + w I) T_(w+p)^-1 in the weights' frames (`CoverWeightSpace`)."""
    shifted = [[c + w if k == l else c for l, c in enumerate(row)]
               for k, row in enumerate(c_p)]
    return linalg.matrix_mul(
        linalg.matrix_mul(C.weight_space(w).transform, shifted),
        C.weight_space(w + p).inverse)


def emit_induced_module(C: CoverModule) -> PolyWeightModule:
    """Package the induced Lie action as a PolyWeightModule with fiber
    b1..br. The sample at generator exponent p and weight offset w is the
    matrix of e_p from weight w to w + p, made by `_leibniz_columns` from
    c_p (expanded once per exponent) and the two weights' frames. Entries
    are interpolated in (p, w) at degree base_degree + 2 on the nodes of
    `_emission_grid` against the Lagrange tables, the inverses of the
    nodes' power rows, and written in the absolute weight s = beta + w.
    Each spare sample is checked against the emitted polynomial; a
    mismatch raises DegreeBoundError."""
    M = C.module
    d, ps, ws = _emission_grid(M)
    c_p = {p: _e_p_matrix(C, p) for p in ps}
    samples = {(p, w): _leibniz_columns(C, c_p[p], p, w)
               for w in ws for p in ps}
    nodes_p, nodes_w = ps[:d + 1], ws[:d + 1]
    spare = [pw for pw in samples
             if pw[0] not in nodes_p or pw[1] not in nodes_w]
    # the module evaluates s at the absolute weight beta + w
    powers_m = [[Fraction(p) ** k for k in range(d + 1)] for p in ps]
    powers_s = {w: [(w + M.beta[0]) ** k for k in range(d + 1)] for w in ws}
    # Lagrange tables, V^-1 of the nodes' power rows V: left in m, right in s
    lag_m = linalg.inverse(powers_m[:d + 1])
    lag_s = list(zip(*linalg.inverse([powers_s[w] for w in nodes_w])))
    labels = tuple(f"b{i+1}" for i in range(C.reference.rank))
    ctx = PolyContext(M.m_symbols + M.s_symbols)
    terms = []
    for isrc, itgt in itertools.product(range(len(labels)), repeat=2):
        grid = [[samples[(p, w)][isrc][itgt] for w in nodes_w]
                for p in nodes_p]
        coeffs = linalg.matrix_mul(lag_m, linalg.matrix_mul(grid, lag_s))
        # row p: the polynomial's coefficients in s at m = p
        at_m = dict(zip(ps, linalg.matrix_mul(powers_m, coeffs)))
        for p, w in spare:
            if samples[(p, w)][isrc][itgt] != sum(
                    x * y for x, y in zip(at_m[p], powers_s[w])):
                raise DegreeBoundError(
                    f"samples are not polynomial of degree {[d, d]}: "
                    f"mismatch at {(p, w)}")
        poly = PolyScalar(ctx, {(i, j): x for i, row in enumerate(coeffs)
                                for j, x in enumerate(row)})
        if poly:
            terms.append(ActionTerm(1, labels[isrc], labels[itgt], poly))
    return PolyWeightModule(M.algebra, M.beta, labels, terms,
                            name=f"cover({M.name})" if M.name else "cover")


# -- pairing with the dual cover -------------------------------------------------


def dual_pairing(xi: ModuleVector, v: ModuleVector):
    """Pairing of a graded-dual vector (at dual offset j) with a module
    vector (at offset -j), label against label."""
    return sum((c * v.terms[((-j,), lab)] for ((j,), lab), c in xi.terms.items()
                if ((-j,), lab) in v.terms), Fraction(0))


def pi_star_check(M: PolyWeightModule, dual: PolyWeightModule,
                  samples: int = 100, seed: int = 0) -> dict:
    """The dual of pi: pi*(u) pairs with psi(e_k, xi) as xi(e_k u). Checks
    the homomorphism identity <pi*(e_p u), psi(e_k, xi)> =
    -<pi*(u), e_p psi(e_k, xi)> on random samples with exponents and
    offsets in [-4, 4], which tests the dual's sign convention. That
    pi*(u) = 0 exactly when the algebra kills u holds by construction:
    `graded_dual` negates the punctures and supports, so every nonzero
    e_k u pairs nonzero with some dual basis vector."""
    import random
    rng = random.Random(seed)
    box = 4

    def pair_pistar(u: ModuleVector, k: int, xi: ModuleVector):
        return dual_pairing(xi, act(M.algebra.basis((k,), 1), u))

    failures = []
    checked = 0
    for _ in range(samples):
        p, k, ju, jxi = (rng.randint(-box, box) for _ in range(4))
        labs_u = M.labels_at((ju,))
        labs_xi = dual.labels_at((jxi,))
        if not labs_u or not labs_xi:
            continue
        u = M.basis_vector((ju,), rng.choice(labs_u))
        xi = dual.basis_vector((jxi,), rng.choice(labs_xi))
        lhs = pair_pistar(act(M.algebra.basis((p,), 1), u), k, xi)
        # e_p psi(e_k, xi) = (k - p) psi(e_{k+p}, xi) + psi(e_k, e_p xi)
        rhs = -(Fraction(k - p) * pair_pistar(u, k + p, xi)
                + pair_pistar(u, k, act(dual.algebra.basis((p,), 1), xi)))
        checked += 1
        if lhs != rhs:
            failures.append((p, k, ju, jxi, str(lhs - rhs)))
    return {"checked": checked, "failures": failures,
            "passed": not failures}


# -- the adjoint-module cover in closed-form coordinates ------------------------


def adjoint_cover_frame(V: PolyWeightModule, j: int) -> list:
    """The closed-form weight-j frame (tau_j, theta_j, eta_j) of the cover
    of the two-label central-extension preset:

        tau_j(t^m) = (j+m) u_{j+m},  theta_j(t^m) = u_{j+m},
        eta_j(t^m) = [j+m=0] z.
    """
    mvar = _MCTX.sym("m")
    tau = qpv_from_function(
        V, j, lambda m: V.basis_vector((j + m,), "u").scale(Fraction(j + m)),
        {"u": j + mvar})
    theta = qpv_from_function(V, j, lambda m: V.basis_vector((j + m,), "u"),
                              {"u": _MCTX.const(1)})
    eta = qpv_from_function(
        V, j,
        lambda m: V.basis_vector((0,), "z") if j + m == 0 else V.vector({}),
        {})
    return [tau, theta, eta]


def adjoint_cover_report(V: PolyWeightModule, pbox: int = 3, jbox: int = 3
                         ) -> dict:
    """Induced action and pi values of the adjoint-module cover in the
    (tau, theta, eta) frame, for |p| <= pbox and |j| <= jbox: e_p maps the
    weight-j frame by the closed-form coefficient triples below, and pi
    evaluates it at mode 0. Each frame is built once, and the images that
    land in one weight are expanded over its frame together."""
    frames = {j: adjoint_cover_frame(V, j)
              for j in range(-jbox - pbox, jbox + pbox + 1)}
    action_ok = True
    for t in frames:
        cells = [(p, t - p) for p in range(-pbox, pbox + 1)
                 if abs(t - p) <= jbox]
        coeffs = expand_in_family(
            [lie_action(b, p) for p, j in cells for b in frames[j]],
            frames[t])
        action_ok = action_ok and coeffs == [
            row for p, j in cells for row in (
                [j - 2 * p, 2 * p * p, -p ** 4], [0, j - p, p ** 3],
                [0, 0, j + p])]
    pi_ok = all([pi_map(b) for b in frames[j]] == [
        V.basis_vector((j,), "u").scale(Fraction(j)), V.basis_vector((j,), "u"),
        V.basis_vector((0,), "z") if j == 0 else V.vector({})]
        for j in range(-jbox, jbox + 1))
    return {"kind": "adjoint_cover", "action_match": action_ok,
            "pi_match": pi_ok, "passed": action_ok and pi_ok}
