import itertools
import random
from fractions import Fraction

import pytest

from wittforge import enveloping
from wittforge.enveloping import (AlgebraError, UEAElement, differentiator,
                                  formal_identity_residue, generator,
                                  multiply, one, pbw_normal_form,
                                  verify_key_identity,
                                  verify_solenoidal_identity)
from wittforge.lie import (IndexLattice, LieElement, Rank1Algebra,
                          add_points, bracket, jacobi_check, scale_point,
                          solenoidal_algebra, sub_points,
                          symbolic_witt_algebra, witt_algebra)
from wittforge.scalars import (ContextMismatchError, PolyContext, PolyScalar,
                               QuadExtScalar)

WITT = witt_algebra()
# The algebra of the formal proof, and its generators k, s, p, q, h.
FORMAL = symbolic_witt_algebra(enveloping._FORMAL_GENERATORS)
KSPQH = tuple(FORMAL.lattice.generator(x) for x in ("k", "s", "p", "q", "h"))

# (k, s, p, q) tuples where indices collide: k = s, p = q, k + p = s + q,
# and zero entries.
COLLISIONS = [(0, 0, 0, 0), (1, 1, -2, 0), (2, -1, 1, 1), (2, 0, -1, 1),
              (-2, 2, 2, -2), (0, 1, 0, -1), (1, 1, 1, 1), (-1, 0, 2, 0)]
# Concrete solenoidal steps h = (h1, h2).
STEPS = [(0, 0), (1, -2)]
# Symbolic k and s with a unit axis "1" for integer offsets.
_KS = PolyContext(("k", "s"))
KS1 = IndexLattice(("k", "s", "1"))


def solenoidal_frame(n):
    """The algebra of the solenoidal records, over k, s, p, q and the axes
    mu1..mun, and its points k, s, p, q."""
    alg = symbolic_witt_algebra([*"kspq", *(f"mu{i+1}" for i in range(n))])
    return alg, tuple(alg.lattice.generator(x) for x in "kspq")


def e(*points):
    """Product of basis generators e_{p1} ... e_{pk} in the tensor algebra."""
    out = one(WITT)
    for p in points:
        out = multiply(out, generator(WITT, (p,)))
    return out


class TestText:
    def test_repr_names_each_monomial(self):
        alg = solenoidal_algebra((Fraction(2), Fraction(3)))
        ctx = PolyContext(("k", "s"))
        p = ctx.sym("k") ** 2 - ctx.sym("s") * Fraction(1, 2)
        x = UEAElement(alg, {((1, -2), (0, 1)): p, (): Fraction(1, 3),
                             ((2, 0),): -2})
        assert repr(x) == ("UEA((1/3)*1 + (k^2 - 1/2*s)*e[1,-2]e[0,1] "
                           "+ (-2)*e[2,0])")
        assert repr(generator(WITT, (3,))) == "UEA((1)*e[3])"
        assert repr(one(WITT)) == "UEA((1)*1)"
        assert repr(UEAElement(WITT, {})) == "UEA(0)"


class TestNormalForm:
    def test_single_descent(self):
        # e_1 e_0 = e_0 e_1 + [e_1, e_0] = e_0 e_1 - e_1
        assert pbw_normal_form(e(1, 0)) == e(0, 1) - e(1)

    def test_already_ordered(self):
        x = e(-2, 0, 3)
        assert pbw_normal_form(x) == x

    def test_three_letter_example(self):
        # e_2 e_1 e_0, reduced by hand:
        #   e_2 e_1 = e_1 e_2 - e_3
        #   e_1 e_2 e_0 = e_1 (e_0 e_2 - 2 e_2) = e_0 e_1 e_2 - e_1 e_2 - 2 e_1 e_2
        #   e_3 e_0 = e_0 e_3 - 3 e_3
        got = pbw_normal_form(e(2, 1, 0))
        want = e(0, 1, 2) - e(1, 2).scale(3) - e(0, 3) + e(3).scale(3)
        assert got == want

    def test_strategies_agree_on_random_words(self):
        rng = random.Random(20260826)
        for _ in range(1000):
            length = rng.randint(1, 4)
            word = e(*[rng.randint(-3, 3) for _ in range(length)])
            left = pbw_normal_form(word, strategy="leftmost")
            right = pbw_normal_form(word, strategy="rightmost")
            assert left == right

    def test_respects_multiplication(self):
        rng = random.Random(7)
        for _ in range(50):
            x = e(*[rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
            y = e(*[rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
            assert (pbw_normal_form(multiply(x, y))
                    == pbw_normal_form(multiply(pbw_normal_form(x),
                                                pbw_normal_form(y))))

    def test_symbolic_algebra(self):
        alg = symbolic_witt_algebra(("k", "s"))
        k = alg.lattice.generator("k")
        s = alg.lattice.generator("s")
        word = multiply(generator(alg, k), generator(alg, s))
        rev = multiply(generator(alg, s), generator(alg, k))
        # nf(e_k e_s) - nf(e_s e_k) = [e_k, e_s] = (s - k) e_{k+s}
        diff = pbw_normal_form(word) - pbw_normal_form(rev)
        kzip = tuple(a + b for a, b in zip(k, s))
        phi = alg.phi(tuple(b - a for a, b in zip(k, s)))
        assert diff == generator(alg, kzip).scale(phi)


class TestDifferentiator:
    def test_order_zero(self):
        assert differentiator(WITT, 0, (4,), (-1,), (1,)) == e(4, -1)

    def test_first_order(self):
        assert differentiator(WITT, 1, (4,), (-1,), (1,)) == e(4, -1) - e(3, 0)

    def test_recursion(self):
        # D^{(m+1)}_{k,s} = D^{(m)}_{k,s} - D^{(m)}_{k-1,s+1}
        for m in range(5):
            for k, s in [(4, -1), (0, 0), (-2, 3)]:
                assert (differentiator(WITT, m + 1, (k,), (s,), (1,))
                        == differentiator(WITT, m, (k,), (s,), (1,))
                        - differentiator(WITT, m, (k - 1,), (s + 1,), (1,)))

    def test_symbolic_indices(self):
        alg = Rank1Algebra(KS1, (_KS.sym("k"), _KS.sym("s"), _KS.const(1)))
        k, s, unit = (alg.lattice.generator(x) for x in ("k", "s", "1"))
        d1 = differentiator(alg, 1, k, s, unit)
        # order 1 has exactly two tensor words: e_k e_s - e_{k-1} e_{s+1}
        assert len(d1.terms) == 2


class TestLatticePointRank:
    """A point of another rank than the lattice's is refused: `phi` and the
    point sums would cut it to the lattice's rank and go on silently."""

    @pytest.mark.parametrize("call", [
        lambda: bracket(WITT.basis((1, 5)), WITT.basis((2,))),
        lambda: bracket(WITT.basis((1,)), LieElement(WITT, {(2, 4): 1})),
        lambda: pbw_normal_form(multiply(generator(WITT, (2, 7)),
                                         generator(WITT, (1,)))),
        lambda: differentiator(WITT, 2, (1, 2), (0,), (1,)),
        lambda: differentiator(WITT, 2, (1,), (0, 3), (1,)),
        lambda: differentiator(WITT, 2, (1,), (0,), (1, 0)),
        lambda: jacobi_check(WITT, [((1, 9), (2,), (3,))]),
    ], ids=["basis", "bracket", "pbw_generator", "differentiator_k",
            "differentiator_s", "differentiator_h", "jacobi"])
    def test_wrong_rank_point_is_refused(self, call):
        with pytest.raises(AlgebraError, match=r"lattice point \(\d+, \d+\) "
                                               r"does not have the lattice's "
                                               r"rank 1"):
            call()

    def test_points_of_the_rank_pass(self):
        assert str(bracket(WITT.basis((1,)), WITT.basis((2,)))) == "e[3]"
        assert jacobi_check(WITT, [((1,), (2,), (3,))]).passed


class TestKeyIdentity:
    def test_symbolic_small(self):
        report = verify_key_identity(2, 2, mode="symbolic")
        assert report.passed
        rec = report.records[0]
        assert rec.to_json()["residue_term_count"] == 0

    def test_grid_small(self):
        report = verify_key_identity(2, 2, mode="grid", grid_range=(-1, 1))
        assert report.passed
        assert all(r.to_json()["pass"] for r in report.records)

    def test_rejects_small_orders(self):
        with pytest.raises(AlgebraError):
            verify_key_identity(1, 2)
        with pytest.raises(AlgebraError):
            verify_key_identity(2, 1)


def concrete_count(alg, m, r, k, s, p, q, h):
    """The concrete per-tuple path: term count of one PBW residue."""
    diff = enveloping._identity_difference(alg, m, r, k, s, p, q, h)
    return len(pbw_normal_form(diff).terms)


def single_term_rhs(algebra, m, k, s, p, q, h):
    """(q-s)(p-k+2mh) Omega^{(4m)}_{k+p+2mh, s+q-2mh}, the single-term
    right side at m = r: there both terms of the identity's right side
    share one coefficient, and
    Omega^{(n)}_{a,b} - Omega^{(n)}_{a-h,b+h} = Omega^{(n+1)}_{a,b}."""
    phi = algebra.phi
    c = phi(add_points(sub_points(p, k), scale_point(2 * m, h)))
    o = differentiator(algebra, 4 * m,
                       add_points(add_points(k, p), scale_point(2 * m, h)),
                       sub_points(add_points(s, q), scale_point(2 * m, h)), h)
    return o.scale(phi(sub_points(q, s)) * c)


def specialise(x, target, point_map, values):
    """Image of a tensor element under a lattice map and a substitution of
    the formal phi-symbols, taken term by term."""
    terms = {}
    for mono, c in x.terms.items():
        image = tuple(point_map(pt) for pt in mono)
        if isinstance(c, PolyScalar):
            c = c.specialize(values)
        terms[image] = terms.get(image, 0) + c
    return UEAElement(target, terms)


def lattice_map(images, rank):
    """The group map from the formal lattice sending each generator to its
    image in `images`, keyed by generator name."""
    cols = [images[x] for x in FORMAL.lattice.generator_names]
    return lambda pt: tuple(sum(a * col[i] for a, col in zip(pt, cols))
                            for i in range(rank))


def grid_map(kspq):
    """k, s, p, q -> kspq and h -> 1 into W_1, on points and on phi."""
    values = dict(zip(("k", "s", "p", "q", "h"), tuple(kspq) + (1,)))
    return lattice_map({x: (v,) for x, v in values.items()}, 1), values


def solenoidal_map(alg, hvec):
    """k, s, p, q -> themselves and h -> hvec on the mu-axes, with
    phi(h) -> mu . hvec."""
    ctx = alg.phi_values[0].ctx
    values = {x: ctx.sym(x) for x in ("k", "s", "p", "q")}
    values["h"] = sum((ctx.sym(f"mu{i+1}") * hi for i, hi in enumerate(hvec)),
                      ctx.zero())
    images = {x: alg.lattice.generator(x) for x in ("k", "s", "p", "q")}
    images["h"] = (0, 0, 0, 0) + tuple(hvec)
    return lattice_map(images, alg.lattice.rank), values


class TestFormalProof:
    def test_grid_records_match_concrete_path(self):
        for (m, r), intro in (((2, 2), False), ((2, 3), False),
                              ((2, 2), True)):
            report = verify_key_identity(m, r, mode="grid",
                                         intro_form=intro)
            recs = {rec.tuple_values: rec for rec in report.records}
            for t in COLLISIONS:
                k, s, p, q = ((v,) for v in t)
                want = concrete_count(WITT, m, r, k, s, p, q, (1,))
                assert recs[t].residue_term_count == want == 0
                assert recs[t].passed

    def test_solenoidal_records_match_concrete_path(self):
        report = verify_solenoidal_identity(2, 2, n=2, h_box=2)
        recs = {rec.h: rec for rec in report.records}
        alg, (k, s, p, q) = solenoidal_frame(2)
        for hvec in STEPS:
            want = concrete_count(alg, 2, 2, k, s, p, q, (0, 0, 0, 0) + hvec)
            assert recs[hvec].residue_term_count == want == 0
            assert recs[hvec].passed

    def test_specialisation_maps_formal_onto_grid_tensor(self):
        formal = enveloping._identity_difference(FORMAL, 2, 3, *KSPQH)
        for t in COLLISIONS:
            point_map, values = grid_map(t)
            concrete = enveloping._identity_difference(
                WITT, 2, 3, *((v,) for v in t), (1,))
            assert specialise(formal, WITT, point_map, values) == concrete

    def test_specialisation_maps_formal_onto_solenoidal_tensor(self):
        formal = enveloping._identity_difference(FORMAL, 2, 2, *KSPQH)
        alg, (k, s, p, q) = solenoidal_frame(2)
        for hvec in STEPS:
            point_map, values = solenoidal_map(alg, hvec)
            concrete = enveloping._identity_difference(
                alg, 2, 2, k, s, p, q, (0, 0, 0, 0) + hvec)
            assert specialise(formal, alg, point_map, values) == concrete

    def test_intro_rhs_is_identity_rhs_at_m_equals_r(self):
        # so the --intro records rest on the (m, m) proof
        for m in (2, 3, 4):
            assert (enveloping._identity_rhs(FORMAL, m, m, *KSPQH)
                    == single_term_rhs(FORMAL, m, *KSPQH))

    def test_wrong_rhs_falls_back_to_concrete_witnesses(self, monkeypatch):
        right = enveloping._identity_rhs

        def wrong(alg, m, r, k, s, p, q, h):
            return right(alg, m, r, k, s, p, q, h) + generator(alg, k)

        monkeypatch.setattr(enveloping, "_identity_rhs", wrong)
        assert not formal_identity_residue(2, 2).is_zero()
        grid = verify_key_identity(2, 2, mode="grid", grid_range=(-1, 1))
        sol = verify_solenoidal_identity(2, 2, n=1, h_box=1)
        assert len(grid.records) == 81 and len(sol.records) == 3
        for rec in grid.records + sol.records:
            out = rec.to_json()
            assert out["pass"] is False and out["residue_term_count"] > 0
        # the failing counts are those of the concrete residues: at the
        # grid's first tuple and its collisions, and at every solenoidal step
        recs = {rec.tuple_values: rec for rec in grid.records}
        tuples = [grid.records[0].tuple_values] + [
            t for t in COLLISIONS if all(-1 <= v <= 1 for v in t)]
        assert len(tuples) == 4
        for t in tuples:
            k, s, p, q = ((v,) for v in t)
            assert recs[t].residue_term_count == concrete_count(
                WITT, 2, 2, k, s, p, q, (1,))
        alg, (k, s, p, q) = solenoidal_frame(1)
        for rec in sol.records:
            assert rec.residue_term_count == concrete_count(
                alg, 2, 2, k, s, p, q, (0, 0, 0, 0) + rec.h)


# -- every order from the (2, 2) proof and two shift recurrences -----------

# The shifts of the argument: each moves one step h from its first
# generator to its second, (first, second) -> (first - h, second + h), on
# lattice points and on the phi-symbols alike.
SIGMA1, SIGMA2, TAU1, TAU2 = ("k", "q"), ("k", "s"), ("q", "p"), ("s", "p")
_FCTX = FORMAL.phi_values[0].ctx


def shift(x, first, second):
    """The image of a formal tensor under one shift."""
    h = _FCTX.sym("h")
    values = {g: _FCTX.sym(g) for g in _FCTX.symbols}
    values[first] -= h
    values[second] += h
    images = {g: FORMAL.lattice.generator(g) for g in _FCTX.symbols}
    images[first] = sub_points(images[first], KSPQH[4])
    images[second] = add_points(images[second], KSPQH[4])
    return specialise(x, FORMAL, lattice_map(images, FORMAL.lattice.rank),
                      values)


def differences(x, m, r):
    """(1 - sigma1)^m (1 - sigma2)^m (1 - tau1)^r (1 - tau2)^r x."""
    for pair, times in ((SIGMA1, m), (SIGMA2, m), (TAU1, r), (TAU2, r)):
        for _ in range(times):
            x = x - shift(x, *pair)
    return x


def lhs_closed_form(m, r):
    k, s, p, q, _ = KSPQH
    return differences(UEAElement(FORMAL, {
        (k, s, q, p): 1, (q, p, k, s): 1, (k, q, s, p): -1,
        (s, p, k, q): -1}), m, r)


def swapped_factor(m, r, x, y, h, t):
    """The closed form's factor with 2mh and 2rh swapped."""
    return x * ((y + 2 * m * h) - (y + 2 * r * h) * t)


def count_normal_forms(monkeypatch):
    """A list that grows by one entry, the number of terms normal-ordered,
    per `pbw_normal_form` call from now on."""
    calls = []
    original = enveloping.pbw_normal_form

    def spy(x, *args):
        calls.append(len(x.terms))
        return original(x, *args)

    monkeypatch.setattr(enveloping, "pbw_normal_form", spy)
    return calls


IDENTITY_CALLS = {
    "symbolic": lambda m: verify_key_identity(m, m),
    "grid": lambda m: verify_key_identity(m, m, mode="grid"),
    "intro": lambda m: verify_key_identity(m, m, intro_form=True),
    "solenoidal": lambda m: verify_solenoidal_identity(m, m),
}


class TestShiftRecurrences:
    """Every identity record rests on the (2, 2) residue and two shift
    recurrences: lhs - rhs at (m, r) is a sum of shifted copies of lhs -
    rhs at (2, 2), and each shift is a Lie endomorphism of the formal
    algebra."""

    @pytest.mark.parametrize("m, r", itertools.product((2, 3, 4), repeat=2))
    def test_direct_residue_is_zero(self, m, r):
        # the direct normal form, an oracle independent of the recurrences
        assert formal_identity_residue(m, r).is_zero()

    def test_closed_forms_are_the_identity_tensors(self):
        for m, r in itertools.product(range(5), repeat=2):
            assert lhs_closed_form(m, r) == enveloping._identity_lhs(
                FORMAL, m, r, *KSPQH), (m, r)
            if m + r:  # the right side has order 2m + 2r - 1
                assert (enveloping._closed_rhs(m, r)
                        == enveloping._identity_rhs(FORMAL, m, r, *KSPQH))

    @pytest.mark.parametrize("m, r", [(2, 3), (3, 2), (4, 4)])
    def test_tensor_recurrence(self, m, r):
        base = enveloping._identity_difference(FORMAL, 2, 2, *KSPQH)
        assert differences(base, m - 2, r - 2) == \
            enveloping._identity_difference(FORMAL, m, r, *KSPQH)

    def test_recurrences_hold(self):
        assert enveloping._shift_recurrences_hold()

    def test_swapped_factor_takes_the_fallback(self, monkeypatch):
        monkeypatch.setattr(enveloping, "_rhs_factor", swapped_factor)
        # the swap is a wrong closed form off the diagonal only
        assert enveloping._closed_rhs(2, 2) == \
            enveloping._identity_rhs(FORMAL, 2, 2, *KSPQH)
        assert enveloping._closed_rhs(2, 3) != \
            enveloping._identity_rhs(FORMAL, 2, 3, *KSPQH)
        assert not enveloping._shift_recurrences_hold()
        calls = count_normal_forms(monkeypatch)
        report = verify_key_identity(2, 3)
        # the (2, 2) base, then the direct residue at (2, 3)
        assert len(calls) == 2 and report.passed
        assert report.records[0].residue_term_count == 0

    @pytest.mark.parametrize("mode", IDENTITY_CALLS)
    @pytest.mark.parametrize("m", [4, 24])
    def test_one_normal_form_at_any_order(self, monkeypatch, mode, m):
        calls = count_normal_forms(monkeypatch)
        report = IDENTITY_CALLS[mode](m)
        assert report.passed and len(calls) == 1
        assert all(rec.residue_term_count == 0 for rec in report.records)

    def test_rhs_off_its_closed_form_takes_the_fallback(self, monkeypatch):
        right = enveloping._identity_rhs

        def plus_zero(alg, m, r, k, s, p, q, h):
            # e_s e_k - e_k e_s - phi(k - s) e_{k+s} is a nonzero tensor
            # that is zero in U
            es, ek = generator(alg, s), generator(alg, k)
            zero = (multiply(es, ek) - multiply(ek, es) - generator(
                alg, add_points(k, s)).scale(alg.phi(sub_points(k, s))))
            return right(alg, m, r, k, s, p, q, h) + zero

        monkeypatch.setattr(enveloping, "_identity_rhs", plus_zero)
        assert formal_identity_residue(2, 2).is_zero()
        assert enveloping._closed_rhs(2, 2) != plus_zero(FORMAL, 2, 2, *KSPQH)
        calls = count_normal_forms(monkeypatch)
        assert verify_key_identity(2, 3).passed and len(calls) == 2

    def test_failing_recurrence_makes_two_normal_forms(self, monkeypatch):
        monkeypatch.setattr(enveloping, "_shift_recurrences_hold",
                            lambda: False)
        calls = count_normal_forms(monkeypatch)
        assert verify_key_identity(3, 2, mode="grid",
                                   grid_range=(0, 0)).passed
        assert len(calls) == 2


# -- the normal-form kernel against the PolyScalar recursion ---------------

# The normal-form recursion as it stood before the packed-table kernel: it
# rewrites with PolyScalar and base-scalar coefficients throughout. Kept
# verbatim (with a cache of its own) as the kernel's oracle.
_REF_CACHE: dict = {}


def _ref_find_descent(mono, strategy):
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


def _ref_nf_monomial(algebra, mono, strategy, cache):
    def rec(m):
        hit = cache.get(m)
        if hit is not None:
            return hit
        i = _ref_find_descent(m, strategy)
        if i is None:
            res = {m: 1}
        else:
            y, x = m[i], m[i + 1]
            swapped = m[:i] + (x, y) + m[i + 2:]
            merged = m[:i] + (add_points(x, y),) + m[i + 2:]
            coeff = algebra.phi(sub_points(x, y))
            res = dict(rec(swapped))
            if coeff:
                for mm, cc in rec(merged).items():
                    res[mm] = res.get(mm, 0) + coeff * cc
            res = {mm: cc for mm, cc in res.items() if cc}
        cache[m] = res
        return res

    return rec(mono)


def ref_pbw_normal_form(x, strategy="leftmost"):
    cache = _REF_CACHE.setdefault((x.algebra, strategy), {})
    terms = {}
    for m, c in x.terms.items():
        nf = cache.get(m)
        if nf is None:
            nf = _ref_nf_monomial(x.algebra, m, strategy, cache)
        for mm, cc in nf.items():
            val = terms.get(mm, 0) + c * cc
            terms[mm] = val
    return UEAElement(x.algebra, terms)


def assert_kernel_matches(x):
    for strategy in ("leftmost", "rightmost"):
        got = pbw_normal_form(x, strategy)
        want = ref_pbw_normal_form(x, strategy)
        assert got == want
        assert repr(got) == repr(want)


def random_element(alg, points, rng, coeffs=(1,), words=3, length=4):
    """A sum of a few words in e_x, x drawn from `points`, each with a
    coefficient drawn from `coeffs`."""
    terms = {}
    for _ in range(words):
        word = tuple(rng.choice(points) for _ in range(rng.randint(1, length)))
        terms[word] = terms.get(word, 0) + rng.choice(coeffs)
    return UEAElement(alg, terms)


def lattice_points(box):
    """Every point whose i-th coordinate lies in -box[i]..box[i]."""
    return [tuple(pt) for pt in itertools.product(
        *(range(-b, b + 1) for b in box))]


class TestKernelOracle:
    def test_random_witt_words(self):
        rng = random.Random(20261018)
        for _ in range(1000):
            word = e(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
            c = rng.choice((1, -2, Fraction(1, 3)))
            assert_kernel_matches(word.scale(c))

    def test_formal_identity_differences(self):
        for m, r in ((2, 2), (2, 3), (3, 2)):
            assert_kernel_matches(enveloping._identity_difference(
                FORMAL, m, r, *KSPQH))
        assert_kernel_matches(enveloping._identity_lhs(FORMAL, 2, 2, *KSPQH))
        # a concrete residue, whose words all cancel
        assert_kernel_matches(enveloping._identity_difference(
            WITT, 2, 2, (2,), (-1,), (1,), (1,), (1,)))

    def test_wrong_rhs_residue(self, monkeypatch):
        right = enveloping._identity_rhs

        def wrong(alg, m, r, k, s, p, q, h):
            return right(alg, m, r, k, s, p, q, h) + generator(alg, k)

        monkeypatch.setattr(enveloping, "_identity_rhs", wrong)
        diff = enveloping._identity_difference(FORMAL, 2, 2, *KSPQH)
        assert not pbw_normal_form(diff).is_zero()
        assert_kernel_matches(diff)

    def test_solenoidal_frame_words(self):
        alg, (k, s, p, q) = solenoidal_frame(2)
        a1, a2 = alg.lattice.generator("mu1"), alg.lattice.generator("mu2")
        points = [add_points(x, y) for x in (k, s, p, q, alg.lattice.zero())
                  for y in (a1, a2, sub_points(a2, a1))]
        ctx = alg.phi_values[0].ctx
        coeffs = (1, ctx.sym("mu1") - 2, ctx.sym("k") * ctx.sym("q") / 3)
        rng = random.Random(5)
        for _ in range(150):
            assert_kernel_matches(random_element(alg, points, rng, coeffs))

    def test_solenoidal_algebras(self):
        rng = random.Random(11)
        for mu in ((Fraction(1, 2), Fraction(-2, 3)),
                   (QuadExtScalar(1), QuadExtScalar(Fraction(1, 2), 1))):
            alg = solenoidal_algebra(mu)
            points = lattice_points((2, 1))
            coeffs = (1, Fraction(-3, 4), QuadExtScalar(0, 2))
            for _ in range(150):
                assert_kernel_matches(random_element(alg, points, rng, coeffs))

    def test_wide_exponent_fields(self):
        # phi(k) = k^5: a word of length 3 whose merges all take the k^5
        # term, under the coefficient k^6, reaches k^16, the field bound.
        k, s = _KS.sym("k"), _KS.sym("s")
        alg = Rank1Algebra(KS1, (k ** 5, k * s ** 3 + 1, _KS.const(1)))
        gk = alg.lattice.generator("k")
        word = tuple(tuple(c * a for a in gk) for c in (3, 2, 1))
        x = UEAElement(alg, {word: k ** 6})
        assert "k^16" in repr(pbw_normal_form(x))
        assert_kernel_matches(x)
        # the empty word takes no phi factor
        assert_kernel_matches(UEAElement(alg, {(): k ** 9}))
        points = lattice_points((1, 1, 1))
        rng = random.Random(3)
        for _ in range(100):
            assert_kernel_matches(random_element(
                alg, points, rng, (1, k ** 4 * s, s ** 7 - k), length=3))

    def test_mixed_contexts_raise(self):
        other = PolyContext(("z",)).sym("z")
        foreign = UEAElement(FORMAL, {(KSPQH[1], KSPQH[0]): other})
        clash = UEAElement(WITT, {((1,), (0,)): FORMAL.phi_values[0],
                                  ((0,), (1,)): other})
        for x in (foreign, clash):
            for normal_form in (pbw_normal_form, ref_pbw_normal_form):
                with pytest.raises(ContextMismatchError):
                    normal_form(x)
