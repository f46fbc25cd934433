import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest

from conftest import run_cli
from _values import assert_types_never_equal, assert_value_semantics
from wittforge.cover import (CoverError, CoverModule, DegreeBoundError,
                             PsiGenerator, adjoint_cover_frame,
                             adjoint_cover_report, cuspidality_certificate,
                             emit_induced_module, expand_in_family,
                             induced_action, lie_action, a_action, pi_map,
                             pi_homomorphism_check, pi_star_check,
                             pi_surjectivity_check, psi_evaluate,
                             span_basis)
from wittforge.modules import (PRESET_NAMES, ActionTerm, Constraint,
                               PolyWeightModule, act, action_polynomials,
                               build_preset, check_module_axioms, graded_dual,
                               tensor_density)
from wittforge import cover
from wittforge.lie import witt_algebra
from wittforge.scalars import PolyContext

WITT = witt_algebra()


# -- brute-force oracles of what `CoverModule` builds by translation ---------


def _pool_basis(M, w):
    """The weight-w space from weight w's own psi generator pool, each
    generator checked to lie in its span: the weight-0 pool shifted to
    e_(k+w) u_j."""
    gens = [PsiGenerator(g.k + w, g.j, g.label)
            for g in cover._generator_pool(M)]
    vectors = [psi_evaluate(M, g) for g in gens]
    space = span_basis(M, w, [v for v in vectors if not v.is_zero()])
    assert None not in expand_in_family(vectors, space.basis), w
    return space


def _action_columns(C, image, p, w):
    """Coordinates over the weight-(w+p) basis of image(b, p) for each
    weight-w basis vector b, one expansion per cell."""
    cols = expand_in_family([image(b, p) for b in C.weight_space(w).basis],
                            C.weight_space(w + p).basis)
    assert None not in cols, (p, w)
    return cols


class TestPsiEvaluation:
    def test_punctured_generator(self):
        P = build_preset("punctured_functions")
        th = psi_evaluate(P, PsiGenerator(2, 3, "u"))
        assert th.weight == 5
        # psi(e_2, u_3) applied to t^m is e_2 (u_{3+m}) = (3+m) u_{5+m},
        # minus the degree correction m u_{5+m}: coefficient 3
        for m in (-4, 0, 1, 7):
            assert th.value(m).terms == {((5 + m,), "u"): Fraction(3)}

    def test_central_generator_vanishes(self):
        V = build_preset("virasoro_adjoint")
        th = psi_evaluate(V, PsiGenerator(1, 0, "z"))
        assert th.is_zero()

    def test_generator_is_a_value(self):
        assert_value_semantics(lambda: PsiGenerator(2, 3, "u"),
                               {"k": 2, "j": 3, "label": "u"})
        assert PsiGenerator(k=2, j=3, label="u").weight == 5
        assert repr(PsiGenerator(2, 3, "u")) == "PsiGenerator(k=2, j=3, label='u')"
        assert str(PsiGenerator(2, 3, "u")) == "psi(e[2], u[3])"

    def test_generator_never_equals_another_type(self):
        # equal field tuples and hashes, different types
        g, line = PsiGenerator(2, 3, "u"), Constraint(2, 3, "u")
        assert hash(g) == hash(line)
        assert_types_never_equal([g, line, PsiGenerator(2, 3, "v")])
        assert len({g, line}) == 2


def _skips_module():
    """Not a module (it fails the axioms): its terms reach the two skips of
    the substitution that no preset reaches, a constraint term between
    generically supported labels, firing on the line 2m + s = 1, and an
    unconstrained term into a label supported at one weight."""
    ctx = PolyContext(("m", "s"))
    m, s = ctx.sym("m"), ctx.sym("s")
    line = Constraint((Fraction(2),), (Fraction(1),), Fraction(1))
    return PolyWeightModule(
        WITT, (Fraction(0),), ("u", "z"),
        [ActionTerm(1, "u", "u", s + m),
         ActionTerm(1, "u", "u", m ** 2 + 1, constraint=line),
         ActionTerm(1, "u", "z", s + 3)],
        restricted_support={"z": [(2,)]}, name="skips")


def _oracle_modules():
    return ([build_preset(name) for name in PRESET_NAMES]
            + [tensor_density(Fraction(2, 3), Fraction(1, 5)),
               tensor_density(Fraction(1), Fraction(0)),
               # its constraint -s = 0 has zero slope on psi generators
               graded_dual(build_preset("virasoro_adjoint")),
               _skips_module()])


class TestSubstitutionOracle:
    """The substituted polynomial parts and the exact exceptional values
    agree with the concrete `act` path at every mode in [-12, 12], which
    holds every exceptional and constraint mode of the (k, j, p) below."""

    MODES = range(-12, 13)

    @pytest.mark.parametrize("M", _oracle_modules(), ids=lambda M: M.name)
    def test_psi_and_lie_action_match_act(self, M):
        e = M.algebra.basis
        for k, j in ((-2, 0), (1, -1), (3, 2), (0, 1)):
            for lab in M.labels_at((j,)):
                u = M.basis_vector((j,), lab)
                th = psi_evaluate(M, PsiGenerator(k, j, lab))
                for m in self.MODES:
                    assert th.value(m) == act(e((k + m,)), u), (k, j, lab, m)
                for p in (-2, 3):
                    eth = lie_action(th, p)
                    for m in self.MODES:
                        want = (act(e((p,)), act(e((k + m,)), u))
                                - act(e((k + m + p,)), u).scale(Fraction(m)))
                        assert eth.value(m) == want, (k, j, lab, p, m)


def _translate_modules():
    return ([build_preset(name) for name in PRESET_NAMES]
            + [tensor_density(Fraction(2, 3), Fraction(1, 5)),
               tensor_density(Fraction(1), Fraction(0)),
               tensor_density(Fraction(0), Fraction(0)),
               graded_dual(build_preset("punctured_functions")),
               graded_dual(build_preset("virasoro_adjoint")),
               _skips_module()])


class TestReferenceTranslate:
    """`CoverModule` builds weight 0 from psi generators and translates it
    by t^w; the result is the basis that weight w's own generator pool
    gives, vector for vector."""

    @pytest.mark.parametrize("M", _translate_modules(), ids=lambda M: M.name)
    def test_weight_spaces_match_cover_basis(self, M):
        C = CoverModule(M)
        for w in (-7, -1, 0, 4, 11):
            assert (repr(C.weight_space(w).basis)
                    == repr(_pool_basis(M, w).basis)), w

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_reference_is_one_elimination(self, monkeypatch, name):
        # the reference's frame already puts every generator in its span,
        # so no second elimination checks their membership
        M = build_preset(name)
        calls = []
        real = cover.linalg.span_frame

        def spy(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(cover.linalg, "span_frame", spy)
        CoverModule(M)
        assert len(calls) == 1


class TestCoverRanks:
    def test_punctured_rank_one(self):
        C = CoverModule(build_preset("punctured_functions"))
        assert [C.rank(w) for w in range(-3, 4)] == [1] * 7

    def test_virasoro_rank_three(self):
        C = CoverModule(build_preset("virasoro_adjoint"))
        assert [C.rank(w) for w in range(-2, 3)] == [3] * 5

    def test_density_rank_depends_on_alpha(self):
        # generic weight-of-density alpha stays rank 2 (coefficient j(1-alpha)
        # + alpha(w+m) spans constants and m); alpha in {0, 1} degenerates
        assert CoverModule(tensor_density(Fraction(2, 3), Fraction(1, 5))).rank(1) == 2
        assert CoverModule(tensor_density(Fraction(0), Fraction(1, 5))).rank(1) == 1
        assert CoverModule(tensor_density(Fraction(1), Fraction(1, 5))).rank(1) == 1


class TestInducedAction:
    def test_punctured_matrices(self):
        C = CoverModule(build_preset("punctured_functions"))
        am = induced_action(C, 2, 3)
        # e_p theta_j = j theta_{j+p} at j = 3; t^p shifts with coefficient 1
        assert am.lie_matrix == [[Fraction(3)]]
        assert am.a_matrix == [[Fraction(1)]]

    def test_lie_action_weight_shift(self):
        P = build_preset("punctured_functions")
        th = psi_evaluate(P, PsiGenerator(1, 2, "u"))
        assert lie_action(th, 3).weight == th.weight + 3
        assert a_action(th, -1).weight == th.weight - 1

    def test_emitted_module(self):
        C = CoverModule(build_preset("punctured_functions"))
        E = emit_induced_module(C)
        assert action_polynomials(E) == {(1, "b1", "b1"): "s"}
        assert check_module_axioms(E).passed

    def test_emitted_virasoro_module_satisfies_axioms(self):
        C = CoverModule(build_preset("virasoro_adjoint"))
        E = emit_induced_module(C)
        assert len(E.fiber) == 3
        assert check_module_axioms(E).passed


class TestEmittedWeight:
    """The emitted module evaluates s at the absolute weight beta + w; its
    action must be the cover's induced action at every offset."""

    @pytest.mark.parametrize("beta", [Fraction(1, 5), Fraction(-6, 5)])
    def test_emitted_action_matches_induced_action(self, beta):
        C = CoverModule(tensor_density(Fraction(2, 3), beta))
        E = emit_induced_module(C)
        for p, w in [(3, 0), (-2, 1), (1, -4), (0, 2)]:
            cols = _action_columns(C, lie_action, p, w)
            for isrc, src in enumerate(E.fiber):
                got = act(WITT.basis((p,)), E.basis_vector(w, src))
                assert got.terms == {
                    ((w + p,), tgt): c
                    for tgt, c in zip(E.fiber, cols[isrc]) if c}, (p, w)

    def test_density_value(self):
        # e_3 b1 at offset 0 of the cover of T(2/3, 1/5)
        C = CoverModule(tensor_density(Fraction(2, 3), Fraction(1, 5)))
        E = emit_induced_module(C)
        got = act(WITT.basis((3,)), E.basis_vector(0, "b1"))
        assert got.terms[((3,), "b1")] == Fraction(11, 5)


class TestCuspidality:
    def test_punctured_certificate(self):
        C = CoverModule(build_preset("punctured_functions"))
        data = cuspidality_certificate(C, range(-3, 4))
        assert data["passed"] and data["uniform_rank"] and data["a_action_invertible"]


class TestByConstruction:
    """Uniform rank and the invertible A-action are not re-derived per
    weight, and the emission expands e_p images only."""

    def test_certificate_computes_no_action_matrix(self, monkeypatch):
        def boom(*args):
            raise AssertionError("called")

        C = CoverModule(build_preset("virasoro_adjoint"))
        monkeypatch.setattr(cover, "induced_action", boom)
        monkeypatch.setattr(cover.linalg, "rank", boom)
        data = cuspidality_certificate(C, range(-2, 3))
        assert data["ranks"] == {str(w): 3 for w in range(-2, 3)}
        assert data["passed"] and data["failing_weight"] is None

    def test_emission_expands_only_e_p_images(self, monkeypatch):
        # one expansion per exponent, of the e_p b over the translates t^p b
        # of the reference, and none per (p, w) cell
        C = CoverModule(build_preset("virasoro_adjoint"))
        ref = C.reference.basis
        _, ps, ws = cover._emission_grid(C.module)
        calls, expanded = [], []
        expand = cover.expand_in_family

        def spy_expand(vectors, family):
            calls.append(len(vectors))
            expanded.extend((repr(v), repr(family)) for v in vectors)
            return expand(vectors, family)

        monkeypatch.setattr(cover, "expand_in_family", spy_expand)
        emit_induced_module(C)
        assert calls == [len(ref)] * len(ps)
        assert len(expanded) == len(ps) * len(ref) < len(ps) * len(ws)
        assert sorted(expanded) == sorted(
            (repr(lie_action(b, p)), repr([a_action(x, p) for x in ref]))
            for p in ps for b in ref)

    def test_image_outside_the_span_is_an_error(self, monkeypatch):
        C = CoverModule(build_preset("virasoro_adjoint"))
        monkeypatch.setattr(cover, "expand_in_family",
                            lambda vectors, family: [None] * len(vectors))
        with pytest.raises(CoverError) as info:
            emit_induced_module(C)
        assert not isinstance(info.value, DegreeBoundError)
        p = cover._emission_grid(C.module)[1][0]
        assert str(info.value) == (f"e_{p} image of a weight-0 basis vector "
                                   f"is outside the weight-{p} cover basis")


class TestProjection:
    def test_values(self):
        P = build_preset("punctured_functions")
        assert pi_map(psi_evaluate(P, PsiGenerator(2, 3, "u"))).terms == {
            ((5,), "u"): Fraction(3)}
        # the weight-0 cover line survives but pi kills it
        ws = CoverModule(P).weight_space(0)
        assert ws.rank == 1
        th0 = ws.basis[0]
        assert pi_map(th0).is_zero() and not th0.is_zero()

    def test_surjectivity_and_homomorphism(self):
        C = CoverModule(build_preset("punctured_functions"))
        assert pi_surjectivity_check(C, 2)["surjective_onto_action"]
        assert pi_homomorphism_check(C, 2)

    def test_virasoro_pi(self):
        C = CoverModule(build_preset("virasoro_adjoint"))
        assert pi_surjectivity_check(C, 1)["surjective_onto_action"]
        assert pi_homomorphism_check(C, 1)


class TestSpanStability:
    def test_coordinates_consistent_across_generator_windows(self):
        P = build_preset("punctured_functions")
        C = CoverModule(P)
        ws = C.weight_space(2)
        # an arbitrary extra generator must lie in the computed span
        extra = psi_evaluate(P, PsiGenerator(9, -7, "u"))
        [coords] = expand_in_family([extra], ws.basis)
        assert coords is not None

    def test_expand_in_family(self):
        V = build_preset("virasoro_adjoint")
        psi = psi_evaluate(V, PsiGenerator(3, 2, "u"))
        frame = adjoint_cover_frame(V, psi.weight)
        coeffs = expand_in_family([psi], frame)
        # psi(e_k, u_j) = -tau + 2j theta - j^3 eta in the weight-(k+j) frame
        assert coeffs == [[Fraction(-1), Fraction(4), Fraction(-8)]]


class TestAdjointCoverReport:
    def test_full_report(self):
        rep = adjoint_cover_report(build_preset("virasoro_adjoint"),
                                   pbox=2, jbox=2)
        assert rep["passed"] and rep["action_match"] and rep["pi_match"]

    def test_doubled_action_fails_only_the_action(self, monkeypatch):
        # pi reads the frames alone, so it still matches
        lie = cover.lie_action

        def doubled(theta, p):
            v = lie(theta, p)
            return cover.QuasiPolyVector(
                v.module, v.weight, {lab: q * 2 for lab, q in v.poly.items()},
                {key: 2 * x for key, x in v.overrides.items()})

        monkeypatch.setattr(cover, "lie_action", doubled)
        rep = adjoint_cover_report(build_preset("virasoro_adjoint"),
                                   pbox=2, jbox=2)
        assert rep["action_match"] is False and rep["pi_match"] is True
        assert rep["passed"] is False

    @pytest.mark.parametrize("pbox, jbox", [(2, 2), (1, 3), (3, 0)])
    def test_one_frame_and_one_expansion_per_weight(self, monkeypatch, pbox,
                                                    jbox):
        frames, expanded = [], []
        frame, expand = cover.adjoint_cover_frame, cover.expand_in_family

        def spy_frame(V, j):
            frames.append(j)
            return frame(V, j)

        def spy_expand(vectors, family):
            expanded.append((len(vectors), family[0].weight))
            return expand(vectors, family)

        monkeypatch.setattr(cover, "adjoint_cover_frame", spy_frame)
        monkeypatch.setattr(cover, "expand_in_family", spy_expand)
        rep = adjoint_cover_report(build_preset("virasoro_adjoint"),
                                   pbox=pbox, jbox=jbox)
        assert rep["passed"]
        weights = range(-pbox - jbox, pbox + jbox + 1)
        assert sorted(frames) == list(weights)
        # every (p, j) image lands in weight j + p, three per cell
        assert sorted(expanded, key=lambda e: e[1]) == [
            (3 * sum(abs(t - p) <= jbox for p in range(-pbox, pbox + 1)), t)
            for t in weights]


class TestAcoverRecords:
    """acover prints the cuspidality and adjoint records as `cover`
    returns them."""

    def test_records_are_the_returned_ones(self):
        res = run_cli(["acover", "--preset", "virasoro_adjoint",
                       "--window", "3"])
        assert res.exit_code == 0, res.output
        recs = {r["kind"]: r for r in map(json.loads,
                                          res.stdout.splitlines())}
        V = build_preset("virasoro_adjoint")
        assert recs["cuspidality"] == cuspidality_certificate(
            CoverModule(V), range(-3, 4))
        assert recs["adjoint_cover"] == adjoint_cover_report(V, 2, 2)
        assert not hasattr(cover, "CuspidalityCertificate")

    def test_spy_counts(self, monkeypatch):
        counts = Counter()
        for owner, name in ((cover, "adjoint_cover_frame"),
                            (cover, "expand_in_family"),
                            (cover.linalg, "row_echelon")):
            original = getattr(owner, name)

            def spy(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, spy)
        res = run_cli(["acover", "--preset", "virasoro_adjoint",
                       "--window", "3"])
        assert res.exit_code == 0, res.output
        # 9 frames at weights -4..4, one expansion per target weight and 9
        # for c_p, and 3 eliminations for each of the five pi weights
        assert counts == {"adjoint_cover_frame": 9, "expand_in_family": 18,
                          "row_echelon": 55}

    def test_pi_surjectivity_eliminates_three_times(self, monkeypatch):
        C = CoverModule(build_preset("virasoro_adjoint"))
        C.weight_space(1)
        calls = []
        echelon = cover.linalg.row_echelon

        def spy(rows):
            calls.append(len(rows))
            return echelon(rows)

        monkeypatch.setattr(cover.linalg, "row_echelon", spy)
        rec = pi_surjectivity_check(C, 1)
        assert rec["surjective_onto_action"]
        # the pi rows, the action rows, then the pi rows again to solve
        M = C.module
        action_rows = sum(len(M.labels_at((1 - k,))) for k in range(-4, 5))
        assert calls == [3, action_rows, 3]


class TestDualPairing:
    def test_pi_star_is_equivariant_embedding(self):
        for name in ("punctured_functions", "virasoro_adjoint"):
            M = build_preset(name)
            out = pi_star_check(M, graded_dual(M), samples=30, seed=1)
            assert out["passed"], (name, out)

    def test_density_case(self):
        M = tensor_density(Fraction(2, 3), Fraction(1, 5))
        assert pi_star_check(M, graded_dual(M), samples=30, seed=2)["passed"]


class TestSingleAttempt:
    def test_failed_emission_samples_one_grid(self, monkeypatch):
        # the dual of the Virasoro adjoint module fails the spare-sample
        # check at degree base_degree + 2; the emission says so after one
        # (p, w) grid, with no retry at a larger degree
        C = CoverModule(graded_dual(build_preset("virasoro_adjoint")))
        d = cover.base_degree(C.module) + 2
        calls, expanded = [], []
        real, real_c = cover._leibniz_columns, cover._e_p_matrix

        def spy(C, c_p, p, w):
            calls.append((p, w))
            return real(C, c_p, p, w)

        def spy_c(C, p):
            expanded.append(p)
            return real_c(C, p)

        monkeypatch.setattr(cover, "_leibniz_columns", spy)
        monkeypatch.setattr(cover, "_e_p_matrix", spy_c)
        with pytest.raises(DegreeBoundError, match=(
                rf"^samples are not polynomial of degree \[{d}, {d}\]: ")):
            emit_induced_module(C)
        ps = sorted({p for p, _ in calls})
        ws = sorted({w for _, w in calls})
        assert sorted(calls) == list(itertools.product(ps, ws))
        assert sorted(expanded) == ps
        # d + 1 interpolation nodes and two spare samples per weight axis
        assert len(ws) == d + 3


def _leibniz_modules():
    # the last two as the cover benchmark draws them: alpha in Z/3 and
    # beta in Z/5, neither integral
    return [build_preset("virasoro_adjoint"),
            tensor_density(Fraction(2, 3), Fraction(1, 5)),
            tensor_density(Fraction(2, 3), Fraction(-6, 5)),
            tensor_density(Fraction(-4, 3), Fraction(7, 5)),
            tensor_density(Fraction(5, 3), Fraction(-3, 5))]


class TestLeibnizSamples:
    """Each emission sample, made from c_p and two weights' frames, is the
    matrix that expanding every e_p image over the target basis gives: the
    brute-force `_action_columns`, at every (p, w) of the emission grid,
    spare samples included. There, too, `induced_action`'s t^p matrix, made
    from the two weights' frames alone, is the brute-force t^p expansion."""

    @pytest.mark.parametrize("M", _leibniz_modules(), ids=lambda M: M.name)
    def test_samples_match_action_columns(self, M):
        C = CoverModule(M)
        _, ps, ws = cover._emission_grid(M)
        for p in ps:
            c_p = cover._e_p_matrix(C, p)
            for w in ws:
                assert cover._leibniz_columns(C, c_p, p, w) == \
                    _action_columns(C, lie_action, p, w), (p, w)
                assert induced_action(C, p, w).a_matrix == \
                    _action_columns(C, a_action, p, w), (p, w)


class TestLieActionConstraintModes:
    def test_solved_modes_contain_the_central_mode(self, monkeypatch):
        V = build_preset("virasoro_adjoint")
        w, p = 2, 3
        theta = psi_evaluate(V, PsiGenerator(1, 1, "u"))
        assert theta.weight == w
        # (e_p theta)(t^m) acts on theta(t^m), at offset w + m; the central
        # term z fires where p + w + m = 0
        fired = [m for m in range(-20, 20)
                 if any(lab == "z" for _, lab in act(
                     V.algebra.basis((p,)),
                     V.basis_vector((w + m,), "u")).terms)]
        assert fired == [-5]
        solved = []
        real = PolyWeightModule.constraint_modes

        def spy(self, *args):
            solved.append(real(self, *args))
            return solved[-1]

        monkeypatch.setattr(PolyWeightModule, "constraint_modes", spy)
        lie_action(theta, p)
        assert len(solved) == 1 and set(fired) <= solved[0]
