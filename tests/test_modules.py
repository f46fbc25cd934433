import copy
import itertools
import pickle
from fractions import Fraction
from math import comb

import pytest

from _values import assert_types_never_equal, assert_value_semantics
from wittforge import linalg, modules
from wittforge.cover import CoverModule, emit_induced_module
from wittforge.lie import LatticeAutomorphism, LieElement, WnAlgebra, bracket
from wittforge.modules import (ActionTerm, AnnihilationCertificate,
                               CheckReport, Constraint, JPlusRepData,
                               ModuleError, ModuleVector, PolyWeightModule,
                               PRESET_NAMES, _a_shift,
                               _window_generators,
                               action_polynomials, act,
                               annihilates, build_preset, check_aw_compat,
                               check_de_rham_chain, check_module_axioms,
                               graded_dual, jets_module, module_from_json,
                               module_to_json, natural_rep, omega_forms,
                               tensor_density,
                               tensor_field, trivial_rep, twist,
                               weight_report, wedge_rep)
from wittforge.scalars import PolyContext, QuadExtScalar, parse_poly

WITT = WnAlgebra(1)


def e(k):
    return WITT.basis((k,), 1)


class TestTensorDensity:
    def test_action_example(self):
        # e_k v_s = (s + alpha k + beta) v_{s+k}; alpha=3, beta=0, k=2, s=1
        td = tensor_density(Fraction(3), Fraction(0))
        got = act(e(2), td.basis_vector(1, "v"))
        assert got.terms == {((3,), "v"): Fraction(7)}

    def test_symbolic_axioms(self):
        td = tensor_density("alpha", "beta")
        assert check_module_axioms(td).passed

    def test_numeric_axioms(self):
        td = tensor_density(Fraction(2, 3), Fraction(1, 5))
        assert check_module_axioms(td).passed


class TestPresets:
    def test_names(self):
        assert set(PRESET_NAMES) == {"punctured_functions", "virasoro_adjoint",
                                     "feigin_fuks_length2"}

    def test_punctured(self):
        P = build_preset("punctured_functions")
        assert act(e(2), P.basis_vector(3, "u")).terms == {((5,), "u"): Fraction(3)}
        # the weight-0 vector is punctured out, in both directions
        assert act(e(-3), P.basis_vector(3, "u")).is_zero()
        rep = weight_report(P, 2)
        dims = {tuple(r["offset"]): r["dim"] for r in rep["rows"]}
        assert dims[(0,)] == 0 and dims[(1,)] == 1

    def test_virasoro_adjoint(self):
        M = build_preset("virasoro_adjoint")
        got = act(e(2), M.basis_vector(-2, "u"))
        assert got.terms == {((0,), "u"): Fraction(-4), ((0,), "z"): Fraction(8)}
        # central line exists only at offset 0 and the action kills it
        assert act(e(3), M.basis_vector(0, "z")).is_zero()
        rep = weight_report(M, 1)
        dims = {tuple(r["offset"]): r["dim"] for r in rep["rows"]}
        assert dims[(0,)] == 2 and dims[(1,)] == 1

    def test_feigin_fuks_polynomials(self):
        F = build_preset("feigin_fuks_length2")
        ap = action_polynomials(F)
        assert ap[(1, "u", "u")] == "(7/2 - 1/2*sqrt(19))*m + s"
        assert ap[(1, "w", "w")] == "-(5/2 + 1/2*sqrt(19))*m + s"
        assert ap[(1, "w", "u")] == ("-(11/2 + 5/4*sqrt(19))*m^7"
                                     " - (31/2 + 7/2*sqrt(19))*m^6*s"
                                     " - (25/2 + 7/2*sqrt(19))*m^5*s^2"
                                     " - 5*m^4*s^3 + 5*m^3*s^4 + 2*m^2*s^5")

    def test_feigin_fuks_sample(self):
        F = build_preset("feigin_fuks_length2")
        got = act(e(1), F.basis_vector(-1, "u"))
        assert got.terms == {((0,), "u"): QuadExtScalar(Fraction(5, 2),
                                                        Fraction(-1, 2), 19)}

    def test_all_presets_satisfy_axioms(self):
        for name in PRESET_NAMES:
            assert check_module_axioms(build_preset(name)).passed, name

    def test_unknown_preset(self):
        with pytest.raises(ModuleError):
            build_preset("nope")


class TestAnnihilation:
    def test_order_three_kills_density_modules(self):
        cert = annihilates(3, tensor_density("alpha", "beta"))
        assert cert.annihilates
        data = cert.to_json()
        assert data["symbolic_residues"] == [] and data["window_failures"] == []

    def test_order_two_does_not(self):
        cert = annihilates(2, tensor_density(Fraction(2, 3), Fraction(1, 5)))
        assert not cert.annihilates
        assert cert.to_json()["witness"] == [-3, -3, -3, "v"]

    def test_virasoro_needs_higher_order(self):
        # the central extension obstructs order-3 annihilation
        assert not annihilates(3, build_preset("virasoro_adjoint")).annihilates

    def test_punctured_inherits_density_bound(self):
        assert annihilates(3, build_preset("punctured_functions")).annihilates

    # (module, order, generic point (k, s, offset), the one residue at step 1)
    STEP_ONE = [
        (lambda: build_preset("virasoro_adjoint"), 2, (5, -2, 3),
         ("u", "u", "-4")),
        (lambda: tensor_density(Fraction(2, 3), Fraction(1, 5)), 2, (4, 1, -2),
         ("v", "v", "4/9")),
        (lambda: build_preset("feigin_fuks_length2"), 8, (7, -3, 4),
         ("w", "u", "151200")),
    ]
    STEP_ONE_IDS = ["virasoro_adjoint", "tensor_density",
                    "feigin_fuks_length2"]

    @pytest.mark.parametrize("make, order, point, residue", STEP_ONE,
                             ids=STEP_ONE_IDS)
    def test_symbolic_residue_is_at_step_one(self, make, order, point,
                                             residue):
        cert = annihilates(order, make(), window=0)
        assert cert.symbolic_residues == [residue[:2] + ("k + s + wt",
                                                         residue[2])]

    @pytest.mark.parametrize("make, order, point, residue", STEP_ONE,
                             ids=STEP_ONE_IDS)
    def test_symbolic_residue_matches_concrete_action(self, make, order,
                                                      point, residue):
        # at a point off the exceptional set, and outside the window, the
        # specialised residue is the differentiator applied through `act`
        M = make()
        kv, sv, off = point
        ctx = PolyContext(("k", "s", "wt"))
        values = {"k": kv, "s": sv, "wt": M.weight_value((off,))[0]}
        cert = annihilates(order, M, window=0)
        expected = {((off + kv + sv,), tgt):
                    parse_poly(c, ctx).specialize(values)
                    for src, tgt, _, c in cert.symbolic_residues
                    if src == residue[0]}
        v = M.basis_vector(off, residue[0])
        total = ModuleVector(M, {})
        for i in range(order + 1):
            term = act(e(kv - i), act(e(sv + i), v))
            total = total + term.scale(Fraction((-1) ** i * comb(order, i)))
        assert expected and total.terms == expected


class TestGLnReps:
    def test_natural_rep_relations(self):
        natural_rep(3)  # validation happens in the constructor

    def test_wedge_dimensions(self):
        for n in range(1, 5):
            for k in range(n + 1):
                U = wedge_rep(n, k)
                from math import comb
                assert U.dim == comb(n, k)

    def test_wedge_labels(self):
        assert wedge_rep(3, 2).labels == ("e1^e2", "e1^e3", "e2^e3")
        assert wedge_rep(2, 0).labels == ("1",)

    def test_corrupted_rep_rejected(self):
        # E_12 and E_21 as first-order jets t^(e_1) d_2 and t^(e_2) d_1
        bad = {((1, 0), 2): [[0, 1], [1, 0]], ((0, 1), 1): [[0, 1], [1, 0]]}
        with pytest.raises(ModuleError):
            JPlusRepData(2, 2, 1, bad)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_natural_rep_is_the_unit_matrices(self, n):
        U = natural_rep(n)
        assert (U.dim, U.cutoff) == (n, 1)
        assert U.labels == tuple(f"e{i+1}" for i in range(n))
        for p in range(1, n + 1):
            for a in range(1, n + 1):
                e_p = tuple(int(i == p - 1) for i in range(n))
                assert U.rho(e_p, a) == tuple(
                    tuple(Fraction(int((i, j) == (p - 1, a - 1)))
                          for j in range(n)) for i in range(n))

    def test_bad_jet_index_is_refused(self):
        U = natural_rep(2)
        with pytest.raises(ModuleError, match="invalid jet exponent"):
            U.rho((1, 0, 0), 1)
        with pytest.raises(ModuleError, match="jet direction 3 is not in"):
            U.rho((1, 0), 3)
        with pytest.raises(ModuleError, match="jet direction 0 is not in"):
            U.rho((1, 0), 0)
        # beyond the cutoff reads zero, which the relation check relies on
        assert U.rho((2, 0), 1) == ((Fraction(0),) * 2,) * 2

    @pytest.mark.parametrize("n", range(1, 5))
    def test_trivial_rep_is_zero(self, n):
        U = trivial_rep(n)
        assert (U.dim, U.cutoff, U.labels) == (1, 1, ("1",))
        for p in range(1, n + 1):
            for a in range(1, n + 1):
                e_p = tuple(int(i == p - 1) for i in range(n))
                assert U.rho(e_p, a) == ((Fraction(0),),)


class TestTensorFields:
    def test_action_formula(self):
        # (t^m d_a)(t^s x e_b) = s_a t^{s+m} e_b + sum_p m_p t^{s+m} E_pa e_b
        U = natural_rep(2)
        M = tensor_field(U, (Fraction(0), Fraction(0)))
        alg = M.algebra
        got = act(alg.basis((1, 0), 2), M.basis_vector((2, 3), "e1"))
        # s_2 = 3 on the diagonal, plus E_12 e1 = 0, E_22-part for p=2 absent
        assert got.terms == {((3, 3), "e1"): Fraction(3)}
        got2 = act(alg.basis((1, 0), 1), M.basis_vector((2, 3), "e1"))
        # s_1 = 2 plus m_1 E_11 e1 = e1
        assert got2.terms == {((3, 3), "e1"): Fraction(3)}

    def test_axioms_and_aw(self):
        M = tensor_field(natural_rep(2), (Fraction(1, 2), Fraction(0)))
        assert check_module_axioms(M).passed
        assert check_aw_compat(M).passed

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 4)
                                      for k in range(n + 1)])
    def test_hand_formula(self, n, k):
        # poly_a(u_j -> u_i) = delta_ij s_a + sum_p m_p (E_pa)_ij, written
        # out here and not read from jets_module
        U = wedge_rep(n, k)
        M = tensor_field(U, (Fraction(1, 3),) * n)
        m, s = (["m"], ["s"]) if n == 1 else (
            [f"m{p}" for p in range(1, n + 1)],
            [f"s{a}" for a in range(1, n + 1)])
        ctx = PolyContext(tuple(m + s))
        want = {}
        for a in range(1, n + 1):
            for j, src in enumerate(U.labels):
                for i, tgt in enumerate(U.labels):
                    poly = ctx.sym(s[a - 1]) if i == j else ctx.zero()
                    for p in range(1, n + 1):
                        e_p = tuple(int(q == p) for q in range(1, n + 1))
                        poly = poly + U.rho(e_p, a)[i][j] * ctx.sym(m[p - 1])
                    if poly:
                        want[(a, src, tgt)] = poly
        assert {key: parse_poly(text, ctx) for key, text
                in action_polynomials(M).items()} == want

    def test_trivial_rep_matches_density(self):
        # at n = 1 the tensor field of the trivial U is the density T(0, beta)
        M = tensor_field(trivial_rep(1), (Fraction(0),))
        assert action_polynomials(M) == {(1, "1", "1"): "s"}
        D = tensor_density(0, 0)
        assert {(d, "v", "v"): p for (d, _, _), p
                in action_polynomials(M).items()} == action_polynomials(D)
        assert M.beta == D.beta and M.algebra == D.algebra

    def test_names_print_rationals(self):
        # the names go into certificates: no Fraction reprs
        M = tensor_field(natural_rep(2), (Fraction(1, 3), Fraction(0)))
        assert M.name == "tensor_field(dim 2, beta (1/3, 0))"
        assert omega_forms(2, 1, (Fraction(0), Fraction(-1, 2))).name == \
            "omega^1(beta (0, -1/2)) on T^2"

    def test_rank_three_function_module(self):
        M = tensor_field(trivial_rep(3), (0, 0, Fraction(1, 3)))
        assert isinstance(M.algebra, WnAlgebra) and M.algebra.n == 3
        assert M.beta == (Fraction(0), Fraction(0), Fraction(1, 3))
        assert check_module_axioms(M, window=1).passed
        assert check_aw_compat(M, window=1).passed

    def test_higher_jets_are_refused(self):
        # tensor fields read only E_pa = rho(t^(e_p) d_a); the t^2 d jet
        # would be dropped without a word
        rho = JPlusRepData(1, 2, 2, {((1,), 1): [[1, 0], [0, 0]],
                                     ((2,), 1): [[0, 1], [0, 0]]})
        with pytest.raises(ModuleError, match="first-order jet data"):
            tensor_field(rho, (Fraction(0),))


class TestOneW1:
    """W_1 has one presentation, `WnAlgebra(1)`, so a module that the W_n
    constructors build reaches the rank-1 checkers, and the tensor field of
    the 1-dim U with rho(t d) = alpha certifies as T(alpha, beta) does."""

    @pytest.mark.parametrize("alpha", [Fraction(2, 3), Fraction(0),
                                       Fraction(1)], ids=str)
    @pytest.mark.parametrize("order", [2, 3])
    def test_field_annihilator_matches_density(self, order, alpha):
        beta = Fraction(1, 5)
        U = JPlusRepData(1, 1, 1, {((1,), 1): [[alpha]]}, labels=("v",))
        field = annihilates(order, tensor_field(U, (beta,))).to_json()
        density = annihilates(order, tensor_density(alpha, beta)).to_json()
        assert field.pop("module") == "tensor_field(dim 1, beta (1/5))"
        assert density.pop("module") == f"tensor_density({alpha},1/5)"
        assert field == density
        # order 3 kills every density; order 2 only those with alpha in {0, 1}
        assert field["annihilates"] == (order == 3 or alpha != Fraction(2, 3))
        assert (field["witness"] is None) == field["annihilates"]


class TestWindowSweepOrder:
    """The concrete sweeps visit generators, offsets and labels in a fixed
    order; the counts and the first failure pin that order."""

    def test_w2_counts(self):
        M = tensor_field(natural_rep(2), (Fraction(1, 3), Fraction(1, 5)))
        axioms = check_module_axioms(M, window=1)
        aw = check_aw_compat(M, window=1)
        assert (axioms.symbolic_checked, axioms.window_checked) == (4, 5832)
        assert (aw.symbolic_checked, aw.window_checked) == (2, 324)
        assert axioms.passed and aw.passed

    def test_w2_first_failure(self):
        M = tensor_field(natural_rep(2), (Fraction(1, 3), Fraction(1, 5)))
        data = module_to_json(M)
        data["terms"][0]["poly"] += " + m2*s1"
        rep = check_module_axioms(module_from_json(data), window=1)
        assert len(rep.window_failures) == 1980
        assert rep.window_failures[0] == (
            "t[-1,-1]d1", "t[-1,-1]d2", (-1, -1), "e1",
            "ModuleVector((22/15)*e1[-3,-3])")

    def test_punctured_first_failure(self):
        data = module_to_json(build_preset("punctured_functions"))
        data["terms"][0]["poly"] = "s^2"
        rep = check_module_axioms(module_from_json(data), window=2)
        assert rep.window_checked == 100 and len(rep.window_failures) == 64
        assert rep.window_failures[0] == (
            "e[-2]", "e[-1]", (-2,), "u", "ModuleVector((32)*u[-5])")


_CTX = PolyContext(("b", "m", "s"))


def _constraint_module(poly, m_coeff, s_coeff, beta=Fraction(0)):
    """e_k u_s = s u_{s+k}, plus `poly` u_{s+k} on the line
    m_coeff*k + s_coeff*s = 10. Not a module where the line meets integer
    weights."""
    line = Constraint((Fraction(m_coeff),), (Fraction(s_coeff),), Fraction(10))
    return PolyWeightModule(
        WITT, (beta,), ("u",),
        [ActionTerm(1, "u", "u", _CTX.sym("s")),
         ActionTerm(1, "u", "u", parse_poly(poly, _CTX), constraint=line)],
        name="line")


class TestExceptionalLocus:
    """The module is the one owner of where its action departs from its
    generic polynomials: punctures, finite supports and the offsets where a
    constraint line fires for e_0. The window sweeps them, and the rank-1
    generators include the exponents where a line fires at offset 0."""

    def test_virasoro_and_its_dual_keep_the_golden_locus(self):
        V = build_preset("virasoro_adjoint")
        for M in (V, graded_dual(V)):
            assert M.exceptional_offsets() == {(0,)}
            assert _window_generators(M, 2)[0] == [(k,) for k in range(-2, 3)]

    def test_weight_line_is_swept_where_it_fires(self):
        # m^2 on m + s = 10 is not a module; the window used to miss it
        M = _constraint_module("m^2", 1, 1)
        assert M.exceptional_offsets() == {(10,)}
        assert {off for off, _, _ in M.window(0)} == {(0,), (10,)}
        rep = check_module_axioms(M, window=2)
        assert rep.window_failures and not rep.symbolic_failures
        assert all(abs(off[0] - 10) <= 2 or "e[10]" in (x, y)
                   for x, y, off, _, _ in rep.window_failures)

    def test_mode_line_adds_its_exponent(self):
        # 1 on m = 10 fires for e_10 at every offset
        M = _constraint_module("1", 1, 0)
        assert M.exceptional_offsets() == set()
        assert _window_generators(M, 1)[0] == [(-1,), (0,), (1,), (10,)]
        rep = check_module_axioms(M, window=2)
        assert rep.window_failures
        assert all("e[10]" in (x, y) for x, y, *_ in rep.window_failures)

    @pytest.mark.parametrize("beta", [
        QuadExtScalar(0, 1, 19),
        parse_poly("sqrt(19)", _CTX),
        _CTX.sym("b")], ids=["quad", "poly", "symbol"])
    def test_irrational_or_symbolic_beta_fires_nowhere(self, beta):
        M = _constraint_module("m^2", 1, 1, beta)
        assert M.exceptional_offsets() == set()
        assert M.constraint_modes((0, 1), (0, 0)) == set()
        assert M.constraint_modes((3, 1), (-2, 1)) == set()

    def test_fractional_solution_is_no_mode(self):
        # k + 4s = 10 meets no integer offset for e_0
        M = _constraint_module("m^2", 1, 4)
        assert M.exceptional_offsets() == set()
        assert M.constraint_modes((0, 1), (1, 0)) == {6}

    def test_wn_constraint_is_refused(self):
        data = module_to_json(_w2())
        data["terms"].append({"direction": 1, "src": "e1", "tgt": "e1",
                              "poly": "1", "constraint": {
                                  "m_coeffs": ["1", "0"],
                                  "s_coeffs": ["1", "0"], "const": "10"}})
        with pytest.raises(ModuleError, match="constraint terms are rank-1 "
                                              "only"):
            module_from_json(data)


class TestNegativeRadius:
    """A negative window, exponent box or differentiator order samples
    nothing, so a report from one would read as a pass: the checkers
    refuse it."""

    def test_negative_window_is_refused(self):
        # the central term m^3 turned into m^2: not a module
        data = module_to_json(build_preset("virasoro_adjoint"))
        data["terms"][1]["poly"] = "m^2"
        M = module_from_json(data)
        assert len(check_module_axioms(M, window=2).window_failures) == 8
        for checker in (lambda: check_module_axioms(M, window=-1),
                        lambda: check_aw_compat(M, window=-1),
                        lambda: annihilates(3, M, window=-1),
                        lambda: check_de_rham_chain(2, mbox=-1)):
            with pytest.raises(ModuleError, match="window radius must be "
                                                  "nonnegative, got -1"):
                checker()

    def test_negative_weight_report_radius_is_refused(self):
        # a radius of -1 used to report max_dim 0 over no rows
        with pytest.raises(ModuleError, match="window radius must be "
                                              "nonnegative, got -1"):
            weight_report(build_preset("virasoro_adjoint"), radius=-1)
        rows = weight_report(_w2(), 1)["rows"]
        assert [tuple(r["offset"]) for r in rows] == sorted(
            itertools.product(range(-1, 2), repeat=2))

    def test_negative_order_is_refused(self):
        with pytest.raises(ModuleError, match="differentiator order must be "
                                              "nonnegative, got -1"):
            annihilates(-1, build_preset("feigin_fuks_length2"))


# The concrete window loops of the three checkers as they were written
# before each composite was computed once per sweep: every product is
# recomputed, and failures are collected in sweep order. Each returns a new
# report with the symbolic fields of the checker's report and the window
# count, failures and witness of its own sweep.


def _reference_axiom_sweep(M, window, rep):
    _, gens = _window_generators(M, window)
    cells = M.window(window)
    checked, failures = 0, []
    for x, y in itertools.product(gens, repeat=2):
        z = bracket(x, y)
        for off, lab, v in cells:
            lhs_v = act(z, v)
            rhs_v = act(x, act(y, v)) - act(y, act(x, v))
            checked += 1
            if lhs_v != rhs_v:
                failures.append(
                    (str(x), str(y), off, lab, repr(lhs_v - rhs_v)))
    return CheckReport(rep.kind, rep.module, rep.symbolic_failures, failures,
                       rep.symbolic_checked, checked)


def _reference_aw_sweep(M, window, rep):
    checked, failures = 0, []
    if not rep.symbolic_failures:
        shifts, gens = _window_generators(M, window)
        cells = M.window(0)
        for x, r in itertools.product(gens, shifts):
            e, a = next(iter(x.terms))
            mr = tuple(me + re for me, re in zip(e, r))
            for _, lab, v in cells:
                lhs_v = act(x, _a_shift(v, r))
                rhs_v = _a_shift(act(x, v), r) + _a_shift(v, mr).scale(
                    Fraction(r[a - 1]))
                checked += 1
                if lhs_v != rhs_v:
                    failures.append((str(x), r, lab, repr(lhs_v - rhs_v)))
    return CheckReport(rep.kind, rep.module, rep.symbolic_failures, failures,
                       rep.symbolic_checked, checked)


def _reference_annihilator_sweep(order, M, window, cert):
    witt = M.algebra
    cells = M.window(window)
    checked, failures, witness = 0, [], None
    for kv, sv in itertools.product(range(-window, window + 1), repeat=2):
        for off, lab, v in cells:
            total = ModuleVector(M, {})
            for i in range(order + 1):
                term = act(witt.basis((kv - i,), 1),
                           act(witt.basis((sv + i,), 1), v))
                total = total + term.scale(Fraction((-1) ** i * comb(order, i)))
            checked += 1
            if not total.is_zero():
                failures.append((kv, sv, off, lab, repr(total)))
                if witness is None:
                    witness = (kv, sv, off[0], lab)
    return AnnihilationCertificate(
        cert.order, cert.module, not cert.symbolic_residues and not failures,
        cert.symbolic_residues, failures, witness, cert.symbolic_checked,
        checked)


def _corrupted(M, term, suffix):
    data = module_to_json(M)
    data["terms"][term]["poly"] += suffix
    return module_from_json(data)


def _w2():
    return tensor_field(natural_rep(2), (Fraction(1, 3), Fraction(1, 5)))


def _aw_breaking_module():
    """A tensor density plus a constraint term: the symbolic AW check skips
    the term, and the window sees that the line it fires on does not move
    with t^r."""
    data = module_to_json(tensor_density(Fraction(2, 3), Fraction(0)))
    data["terms"].append({"direction": 1, "src": "v", "tgt": "v",
                          "poly": "m^2", "constraint": {
                              "m_coeffs": ["1"], "s_coeffs": ["1"],
                              "const": "1"}})
    return module_from_json(data)


class TestSweepEquivalence:
    """The checkers compute each composite once per sweep; their records
    must equal those of the loops that recompute every product, failures
    in order and witness included."""

    @pytest.mark.parametrize("order, make", [
        (4, lambda: build_preset("virasoro_adjoint")),
        (2, lambda: tensor_density(Fraction(2, 3), Fraction(1, 5))),
        (8, lambda: build_preset("feigin_fuks_length2")),
        (1, lambda: build_preset("punctured_functions")),
    ], ids=["virasoro_adjoint", "tensor_density", "feigin_fuks_length2",
            "punctured_functions"])
    def test_annihilates(self, order, make):
        M = make()
        cert = annihilates(order, M)
        ref = _reference_annihilator_sweep(order, M, 3, cert)
        assert cert.window_failures and cert.witness
        assert cert.to_json() == ref.to_json()

    @pytest.mark.parametrize("make, window, failures", [
        (lambda: _corrupted(_w2(), 0, " + m2*s1"), 1, 1980),
        (lambda: _corrupted(build_preset("virasoro_adjoint"), 0, " + m^2"),
         2, None),
    ], ids=["w2_corrupted", "virasoro_corrupted"])
    def test_module_axioms(self, make, window, failures):
        M = make()
        rep = check_module_axioms(M, window=window)
        ref = _reference_axiom_sweep(M, window, rep)
        assert rep.to_json() == ref.to_json()
        if failures is not None:
            assert len(rep.window_failures) == failures
        else:
            assert rep.window_failures

    @pytest.mark.parametrize("make, window", [
        (_w2, 1), (_aw_breaking_module, 2)], ids=["w2", "constraint"])
    def test_aw_compat(self, make, window):
        M = make()
        rep = check_aw_compat(M, window=window)
        ref = _reference_aw_sweep(M, window, rep)
        assert rep.to_json() == ref.to_json()
        assert rep.window_checked and not rep.symbolic_failures



def _reference_differentiator(order, M):
    """The symbolic residues of `annihilates`, one term at a time: for each
    i, the generic matrix of e_{s+i} at weight wt, then that of e_{k-i} at
    weight wt + s + i, composed and summed with (-1)^i C(order, i)."""
    params = M.param_symbols()
    ctx = PolyContext(params + ("k", "s", "wt"))
    base = {p: ctx.sym(p) for p in params}
    k, s, wt = (ctx.sym(x) for x in ("k", "s", "wt"))
    labels = [lab for lab in M.fiber if lab not in M.restricted_support]

    def matrix(m, w):
        out = {}
        for src in labels:
            for t in M.terms_for(1, src):
                if t.tgt in labels and (t.constraint is None
                                        or t.constraint.satisfied([m], [w])):
                    val = t.poly.specialize(
                        {**base, M.m_symbols[0]: m, M.s_symbols[0]: w})
                    out[(src, t.tgt)] = out.get((src, t.tgt), 0) + val
        return out

    omega = {}
    for i in range(order + 1):
        first, second = matrix(s + i, wt), matrix(k - i, wt + s + i)
        for (src, mid), a in first.items():
            for (row, tgt), b in second.items():
                if row == mid:
                    omega[(src, tgt)] = (omega.get((src, tgt), 0)
                                         + (-1) ** i * comb(order, i) * b * a)
    return [(src, tgt, str(wt + k + s), str(c))
            for src in M.fiber for tgt in M.fiber
            if (c := omega.get((src, tgt), 0))]


def _counting(monkeypatch, name):
    """The argument tuples of every call to `modules.<name>` from now on."""
    calls = []
    original = getattr(modules, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(modules, name, spy)
    return calls


# (module, the degree in i of its differentiator composite)
COMPOSITE_DEGREES = [
    (lambda: build_preset("punctured_functions"), 1),
    (lambda: build_preset("virasoro_adjoint"), 2),
    (lambda: build_preset("feigin_fuks_length2"), 8),
    (lambda: graded_dual(build_preset("punctured_functions")), 1),
    (lambda: graded_dual(build_preset("virasoro_adjoint")), 2),
    (lambda: graded_dual(build_preset("feigin_fuks_length2")), 8),
    (lambda: tensor_density(Fraction(2, 3), Fraction(1, 5)), 2),
    (lambda: tensor_density("a", "b"), 2),
]
COMPOSITE_IDS = ["punctured_functions", "virasoro_adjoint",
                 "feigin_fuks_length2", "dual_punctured_functions",
                 "dual_virasoro_adjoint", "dual_feigin_fuks_length2",
                 "tensor_density", "symbolic_density"]
# rank-1 and W_2 window generators
SWEEPS = [(lambda: build_preset("virasoro_adjoint"), 2), (_w2, 1)]


class TestOneRelationOnce:
    """Each relation of the module checkers is computed once: one
    differentiator composite with a formal index for every order, and one
    window defect per unordered pair of distinct generators."""

    @pytest.mark.parametrize("make, degree", COMPOSITE_DEGREES,
                             ids=COMPOSITE_IDS)
    def test_composite_matches_per_order_terms(self, make, degree):
        M = make()
        for order in range(degree + 2):
            got = annihilates(order, M, window=0).symbolic_residues
            assert got == _reference_differentiator(order, M)
        # the degree is reached, and the next order leaves no residue
        assert _reference_differentiator(degree, M)
        assert not _reference_differentiator(degree + 1, M)

    @pytest.mark.parametrize("order", [3, 9, 40])
    def test_two_generic_matrices_at_any_order(self, monkeypatch, order):
        calls = _counting(monkeypatch, "_generic_action_matrix")
        cert = annihilates(order, build_preset("feigin_fuks_length2"),
                           window=0)
        assert len(calls) == 2
        assert bool(cert.symbolic_residues) == (order <= 8)

    def test_index_symbol_is_reserved(self):
        with pytest.raises(ModuleError, match=r"collide with checker "
                                              r"symbols: \['i'\]"):
            annihilates(3, tensor_density("i", "b"))

    @pytest.mark.parametrize("alpha, beta, name", [
        ("alpha", "m", "m"), ("s", "b", "s"), ("m", 0, "m"), (0, "s", "s")])
    def test_coordinate_symbols_are_reserved(self, alpha, beta, name):
        with pytest.raises(ModuleError, match=rf"may not name a coordinate "
                                              rf"symbol \(m, s\), got '{name}'"):
            tensor_density(alpha, beta)

    @pytest.mark.parametrize("name", ["a b", "sqrt", "", "1a"])
    def test_parameter_is_one_symbol_name(self, name):
        # a module file reads back only the names of the polynomial grammar
        with pytest.raises(ModuleError, match="must be one symbol name"):
            tensor_density(name, Fraction(1, 2))

    def test_order_16000_at_window_zero(self):
        # the radius-0 window of this module is its puncture, so no cell is
        # swept: what remains is the symbolic part and the coefficients
        cert = annihilates(16000, build_preset("punctured_functions"),
                           window=0)
        assert cert.annihilates and cert.symbolic_residues == []

    @pytest.mark.parametrize("make, window", SWEEPS, ids=["rank1", "w2"])
    def test_one_bracket_per_unordered_pair(self, monkeypatch, make, window):
        M = make()
        g = len(_window_generators(M, window)[1])
        calls = _counting(monkeypatch, "bracket")
        rep = check_module_axioms(M, window=window)
        assert len(calls) == comb(g, 2)
        assert rep.window_checked == g ** 2 * len(M.window(window))

    @pytest.mark.parametrize("make, window", SWEEPS, ids=["rank1", "w2"])
    def test_window_brackets_are_antisymmetric(self, make, window):
        # the one-pass sweep reads the defect of (y, x) as that of (x, y),
        # negated, and skips the diagonal
        _, gens = _window_generators(make(), window)
        for x, y in itertools.product(gens, repeat=2):
            assert bracket(y, x) == -bracket(x, y)
        assert all(bracket(x, x).is_zero() for x in gens)


class TestJets:
    def _rep(self):
        # nilpotent 2-dim rep of the nonnegative jet algebra in one variable
        return JPlusRepData(1, 2, 1, {((1,), 1): [[0, 1], [0, 0]]})

    def test_axioms(self):
        M = jets_module(self._rep(), (Fraction(1, 2),))
        assert check_module_axioms(M).passed
        assert check_aw_compat(M).passed

    def test_action_values(self):
        M = jets_module(self._rep(), (Fraction(0),))
        alg = M.algebra
        # (t^m d)(t^s x v2) = s t^{s+m} v2 + m t^{s+m} v1
        got = act(alg.basis((2,), 1), M.basis_vector((3,), "v2"))
        assert got.terms == {((5,), "v2"): Fraction(3), ((5,), "v1"): Fraction(2)}

    def test_quadratic_entries(self):
        # rho(t d) = diag of the two feigin_fuks_length2 densities' alphas:
        # the entries stay in Q(sqrt(19)) rather than being cast to Fraction
        r19 = QuadExtScalar(0, 1, 19)
        a1, a2 = (7 - r19) / 2, (-5 - r19) / 2
        rho = JPlusRepData(1, 2, 1, {((1,), 1): [[a1, 0], [0, a2]]})
        assert rho.rho((1,), 1)[0][0] == a1
        M = jets_module(rho, (Fraction(0),))
        assert action_polynomials(M) == {
            (1, "v1", "v1"): "(7/2 - 1/2*sqrt(19))*m + s",
            (1, "v2", "v2"): "-(5/2 + 1/2*sqrt(19))*m + s"}
        assert check_module_axioms(M).passed
        assert check_aw_compat(M).passed

    def test_corrupted_rep_rejected(self):
        # [t d, t^2 d] = t^2 d requires [A, B] = B; commuting A, B with B != 0 fail
        with pytest.raises(ModuleError):
            JPlusRepData(1, 2, 2, {((1,), 1): [[0, 1], [0, 0]],
                                   ((2,), 1): [[0, 1], [0, 0]]})


def _first_failing_relation(n, cutoff, mats):
    """The jet relation that the full sweep over ordered (k, l, i, j) finds
    failing first, as `JPlusRepData._validate` names it, or None; `mats`
    maps (k, j) to a square matrix, and a missing one is zero."""
    dim = len(next(iter(mats.values())))
    zero = [[0] * dim for _ in range(dim)]
    exponents = [k for k in itertools.product(range(cutoff + 1), repeat=n)
                 if 1 <= sum(k) <= cutoff]

    def mul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
                for row in a]

    def add(a, b, c=1):
        return [[x + c * y for x, y in zip(r, s)] for r, s in zip(a, b)]

    def rho(k, j):
        return mats.get((tuple(k), j), zero)

    for k, l in itertools.product(exponents, repeat=2):
        for i, j in itertools.product(range(1, n + 1), repeat=2):
            a, b = rho(k, i), rho(l, j)
            res = add(mul(a, b), mul(b, a), -1)
            for coeff, e, d in ((-l[i - 1], i, j), (k[j - 1], j, i)):
                if coeff:
                    kl = [x + y - (q == e - 1)
                          for q, (x, y) in enumerate(zip(k, l))]
                    res = add(res, rho(kl, d), coeff)
            if any(any(row) for row in res):
                return f"jet relations fail for [t^{k} d_{i}, t^{l} d_{j}]"
    return None


class TestJetRelationsOnce:
    """`JPlusRepData` checks each jet relation once, on an unordered pair of
    distinct generators: swapping the pair negates both sides, and on the
    diagonal both sides are zero."""

    @pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (3, 2)])
    def test_two_products_per_unordered_pair(self, monkeypatch, n, k):
        calls = []
        mul = modules.linalg.matrix_mul

        def spy(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(modules.linalg, "matrix_mul", spy)
        wedge_rep(n, k)
        assert len(calls) == 2 * comb(n * n, 2)

    @pytest.mark.parametrize("listed", ["first", "last"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_one_corrupted_relation_is_rejected(self, listed, p):
        # adding I to E_pp breaks exactly [E_12, E_21] = E_11 - E_22 and
        # [E_21, E_12] = E_22 - E_11, one relation with its pair in either
        # order; the corrupted matrix is listed first or last
        key = ((int(p == 1), int(p == 2)), p)
        mats = dict(natural_rep(2).matrices)
        corrupted = [[x + (r == c) for c, x in enumerate(row)]
                     for r, row in enumerate(mats.pop(key))]
        mats = ({key: corrupted, **mats} if listed == "first"
                else {**mats, key: corrupted})
        expected = _first_failing_relation(2, 1, mats)
        assert expected == ("jet relations fail for "
                            "[t^(0, 1) d_1, t^(1, 0) d_2]")
        with pytest.raises(ModuleError) as info:
            JPlusRepData(2, 2, 1, mats)
        assert str(info.value) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_first_failure_matches_the_ordered_sweep(self, seed):
        # one random entry change in cutoff-2 jets of gl_1, where
        # [t d, t^2 d] = t^2 d reads [A, B] = B, or in natural_rep(2)
        import random
        rng = random.Random(seed)
        n, cutoff = (1, 2) if seed % 2 else (2, 1)
        base = ({((1,), 1): [[1, 0], [0, 0]], ((2,), 1): [[0, 1], [0, 0]]}
                if n == 1 else natural_rep(2).matrices)
        assert _first_failing_relation(n, cutoff, base) is None
        key = rng.choice(sorted(base))
        mats = {k: [list(row) for row in m] for k, m in base.items()}
        mats[key][rng.randrange(2)][rng.randrange(2)] += rng.choice([-1, 1])
        expected = _first_failing_relation(n, cutoff, mats)
        if expected is None:
            JPlusRepData(n, 2, cutoff, mats)
            return
        with pytest.raises(ModuleError) as info:
            JPlusRepData(n, 2, cutoff, mats)
        assert str(info.value) == expected


class TestOneRadicand:
    """Values over Q(sqrt(19)) and Q(sqrt(5)) cannot meet in one sum, so a
    module that uses both is refused when it is built, not mid-check."""

    CTX = PolyContext(("m", "s"))

    def _term(self, src, tgt, text):
        return ActionTerm(1, src, tgt, parse_poly(text, self.CTX))

    def test_two_term_radicands(self):
        with pytest.raises(ModuleError, match=r"radicand: sqrt\(5\), "
                                              r"sqrt\(19\)"):
            PolyWeightModule(WITT, (Fraction(0),), ("u", "w"), [
                self._term("u", "u", "s + sqrt(19)*m"),
                self._term("w", "w", "s + sqrt(5)*m"),
                self._term("w", "u", "m^3")])

    @pytest.mark.parametrize("beta", [QuadExtScalar(0, 1, 5), "1 + sqrt(5)"])
    def test_beta_and_term_radicands(self, beta):
        if isinstance(beta, str):
            beta = parse_poly(beta, self.CTX)
        with pytest.raises(ModuleError, match="more than one radicand"):
            PolyWeightModule(WITT, (beta,), ("u",),
                             [self._term("u", "u", "s + sqrt(19)*m")])

    def test_one_radicand_builds(self):
        M = PolyWeightModule(WITT, (parse_poly("1 + sqrt(19)", self.CTX),),
                             ("u",), [self._term("u", "u", "s + sqrt(19)*m")])
        assert check_module_axioms(M, window=1).passed


class TestDuality:
    def test_dual_satisfies_axioms(self):
        for name in PRESET_NAMES:
            D = graded_dual(build_preset(name))
            assert check_module_axioms(D).passed, name

    def test_double_dual_round_trip(self):
        for name in PRESET_NAMES:
            M = build_preset(name)
            DD = graded_dual(graded_dual(M))
            assert action_polynomials(DD) == action_polynomials(M)
            assert DD.punctures == M.punctures
            assert DD.beta == M.beta
            assert DD.restricted_support == M.restricted_support

    def test_dual_weight_support_mirrors(self):
        P = build_preset("punctured_functions")
        D = graded_dual(P)
        dims = {tuple(r["offset"]): r["dim"] for r in weight_report(D, 2)["rows"]}
        assert dims[(0,)] == 0 and dims[(-1,)] == 1


class TestTwist:
    def test_identity_twist(self):
        M = tensor_field(natural_rep(2), (Fraction(0), Fraction(0)))
        T = twist(M, LatticeAutomorphism.identity(2))
        assert action_polynomials(T) == action_polynomials(M)

    def test_twisted_module_satisfies_axioms(self):
        M = tensor_field(natural_rep(2), (Fraction(1, 3), Fraction(0)))
        g = LatticeAutomorphism([[1, 1], [0, 1]])
        assert check_module_axioms(twist(M, g)).passed

    def test_composition_law(self):
        M = tensor_field(wedge_rep(2, 1), (Fraction(0), Fraction(0)))
        g = LatticeAutomorphism([[1, 1], [0, 1]])
        h = LatticeAutomorphism([[0, -1], [1, 0]])
        lhs = twist(twist(M, h), g)
        rhs = twist(M, LatticeAutomorphism(linalg.matrix_mul(h.matrix,
                                                            g.matrix)))
        assert action_polynomials(lhs) == action_polynomials(rhs)
        assert lhs.beta == rhs.beta

    def test_constraint_term_rejected(self):
        # twist does not transform a constraint line, so it refuses one
        with pytest.raises(ModuleError, match="constraint terms"):
            twist(build_preset("virasoro_adjoint"),
                  LatticeAutomorphism.identity(1))

    def test_rank_one_identity_twist(self):
        M = build_preset("punctured_functions")
        T = twist(M, LatticeAutomorphism.identity(1))
        assert action_polynomials(T) == action_polynomials(M)
        assert T.beta == M.beta and T.punctures == M.punctures

    def test_rank_one_reflection(self):
        # g = -1 sends T(alpha, beta) to T(alpha, -beta)
        alpha, beta = Fraction(2, 3), Fraction(1, 5)
        T = twist(tensor_density(alpha, beta), LatticeAutomorphism([[-1]]))
        D = tensor_density(alpha, -beta)
        assert action_polynomials(T) == action_polynomials(D)
        assert T.beta == D.beta
        assert check_module_axioms(T).passed


class TestSerialization:
    def test_preset_round_trips(self):
        for name in PRESET_NAMES:
            M = build_preset(name)
            R = module_from_json(module_to_json(M))
            assert module_to_json(R) == module_to_json(M)
            assert check_module_axioms(R).passed

    def test_tensor_field_round_trip(self):
        # the name each constructor gives reaches the file and comes back
        for M in (tensor_field(natural_rep(2), (Fraction(1, 2), Fraction(0))),
                  omega_forms(2, 1, (0, Fraction(-1, 2))),
                  jets_module(TestJets()._rep(), (Fraction(1, 2),))):
            data = module_to_json(M)
            assert data["name"] == M.name
            assert module_to_json(module_from_json(data)) == data, M.name

    @pytest.mark.parametrize("M", [
        tensor_density("alpha", "beta"), tensor_density(Fraction(1, 2), "b"),
        tensor_density("a'", Fraction(1, 2)),
        PolyWeightModule(WITT, (QuadExtScalar(1, 1, 19),), ("u",),
                         [ActionTerm(1, "u", "u", parse_poly(
                             "s + sqrt(19)*m", PolyContext(("m", "s"))))])],
        ids=["symbolic", "symbolic_beta", "primed_alpha", "quadratic_beta"])
    def test_beta_round_trips(self, M):
        # a parameter named by beta alone is in the file's context, and a
        # constant beta is read back as its coefficient
        data = module_to_json(M)
        R = module_from_json(data)
        assert module_to_json(R) == data
        assert R.beta == M.beta
        assert list(map(type, R.beta)) == list(map(type, M.beta))

    def test_corrupted_action_fails_axioms(self):
        data = module_to_json(build_preset("punctured_functions"))
        data["terms"][0]["poly"] = "s^2"
        bad = module_from_json(data)
        report = check_module_axioms(bad)
        assert not report.passed

    def test_malformed_json_rejected(self):
        data = module_to_json(build_preset("punctured_functions"))
        del data["fiber"]
        with pytest.raises((ModuleError, KeyError)):
            module_from_json(data)


def _memo_module(name):
    if name in PRESET_NAMES:
        return build_preset(name)
    W2 = tensor_field(natural_rep(2), (Fraction(1, 3), Fraction(1, 5)))
    if name == "twist":
        return twist(W2, LatticeAutomorphism([[1, 1], [0, 1]]))
    if name == "dual":
        return graded_dual(build_preset("virasoro_adjoint"))
    return W2


class TestCellActionMemo:
    """`act` memoises each cell's image on the module. A warm module must
    agree with a fresh copy whose memo is empty at every call, in value and
    in term order."""

    @pytest.mark.parametrize("name", PRESET_NAMES + ("tensor_field", "twist",
                                                    "dual"))
    def test_warm_module_matches_fresh_copy(self, name):
        M = _memo_module(name)
        _, gens = _window_generators(M, 2)
        cells = [v for _, _, v in M.window(2)]
        vectors = cells + [act(x, v) for x in gens for v in cells]
        pairs = [(x, v) for x in gens for v in vectors]
        for x, v in pairs:
            act(x, v)
        fresh = module_from_json(module_to_json(M))
        for x, v in pairs:
            fresh._cell_actions.clear()
            warm = act(x, v)
            cold = act(x, ModuleVector(fresh, v.terms))
            assert list(warm.terms.items()) == list(cold.terms.items()), (x, v)

    def test_modules_differing_in_beta_share_no_entries(self):
        M1 = tensor_field(natural_rep(2), (Fraction(1, 3), Fraction(1, 5)))
        M2 = tensor_field(natural_rep(2), (Fraction(1, 2), Fraction(1, 5)))
        x = M1.algebra.basis((1, 0), 1)
        # (t^m d_1) e1 at offset 0: s_1 + m_1 E_11, with s_1 = beta_1
        assert act(x, M1.basis_vector((0, 0), "e1")).terms == {
            ((1, 0), "e1"): Fraction(4, 3)}
        assert act(x, M2.basis_vector((0, 0), "e1")).terms == {
            ((1, 0), "e1"): Fraction(3, 2)}
        assert M1._cell_actions is not M2._cell_actions


class TestActCoefficients:
    """`act` multiplies by a generator's coefficient only when it is not 1.
    Any coefficient must scale the unit generator's image, and terms that
    cancel must leave no zero entry."""

    COEFFS = (Fraction(2, 3), QuadExtScalar(0, 1, 19))

    @pytest.mark.parametrize("name", ("feigin_fuks_length2", "tensor_field"))
    def test_coefficient_scales_the_unit_image(self, name):
        M = _memo_module(name)
        _, gens = _window_generators(M, 1)
        cells = [v for _, _, v in M.window(1)]
        vectors = cells + [act(gens[0], v) + v.scale(Fraction(-5, 7))
                           for v in cells]
        for x in gens:
            (idx, one), = x.terms.items()
            assert one == 1
            for c in self.COEFFS:
                cx = x.scale(c)
                assert cx.terms == {idx: c}
                for v in vectors:
                    assert act(cx, v) == act(x, v).scale(c), (x, c, v)

    @pytest.mark.parametrize("name", ("feigin_fuks_length2", "tensor_field"))
    def test_cancelling_terms_leave_no_zero_key(self, name):
        M = _memo_module(name)
        _, gens = _window_generators(M, 1)
        g1, b1, g2, b2, key, gamma = _cancelling_pair(gens, M.window(1))
        (i1, _), = g1.terms.items()
        (i2, _), = g2.terms.items()
        x = LieElement(M.algebra, {i1: 1, i2: gamma})
        v = b1 + b2
        got = act(x, v)
        assert key not in got.terms and all(got.terms.values())
        assert got == act(g1, v) + act(g2, v).scale(gamma)


_LINE_FIELDS = {"m_coeffs": (Fraction(1),), "s_coeffs": (Fraction(1),),
                "const": Fraction(0)}


def _line():
    return Constraint(**_LINE_FIELDS)


_MS = PolyContext(("m", "s"))
_TERM_FIELDS = {"direction": 1, "src": "u", "tgt": "z",
                "poly": _MS.sym("m") ** 3, "constraint": _line()}
VALUES = [
    (_line, _LINE_FIELDS),
    (lambda: ActionTerm(1, "u", "z", _MS.sym("m") ** 3, constraint=_line()),
     _TERM_FIELDS),
    (lambda: ActionTerm(2, "a", "b", _MS.sym("s")),
     {"direction": 2, "src": "a", "tgt": "b", "poly": _MS.sym("s"),
      "constraint": None}),
]


class TestValueSemantics:
    @pytest.mark.parametrize("make, fields", VALUES,
                             ids=["constraint", "constrained_term", "term"])
    def test_value(self, make, fields):
        assert_value_semantics(make, fields)

    def test_types_never_equal(self):
        assert_types_never_equal(
            [make() for make, _ in VALUES]
            + [Constraint(1, "u", "z"), ActionTerm(1, "u", "z", 0, None),
               WnAlgebra(1), LatticeAutomorphism.identity(1)])

    @pytest.mark.parametrize("make", [
        lambda: build_preset("virasoro_adjoint"),
        lambda: tensor_field(natural_rep(2), (0, 0)),
        lambda: omega_forms(2, 1, (0, 0)),
        lambda: graded_dual(build_preset("virasoro_adjoint")),
        lambda: twist(tensor_field(natural_rep(2), (0, 0)),
                      LatticeAutomorphism([[1, 1], [0, 1]])),
        lambda: emit_induced_module(
            CoverModule(build_preset("punctured_functions")))],
        ids=["preset", "tensor_field", "omega_forms", "dual", "twist",
             "cover"])
    def test_built_module_takes_no_new_attribute(self, make):
        # every module is one constructor call; the `act` memo relies on it
        with pytest.raises(AttributeError):
            make().form_degree = 1

    @pytest.mark.parametrize("change", [
        lambda M: setattr(M, "beta", (Fraction(5),)),
        lambda M: setattr(M, "name", "renamed"),
        lambda M: setattr(M, "terms", ()),
        lambda M: delattr(M, "beta"),
        lambda M: delattr(M, "_cell_actions")],
        ids=["beta", "name", "terms", "del_beta", "del_memo"])
    def test_built_module_fields_are_read_only(self, change):
        # `act` answers from a memo of the module as built: with beta = 5,
        # e_1 u_1 would be 6 u_2
        M = build_preset("punctured_functions")
        e1, u1 = M.algebra.basis((1,), 1), M.basis_vector((1,), "u")
        u2 = M.basis_vector((2,), "u")
        assert act(e1, u1) == u2
        with pytest.raises(AttributeError, match="read-only"):
            change(M)
        assert M.beta == (0,) and act(e1, u1) == u2

    def test_restricted_support_is_read_only(self):
        M = build_preset("virasoro_adjoint")
        with pytest.raises(TypeError):
            M.restricted_support["z"] = frozenset({(1,)})
        with pytest.raises(TypeError):
            del M.restricted_support["z"]
        assert dict(M.restricted_support) == {"z": frozenset({(0,)})}

    @pytest.mark.parametrize("trip", [
        copy.copy, copy.deepcopy, lambda M: pickle.loads(pickle.dumps(M))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle_rebuild_the_module(self, trip):
        M = build_preset("virasoro_adjoint")
        N = trip(M)
        assert N is not M and module_to_json(N) == module_to_json(M)
        e, u = M.algebra.basis((1,), 1), M.basis_vector((-1,), "u")
        f, w = N.algebra.basis((1,), 1), N.basis_vector((-1,), "u")
        assert act(f, w).terms == act(e, u).terms == {
            ((0,), "u"): -2, ((0,), "z"): 1}

    def test_preset_builds_its_line_by_keyword(self):
        M = build_preset("virasoro_adjoint")
        assert M.terms[1] == ActionTerm(**_TERM_FIELDS)
        assert M.terms[1].constraint == Constraint(**_LINE_FIELDS)
        assert M.terms[0].constraint is None


class TestActAlgebra:
    """`act` compares the element's algebra with the module's by identity
    first; an equal algebra is still accepted and a different one refused."""

    def test_foreign_algebra_refused(self):
        v = build_preset("punctured_functions").basis_vector((1,), "u")
        with pytest.raises(ModuleError, match="algebras differ"):
            act(WnAlgebra(2).basis((1, 0), 1), v)
        w = _w2().basis_vector((0, 1), "e1")
        with pytest.raises(ModuleError, match="algebras differ"):
            act(e(1), w)

    def test_equal_distinct_algebra_accepted(self):
        M = _w2()
        other = WnAlgebra(2)
        assert other is not M.algebra and other == M.algebra
        v = M.basis_vector((0, 1), "e1") + M.basis_vector((1, 0), "e2")
        for r, a in (((1, 0), 1), ((-1, 2), 2)):
            assert act(other.basis(r, a), v) == act(M.algebra.basis(r, a), v)
        u = build_preset("punctured_functions").basis_vector((1,), "u")
        assert act(WnAlgebra(1).basis((2,), 1), u) == act(e(2), u)


def _cancelling_pair(gens, cells):
    """Generators g1, g2 and basis vectors b1, b2 at different offsets whose
    images share a key, with the factor gamma that makes the coefficients
    of g1 b1 + gamma g2 b2 at that key cancel."""
    pairs = [(g, v) for g in gens for _, _, v in cells]
    for (g1, b1), (g2, b2) in itertools.combinations(pairs, 2):
        if next(iter(b1.terms))[0] == next(iter(b2.terms))[0]:
            continue
        t1, t2 = act(g1, b1).terms, act(g2, b2).terms
        for key in t1.keys() & t2.keys():
            return g1, b1, g2, b2, key, -t1[key] / t2[key]
    raise AssertionError("no two images share a key")


class TestVectorSubtraction:
    """`u - v` is `u + (-v)`, in value and in term order."""

    @pytest.mark.parametrize("name", ("feigin_fuks_length2", "tensor_field"))
    def test_matches_adding_the_negation(self, name):
        M = _memo_module(name)
        cells = [v for _, _, v in M.window(1)]
        a, b, c = cells[0], cells[1], cells[2]
        r19 = QuadExtScalar(Fraction(1, 2), 1, 19)
        u = a.scale(3) + b.scale(r19)
        cases = [(u, b + c.scale(Fraction(2, 5))),  # overlapping keys
                 (u, c.scale(-2)),                   # disjoint keys
                 (u, a.scale(3) + b.scale(r19)),     # everything cancels
                 (u, b.scale(r19) + c),              # one key cancels
                 (M.vector({}), u), (u, M.vector({}))]
        for left, right in cases:
            got, want = left - right, left + (-right)
            assert list(got.terms.items()) == list(want.terms.items())
            assert all(got.terms.values())
        assert (u - u).is_zero()

    def test_rejects_vectors_of_another_module(self):
        u = build_preset("feigin_fuks_length2").basis_vector(0, "u")
        v = build_preset("feigin_fuks_length2").basis_vector(0, "u")
        with pytest.raises(ModuleError):
            u - v


# The AW relation written out from `act` and a hand-made t^r, independent
# of the checker's shift core, in (x, r), then cell, order.


def _times_t(v, r):
    return v.module.vector({(tuple(o + x for o, x in zip(off, r)), lab): c
                            for (off, lab), c in v.terms.items()})


def _oracle_aw_failures(M, window):
    shifts, gens = _window_generators(M, window)
    out = []
    for x, r in itertools.product(gens, shifts):
        m, a = next(iter(x.terms))
        mr = tuple(me + re for me, re in zip(m, r))
        for _, lab, v in M.window(0):
            d = (act(x, _times_t(v, r)) - _times_t(act(x, v), r)
                 - _times_t(v, mr).scale(Fraction(r[a - 1])))
            if not d.is_zero():
                out.append((str(x), r, lab, repr(d)))
    return out


def _punctured_s2():
    data = module_to_json(build_preset("punctured_functions"))
    data["terms"][0]["poly"] = "s^2"
    return module_from_json(data)


class TestFusedSweepOracle:
    """The sweeps sum each relation in one dict through the action core;
    their failure lists equal the relation computed from `act` alone
    (`_reference_axiom_sweep` uses only `act` and `bracket`)."""

    @pytest.mark.parametrize("make, window, count", [
        (lambda: _corrupted(_w2(), 0, " + m2*s1"), 1, 1980),
        (_punctured_s2, 2, 64),
        (lambda: _constraint_module("m^2", 1, 1), 2, None),
    ], ids=["w2_corrupted", "punctured_s2", "constraint_line"])
    def test_module_axioms(self, make, window, count):
        M = make()
        rep = check_module_axioms(M, window=window)
        ref = _reference_axiom_sweep(M, window, rep)
        assert rep.window_failures
        assert rep.window_failures == ref.window_failures
        if count is not None:
            assert len(rep.window_failures) == count

    def test_aw_compat(self):
        M = _constraint_module("m^2", 1, 1)
        rep = check_aw_compat(M, window=2)
        assert not rep.symbolic_failures
        assert rep.window_failures == _oracle_aw_failures(M, 2)
        assert len(rep.window_failures) == 9


class TestActCore:
    """The window sweeps call `act` only for the images x v they reuse;
    every relation is summed through the core without a further `act`."""

    def test_axiom_sweep_acts_once_per_generator_and_cell(self, monkeypatch):
        M = _w2()
        calls = _counting(monkeypatch, "act")
        rep = check_module_axioms(M, window=1)
        assert rep.passed and len(calls) == 18 * 18 == 18 * len(M.window(1))

    def test_aw_sweep_acts_once_per_generator_and_cell(self, monkeypatch):
        M = _w2()
        calls = _counting(monkeypatch, "act")
        rep = check_aw_compat(M, window=1)
        assert rep.passed and len(calls) == 18 * 2 == 18 * len(M.window(0))


class TestQuadraticWeight:
    """A module built in code with beta = 1 + sqrt(19): the window maps s to
    a QuadExtScalar, which `specialize` raises to powers by its table."""

    def _module(self):
        ctx = PolyContext(("m", "s"))
        return PolyWeightModule(
            WITT, (QuadExtScalar(1, 1, 19),), ("u",),
            [ActionTerm(1, "u", "u", parse_poly("s + sqrt(19)*m", ctx))],
            name="quadratic")

    def test_axioms_and_annihilation(self):
        M = self._module()
        rep = check_module_axioms(M, window=1)
        assert rep.passed and rep.window_checked == 27
        assert annihilates(3, M, window=1).annihilates
        cert = annihilates(2, M, window=1)
        assert not cert.annihilates and cert.witness == (-1, -1, -1, "u")
        assert cert.window_failures[0][4] == (
            "ModuleVector((-38 + 2*sqrt(19))*u[-3])")
