"""End-to-end acceptance gate.

Each test verifies one headline numerical/algebraic claim end to end and
records a single pass/fail line, printed in the terminal summary."""

import itertools
import random
from fractions import Fraction

from _acceptance_registry import record

from wittforge.cover import (CoverModule, PsiGenerator, adjoint_cover_report,
                             cuspidality_certificate, emit_induced_module,
                             induced_action, pi_map)
from wittforge.enveloping import (generator, multiply, one, pbw_normal_form,
                                  verify_key_identity,
                                  verify_solenoidal_identity)
from wittforge.lie import (WnAlgebra, jacobi_check, symbolic_witt_algebra,
                           witt_algebra)
from wittforge.modules import (JPlusRepData, ModuleError,
                               PRESET_NAMES, action_polynomials, annihilates,
                               build_preset, check_aw_compat,
                               check_de_rham_chain, check_module_axioms,
                               de_rham_homology, graded_dual, jets_module,
                               module_from_json, module_to_json, natural_rep,
                               tensor_density, tensor_field, twist)
from wittforge.lie import LatticeAutomorphism
from math import comb

WITT = witt_algebra()


def test_criterion_01_key_identity():
    ok = True
    for m, r in itertools.product((2, 3, 4), repeat=2):
        report = verify_key_identity(m, r, mode="symbolic")
        ok = ok and report.passed
        ok = ok and all(rec.to_json()["residue_term_count"] == 0
                        for rec in report.records)
    for m, r in ((2, 2), (2, 3), (3, 3)):
        report = verify_key_identity(m, r, mode="grid", grid_range=(-2, 2))
        ok = ok and report.passed and len(report.records) == 5 ** 4
    assert record(1, "quadratic differentiator identity, symbolic {2,3,4}^2 "
                  "and exhaustive grid [-2,2]^4", ok)


def test_criterion_02_intro_specialization():
    ok = True
    for m in (2, 3):
        report = verify_key_identity(m, m, mode="symbolic", intro_form=True)
        ok = ok and report.passed
    assert record(2, "single-term specialization at m=r in {2,3}", ok)


def test_criterion_03_solenoidal_identity():
    report = verify_solenoidal_identity(2, 2, n=2, h_box=2)
    ok = report.passed and len(report.records) == 5 ** 2
    assert record(3, "solenoidal identity, symbolic mu, n=2, |h|_inf <= 2", ok)


def test_criterion_04_order_three_annihilator():
    cert3 = annihilates(3, tensor_density("alpha", "beta"))
    cert2 = annihilates(2, tensor_density("alpha", "beta"))
    ok = cert3.annihilates and not cert2.annihilates
    ok = ok and cert3.to_json()["symbolic_residues"] == []
    ok = ok and cert2.to_json()["symbolic_residues"] != []
    assert record(4, "order-3 differentiator kills symbolic density modules; "
                  "order 2 does not", ok)


def test_criterion_05_length_two_annihilators():
    F = build_preset("feigin_fuks_length2")
    c9 = annihilates(9, F)
    c8 = annihilates(8, F)
    c12 = annihilates(12, F)
    ok = c9.annihilates and c12.annihilates and not c8.annihilates
    ok = ok and c8.to_json()["witness"] is not None
    assert record(5, "length-2 preset over Q(sqrt(19)): order 9 and 12 "
                  "annihilate, order 8 emits a witness", ok)


def test_criterion_06_cover_fills_the_hole():
    P = build_preset("punctured_functions")
    C = CoverModule(P)
    ranks = [C.rank(w) for w in range(-7, 8)]
    ok = ranks == [1] * 15
    for p, j in itertools.product(range(-3, 4), range(-5, 6)):
        am = induced_action(C, p, j)
        ok = ok and am.lie_matrix == [[Fraction(j)]]
        ok = ok and am.a_matrix == [[Fraction(1)]]
    ws = C.weight_space(0)
    ok = ok and ws.rank == 1 and pi_map(ws.basis[0]).is_zero()
    assert record(6, "cover of punctured functions: rank 1 on 15 weights, "
                  "e_p theta_j = j theta_{j+p}, t^p shifts, pi kills the "
                  "restored weight-0 line", ok)


def test_criterion_07_cover_of_central_extension():
    V = build_preset("virasoro_adjoint")
    C = CoverModule(V)
    ok = [C.rank(w) for w in range(-3, 4)] == [3] * 7
    rep = adjoint_cover_report(V, pbox=3, jbox=3)
    ok = ok and rep["passed"] and rep["action_match"] and rep["pi_match"]
    assert record(7, "cover of the central-extension preset: rank 3, all "
                  "nine (tau,theta,eta) action coefficients and pi values", ok)


def test_criterion_08_de_rham():
    ok = True
    for n in (1, 2, 3):
        beta0 = (Fraction(0),) * n
        ok = ok and de_rham_homology(n, beta0, (0,) * n) == [
            comb(n, k) for k in range(n + 1)]
        for w in itertools.product(range(-1, 2), repeat=n):
            if any(w):
                ok = ok and de_rham_homology(n, beta0, w) == [0] * (n + 1)
        half = (Fraction(1, 2),) + (Fraction(0),) * (n - 1)
        for w in ((0,) * n, (1,) + (0,) * (n - 1)):
            ok = ok and de_rham_homology(n, half, w) == [0] * (n + 1)
        ok = ok and check_de_rham_chain(n, mbox=2).passed
    assert record(8, "de Rham: binomial ranks at weight 0, zero elsewhere "
                  "and for beta=(1/2,0,..); d.d=0 and equivariance on "
                  "|m|_inf <= 2 with symbolic s", ok)


def test_criterion_09_jets_cross_validation():
    U = natural_rep(2)
    beta = (Fraction(1, 3), Fraction(0))
    ok = (action_polynomials(jets_module(U, beta))
          == action_polynomials(tensor_field(U, beta)))
    assert record(9, "first-order jets with the natural gl_n block "
                  "reproduce the tensor-field action polynomials", ok)


def test_criterion_10_axiom_suites():
    ok = True
    modules = [build_preset(name) for name in PRESET_NAMES]
    modules.append(tensor_density("alpha", "beta"))
    tf = tensor_field(natural_rep(2), (Fraction(1, 2), Fraction(0)))
    modules.append(tf)
    modules.append(twist(tf, LatticeAutomorphism([[1, 1], [0, 1]])))
    modules.extend(graded_dual(build_preset(name)) for name in PRESET_NAMES)
    modules.append(emit_induced_module(
        CoverModule(build_preset("punctured_functions"))))
    modules.append(emit_induced_module(
        CoverModule(build_preset("virasoro_adjoint"))))
    for M in modules:
        report = check_module_axioms(M)
        ok = ok and report.passed and not report.symbolic_failures
    # function-algebra compatibility where the action carries one
    for M in (tf, twist(tf, LatticeAutomorphism([[0, 1], [-1, 0]]))):
        ok = ok and check_aw_compat(M).passed
    # negative controls: corrupted inputs must be rejected or fail checks
    data = module_to_json(build_preset("punctured_functions"))
    data["terms"][0]["poly"] = "s^2 + 1"
    ok = ok and not check_module_axioms(module_from_json(data)).passed
    try:
        JPlusRepData(2, 2, 1, {((1, 0), 2): [[0, 1], [1, 0]],
                               ((0, 1), 1): [[0, 1], [1, 0]]})
        ok = False
    except ModuleError:
        pass
    assert record(10, "symbolic module axioms (plus compatibility) hold for "
                  "every constructor and transformation; corrupted inputs "
                  "fail", ok)


def test_criterion_11_pbw_infrastructure():
    ok = True
    rng = random.Random(11)

    def word(alg, length):
        out = one(alg)
        for _ in range(length):
            out = multiply(out, generator(alg, (rng.randint(-3, 3),)))
        return out

    for _ in range(1000):
        x = word(WITT, rng.randint(1, 4))
        ok = ok and (pbw_normal_form(x, strategy="leftmost")
                     == pbw_normal_form(x, strategy="rightmost"))
    pts = [(k,) for k in range(-3, 4)]
    ok = ok and jacobi_check(WITT, itertools.combinations(pts, 3)).passed
    w2 = WnAlgebra(2)
    gens = [(r, a) for r in itertools.product(range(-1, 2), repeat=2)
            for a in (1, 2)]
    ok = ok and jacobi_check(w2, itertools.combinations(gens, 3)).passed
    sym = symbolic_witt_algebra(("k", "s", "p"))
    triple = tuple(sym.lattice.generator(nm) for nm in ("k", "s", "p"))
    ok = ok and jacobi_check(sym, [triple]).passed
    assert record(11, "PBW confluence on 1000 random words; Jacobi on "
                  "exhaustive boxes and symbolic triples", ok)
