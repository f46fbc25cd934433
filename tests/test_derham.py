import itertools
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from conftest import run_cli
from wittforge import linalg, modules
from wittforge.modules import (ModuleError, check_de_rham_chain, de_rham_d,
                               de_rham_homology, omega_forms)
from wittforge.scalars import PolyContext


class TestDifferential:
    def test_on_functions(self):
        M0 = omega_forms(2, 0, (Fraction(0), Fraction(0)))
        v = M0.basis_vector((2, 1), "1")
        got = de_rham_d(v)
        assert got.terms == {((2, 1), "e1"): Fraction(2),
                             ((2, 1), "e2"): Fraction(1)}

    def test_constant_function_is_closed(self):
        M0 = omega_forms(2, 0, (Fraction(0), Fraction(0)))
        assert de_rham_d(M0.basis_vector((0, 0), "1")).is_zero()

    def test_d_squared_zero_samples(self):
        for n in (2, 3, 4):
            M0 = omega_forms(n, 0, (Fraction(0),) * n)
            v = M0.basis_vector(tuple(range(1, n + 1)), "1")
            assert de_rham_d(de_rham_d(v)).is_zero()

    def test_linear_across_calls(self):
        # every image of one module's vectors lies in one target module
        M0 = omega_forms(2, 0, (Fraction(0), Fraction(0)))
        a = M0.basis_vector((2, 1), "1")
        b = M0.basis_vector((-1, 3), "1").scale(Fraction(5))
        assert de_rham_d(a + b) == de_rham_d(a) + de_rham_d(b)
        assert de_rham_d(a) == de_rham_d(a)

    def test_top_degree_rejected(self):
        # there is no Omega^{n+1} to map into
        M = omega_forms(2, 2, (Fraction(0), Fraction(0)))
        with pytest.raises(ModuleError):
            de_rham_d(M.basis_vector((3, -1), "e1^e2"))


class TestHomology:
    def test_binomial_ranks_at_zero_weight(self):
        for n in (1, 2, 3):
            ranks = de_rham_homology(n, (Fraction(0),) * n, (0,) * n)
            assert ranks == [comb(n, k) for k in range(n + 1)]

    def test_vanishes_at_nonzero_weight(self):
        assert de_rham_homology(2, (Fraction(0), Fraction(0)), (1, 0)) == [0, 0, 0]
        assert de_rham_homology(3, (Fraction(0),) * 3, (0, -2, 1)) == [0, 0, 0, 0]

    @pytest.mark.parametrize("n, beta, w", [
        (1, (0, 0), (0,)), (2, (0, 0), (0, 0, 5)), (2, (0, 0), (1,))])
    def test_wrong_lengths_are_refused(self, n, beta, w):
        # zip would truncate the longer of beta and w without a word
        with pytest.raises(ModuleError, match=f"must have length {n}"):
            de_rham_homology(n, beta, w)

    def test_vanishes_for_nonintegral_beta(self):
        assert de_rham_homology(2, (Fraction(1, 2), Fraction(0)), (0, 0)) == [0, 0, 0]


class TestChainStructure:
    def test_d_squared_and_equivariance(self):
        for n in (2, 3):
            report = check_de_rham_chain(n, mbox=1)
            assert report.passed, report.to_json()

    def test_with_nonzero_beta(self):
        report = check_de_rham_chain(2, beta=(Fraction(1, 3), Fraction(0)), mbox=1)
        assert report.passed


def _spy(monkeypatch, counts, owner, name):
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


class TestChainBuildsOnce:
    """`check_de_rham_chain` builds d at the symbolic weight once per
    degree, d at the shifted weight once per (m, degree), and each Omega^k
    action slice once per (m, direction); the gl_n data of each Omega^k
    checks its relations once per unordered pair of generators."""

    def test_cli_counts(self, monkeypatch):
        counts = Counter()
        _spy(monkeypatch, counts, modules, "_generic_action_matrix")
        _spy(monkeypatch, counts, modules, "_de_rham_matrix")
        _spy(monkeypatch, counts, linalg, "matrix_mul")
        res = run_cli(["derham", "--n", "3", "--window", "1"])
        assert res.exit_code == 0, res.output
        # 27 exponents m in [-1, 1]^3; 27 homology weights use d at k < 3
        assert counts == {"_generic_action_matrix": 27 * 3 * 4,
                          "_de_rham_matrix": 27 * 3 + 3 + 27 * 3,
                          "matrix_mul": 4 * 2 * comb(9, 2)}

    @pytest.mark.parametrize("n, mbox", [(1, 2), (2, 1), (3, 1)])
    def test_checker_counts(self, monkeypatch, n, mbox):
        counts = Counter()
        _spy(monkeypatch, counts, modules, "_generic_action_matrix")
        _spy(monkeypatch, counts, modules, "_de_rham_matrix")
        rep = check_de_rham_chain(n, mbox=mbox)
        cells = (2 * mbox + 1) ** n
        assert rep.passed
        assert rep.symbolic_checked == n - 1 + cells * n * n
        assert counts == {"_generic_action_matrix": cells * n * (n + 1),
                          "_de_rham_matrix": n + cells * n}


def _unsigned_d(n, k, svals):
    """d with every wedge sign read as +: d^2 = 0 and equivariance fail."""
    return modules.LabelMatrix(None, {
        (modules._wedge_label(subset),
         modules._wedge_label(tuple(sorted(subset + (a,))))): svals[a - 1]
        for subset in itertools.combinations(range(1, n + 1), k)
        for a in range(1, n + 1) if a not in subset})


def _reference_failures(n, mbox, d):
    """The chain's failures from the per-(m, k, a) sweep that builds every
    matrix where it is used, with `d` as the de Rham matrix."""
    mods = [omega_forms(n, k, (Fraction(0),) * n) for k in range(n + 1)]
    ctx = PolyContext(mods[0].s_symbols)
    sv = [ctx.sym(x) for x in mods[0].s_symbols]
    out = [("d^2", k) + key + (res,) for k in range(n - 1)
           for key, res in (d(n, k + 1, sv) @ d(n, k, sv)).entries()]
    for mvec in itertools.product(range(-mbox, mbox + 1), repeat=n):
        mv = [ctx.const(Fraction(x)) for x in mvec]
        smv = [s + m for s, m in zip(sv, mv)]
        for k in range(n):
            for a in range(1, n + 1):
                lhs = modules._generic_action_matrix(
                    mods[k + 1], a, {}, mv, sv) @ d(n, k, sv)
                rhs = d(n, k, smv) @ modules._generic_action_matrix(
                    mods[k], a, {}, mv, sv)
                out += [(mvec, a, k) + key + (res,)
                        for key, res in (lhs - rhs).entries()]
    return out


class TestChainNegativeControl:
    @pytest.mark.parametrize("n, mbox", [(2, 1), (3, 1)])
    def test_sign_flipped_d_fails_in_sweep_order(self, monkeypatch, n, mbox):
        monkeypatch.setattr(modules, "_de_rham_matrix", _unsigned_d)
        rep = check_de_rham_chain(n, mbox=mbox)
        assert not rep.passed and rep.window_failures == []
        assert rep.symbolic_checked == n - 1 + (2 * mbox + 1) ** n * n * n
        fails = rep.symbolic_failures
        squares = [f for f in fails if f[0] == "d^2"]
        assert squares and fails[:len(squares)] == squares
        # after d^2, the sweep runs over m, then the degree k, then the
        # direction a
        exps = list(itertools.product(range(-mbox, mbox + 1), repeat=n))
        order = [(exps.index(f[0]), f[2], f[1]) for f in fails[len(squares):]]
        assert order and order == sorted(order)
        assert fails == _reference_failures(n, mbox, _unsigned_d)
