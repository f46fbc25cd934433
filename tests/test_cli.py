import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import run_cli
from wittforge import modules
from wittforge.modules import build_preset, module_to_json, tensor_density


def invoke(*args):
    return run_cli(args)


def digest(res) -> str:
    return hashlib.sha256(res.stdout_bytes).hexdigest()


def json_lines(output: str):
    return [json.loads(line) for line in output.splitlines()
            if line and not line.startswith("#")]


class TestVerifyIdentity:
    def test_symbolic_pass(self):
        res = invoke("verify-identity", "--m", "2", "--r", "2")
        assert res.exit_code == 0
        recs = json_lines(res.output)
        assert recs and all(r["pass"] for r in recs)

    def test_grid_pass(self):
        res = invoke("verify-identity", "--m", "2", "--r", "2",
                     "--mode", "grid", "--range", "-1..1")
        assert res.exit_code == 0

    @pytest.mark.parametrize("args", [("--range", "-1..1"), ("--range=-1..1",)],
                             ids=["separate", "joined"])
    def test_dash_range_is_a_value(self, args):
        # a value that starts with a dash is the option's value, not an
        # unknown option; the digest is the one the click front door printed
        res = invoke("verify-identity", "--m", "2", "--r", "2",
                     "--mode", "grid", *args)
        assert res.exit_code == 0, res.output
        assert digest(res) == ("dce8da61d892c0e05727fa9a315e5d7e"
                               "4afe6b6bca6623bcb488b1964300d1be")

    def test_bad_order_is_schema_violation(self):
        res = invoke("verify-identity", "--m", "1", "--r", "2")
        assert res.exit_code == 2

    def test_bad_range_is_schema_violation(self):
        res = invoke("verify-identity", "--m", "2", "--r", "2",
                     "--mode", "grid", "--range", "oops")
        assert res.exit_code == 2

    def test_solenoidal(self):
        res = invoke("verify-identity", "--m", "2", "--r", "2",
                     "--solenoidal", "--n", "2", "--h-box", "1")
        assert res.exit_code == 0

    @pytest.mark.parametrize("args", [
        ("--mode", "grid", "--range", "2..-2"),
        ("--solenoidal", "--h-box", "-1"),
        ("--solenoidal", "--n", "0"),
        ("--solenoidal", "--n", "-1"),
        ("--solenoidal", "--mode", "grid"),
        ("--solenoidal", "--intro"),
        ("--n", "0", "--h-box", "-5"),
        ("--range", "5..1"),
        ("--solenoidal", "--n", "1", "--h-box", "0", "--range", "5..1"),
    ])
    def test_invalid_input_exits_two(self, args):
        # each of these certified nothing, or died with a traceback, and
        # still exited 0 or 1
        res = invoke("verify-identity", "--m", "2", "--r", "2", *args)
        assert res.exit_code == 2, res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("args", [
        (), ("--intro",), ("--mode", "grid", "--range", "0..0"),
        ("--solenoidal", "--h-box", "0")],
        ids=["symbolic", "intro", "grid", "solenoidal"])
    def test_high_order_records_match_the_base_order(self, args):
        # order 24 rests on the (2, 2) proof and gives the same records
        base = json_lines(invoke("verify-identity", "--m", "2", "--r", "2",
                                 *args).stdout)
        res = invoke("verify-identity", "--m", "24", "--r", "24", *args)
        assert res.exit_code == 0, res.output
        recs = json_lines(res.stdout)
        assert recs and all(r["residue_term_count"] == 0 for r in recs)
        assert [sorted(r) for r in recs] == [sorted(r) for r in base]

    def test_solenoidal_summary_names_its_mode(self):
        res = invoke("verify-identity", "--m", "2", "--r", "2",
                     "--solenoidal", "--n", "1", "--h-box", "1")
        assert res.exit_code == 0
        assert "# identity m=2 r=2 mode=solenoidal: PASS" in res.stderr


class TestAnnihilator:
    def test_passing_order(self):
        res = invoke("annihilator", "--preset", "punctured_functions",
                     "--m", "3")
        assert res.exit_code == 0
        assert json_lines(res.output)[0]["annihilates"] is True

    def test_failing_order_exits_one(self):
        # the central extension blocks order-3 annihilation
        res = invoke("annihilator", "--preset", "virasoro_adjoint",
                     "--m", "3")
        assert res.exit_code == 1
        rec = json_lines(res.output)[0]
        assert rec["annihilates"] is False and rec["witness"] is not None

    def test_requires_exactly_one_source(self):
        assert invoke("annihilator", "--m", "3").exit_code == 2

    def test_negative_order_exits_two_before_the_axiom_gate(
            self, tmp_path, monkeypatch):
        def gate(*args, **kwargs):
            raise AssertionError("the module axioms were proved")

        monkeypatch.setattr(modules, "check_module_axioms", gate)
        f = tmp_path / "m.json"
        f.write_text(json.dumps(module_to_json(
            build_preset("punctured_functions"))))
        res = invoke("annihilator", "--module", str(f), "--m", "-1")
        assert res.exit_code == 2 and res.stdout == ""
        assert "--m must be nonnegative" in res.stderr

    def test_deterministic_output(self):
        args = ("annihilator", "--preset", "punctured_functions", "--m", "3")
        assert invoke(*args).output == invoke(*args).output

    def test_emit_option_is_gone(self):
        # records are JSON lines only; --emit is an unknown option
        res = invoke("annihilator", "--preset", "punctured_functions",
                     "--m", "3", "--emit", "json")
        assert res.exit_code == 2 and res.stdout == ""
        assert "--emit" in res.stderr

    def test_internal_error_exits_four(self, monkeypatch):
        # an unexpected exception is not a refutation (exit 1)
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(modules, "annihilates", broken)
        res = invoke("annihilator", "--preset", "punctured_functions",
                     "--m", "3")
        assert res.exit_code == 4
        assert json_lines(res.output) == [{"kind": "internal_error",
                                           "type": "RuntimeError"}]
        assert "Traceback" not in res.output


# Commands that a case of `test_invalid_module_exits_two` runs, where it is
# more than module-check. An irrational beta is invalid only for the cover,
# which solves for integer modes.
_LOADING_COMMANDS = [("module-check",), ("annihilator", "--m", "2"),
                     ("dual",), ("acover", "--window", "1")]
# A beta that names a coordinate symbol is refused on load, by the checkers
# and by an annihilator order (9) that kills the length-2 preset.
_BETA_COMMANDS = [("module-check",), ("dual",),
                  ("annihilator", "--m", "9", "--window", "0")]
_CASE_COMMANDS = {"wn_rank_zero": _LOADING_COMMANDS,
                  "wn_rank_negative": _LOADING_COMMANDS,
                  "wn_rank_one": _LOADING_COMMANDS + [("twist", "--g", "1")],
                  "duplicate_fiber": _LOADING_COMMANDS,
                  "cover_irrational_beta": [("acover", "--window", "1")],
                  "cover_irrational_beta_density": [("acover", "--window",
                                                     "1")],
                  "beta_names_m": _BETA_COMMANDS,
                  "beta_names_s": _BETA_COMMANDS,
                  "beta_names_s_plus_one": _BETA_COMMANDS}


def _feigin_fuks():
    return module_to_json(build_preset("feigin_fuks_length2"))


# The file `module_to_json(tensor_field(natural_rep(1), (1/3,)))` once
# wrote: a "wn" file with n = 1, in the coordinates m1, s1. W_1 names its
# coordinates m, s, so read as W_1 these would be parameters, and the
# module check would refute a real module.
_LEGACY_W1_FIELD = {
    "algebra": {"type": "wn", "n": 1}, "beta": ["1/3"], "fiber": ["e1"],
    "name": "tensor_field(dim 1, beta (1/3))", "punctures": [],
    "restricted_support": {},
    "terms": [{"direction": 1, "src": "e1", "tgt": "e1", "poly": "m1 + s1"}]}


class TestModuleCheck:
    def test_preset_passes(self):
        res = invoke("module-check", "--preset", "virasoro_adjoint")
        assert res.exit_code == 0

    def test_corrupted_module_file_exits_one(self, tmp_path):
        data = module_to_json(build_preset("punctured_functions"))
        data["terms"][0]["poly"] = "s^2"
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(data))
        res = invoke("module-check", "--module", str(f))
        assert res.exit_code == 1

    def test_malformed_module_file_exits_two(self, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text("{not json")
        res = invoke("module-check", "--module", str(f))
        assert res.exit_code == 2

    @pytest.mark.parametrize("corrupt", [
        lambda d: d["terms"][1].update(direction=5),
        lambda d: d["punctures"].append({"offset": [1], "labels": ["x"]}),
        lambda d: d["restricted_support"].update(x=[[0]]),
        lambda d: d["terms"][1]["constraint"].update(m_coeffs=["1", "0"]),
        lambda d: d["terms"][1]["constraint"].update(s_coeffs=[]),
        lambda d: d.update(beta=[0]),
        lambda d: d["terms"][1]["constraint"].update(const=0),
        lambda d: d["punctures"].append({"offset": ["a"], "labels": ["u"]}),
        lambda d: d["restricted_support"].update(z=[["a"]]),
        lambda d: d.update(beta=["1/0"]),
        lambda d: d.update(beta="0"),
        lambda d: d.update(terms={}),
        lambda d: d.update(fiber="uz"),
        lambda d: d.update(restricted_support=[["z", [0]]]),
        lambda d: d.update(algebra={"type": "wn", "n": 0}),
        lambda d: d.update(algebra={"type": "wn", "n": -2}),
        lambda d: d.update(_LEGACY_W1_FIELD),
        lambda d: (d["fiber"].append(True),
                   d["terms"][1].update(tgt=1)),
        lambda d: d["terms"][0].update(direction=1.5),
        lambda d: d["algebra"].update(type=""),
        lambda d: d["algebra"].update(n="1"),
        lambda d: d["terms"][0].update(poly="1.5*s"),
        lambda d: d.update(beta=["sqrt(19)"]),
        lambda d: d.update(module_to_json(tensor_density(Fraction(2, 3),
                                                         Fraction(0))),
                           beta=["sqrt(19)"]),
        lambda d: d.update(module_to_json(build_preset("punctured_functions")),
                           fiber=["u", "u"]),
        lambda d: d["algebra"].update(n=2),
        lambda d: d["terms"][0].update(poly="sqrt(x)*s"),
        lambda d: d["terms"][0].update(poly="(s + m"),
        lambda d: d.update(_feigin_fuks(), beta=["m"]),
        lambda d: d.update(_feigin_fuks(), beta=["s"]),
        lambda d: d.update(_feigin_fuks(), beta=["s + 1"]),
    ], ids=["direction", "puncture_label", "support_label",
            "constraint_m_arity", "constraint_s_arity", "numeric_beta",
            "numeric_constraint", "puncture_offset", "support_offset",
            "zero_beta_denominator", "string_beta", "terms_not_list",
            "string_fiber", "support_not_object", "wn_rank_zero",
            "wn_rank_negative", "wn_rank_one", "bool_label", "float_direction",
            "unknown_algebra", "string_rank", "decimal_poly",
            "cover_irrational_beta",
            "cover_irrational_beta_density", "duplicate_fiber",
            "witt_rank_two", "sqrt_of_symbol", "unbalanced_paren",
            "beta_names_m", "beta_names_s", "beta_names_s_plus_one"])
    def test_invalid_module_exits_two(self, tmp_path, corrupt, request):
        data = module_to_json(build_preset("virasoro_adjoint"))
        corrupt(data)
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(data))
        commands = _CASE_COMMANDS.get(request.node.callspec.id,
                                      [("module-check",)])
        for command, *extra in commands:
            res = invoke(command, "--module", str(f), *extra)
            assert res.exit_code == 2, (command, res.output)

    def test_tensor_field_name_prints_rationals(self, tmp_path):
        from wittforge.modules import natural_rep, tensor_field
        M = tensor_field(natural_rep(2), (Fraction(1, 3), Fraction(0)))
        f = tmp_path / "w2.json"
        f.write_text(json.dumps(module_to_json(M)))
        res = invoke("module-check", "--module", str(f))
        assert res.exit_code == 0
        assert json_lines(res.output)[0]["module"] == \
            "tensor_field(dim 2, beta (1/3, 0))"

    @pytest.mark.parametrize("command,param", [
        ("annihilator", None), ("annihilator", "k"), ("module-check", "gm1"),
        ("annihilator", "w1"), ("acover", None), ("acover", "w1")],
        ids=["annihilator-w2", "annihilator-param_k", "module-check-param_gm1",
             "annihilator-w1", "acover-w2", "acover-w1"])
    def test_checker_error_exits_two(self, tmp_path, monkeypatch, command,
                                     param):
        # a module the checker cannot handle (a W_n module with n >= 2 for
        # the rank-1 annihilator and A-cover, a parameter named like a
        # checker symbol) is a usage error, not a refutation; a W_n module,
        # and a W_1 file of type "wn", is rejected before its module axioms
        # are proved
        from wittforge.modules import natural_rep, tensor_field
        if param == "w1":
            data = dict(module_to_json(tensor_field(natural_rep(1),
                                                    (Fraction(0),))),
                        algebra={"type": "wn", "n": 1})
        elif param is None:
            data = module_to_json(tensor_field(natural_rep(2),
                                               (Fraction(0), Fraction(0))))
        else:
            data = module_to_json(build_preset("punctured_functions"))
            data["terms"][0]["poly"] = f"s + {param}*m"
        if param in (None, "w1"):
            def gate(*args, **kwargs):
                raise AssertionError("the module axioms were proved")
            monkeypatch.setattr(modules, "check_module_axioms", gate)
        f = tmp_path / "m.json"
        f.write_text(json.dumps(data))
        extra = ("--m", "3") if command == "annihilator" else ()
        res = invoke(command, "--module", str(f), *extra)
        assert res.exit_code == 2, res.output
        if param in (None, "w1"):
            assert res.stdout == ""
            assert ("W_1 module files use type 'witt'" if param == "w1" else
                    {"annihilator": "differentiator certificates are rank-1 "
                                    "only",
                     "acover": "covers are implemented for rank-1 modules",
                     }[command]) in res.stderr


class TestOneW1Cover:
    def test_field_cover_matches_density(self, tmp_path):
        # the W_1 tensor field of the natural U is T(1, beta): acover takes
        # it and prints the density's records, but for name and label
        from wittforge.modules import natural_rep, tensor_field
        beta = Fraction(1, 5)
        outputs = []
        for M in (tensor_field(natural_rep(1), (beta,)),
                  tensor_density(1, beta)):
            f = tmp_path / "m.json"
            f.write_text(json.dumps(module_to_json(M)))
            res = invoke("acover", "--module", str(f))
            assert res.exit_code == 0, res.output
            outputs.append(res.stdout.replace(M.name, "M").replace(
                f'"{M.fiber[0]}"', '"label"'))
        assert outputs[0] == outputs[1]
        assert len(json_lines(outputs[0])) == 4


class TestNotAModule:
    """e_p v_s = (2p^2 + s) v_{s+p} breaks [e_a, e_b] = (b - a) e_{a+b}.
    module-check refutes it (exit 1); the commands that take a module as
    their input reject it (exit 2), name the first failing relation and
    print no record. The order-5 differentiator kills any action of degree
    2 in the mode, so `annihilator --m 5` once certified it."""

    DATA = {"algebra": {"type": "witt", "n": 1}, "beta": ["0"],
            "fiber": ["u"],
            "terms": [{"direction": 1, "src": "u", "tgt": "u",
                       "poly": "2*m^2 + s"}]}

    def test_module_check_refutes(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(self.DATA))
        res = invoke("module-check", "--module", str(f))
        assert res.exit_code == 1
        assert not json_lines(res.stdout)[0]["passed"]

    @pytest.mark.parametrize("args", [("annihilator", "--m", "5"),
                                      ("annihilator", "--m", "3"),
                                      ("dual",), ("acover",)],
                             ids=["annihilator-5", "annihilator-3", "dual",
                                  "acover"])
    def test_other_commands_exit_two(self, tmp_path, args):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(self.DATA))
        res = invoke(args[0], "--module", str(f), *args[1:])
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
        assert ("not a module: [x, y] v = x(y v) - y(x v) fails, first at "
                "symbolic (1, 1, 'u', 'u', '-2*gm1^2*gp1 + 2*gm1*gp1^2')"
                in res.stderr)


def _line_file(extra, n=1):
    """e_k u_s = s u_{s+k} (in every direction of W_n), plus the term
    `extra`. At beta 0 no such file is a module."""
    names = ["s"] if n == 1 else [f"s{a}" for a in range(1, n + 1)]
    return {"algebra": {"type": "witt" if n == 1 else "wn", "n": n},
            "beta": ["0"] * n, "fiber": ["u"],
            "terms": [{"direction": a, "src": "u", "tgt": "u", "poly": s}
                      for a, s in enumerate(names, 1)] + [
                {"direction": 1, "src": "u", "tgt": "u", **extra}]}


class TestConstraintLines:
    """A constraint term fires on a line. The window sweeps the offsets
    where it fires for e_0 and the exponents where it fires at offset 0;
    each file below used to pass module-check with exit 0, because the
    window sampled none of its hits. A constraint term on W_n fires on a
    hyperplane that no window covers, and is refused."""

    LINE = _line_file({"poly": "m^2", "constraint": {
        "m_coeffs": ["1"], "s_coeffs": ["1"], "const": "10"}})
    MODE = _line_file({"poly": "1", "constraint": {
        "m_coeffs": ["1"], "s_coeffs": ["0"], "const": "10"}})
    W2 = _line_file({"poly": "1", "constraint": {
        "m_coeffs": ["1", "0"], "s_coeffs": ["1", "0"], "const": "10"}}, n=2)

    @pytest.mark.parametrize("data, code", [(LINE, 1), (MODE, 1), (W2, 2)],
                             ids=["weight_line", "mode_line", "w2"])
    def test_module_check(self, tmp_path, data, code):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(data))
        res = invoke("module-check", "--module", str(f))
        assert res.exit_code == code, res.output
        if code == 1:
            assert json_lines(res.stdout)[0]["window_failures"]

    def test_annihilator_gate_refuses_the_weight_line(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(self.LINE))
        res = invoke("annihilator", "--module", str(f), "--m", "2")
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
        assert "not a module" in res.stderr


def _density_file(polys, fiber=("v",)):
    """A rank-1 file at beta 0 with the terms src -> tgt: poly of `polys`."""
    return {"algebra": {"type": "witt", "n": 1}, "beta": ["0"],
            "fiber": list(fiber),
            "terms": [{"direction": 1, "src": src, "tgt": tgt, "poly": poly}
                      for (src, tgt), poly in polys.items()]}


class TestRadicands:
    """sqrt(d) is formal, so a rational sqrt(d) read as one would make
    false refutations: `s + sqrt(4)*m - 2*m` is T(0, 0), which `s` certifies,
    but `annihilator --m 2` exited 1 on it and `acover` exited 4. Two
    radicands in one module cannot be added, and every command exited 4
    mid-check. Each such file is now refused on load."""

    FILES = {
        "sqrt4": _density_file({("v", "v"): "s + sqrt(4)*m - 2*m"}),
        "sqrt1": _density_file({("v", "v"): "s + sqrt(1)*m"}),
        "sqrt0": _density_file({("v", "v"): "s + sqrt(0)*m"}),
        "mixed": _density_file({("u", "u"): "s + sqrt(19)*m",
                                ("w", "w"): "s + sqrt(5)*m",
                                ("w", "u"): "m^3"}, fiber=("u", "w")),
    }
    COMMANDS = [("module-check",), ("annihilator", "--m", "2"), ("acover",)]

    @pytest.mark.parametrize("command", COMMANDS,
                             ids=lambda c: c[0])
    @pytest.mark.parametrize("name", sorted(FILES))
    def test_refused_on_load(self, tmp_path, name, command):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(self.FILES[name]))
        res = invoke(command[0], "--module", str(f), *command[1:])
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
        assert "cannot load module file" in res.stderr
        assert ("more than one radicand" if name == "mixed"
                else "not a perfect square") in res.stderr

    @pytest.mark.parametrize("command, code", [
        (("module-check",), 0), (("annihilator", "--m", "2"), 1),
        (("annihilator", "--m", "3"), 0)], ids=["check", "m2", "m3"])
    def test_one_irrational_radicand_is_read(self, tmp_path, command, code):
        # T(sqrt(19), 0): order 3 kills a density module, order 2 does not
        f = tmp_path / "m.json"
        f.write_text(json.dumps(_density_file({("v", "v"): "s + sqrt(19)*m"})))
        res = invoke(command[0], "--module", str(f), *command[1:])
        assert res.exit_code == code, res.output


class TestACover:
    def test_punctured(self):
        res = invoke("acover", "--preset", "punctured_functions",
                     "--window", "3")
        assert res.exit_code == 0
        recs = json_lines(res.output)
        cusp = next(r for r in recs if r["kind"] == "cuspidality")
        assert set(cusp["ranks"].values()) == {1} and cusp["passed"]
        induced = next(r for r in recs if r["kind"] == "induced_module")
        assert induced["axioms_pass"]

    def test_symbolic_density_exits_two(self, tmp_path):
        # the file loads (its beta names a parameter), and the cover refuses
        # the symbolic parameters
        f = tmp_path / "m.json"
        f.write_text(json.dumps(module_to_json(tensor_density("alpha",
                                                              "beta"))))
        res = invoke("acover", "--module", str(f))
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
        assert "covers need concrete (non-symbolic) parameters" in res.stderr

    def test_failed_emission_is_inconclusive(self, tmp_path):
        # the emitted cover of this dual misses its spare samples: exit 3,
        # not a refutation and not a usage error
        f = tmp_path / "dual.json"
        f.write_text(json.dumps(module_to_json(
            modules.graded_dual(build_preset("virasoro_adjoint")))))
        res = invoke("acover", "--module", str(f), "--window", "1")
        assert res.exit_code == 3, res.output
        last = json_lines(res.output)[-1]
        assert last == {"kind": "inconclusive",
                        "detail": "samples are not polynomial of degree "
                                  "[5, 5]: mismatch at (-3, 14)"}


class TestDeRham:
    def test_rank_two(self):
        res = invoke("derham", "--n", "2")
        assert res.exit_code == 0
        recs = json_lines(res.output)
        zero = next(r for r in recs if r.get("w") == [0, 0])
        assert zero["ranks"] == [1, 2, 1]

    def test_nonintegral_beta(self):
        res = invoke("derham", "--n", "2", "--beta", "1/2,0")
        assert res.exit_code == 0
        recs = json_lines(res.output)
        assert all(r["ranks"] == [0, 0, 0] for r in recs if "ranks" in r)

    def test_negative_beta_is_a_value(self):
        res = invoke("derham", "--n", "2", "--beta", "-1/2,0")
        assert res.exit_code == 0, res.output
        recs = json_lines(res.output)
        assert all(r["ranks"] == [0, 0, 0] for r in recs if "ranks" in r)
        assert digest(res) == ("11947a3796d1d99c80d1d8b1816bb89f"
                               "ab3fc1e7a044d8f756165b0661eaceb7")


def _jets_rep():
    return {"n": 1, "dim": 1, "cutoff": 1, "labels": ["a"],
            "matrices": [{"k": [1], "j": 1, "matrix": [[0]]}]}


class TestJets:
    def test_from_file(self, tmp_path):
        rep = {"n": 1, "dim": 2, "cutoff": 1,
               "matrices": [{"k": [1], "j": 1, "matrix": [[0, 1], [0, 0]]}]}
        f = tmp_path / "rep.json"
        f.write_text(json.dumps(rep))
        res = invoke("jets", "--rep", str(f), "--beta", "1/2")
        assert res.exit_code == 0

    def test_invalid_rep_exits_two(self, tmp_path):
        rep = {"n": 1, "dim": 2, "cutoff": 2,
               "matrices": [{"k": [1], "j": 1, "matrix": [[0, 1], [0, 0]]},
                            {"k": [2], "j": 1, "matrix": [[0, 1], [0, 0]]}]}
        f = tmp_path / "rep.json"
        f.write_text(json.dumps(rep))
        res = invoke("jets", "--rep", str(f), "--beta", "0")
        assert res.exit_code == 2

    def test_non_square_rep_exits_two(self, tmp_path):
        rep = {"n": 1, "dim": 2, "cutoff": 1,
               "matrices": [{"k": [1], "j": 1, "matrix": [[0, 1]]}]}
        f = tmp_path / "rep.json"
        f.write_text(json.dumps(rep))
        res = invoke("jets", "--rep", str(f), "--beta", "1/2")
        assert res.exit_code == 2

    def test_valid_rep_passes(self, tmp_path):
        f = tmp_path / "rep.json"
        f.write_text(json.dumps(_jets_rep()))
        assert invoke("jets", "--rep", str(f), "--beta", "0").exit_code == 0

    @pytest.mark.parametrize("corrupt", [
        lambda d: d.update(labels=["a", "b"]),
        lambda d: d.update(dim=-1, labels=[], matrices=[]),
        lambda d: d["matrices"][0].update(j=0),
        lambda d: d["matrices"][0].update(j=-1),
        lambda d: d["matrices"][0].update(j=3),
        lambda d: d["matrices"].append(d["matrices"][0]),
        lambda d: d.update(n=True),
        lambda d: d.update(dim="1"),
        lambda d: d.update(cutoff=1.7),
        lambda d: d.update(labels="a"),
        lambda d: d.update(dim=2, labels=["a", "a"], matrices=[]),
        lambda d: d.update(cutoff=-1, matrices=[]),
        lambda d: d["matrices"][0].update(k=[True]),
        lambda d: d.update(labels=[1]),
        lambda d: d["matrices"][0].update(matrix=[[True]]),
        lambda d: d["matrices"][0].update(matrix=[[0.0]]),
    ], ids=["label_count", "negative_dim", "j_zero", "j_negative",
            "j_beyond_n", "repeated_key", "bool_n", "string_dim",
            "float_cutoff", "string_labels", "duplicate_labels",
            "negative_cutoff", "bool_exponent", "integer_label",
            "bool_entry", "float_entry"])
    def test_malformed_rep_exits_two(self, tmp_path, corrupt):
        # each of these exited 0 with a PASS, or 4 with an IndexError
        data = _jets_rep()
        corrupt(data)
        f = tmp_path / "rep.json"
        f.write_text(json.dumps(data))
        res = invoke("jets", "--rep", str(f), "--beta", "0")
        assert res.exit_code == 2, res.output
        assert "Traceback" not in res.output


class TestTwistAndDual:
    def test_twist(self, tmp_path):
        from fractions import Fraction
        from wittforge.modules import natural_rep, tensor_field
        M = tensor_field(natural_rep(2), (Fraction(0), Fraction(0)))
        f = tmp_path / "tf.json"
        f.write_text(json.dumps(module_to_json(M)))
        res = invoke("twist", "--module", str(f), "--g", "1,1;0,1")
        assert res.exit_code == 0

    def test_negative_matrix_is_a_value(self, tmp_path):
        from wittforge.modules import natural_rep, tensor_field
        M = tensor_field(natural_rep(2), (Fraction(1, 3), Fraction(1, 5)))
        f = tmp_path / "w2.json"
        f.write_text(json.dumps(module_to_json(M)))
        res = invoke("twist", "--module", str(f), "--g", "-1,0;0,-1",
                     "--window", "1")
        assert res.exit_code == 0, res.output
        assert digest(res) == ("481807e535c5644c8fabe37ead20b443"
                               "0ad95094c715cb9d5e6c576e09d9e70e")

    def test_non_unimodular_exits_two(self, tmp_path):
        from fractions import Fraction
        from wittforge.modules import natural_rep, tensor_field
        M = tensor_field(natural_rep(2), (Fraction(0), Fraction(0)))
        f = tmp_path / "tf.json"
        f.write_text(json.dumps(module_to_json(M)))
        res = invoke("twist", "--module", str(f), "--g", "2,0;0,1")
        assert res.exit_code == 2

    def test_wrong_size_matrix_exits_two(self, tmp_path):
        from wittforge.modules import natural_rep, tensor_field
        M = tensor_field(natural_rep(2), (Fraction(0), Fraction(0)))
        f = tmp_path / "tf.json"
        f.write_text(json.dumps(module_to_json(M)))
        res = invoke("twist", "--module", str(f), "--g", "1")
        assert res.exit_code == 2
        assert res.stdout == ""

    def test_dual(self):
        res = invoke("dual", "--preset", "virasoro_adjoint")
        assert res.exit_code == 0

    @pytest.mark.parametrize("preset", ["punctured_functions",
                                        "virasoro_adjoint"])
    def test_round_trip_sees_punctures_and_supports(self, monkeypatch,
                                                    preset):
        # a dual that drops punctures and finite supports keeps every
        # unconstrained action polynomial and beta; its double dual is
        # still not the module
        real = modules.graded_dual

        def lossy(M):
            D = real(M)
            return modules.PolyWeightModule(D.algebra, D.beta, D.fiber,
                                            D.terms, name=D.name)

        monkeypatch.setattr(modules, "graded_dual", lossy)
        res = invoke("dual", "--preset", preset)
        assert res.exit_code == 1
        assert {"kind": "double_dual",
                "round_trip": False} in json_lines(res.stdout)

    @pytest.mark.parametrize("command", ["dual", "twist"])
    def test_constant_action_term(self, tmp_path, command):
        # a constant coefficient makes the module fail its axioms, which is
        # never a crash: `twist` reports it as records, and `dual`, which
        # takes only modules, exits 2 naming the failing relation
        from fractions import Fraction
        from wittforge.modules import natural_rep, tensor_field
        if command == "dual":
            data = module_to_json(build_preset("punctured_functions"))
            extra = ()
        else:
            data = module_to_json(tensor_field(natural_rep(2),
                                               (Fraction(0), Fraction(0))))
            extra = ("--g", "1,1;0,1")
        data["terms"].append({"direction": 1, "src": data["fiber"][0],
                              "tgt": data["fiber"][0], "poly": "1"})
        f = tmp_path / "const.json"
        f.write_text(json.dumps(data))
        res = invoke(command, "--module", str(f), *extra)
        assert isinstance(res.exception, SystemExit), res.exception
        if command == "dual":
            assert res.exit_code == 2 and res.stdout == ""
            assert "not a module" in res.stderr
        else:
            assert res.exit_code in (0, 1)
            assert json_lines(res.stdout)


class TestW2BytePins:
    """The W_2 checker path, which no golden operation covers: the stdout of
    both commands on T(natural_rep(2), (1/3, 1/5)) is pinned byte for byte."""

    @pytest.mark.parametrize("args, digest", [
        (("module-check", "--aw", "--window", "1"),
         "7954a01e4febf328b626b233a68745236ca5d57178cdb0d56941b52006be8ea3"),
        (("twist", "--g", "1,1;0,1", "--window", "1"),
         "b2214dff8e70095f9780fb85ddcb69875e609afcb1d7b9f81fe5670533d65c71"),
    ], ids=["module-check", "twist"])
    def test_stdout_digest(self, tmp_path, args, digest):
        from wittforge.modules import natural_rep, tensor_field
        M = tensor_field(natural_rep(2), (Fraction(1, 3), Fraction(1, 5)))
        f = tmp_path / "w2.json"
        f.write_text(json.dumps(module_to_json(M)))
        res = invoke(args[0], "--module", str(f), *args[1:])
        assert res.exit_code == 0, res.output
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


def _window_args(command, tmp_path):
    """Arguments that make `command` valid apart from its --window."""
    from fractions import Fraction
    from wittforge.modules import natural_rep, tensor_field
    if command == "jets":
        rep = {"n": 1, "dim": 2, "cutoff": 1,
               "matrices": [{"k": [1], "j": 1, "matrix": [[0, 1], [0, 0]]}]}
        f = tmp_path / "rep.json"
        f.write_text(json.dumps(rep))
        return ("--rep", str(f), "--beta", "1/2")
    if command == "twist":
        M = tensor_field(natural_rep(2), (Fraction(0), Fraction(0)))
        f = tmp_path / "tf.json"
        f.write_text(json.dumps(module_to_json(M)))
        return ("--module", str(f), "--g", "1,1;0,1")
    return {"annihilator": ("--preset", "punctured_functions", "--m", "3"),
            "module-check": ("--preset", "punctured_functions"),
            "acover": ("--preset", "punctured_functions"),
            "derham": ("--n", "2"),
            "dual": ("--preset", "virasoro_adjoint")}[command]


@pytest.mark.parametrize("command", ["annihilator", "module-check", "acover",
                                     "derham", "jets", "twist", "dual"])
def test_negative_window_exits_two(tmp_path, command):
    res = invoke(command, *_window_args(command, tmp_path), "--window", "-1")
    assert res.exit_code == 2
    assert "--window" in res.output


class TestSummaryLine:
    def test_stderr_summary(self):
        res = invoke("annihilator", "--preset", "punctured_functions",
                     "--m", "3")
        assert "PASS" in res.output


COMMANDS = ["verify-identity", "annihilator", "module-check", "acover",
            "derham", "jets", "twist", "dual"]


class TestParser:
    @pytest.mark.parametrize("args", [
        ("annihilator", "--preset", "punctured_functions", "--m", "3",
         "--wind", "3"),
        ("annihilator", "--preset", "punctured_functions", "--m", "3",
         "--wind=3"),
        ("annihilator", "--preset", "punctured_functions", "--m", "3", "-h"),
        (),
        ("no-such-command",),
        ("--m", "3", "annihilator", "--preset", "punctured_functions"),
        ("verify-identity", "--m", "2", "--r", "3", "--intro"),
        ("verify-identity", "--m", "2", "--r", "1", "--solenoidal"),
    ], ids=["abbreviated", "abbreviated_joined", "short_help",
            "no_command", "unknown_command", "option_before_command",
            "intro_unequal_orders", "solenoidal_order_one"])
    def test_usage_error_exits_two(self, args):
        res = invoke(*args)
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("command", [None] + COMMANDS)
    def test_help_exits_zero(self, command):
        res = invoke(*([command] if command else []), "--help")
        assert res.exit_code == 0, res.output
        assert "--help" in res.stdout and res.stderr == ""
        if command is None:
            assert all(name in res.stdout for name in COMMANDS)


ROOT = Path(__file__).resolve().parent.parent


def _src_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def test_closed_stdout_exits_quietly():
    # more than a pipe buffer of records to a reader that has gone: exit 4,
    # since lost records refute nothing (exit 1 would claim a witness), with
    # one stderr line, no traceback and no internal_error record
    proc = subprocess.Popen(
        [sys.executable, "-m", "wittforge.cli", "derham", "--n", "1",
         "--window", "1500"],
        env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    stderr = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 4, stderr
    assert stderr == "# stdout closed\n"


@pytest.mark.parametrize("args, span", [
    (("verify-identity", "--m", "2", "--r", "2"),
     "enveloping.verify_key_identity"),
    (("annihilator", "--preset", "punctured_functions", "--m", "3"),
     "modules.annihilates"),
], ids=["verify-identity", "annihilator"])
def test_traced_run_spans_the_identity(tmp_path, args, span):
    # `perfbench/run.py --trace 1` runs each operation through tracer.py,
    # which imports wittforge.cli, wraps the layer modules it finds loaded
    # and calls main.main(args=..., prog_name=...)
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans),
         *args],
        env=_src_env(), capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    keys = {row[2] for row in json.loads(spans.read_text())["spans"]}
    assert span in keys


def _failing_w2_file(tmp_path):
    from wittforge.modules import natural_rep, tensor_field
    data = module_to_json(
        tensor_field(natural_rep(2), (Fraction(1, 3), Fraction(1, 5))))
    data["terms"][0]["poly"] += " + m2*s1"
    f = tmp_path / "w2_bad.json"
    f.write_text(json.dumps(data))
    return f


def test_stdout_is_independent_of_the_hash_seed(tmp_path):
    # certificates are byte-deterministic: set and dict orders must never
    # leak into them, whatever PYTHONHASHSEED the process runs under
    # (arguments, exit code): two refutations with witnesses, one pass
    commands = [
        (("module-check", "--module", str(_failing_w2_file(tmp_path)),
          "--window", "1"), 1),
        (("annihilator", "--preset", "virasoro_adjoint", "--m", "4"), 1),
        (("acover", "--preset", "punctured_functions", "--window", "7"), 0)]
    for args, code in commands:
        procs = [subprocess.Popen(
            [sys.executable, "-m", "wittforge.cli", *args],
            env=dict(_src_env(), PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            for seed in ("0", "123")]
        outs = [p.communicate(timeout=120)[0] for p in procs]
        codes = [p.returncode for p in procs]
        assert codes == [code, code], (args, codes)
        assert outs[0] and outs[0] == outs[1], args
