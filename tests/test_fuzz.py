"""Fuzz of the exit-code contract on module and representation files and
on command-line options.

Each file example serialises a preset with `module_to_json`, or takes a
valid jet-algebra representation file, mutates it (wrong types, list
arities, offsets, fraction strings, missing keys) and runs the mutant
in-process through the commands that read such a file. Whatever the file
holds, a command exits 0, 1, 2 or 3: never 4, the code of an internal
error, and never with a traceback. A module file that `module-check`
refutes (exit 1) is not a module, and `annihilator` and `dual` exit 2 on it.

Each option example gives `derham`, `verify-identity`, `twist`,
`annihilator`, `acover` or `jets` a drawn subset of its options with small,
malformed or out-of-range values (at window 0, to keep the sweeps cheap).
Only `acover` can be inconclusive, so the others exit 0, 1 or 2.
"""

import copy
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import run_cli
from wittforge.modules import (PRESET_NAMES, build_preset, module_to_json,
                               natural_rep, tensor_field)

PRESET_JSON = {name: module_to_json(build_preset(name))
               for name in PRESET_NAMES}

# Valid representations of the jet algebra's nonnegative part, n = 1.
JETS_REPS = [
    {"n": 1, "dim": 2, "cutoff": 2, "labels": ["a", "b"],
     "matrices": [{"k": [1], "j": 1, "matrix": [[0, 1], [0, 0]]},
                  {"k": [2], "j": 1, "matrix": [[0, 0], [0, 0]]}]},
    {"n": 1, "dim": 1, "cutoff": 1,
     "matrices": [{"k": [1], "j": 1, "matrix": [["3/2"]]}]},
]

COMMANDS = [("module-check", "--window", "1"),
            ("annihilator", "--m", "2", "--window", "1"),
            ("dual", "--window", "1")]

# Replacement values: small integers (a large rank n would make the
# checkers' sweeps explode, which is slow, not wrong), rational and
# malformed scalar strings, and values of the wrong JSON type.
TEXT = st.sampled_from(["0", "1", "-1", "1/2", "-3/4", "2/4", "1/0", "0/5",
                        "1.5", "sqrt(19)", "m", "s", "u", "z", "x", "",
                        "m^2", "s + m", "witt", "wn"])
OTHER = st.one_of(st.integers(-2, 3),
                  st.sampled_from([None, True, 1.5, [], {}, [0], [[0]],
                                   ["0"], {"n": 1}]).map(copy.deepcopy))
# Appended to a string: a decimal point, a dangling or doubled operator,
# empty parentheses, a juxtaposed factor.
SUFFIX = st.sampled_from([".5", " -", "*", " - -1", "*()", " 2", "^", ";"])


def _replacement(draw, old):
    """A value for a leaf: of its own type more often than not."""
    if isinstance(old, str):
        kind = draw(st.sampled_from(["text", "text", "suffix", "other"]))
        if kind == "suffix":
            return old + draw(SUFFIX)
        if kind == "text":
            return draw(TEXT)
    return draw(st.one_of(TEXT, OTHER))


def _paths(node, prefix=()):
    """Every (container path, key) in a JSON tree, containers first."""
    out = []
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        out.append((prefix, key))
        out.extend(_paths(child, prefix + (key,)))
    return out


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutants(draw, originals):
    data = copy.deepcopy(draw(st.sampled_from(originals)))
    for _ in range(draw(st.integers(1, 2))):
        paths = _paths(data)
        if not paths:
            break
        path, key = draw(st.sampled_from(paths))
        parent = _at(data, path)
        op = draw(st.sampled_from(["replace", "delete", "grow"]))
        if op == "delete":
            del parent[key]
        elif op == "grow" and isinstance(parent[key], list):
            items = parent[key]
            items.append(copy.deepcopy(draw(st.sampled_from(items)))
                         if items and draw(st.booleans())
                         else draw(st.one_of(TEXT, OTHER)))
        else:
            parent[key] = _replacement(draw, parent[key])
    return data


def _run_mutant(data, commands, option) -> dict:
    """Each command's exit code on the mutant."""
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.json"
        path.write_text(json.dumps(data))
        for command, *extra in commands:
            res = run_cli([command, option, str(path), *extra])
            assert res.exit_code in (0, 1, 2, 3), (command, data, res.output)
            assert res.exception is None or isinstance(res.exception,
                                                       SystemExit)
            assert "Traceback" not in res.output
            codes[command] = res.exit_code
    return codes


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=mutants([PRESET_JSON[name] for name in PRESET_NAMES]))
def test_mutated_module_files_keep_the_exit_contract(data):
    codes = _run_mutant(data, COMMANDS, "--module")
    # a file that is not a module is bad input to every other command
    # (module-check's window 1 lies inside their gate's window 2)
    if codes["module-check"] == 1:
        assert codes["annihilator"] == codes["dual"] == 2, (data, codes)


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=mutants(JETS_REPS))
def test_mutated_jets_files_keep_the_exit_contract(data):
    _run_mutant(data, [("jets", "--beta", "0")], "--rep")


# -- command-line options -------------------------------------------------

# Integers as the parser reads them (int() of the text), kept small: a large
# --n makes the de Rham check slow, not wrong.
SMALL_INT = st.sampled_from(["-1", "0", "1", "2", "3", "03", "+1", " 2", "",
                             "x", "1.5", "1/2"])
RATIONALS = st.lists(st.sampled_from(["0", "1/2", "-1/3", "2/4", " 1", "1e2",
                                      "1/0", "1/-2", "0.5", "nan", "", "x"]),
                     max_size=4).map(",".join)
RANGES = st.sampled_from(["-1..1", "0..0", "-2..2", "0..1", " 0..1", "1..0",
                          "2..-2", "..", "1", "a..b", "-1..1..2", "1.5..2",
                          ""])
WINDOWS = st.sampled_from(["0", "0", "0", "-1", "x"])
MATRICES = st.one_of(
    st.lists(st.lists(st.integers(-2, 2), max_size=3), max_size=3).map(
        lambda rows: ";".join(",".join(map(str, row)) for row in rows)),
    st.sampled_from(["1,1;0,1", "0,1;1,0", "1,0;0,1", "-1,0;0,-1",
                     "2,1;1,1", "1,1;0", "1;0,1", "1,x;0,1", "1.0,0;0,1",
                     "1,0;0,1;", " 1,0 ; 0,1 "]))


@st.composite
def options(draw, spec, fixed=()):
    """`fixed` plus each option of `spec`: a flag drawn on or off, or an
    option omitted or given a drawn value."""
    args = list(fixed)
    for flag, values in spec:
        if values is None:
            if draw(st.booleans()):
                args.append(flag)
        else:
            value = draw(st.one_of(st.none(), values))
            if value is not None:
                args += [flag, value]
    return args


def _run_options(args, codes=(0, 1, 2)):
    res = run_cli(args)
    assert res.exit_code in codes, (args, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        args, res.exception)
    assert "Traceback" not in res.output


_OPTION_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])


@_OPTION_SETTINGS
@given(args=options([("--n", SMALL_INT), ("--beta", RATIONALS),
                     ("--window", WINDOWS)], fixed=("derham",)))
def test_derham_options_keep_the_exit_contract(args):
    _run_options(args)


@_OPTION_SETTINGS
@given(args=options([("--mode", st.sampled_from(["symbolic", "grid", "x"])),
                     ("--range", RANGES), ("--intro", None),
                     ("--solenoidal", None), ("--n", SMALL_INT),
                     ("--h-box", SMALL_INT)],
                    fixed=("verify-identity", "--m", "2", "--r", "2")))
def test_identity_options_keep_the_exit_contract(args):
    _run_options(args)


W2_JSON = json.dumps(module_to_json(
    tensor_field(natural_rep(2), (Fraction(1, 3), Fraction(1, 5)))))


@_OPTION_SETTINGS
@given(g=MATRICES)
def test_twist_matrix_keeps_the_exit_contract(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w2.json"
        path.write_text(W2_JSON)
        _run_options(["twist", "--module", str(path), "--g", g,
                      "--window", "0"])


# Differentiator orders: the annihilator's cost grows with --m, so the
# drawn orders stay small.
ORDERS = st.one_of(st.integers(-3, 16).map(str),
                   st.sampled_from(["", "x", "1.5", "+2", " 3", "1e1"]))
SEEDS = st.one_of(st.integers(-2 ** 70, 2 ** 70).map(str),
                  st.sampled_from(["", "x", "1.5", "-0", "1e3"]))


@_OPTION_SETTINGS
@given(args=options([("--preset", st.sampled_from(
                         ["punctured_functions", "virasoro_adjoint", "x"])),
                     ("--m", ORDERS), ("--window", WINDOWS)],
                    fixed=("annihilator",)))
def test_annihilator_options_keep_the_exit_contract(args):
    _run_options(args)


@settings(derandomize=True, max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(args=options([("--seed", SEEDS)],
                    fixed=("acover", "--preset", "punctured_functions",
                           "--window", "0")))
def test_acover_options_keep_the_exit_contract(args):
    _run_options(args, codes=(0, 1, 2, 3))


@_OPTION_SETTINGS
@given(args=options([("--beta", RATIONALS), ("--window", WINDOWS)]))
def test_jets_options_keep_the_exit_contract(args):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rep.json"
        path.write_text(json.dumps(JETS_REPS[0]))
        _run_options(["jets", "--rep", str(path), *args])


# One cheap, valid invocation per command; its input files are written
# for each run.
VALID_INVOCATIONS = {
    "verify-identity": ["--m", "2", "--r", "2"],
    "annihilator": ["--preset", "punctured_functions", "--m", "3",
                    "--window", "0"],
    "module-check": ["--preset", "virasoro_adjoint", "--window", "0", "--aw"],
    "acover": ["--preset", "punctured_functions", "--window", "0"],
    "derham": ["--n", "1", "--window", "0"],
    "jets": ["--rep", "{jets}", "--beta", "1/2", "--window", "0"],
    "twist": ["--module", "{w2}", "--g", "1,1;0,1", "--window", "0"],
    "dual": ["--preset", "punctured_functions", "--window", "0"],
}


@pytest.mark.parametrize("command", sorted(VALID_INVOCATIONS))
def test_emit_keeps_the_exit_contract(command, tmp_path):
    """A command's records are emitted under the exit contract."""
    files = {"jets": tmp_path / "rep.json", "w2": tmp_path / "w2.json"}
    files["jets"].write_text(json.dumps(JETS_REPS[0]))
    files["w2"].write_text(W2_JSON)
    args = [a.format(**files) for a in VALID_INVOCATIONS[command]]
    _run_options([command, *args], codes=(0, 1, 2, 3))
