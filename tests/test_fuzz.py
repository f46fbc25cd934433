"""Fuzz of the exit-code contract on module and representation files.

Each example serialises a preset with `module_to_json`, or takes a valid
jet-algebra representation file, mutates it (wrong types, list arities,
offsets, fraction strings, missing keys) and runs the mutant in-process
through the commands that read such a file. Whatever the file holds, a
command exits 0, 1, 2 or 3: never 4, the code of an internal error, and
never with a traceback.
"""

import copy
import json
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wittforge.cli import main
from wittforge.modules import PRESET_NAMES, build_preset, module_to_json

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


def _run_mutant(data, commands, option):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.json"
        path.write_text(json.dumps(data))
        for command, *extra in commands:
            res = CliRunner().invoke(main, [command, option, str(path),
                                            *extra])
            assert res.exit_code in (0, 1, 2, 3), (command, data, res.output)
            assert res.exception is None or isinstance(res.exception,
                                                       SystemExit)
            assert "Traceback" not in res.output


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=mutants([PRESET_JSON[name] for name in PRESET_NAMES]))
def test_mutated_module_files_keep_the_exit_contract(data):
    _run_mutant(data, COMMANDS, "--module")


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=mutants(JETS_REPS))
def test_mutated_jets_files_keep_the_exit_contract(data):
    _run_mutant(data, [("jets", "--beta", "0")], "--rep")
