"""Byte-identity gate: the quick fixed operations of the benchmark, run
in-process, must reproduce the exit code and stdout digest recorded in
perfbench/golden.json. The file is only read here."""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import run_cli

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
# Recorded wall time under which an operation is cheap enough for Tier-1.
MAX_SECONDS = 0.6
# Operations recorded as slower that Tier-1 runs too: their records are
# specialisations of one formal proof, so each takes well under a second.
DERIVED = [
    ["verify-identity", "--m", "2", "--r", "2", "--mode", "grid",
     "--range", "-2..2"],
    ["verify-identity", "--m", "2", "--r", "3", "--mode", "grid",
     "--range", "-2..2"],
    ["verify-identity", "--m", "3", "--r", "3", "--mode", "grid",
     "--range", "-2..2"],
    ["verify-identity", "--m", "2", "--r", "2", "--solenoidal", "--n", "2",
     "--h-box", "2"],
]
# Operations recorded as slower that Tier-1 runs too: the largest formal
# proofs of the identity, normal-ordered over packed integer tables. With
# them every identity digest is checked here.
PACKED = [
    ["verify-identity", "--m", "4", "--r", "4"],
    ["verify-identity", "--m", "4", "--r", "3"],
    ["verify-identity", "--m", "3", "--r", "4"],
]
# Operations recorded as slower that Tier-1 runs too: their checkers'
# concrete window sweeps evaluate each action coefficient once per module.
MEMOISED = [
    ["annihilator", "--preset", "feigin_fuks_length2", "--m", "9"],
    ["annihilator", "--preset", "feigin_fuks_length2", "--m", "12"],
]
# Operations recorded as slower that Tier-1 runs too: the cover vectors of
# the constraint-bearing preset are exact substitutions, not interpolations.
SUBSTITUTED = [
    ["acover", "--preset", "virasoro_adjoint", "--window", "3"],
]

OPS = [op for op in json.loads(GOLDEN.read_text())["ops"]
       if op["seconds"] < MAX_SECONDS
       or op["args"] in DERIVED + PACKED + MEMOISED + SUBSTITUTED]


def test_derived_ops_are_golden():
    assert sum(op["args"] in DERIVED for op in OPS) == len(DERIVED)


def test_packed_ops_are_golden():
    assert sum(op["args"] in PACKED for op in OPS) == len(PACKED)


def test_memoised_ops_are_golden():
    assert sum(op["args"] in MEMOISED for op in OPS) == len(MEMOISED)


def test_substituted_ops_are_golden():
    assert sum(op["args"] in SUBSTITUTED for op in OPS) == len(SUBSTITUTED)


@pytest.mark.parametrize("op", OPS, ids=[" ".join(op["args"]) for op in OPS])
def test_golden_output(op):
    res = run_cli(op["args"])
    assert res.exit_code == op["exit"], res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == op["sha256"]
