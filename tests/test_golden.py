"""Byte-identity gate: the quick fixed operations of the benchmark, run
in-process, must reproduce the exit code and stdout digest recorded in
perfbench/golden.json. The file is only read here."""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from wittforge.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
# Recorded wall time under which an operation is cheap enough for Tier-1.
MAX_SECONDS = 0.6

OPS = [op for op in json.loads(GOLDEN.read_text())["ops"]
       if op["seconds"] < MAX_SECONDS]


@pytest.mark.parametrize("op", OPS, ids=[" ".join(op["args"]) for op in OPS])
def test_golden_output(op):
    res = CliRunner().invoke(main, op["args"])
    assert res.exit_code == op["exit"], res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == op["sha256"]
