"""Self-tests of the benchmark itself (not part of the Tier-1 suite).

    python3 perfbench/selftest.py [spec drift corrupt calls hashseed]

spec      BENCHMARK.json names the metrics and workloads that run.py emits.
drift     verify_all.sh expands to the sweep operations in golden.json, and
          an edited script is noticed.
corrupt   a pass with one expected digest corrupted has failed_frac > 0,
          and the same pass against the true digests has none.
calls     two traced passes over the cover workload give identical calls.
hashseed  every fixed operation prints the same bytes under
          PYTHONHASHSEED 0 and 123, and those bytes match golden.json
          (about 90 s on 2 CPUs).

With no arguments all of them run. Exits 1 if any fails.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
import workloads


def test_spec():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == run.PER_LAYER


def test_drift():
    assert workloads.drift(run.ROOT) is None
    script = (run.ROOT / "scripts" / "verify_all.sh").read_text()
    edited = script.replace("run derham --n 1\n",
                            "run derham --n 1\nrun derham --n 4\n")
    assert edited != script
    got = workloads.verify_all_commands(edited)
    want = [tuple(e["args"]) for e in workloads.load_golden()
            if e["from_verify_all"]]
    assert got != want and ("derham", "--n", "4") in got


def test_corrupt():
    env = run._child_env()
    ops = workloads.fixed_ops("cover")
    clean = run.run_pass(ops, env)
    assert clean["failures"] == [], clean["failures"]
    bad = dataclasses.replace(ops[0], sha256="0" * 64)
    corrupted = run.run_pass([bad] + ops[1:], env)
    failed_frac = len(corrupted["failures"]) / len(ops)
    assert failed_frac > 0, corrupted
    assert len(corrupted["failures"]) == 1


def test_calls():
    env = run._child_env()
    ops = workloads.workload_ops("cover", 0, run.WORKDIR / "selftest")
    counts = []
    for _ in range(2):
        p = run.run_pass(ops, env, traced=True)
        assert p["failures"] == [], p["failures"]
        metrics = run.layer_metrics(p["spans"])
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith((".calls", ".failed"))})
    assert counts[0] == counts[1]
    assert counts[0]["cover.qpv_from_function.calls"] > 0


def test_hashseed():
    ops = [op for w in run.WORKLOADS for op in workloads.fixed_ops(w)]
    outputs = []
    for seed in ("0", "123"):
        env = run._child_env(seed)
        outputs.append([run.run_process(run.cli_argv(op, None), env)
                        for op in ops])
    for op, a, b in zip(ops, *outputs):
        assert a["stdout"] == b["stdout"], op.args
        assert run.check(op, a) is None, (op.args, run.check(op, a))


TESTS = {"spec": test_spec, "drift": test_drift, "corrupt": test_corrupt,
         "calls": test_calls, "hashseed": test_hashseed}


def main(names: list) -> int:
    run.preflight()
    failed = 0
    for name in names or TESTS:
        try:
            TESTS[name]()
            print(f"ok   {name}")
        except AssertionError as e:
            failed += 1
            print(f"FAIL {name}: {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
