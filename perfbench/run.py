"""End-to-end and per-layer benchmark of the wittforge certificate sweep.

    python3 perfbench/run.py --workload {identity,certify,cover,all}
                             --seed N --seconds S --trace {0,1}

Closed loop, one client: each operation is a fresh `python -m wittforge.cli`
process, started after the previous one exits, so every operation pays
interpreter start, import and a cold normal-form cache, as a user's does.
Children get `src/` on PYTHONPATH and PYTHONHASHSEED=0, so that traced call
counts repeat exactly. A workload is its share of the 31 commands of
`scripts/verify_all.sh` plus a few operations on inputs generated from the
seed (see workloads.py). Every operation's output is checked: fixed
operations against the exit code and stdout digest in golden.json, seeded
ones by exit 0 and true pass fields.

--trace 0 runs one pass over the workload and then, for the rest of
--seconds, more runs of its operations, most of them of the long ones
(see sample_ops). From each operation's median wall and CPU time:
  wall_s        wall time of one pass: the sum of the operations' medians
  cpu_s         user+sys CPU of one pass's child processes, likewise
  slowest_op_s  the longest operation's median wall time
  peak_rss_mb   the highest child max RSS
  setup_s       median of fresh `python -m wittforge.cli --help` processes
failed_frac (failed / attempted operation runs) is printed with them.

The times are given at a reference host speed. On a shared host the speed
of a core drifts by 20-40% over seconds to minutes, and CPU time drifts
with wall time, so raw times of the same code spread more between runs
than a regression worth catching. So the benchmark times a fixed piece of
Fraction and dict work in its own process (probe_host) just before and
just after every child process, and scales that child's wall and CPU time
by REF_PROBE_S over the mean of the two probes. The probe does not touch
wittforge, so a change to the program moves the scaled times as it moves
the raw ones. The raw medians are printed on the `#` lines as well.

--trace 1 runs one untraced pass and one pass under tracer.py, and reports
the per-layer metrics in PER_LAYER, derived from the traced spans, plus
trace.overhead_frac (traced over untraced pass wall time, minus 1). The
end-to-end metric each layer should move, and on which workload:
  scalars.PolyScalar      wall_s, slowest_op_s on identity (symbolic and
                          solenoidal runs) and on cover
  scalars.QuadExtScalar   wall_s on certify; zero on identity
  enveloping              wall_s, peak_rss_mb on identity; ~0 elsewhere
  modules.act/eval_poly   wall_s on certify and cover
  modules checkers        wall_s, slowest_op_s on certify; <checker>.window_s
                          is the concrete `act` sample under each checker
  cover                   wall_s on cover (qpv_from_function.failed counts
                          calls that raised: DegreeBoundError retries)
  linalg                  wall_s on cover and certify
  lie.Rank1Algebra.phi    wall_s on identity (grids)
  lie.bracket             wall_s on certify (W_2)
  cli.import_s            setup_s on every workload

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The line before it stamps the run with the git sha
(null outside a git checkout), a digest of src/, Python version and nproc.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
WORKLOADS = ("identity", "certify", "cover")
SETUP_RUNS = 9
# A typical probe time on the 2-CPU host the benchmark was tuned on (it read
# 0.10-0.21 s there); the value only sets the scale of the reported times.
REF_PROBE_S = 0.135

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("slowest_op_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

# Layer functions and the statistics reported for each.
_CALLS_SELF = (
    "scalars.PolyScalar.__mul__", "scalars.PolyScalar.__add__",
    "scalars.QuadExtScalar.__mul__", "scalars.QuadExtScalar.__add__",
    "enveloping.pbw_normal_form", "enveloping.UEAElement.__add__",
    "enveloping.multiply", "enveloping.differentiator",
    "modules.act", "modules.eval_poly", "cover.qpv_from_function",
    "linalg.row_echelon", "lie.bracket", "lie.Rank1Algebra.phi")
_CALLS = (
    "scalars.PolyScalar.specialize", "scalars.PolyScalar.substitute",
    "modules.apply_uea", "cover.cover_basis", "cover.induced_action",
    "linalg.solve_in_span", "lie.apply_automorphism")
_TOTAL = (
    "enveloping.verify_key_identity", "enveloping.verify_solenoidal_identity",
    "modules.apply_uea", "modules.annihilates", "modules.check_module_axioms",
    "modules.check_aw_compat", "modules.twist", "modules.graded_dual",
    "modules.de_rham_homology", "modules.check_de_rham_chain",
    "cover.cover_basis", "cover.induced_action",
    "cover.cuspidality_certificate", "cover.emit_induced_module",
    "cover.pi_homomorphism_check", "cover.pi_star_check",
    "cover.adjoint_cover_report", "cli.main")
# Checkers whose concrete `act` windows are reported as <checker>.window_s.
CHECKERS = ("modules.annihilates", "modules.check_module_axioms",
            "modules.check_aw_compat")
SELF_LAYERS = ("scalars", "enveloping", "modules", "cover", "linalg", "lie")


def _per_layer_spec() -> list:
    spec = []
    for fn in _CALLS_SELF:
        spec += [(f"{fn}.calls", "count", "lower"),
                 (f"{fn}.self_s", "s", "lower")]
    spec += [(f"{fn}.calls", "count", "lower") for fn in _CALLS]
    spec += [(f"{fn}.total_s", "s", "lower") for fn in _TOTAL]
    spec += [(f"{fn}.window_s", "s", "lower") for fn in CHECKERS]
    spec += [(f"{layer}.self_s", "s", "lower") for layer in SELF_LAYERS]
    spec += [("cover.qpv_from_function.failed", "count", "lower"),
             ("cover.interp_ok_ratio", "ratio", "higher"),
             ("cli.import_s", "s", "lower"),
             ("trace.overhead_frac", "ratio", "lower")]
    seen = set()
    return [s for s in spec if not (s[0] in seen or seen.add(s[0]))]


PER_LAYER = _per_layer_spec()

class Preflight(Exception):
    pass


def _child_env(hashseed: str = "0") -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = hashseed
    return env


def run_process(argv: list, env: dict) -> dict:
    """Run one child to completion; wall and rusage come from os.wait4."""
    err_path = WORKDIR / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
        except BaseException:  # SIGTERM or ^C: end the child, then reap it
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "exit": proc.returncode,
            "stdout": out, "stderr": err_path.read_bytes()[-2000:]}


def probe_host() -> float:
    """Seconds this process takes for a fixed piece of Fraction and dict
    work, the kind of work wittforge does: a reading of the host's speed.
    About 0.1 s, long enough that the probe's own jitter stays small."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(1, 24000):
        key = (i % 50, i % 7)
        acc[key] = acc.get(key, 0) + (Fraction(i % 97 + 1, i % 13 + 2)
                                      * Fraction(3, i))
    return time.perf_counter() - t0


def run_scaled(run, probes: list) -> tuple:
    """Call `run()`, which runs one child process, between two host probes.
    Returns its result and the scale to apply to the child's times:
    REF_PROBE_S over the mean of the two probes. `probes` carries the last
    probe over to the next call, so each gap between children has one."""
    if not probes:
        probes.append(probe_host())
    got = run()
    probes.append(probe_host())
    return got, REF_PROBE_S / ((probes[-2] + probes[-1]) / 2)


def cli_argv(op: workloads.Op, spans: Path | None) -> list:
    if spans is None:
        return [sys.executable, "-m", "wittforge.cli", *op.args]
    return [sys.executable, str(HERE / "tracer.py"), str(spans), *op.args]


_PASS_KEYS = {"pass", "passed", "annihilates", "axioms_pass", "homomorphism",
              "round_trip"}


def _pass_fields(obj):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k in _PASS_KEYS:
                yield v
            yield from _pass_fields(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _pass_fields(v)


def check(op: workloads.Op, res: dict) -> str | None:
    """None when the output is the expected one, else why not."""
    if res["exit"] != op.exit:
        return f"exit {res['exit']}, expected {op.exit}"
    if op.sha256 is not None:
        got = hashlib.sha256(res["stdout"]).hexdigest()
        return None if got == op.sha256 else f"stdout digest {got[:16]}"
    try:
        fields = [v for line in res["stdout"].splitlines()
                  for v in _pass_fields(json.loads(line))]
    except json.JSONDecodeError as e:
        return f"stdout is not JSON lines: {e}"
    if not fields or not all(v is True for v in fields):
        return f"pass fields {fields}"
    return None


def run_op(op: workloads.Op, env: dict, spans: Path | None = None) -> tuple:
    """Run one operation and check its output: (result, failure or None)."""
    res = run_process(cli_argv(op, spans), env)
    why = check(op, res)
    if why is not None:
        why = (f"{' '.join(op.args)}: {why}; stderr tail "
               f"{res['stderr'][-300:]!r}")
    return res, why


def run_pass(ops: list, env: dict, traced: bool = False) -> dict:
    """One closed-loop pass over `ops`."""
    failures, spans = [], []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        span_path = WORKDIR / f"spans-{i}.json" if traced else None
        _, why = run_op(op, env, span_path)
        if why is not None:
            failures.append(why)
        if traced:
            spans.append(json.loads(span_path.read_text()))
            span_path.unlink()
    return {"wall": time.perf_counter() - t0, "failures": failures,
            "spans": spans}


def sample_ops(ops: list, env: dict, deadline: float) -> tuple:
    """One full pass, then, while time is left before `deadline`, another
    run of the operation that fits with the largest cost / samples**2.
    That is where one more run most shrinks the variance of the sum of
    the operations' medians, so the long operations, which dominate a pass
    and set slowest_op_s, get most of the extra samples.
    Returns each operation's results and the failures seen."""
    samples = [[] for _ in ops]
    failures = []
    probes = []

    def once(i):
        (res, why), scale = run_scaled(lambda: run_op(ops[i], env), probes)
        res["scale"] = scale
        if why is not None:
            failures.append(why)
        samples[i].append(res)

    for i in range(len(ops)):
        once(i)
    while True:
        left = deadline - time.perf_counter()
        cost = [statistics.median(r["wall"] for r in s) for s in samples]
        fits = [i for i in range(len(ops)) if cost[i] <= left]
        if not fits:
            return samples, failures
        once(max(fits, key=lambda i: cost[i] / len(samples[i]) ** 2))


def measure_setup(env: dict) -> list:
    """Wall times of SETUP_RUNS `--help` processes, each with its scale."""
    argv = [sys.executable, "-m", "wittforge.cli", "--help"]
    run_process(argv, env)  # warm the file cache and bytecode
    times, probes = [], []
    for _ in range(SETUP_RUNS):
        res, scale = run_scaled(lambda: run_process(argv, env), probes)
        if res["exit"] != 0:
            raise RuntimeError(f"--help exited {res['exit']}: "
                               f"{res['stderr']!r}")
        times.append((res["wall"], scale))
    return times


def pass_metrics(samples: list, setup: list, scaled: bool) -> tuple:
    """wall_s, cpu_s, slowest_op_s, peak_rss_mb and setup_s from each
    operation's samples and the setup times, scaled to the reference host
    speed or not."""
    def med(key, s):
        return statistics.median(r[key] * (r["scale"] if scaled else 1)
                                 for r in s)
    walls = [med("wall", s) for s in samples]
    return (sum(walls), sum(med("cpu", s) for s in samples), max(walls),
            max(r["rss_mb"] for s in samples for r in s),
            statistics.median(t * (k if scaled else 1) for t, k in setup))


def _ancestor_keys(rows: list, row: list):
    parent = row[1]
    while parent is not None:
        yield rows[parent][2]
        parent = rows[parent][1]


def layer_metrics(docs: list) -> dict:
    """Per-layer metrics from the span files of one traced pass."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    failed = defaultdict(int)
    layer_self = defaultdict(float)
    window_s = defaultdict(float)
    for doc in docs:
        rows = doc["spans"]
        for row in rows:
            _, _, key, n, total, child, nfail = row
            calls[key] += n
            self_s[key] += total - child
            failed[key] += nfail
            layer_self[key.split(".")[0]] += total - child
            ancestors = list(_ancestor_keys(rows, row))
            if key not in ancestors:
                total_s[key] += total
            if key == "modules.act":
                outer = next((a for a in ancestors
                              if a == key or a in CHECKERS), None)
                if outer in CHECKERS:
                    window_s[outer] += total
    out = {}
    for name, unit, _ in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if stat == "calls":
            value = calls[fn]
        elif stat == "failed":
            value = failed[fn]
        elif stat == "total_s":
            value = total_s[fn]
        elif stat == "window_s":
            value = window_s[fn]
        elif stat == "self_s":
            value = self_s[fn] if "." in fn else layer_self[fn]
        else:
            continue
        out[name] = {"value": value, "unit": unit}
    qpv = "cover.qpv_from_function"
    attempts = calls[qpv]
    out["cover.interp_ok_ratio"] = {
        "value": (attempts - failed[qpv]) / attempts if attempts else 1.0,
        "unit": "ratio"}
    out["cli.import_s"] = {
        "value": statistics.median(d["import_s"] for d in docs), "unit": "s"}
    return out


def stamp() -> dict:
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wittforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def preflight() -> None:
    for rel in ("src/wittforge/cli.py", "scripts/verify_all.sh"):
        if not (ROOT / rel).is_file():
            raise Preflight(f"{rel} not found under {ROOT}: run from a "
                            f"checkout of the repository")
    WORKDIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Measure one workload: (result object, problems found)."""
    env = _child_env()
    problems = []
    stale = workloads.drift(ROOT)
    if stale:
        problems.append(stale)
    ops = workloads.workload_ops(name, seed, WORKDIR / f"{name}-{seed}")
    if trace:
        plain = run_pass(ops, env)
        traced = run_pass(ops, env, traced=True)
        failures = plain["failures"] + traced["failures"]
        runs = 2 * len(ops)
        metrics = layer_metrics(traced["spans"])
        metrics["trace.overhead_frac"] = {
            "value": traced["wall"] / plain["wall"] - 1, "unit": "ratio"}
        metrics = {k: metrics[k] for k, _, _ in PER_LAYER}
    else:
        deadline = time.perf_counter() + seconds
        setup = measure_setup(env)
        samples, failures = sample_ops(ops, env, deadline)
        metrics = {k: {"value": v, "unit": unit} for (k, unit), v in
                   zip(END_TO_END, pass_metrics(samples, setup, True))}
        raw = pass_metrics(samples, setup, False)
        print(f"# {name} unscaled: " + " ".join(
            f"{k}={v:.6f}" for (k, _), v in zip(END_TO_END, raw)))
        runs = sum(len(s) for s in samples)
    problems.extend(failures)
    result = {"correct": not problems, "attempted": runs,
              "failed": len(failures), "metrics": metrics}
    return result, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Exit through SystemExit, so that the running child is killed and
    # reaped (see run_process).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        preflight()
    except Preflight as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, problems = run_workload(name, args.seed, args.seconds,
                                        bool(args.trace))
        for problem in problems:
            print(f"perfbench: {name}: {problem}", file=sys.stderr)
        print(f"# {name} seed={args.seed} attempted={result['attempted']} "
              f"failed_frac={result['failed'] / result['attempted']:.4f}")
        for metric, v in result["metrics"].items():
            print(f"#   {metric:44s} {v['value']:14.6f} {v['unit']}")
        results[name] = result
    print("# stamp " + json.dumps(stamp(), sort_keys=True))
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
