"""Workload definitions: the fixed operations, the `verify_all.sh` drift
check and the seeded input generator.

Every operation is one `wittforge` CLI invocation, given as its argument
list. The fixed operations and their expected exit codes and stdout digests
live in `golden.json`; the seeded operations are generated here from the
workload seed and are checked by their exit code and `pass`/`passed` fields.
"""

from __future__ import annotations

import json
import random
import shlex
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

# Why each workload exists (kept in step with BENCHMARK.json).
WHY = {
    "identity": "PBW normal form and PolyScalar only: integer grids reuse "
                "cache entries, symbolic and solenoidal runs share little",
    "certify": "checker act windows, apply_uea, QuadExtScalar over "
               "Q(sqrt19), W_2 brackets and de Rham linalg; no PBW work",
    "cover": "interpolation, row_echelon spans, induced-action emission "
             "and pi checks; act via psi/lie_action; no PBW work",
}

# Which verify_all.sh subcommands each workload takes.
SWEEP_SUBCOMMANDS = {
    "identity": ("verify-identity",),
    "certify": ("annihilator", "module-check", "dual", "derham"),
    "cover": ("acover",),
}

# Tensor-field twists: unipotent elements of SL_2(Z), all of one size, so
# that the cost of a pass does not depend on which one the seed picks.
_UNIPOTENTS = ("1,1;0,1", "1,-1;0,1", "1,0;1,1", "1,0;-1,1")


@dataclass(frozen=True)
class Op:
    """One CLI invocation. `exit` and `sha256` are set for fixed operations;
    seeded ones (sha256 None) must exit 0 with every pass field true."""
    args: tuple
    exit: int = 0
    sha256: str | None = None


def verify_all_commands(script: str) -> list[tuple]:
    """Expand the `run ...` lines of verify_all.sh, including its `for`
    loops, into argument lists in the order the script runs them."""
    root: list = []
    stack = [root]
    for raw in script.splitlines():
        line = raw.strip()
        if line.startswith("for ") and line.endswith("do"):
            head = line[4:].rsplit(";", 1)[0]
            var, _, values = head.partition(" in ")
            node = ("for", var.strip(), shlex.split(values), [])
            stack[-1].append(node)
            stack.append(node[3])
        elif line == "done":
            stack.pop()
        elif line.startswith("run "):
            stack[-1].append(("run", line[4:]))

    out: list = []

    def expand(items, env):
        for item in items:
            if item[0] == "run":
                text = item[1]
                for var, val in env.items():
                    text = text.replace(f"${var}", val)
                out.append(tuple(shlex.split(text)))
            else:
                _, var, values, body = item
                for val in values:
                    expand(body, {**env, var: val})

    expand(root, {})
    return out


def load_golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())["ops"]


def fixed_ops(workload: str) -> list[Op]:
    """The workload's fixed operations, the longest (as recorded) first."""
    entries = [e for e in load_golden() if e["workload"] == workload]
    entries.sort(key=lambda e: -e["seconds"])
    return [Op(tuple(e["args"]), e["exit"], e["sha256"]) for e in entries]


def drift(root: Path) -> str | None:
    """Compare the sweep operations in golden.json with verify_all.sh.
    Returns a description of the difference, or None when they agree."""
    script = (root / "scripts" / "verify_all.sh").read_text()
    want = verify_all_commands(script)
    have = [tuple(e["args"]) for e in load_golden() if e["from_verify_all"]]
    if want == have:
        return None
    missing = [" ".join(a) for a in want if a not in have]
    extra = [" ".join(a) for a in have if a not in want]
    return (f"scripts/verify_all.sh and perfbench/golden.json disagree: "
            f"not benchmarked {missing}, no longer in the script {extra}")


def _fraction(rng: random.Random, den: int) -> Fraction:
    """A non-integral rational n/den with |n/den| < 2. A fixed denominator
    keeps the cost of an operation from depending on the seed."""
    return Fraction(rng.choice([n for n in range(1 - 2 * den, 2 * den)
                                if n % den]), den)


def _density(rng: random.Random):
    """A tensor-density module T(alpha, beta) off the reducible cases:
    alpha is not in {0, 1} and beta is not an integer."""
    from wittforge.modules import tensor_density
    return tensor_density(_fraction(rng, 3), _fraction(rng, 5))


def seeded_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Generate the seed's module files under `workdir` and return the
    operations that use them. The program sees only these files and flags."""
    from wittforge.modules import module_to_json, natural_rep, tensor_field

    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)

    def write(name, M):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(module_to_json(M), sort_keys=True))
        return str(path)

    if workload == "identity":
        return []
    if workload == "certify":
        w2 = write("w2", tensor_field(natural_rep(2),
                                      (_fraction(rng, 3), _fraction(rng, 5))))
        g = rng.choice(_UNIPOTENTS)
        dens = write("density", _density(rng))
        return [Op(("twist", "--module", w2, "--g", g)),
                Op(("module-check", "--module", w2, "--aw")),
                Op(("annihilator", "--module", dens, "--m", "3")),
                Op(("module-check", "--module", dens, "--aw"))]
    if workload == "cover":
        a = write("density_a", _density(rng))
        b = write("density_b", _density(rng))
        return [Op(("acover", "--preset", "virasoro_adjoint", "--window", "7",
                    "--seed", str(rng.randrange(1 << 16)))),
                Op(("acover", "--module", a)),
                Op(("acover", "--module", b))]
    raise ValueError(f"unknown workload {workload!r}")


def workload_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """One pass: the seeded operations, then the fixed ones longest first.
    Long operations early in the pass leave time between their first run
    and the extra runs that sample_ops in run.py gives them, so that the
    two samples see different moments of a host whose speed drifts."""
    return seeded_ops(workload, seed, workdir) + fixed_ops(workload)
