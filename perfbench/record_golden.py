"""Record golden.json: the expected exit code and stdout digest of every
fixed operation.

    python3 perfbench/record_golden.py

The fixed operations are the commands of scripts/verify_all.sh, each
assigned to a workload by its subcommand, plus the expected refutation
`module-check --preset feigin_fuks_length2 --aw` (exit 1 with a witness).
Re-record only in a change that redefines the benchmark: the file is the
gate that keeps a performance change from altering any certificate.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads

EXTRA = (("certify", ("module-check", "--preset", "feigin_fuks_length2",
                      "--aw"), 1),)


def main() -> int:
    run.preflight()
    env = run._child_env()
    script = (run.ROOT / "scripts" / "verify_all.sh").read_text()
    owner = {sub: w for w, subs in workloads.SWEEP_SUBCOMMANDS.items()
             for sub in subs}
    plan = [(owner[args[0]], args, 0, True)
            for args in workloads.verify_all_commands(script)]
    plan += [(w, args, code, False) for w, args, code in EXTRA]
    entries = []
    for workload, args, expect, from_script in plan:
        res = run.run_process(run.cli_argv(workloads.Op(args), None), env)
        if res["exit"] != expect:
            print(f"{' '.join(args)} exited {res['exit']}, expected {expect}",
                  file=sys.stderr)
            return 1
        entries.append({"workload": workload, "args": list(args),
                        "exit": res["exit"],
                        "sha256": hashlib.sha256(res["stdout"]).hexdigest(),
                        "bytes": len(res["stdout"]),
                        "seconds": round(res["wall"], 2),
                        "from_verify_all": from_script})
        print(f"{res['wall']:7.2f}s exit={res['exit']} {' '.join(args)}")
    doc = {"recorded_at": run.stamp(), "ops": entries}
    workloads.GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
