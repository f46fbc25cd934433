#!/usr/bin/env bash
# Full verification sweep composed from the CLI. Every block emits JSON
# certificate lines on stdout and a one-line PASS/FAIL summary on stderr.
# Exit codes: 0 all pass, 1 an assertion failed, 2 bad input, 3 inconclusive,
# 4 internal error.
set -uo pipefail

# Runs from a plain checkout: the CLI is imported from this checkout's src/.
src="$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)"
export PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}"

failures=0
run() {
    echo "\$ wittforge $*" >&2
    python3 -m wittforge.cli "$@" || failures=$((failures + 1))
}

# Enveloping-algebra identities
for m in 2 3 4; do
    for r in 2 3 4; do
        run verify-identity --m "$m" --r "$r"
    done
done
run verify-identity --m 2 --r 2 --mode grid --range -2..2
run verify-identity --m 2 --r 3 --mode grid --range -2..2
run verify-identity --m 3 --r 3 --mode grid --range -2..2
run verify-identity --m 2 --r 2 --intro
run verify-identity --m 3 --r 3 --intro
run verify-identity --m 2 --r 2 --solenoidal --n 2 --h-box 2

# Annihilation orders
run annihilator --preset punctured_functions --m 3
run annihilator --preset virasoro_adjoint --m 5
run annihilator --preset feigin_fuks_length2 --m 9
run annihilator --preset feigin_fuks_length2 --m 12

# Module axioms, duals, covers
for preset in punctured_functions virasoro_adjoint feigin_fuks_length2; do
    run module-check --preset "$preset"
    run dual --preset "$preset"
done
run acover --preset punctured_functions --window 7
run acover --preset virasoro_adjoint --window 3

# De Rham complex
run derham --n 1
run derham --n 2
run derham --n 3 --window 1
run derham --n 2 --beta 1/2,0

if [ "$failures" -ne 0 ]; then
    echo "verify_all: $failures command(s) failed" >&2
    exit 1
fi
echo "verify_all: all checks passed" >&2
