"""Batch verification front door.

One process runs exactly one subcommand and emits newline-delimited JSON
records (deterministic ordering) on stdout plus a short summary line on
stderr. Exit codes: 0 all assertions pass, 1 an assertion failed, 2 invalid
configuration (an unknown command or option, a missing or malformed value,
an option that does not apply, a `--module` file that `annihilator`, `dual`
or `acover` finds is not a module), 3 inconclusive (a spare sample of the
emitted cover module's interpolation missed the interpolant), 4 internal
error (an unexpected exception: one `internal_error` record naming its type,
and no traceback) or a closed stdout (one `# stdout closed` line on stderr:
the records were not all delivered, which is no refutation).

The command line is parsed with the standard library's argparse, with three
rules of its own: the token after an option that takes a value is always
that value, even when it starts with a dash (`--range -2..2`, `--g
"-1,0;0,-1"`); an option is never abbreviated; `--help` is the only help
option. The package needs nothing outside the standard library.

Imports are per command. At the top this module imports the standard
library only, and each command imports the layers it calls when it runs:
`verify-identity` loads `enveloping` (with `lie`, `linalg` and `scalars`),
the module checkers load `modules` and no `enveloping` or `cover`, and
`acover` loads every layer but `enveloping`. A process started as `python -m
wittforge.cli` therefore compiles only what its command needs. Imported as
`wittforge.cli` instead (the console script, and perfbench/tracer.py, which
wraps the layer modules it finds loaded before it calls `main`), the module
loads all six layers at import; see the end of this file.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from fractions import Fraction

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    """Invalid configuration: printed with the command's usage, exit 2."""


class _Run:
    def __init__(self):
        self.records = []

    def record(self, obj: dict):
        self.records.append(obj)

    def finish(self, ok: bool, label: str, code: int | None = None):
        """Write the records and the stderr summary line, then exit with
        `code`, or by `ok` when no code is given."""
        sys.stdout.write("".join(json.dumps(r, sort_keys=True) + "\n"
                                 for r in self.records))
        sys.stdout.flush()
        print(f"# {label}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
        sys.exit(code if code is not None else EXIT_PASS if ok else EXIT_FAIL)


# name -> (command function, its options as (option strings, add_argument
# keywords) pairs), in registration order.
_COMMANDS = {}


def _command(name: str, *options):
    def register(fn):
        _COMMANDS[name] = (fn, options)
        return fn
    return register


def _opt(*flags, **kwargs) -> tuple:
    return flags, kwargs


def _radius(text: str) -> int:
    """A window radius; a negative one would sample nothing and still
    report."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is not in the range x>=0")
    return value


def _window(default: int, help: str | None = None) -> tuple:
    return _opt("--window", type=_radius, default=default,
                help=f"{help or 'window radius'} (default {default})")


def _preset_names() -> tuple:
    from .modules import PRESET_NAMES
    return PRESET_NAMES


# The --preset / --module pair; _load_module takes exactly one. A callable
# `choices` is called when _parser builds the command's parser, so only a
# command that takes --preset imports `modules` to list them.
_MODULE_SOURCE = (_opt("--preset", choices=_preset_names),
                  _opt("--module", dest="module_file"))

def _parse_range(text: str) -> tuple:
    try:
        a, b = text.split("..")
        return int(a), int(b)
    except ValueError:
        raise UsageError(f"--range must look like a..b, got {text!r}")


def _parse_beta(text: str, n: int) -> tuple:
    try:
        parts = [Fraction(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--beta must be comma-separated rationals, "
                         f"got {text!r}")
    if len(parts) != n:
        raise UsageError(f"--beta needs {n} entries, got {len(parts)}")
    return tuple(parts)


def _load_module(preset: str | None, module_file: str | None,
                 prove: bool = False, require=None):
    """The module of --preset or --module. With `prove`, a module file must
    pass `check_module_axioms` at its default window, or the input is not a
    module and the command exits 2 naming the first failing relation; the
    presets are modules (tests/test_modules.py pins them). `require(M)`, the
    command's own precondition, runs on a module file before that proof, so
    a module the command cannot take exits 2 without it. A ModuleError
    from `require` or the proof exits 2 through the command's
    `_module_errors`."""
    from . import modules as mod
    if (preset is None) == (module_file is None):
        raise UsageError("give exactly one of --preset / --module")
    if preset is not None:
        return mod.build_preset(preset)
    M = _read_json(module_file, mod.module_from_json, "module")
    if prove:
        if require is not None:
            require(M)
        rep = mod.check_module_axioms(M)
        if not rep.passed:
            where = "symbolic" if rep.symbolic_failures else "window"
            first = (rep.symbolic_failures or rep.window_failures)[0]
            raise UsageError(f"not a module: [x, y] v = x(y v) - y(x v) "
                             f"fails, first at {where} {first}")
    return M


def _read_json(path: str, reader, what: str):
    """`reader` applied to the JSON value in the file at `path`. A file that
    cannot be opened, parsed or read exits 2: "cannot load <what> file"."""
    from .modules import ModuleError
    from .scalars import ScalarError
    try:
        with open(path) as f:
            return reader(json.load(f))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            ZeroDivisionError, ModuleError, ScalarError) as e:
        raise UsageError(f"cannot load {what} file: {e}")


def _module_errors(fn):
    """A ModuleError from a checker is a usage error (exit 2), never a
    refutation (exit 1)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        from .modules import ModuleError
        try:
            return fn(*args, **kwargs)
        except ModuleError as e:
            raise UsageError(str(e))
    return wrapper


@_command("verify-identity",
          _opt("--m", type=int, required=True),
          _opt("--r", type=int, required=True),
          _opt("--mode", choices=["symbolic", "grid"], default="symbolic",
               help="(default symbolic)"),
          _opt("--range", dest="range_",
               help="grid range a..b for k,s,p,q, with --mode grid "
                    "(default -2..2)"),
          _opt("--intro", action="store_true",
               help="check against the specialized m=r right-hand side"),
          _opt("--solenoidal", action="store_true",
               help="solenoidal variant with symbolic mu"),
          _opt("--n", type=int,
               help="rank of mu for the solenoidal variant (default 2)"),
          _opt("--h-box", type=int,
               help="sup-norm bound for the solenoidal step h (default 2)"))
def cmd_verify_identity(m, r, mode, range_, intro, solenoidal, n, h_box):
    """Verify the quadratic differentiator identity."""
    from .enveloping import verify_key_identity, verify_solenoidal_identity
    from .lie import AlgebraError
    run = _Run()
    if solenoidal and (mode == "grid" or intro):
        raise UsageError("--solenoidal takes neither --mode grid nor --intro")
    # --n, --h-box and --range default to None, so that giving one outside
    # its mode is seen even when its value is the default
    if not solenoidal and (n is not None or h_box is not None):
        raise UsageError("--n and --h-box require --solenoidal")
    if mode != "grid" and range_ is not None:
        raise UsageError("--range requires --mode grid")
    try:
        if solenoidal:
            report = verify_solenoidal_identity(
                m, r, n=2 if n is None else n,
                h_box=2 if h_box is None else h_box)
        else:
            report = verify_key_identity(
                m, r, mode=mode, intro_form=intro,
                grid_range=_parse_range("-2..2" if range_ is None else range_))
    except AlgebraError as e:
        raise UsageError(str(e))
    for rec in report.records:
        run.record(rec.to_json())
    label = "solenoidal" if solenoidal else mode
    run.finish(report.passed, f"identity m={m} r={r} mode={label}")


@_command("annihilator", *_MODULE_SOURCE,
          _opt("--m", type=int, required=True, help="differentiator order"),
          _window(3))
@_module_errors
def cmd_annihilator(preset, module_file, m, window):
    """Certify whether the order-m differentiators kill a module."""
    from . import modules as mod
    if m < 0:
        raise UsageError("--m must be nonnegative")
    M = _load_module(preset, module_file, prove=True,
                     require=mod.require_rank1)
    run = _Run()
    cert = mod.annihilates(m, M, window=window)
    run.record(cert.to_json())
    run.finish(cert.annihilates, f"annihilator m={m} on {M.name}")


@_command("module-check", *_MODULE_SOURCE, _window(2),
          _opt("--aw", action="store_true",
               help="also assert AW-compatibility"))
@_module_errors
def cmd_module_check(preset, module_file, window, aw):
    """Run the symbolic/window module-axiom suite on a module."""
    from . import modules as mod
    M = _load_module(preset, module_file)
    run = _Run()
    rep = mod.check_module_axioms(M, window=window)
    run.record(rep.to_json())
    ok = rep.passed
    if aw:
        awrep = mod.check_aw_compat(M, window=window)
        run.record(awrep.to_json())
        ok = ok and awrep.passed
    run.record(mod.weight_report(M, radius=window + 2))
    run.finish(ok, f"module-check {M.name}")


@_command("acover", *_MODULE_SOURCE,
          _window(7, "weight window radius for rank certification"),
          _opt("--seed", type=int, default=0, help="(default 0)"))
@_module_errors
def cmd_acover(preset, module_file, window, seed):
    """Build the A-cover, certify cuspidality, and check pi."""
    from . import cover as cover_mod
    from . import modules as mod
    M = _load_module(preset, module_file, prove=True,
                     require=cover_mod.require_coverable)
    run = _Run()
    try:
        C = cover_mod.CoverModule(M)
        run.record(cover_mod.cuspidality_certificate(
            C, range(-window, window + 1)))
        surj = [cover_mod.pi_surjectivity_check(C, w)
                for w in range(-2, 3)]
        hom = all(cover_mod.pi_homomorphism_check(C, w) for w in (-1, 0, 2))
        run.record({"kind": "pi", "homomorphism": hom,
                    "surjectivity": surj})
        ok = hom and all(s["surjective_onto_action"] for s in surj)
        induced = cover_mod.emit_induced_module(C)
        axioms = mod.check_module_axioms(induced)
        run.record({"kind": "induced_module",
                    "module": mod.module_to_json(induced),
                    "axioms_pass": axioms.passed})
        ok = ok and axioms.passed
        if preset == "virasoro_adjoint":
            rep = cover_mod.adjoint_cover_report(M, 2, 2)
            run.record(rep)
            ok = ok and rep["passed"]
        psr = cover_mod.pi_star_check(M, mod.graded_dual(M), samples=50,
                                      seed=seed)
        run.record({"kind": "pi_star", "passed": psr["passed"],
                    "checked": psr["checked"]})
        ok = ok and psr["passed"]
    except cover_mod.DegreeBoundError as e:
        run.record({"kind": "inconclusive", "detail": str(e)})
        run.finish(False, f"acover {M.name} (inconclusive)", EXIT_INCONCLUSIVE)
    except cover_mod.CoverError as e:
        raise UsageError(str(e))
    run.finish(ok, f"acover {M.name}")


@_command("derham",
          _opt("--n", type=int, required=True),
          _opt("--beta", help="comma-separated rationals (default 0,...,0)"),
          _window(2))
def cmd_derham(n, beta, window):
    """Homology table of the de Rham complex plus chain checks."""
    from . import modules as mod
    if n < 1:
        raise UsageError("--n must be positive")
    bvec = _parse_beta(beta, n) if beta is not None else (Fraction(0),) * n
    run = _Run()
    for w in sorted(itertools.product(range(-window, window + 1), repeat=n)):
        ranks = mod.de_rham_homology(n, bvec, w)
        run.record({"kind": "derham_ranks", "w": list(w),
                    "ranks": ranks})
    chain = mod.check_de_rham_chain(n, bvec, mbox=min(window, 2))
    run.record(chain.to_json())
    run.finish(chain.passed, f"derham n={n} beta={beta or '0'}")


@_command("jets",
          _opt("--rep", dest="rep_file", required=True,
               help="jet-algebra representation JSON"),
          _opt("--beta", required=True), _window(2))
@_module_errors
def cmd_jets(rep_file, beta, window):
    """Build the jets module from a representation file and check it."""
    from . import modules as mod
    rho = _read_json(rep_file, mod.jets_rep_from_json, "representation")
    bvec = _parse_beta(beta, rho.n)
    run = _Run()
    M = mod.jets_module(rho, bvec)
    axioms = mod.check_module_axioms(M, window=window)
    aw = mod.check_aw_compat(M, window=window)
    run.record({"kind": "jets", "module": mod.module_to_json(M)})
    run.record(axioms.to_json())
    run.record(aw.to_json())
    run.finish(axioms.passed and aw.passed, f"jets n={rho.n} dim={rho.dim}")


@_command("twist",
          _opt("--module", dest="module_file", required=True,
               help="W_n module JSON"),
          _opt("--g", dest="gtext", required=True,
               help="unimodular integer matrix, rows separated by ';'"),
          _window(1))
@_module_errors
def cmd_twist(module_file, gtext, window):
    """Twist a W_n module by a torus automorphism."""
    from . import modules as mod
    from .lie import AlgebraError, LatticeAutomorphism
    M = _load_module(None, module_file)
    try:
        rows = [[int(x) for x in row.split(",")] for row in gtext.split(";")]
        g = LatticeAutomorphism(rows)
    except (ValueError, AlgebraError) as e:
        raise UsageError(f"bad --g: {e}")
    T = mod.twist(M, g)
    run = _Run()
    axioms = mod.check_module_axioms(T, window=window)
    run.record({"kind": "twist", "module": mod.module_to_json(T)})
    run.record(axioms.to_json())
    run.finish(axioms.passed, "twist")


@_command("dual", *_MODULE_SOURCE, _window(2))
@_module_errors
def cmd_dual(preset, module_file, window):
    """Graded dual of a module, with axiom check and double-dual round trip."""
    from . import modules as mod
    M = _load_module(preset, module_file, prove=True)
    D = mod.graded_dual(M)
    run = _Run()
    axioms = mod.check_module_axioms(D, window=window)
    DD = mod.graded_dual(D)
    round_trip = (dict(mod.module_to_json(DD), name=M.name)
                  == mod.module_to_json(M))
    run.record({"kind": "dual", "module": mod.module_to_json(D)})
    run.record(axioms.to_json())
    run.record({"kind": "double_dual", "round_trip": round_trip})
    run.finish(axioms.passed and round_trip, f"dual {M.name}")


def _parser(prog: str, command: str | None) -> tuple:
    """The parser of the command line, and the option strings that take a
    value. With a `command` it knows that command and its options; without
    one it knows every command by name only, which is all that the top-level
    help and errors show."""
    def parser_for(prog, description, **kwargs):
        p = argparse.ArgumentParser(prog=prog, description=description,
                                    add_help=False, allow_abbrev=False,
                                    **kwargs)
        p.add_argument("--help", action="help",
                       help="show this message and exit")
        return p

    parser = parser_for(prog, main.__doc__)
    commands = parser.add_subparsers(metavar="COMMAND", required=True,
                                     parser_class=parser_for)
    takes_value = set()
    for name in [command] if command else _COMMANDS:
        fn, options = _COMMANDS[name]
        sub = commands.add_parser(name, description=fn.__doc__,
                                  help=fn.__doc__)
        for flags, kwargs in options if command else ():
            if callable(kwargs.get("choices")):
                kwargs = dict(kwargs, choices=kwargs["choices"]())
            sub.add_argument(*flags, **kwargs)
            if "action" not in kwargs:
                takes_value.update(flags)
        sub.set_defaults(_command=(fn, sub))
    return parser, takes_value


def _attach_values(args: list, takes_value: set) -> list:
    """`args` with each option that takes a value joined to the token after
    it (`--range -2..2` becomes `--range=-2..2`), so that argparse reads
    that token as the value even when it starts with a dash."""
    out, i = [], 0
    while i < len(args):
        if args[i] in takes_value and i + 1 < len(args):
            out.append(f"{args[i]}={args[i + 1]}")
            i += 2
        else:
            out.append(args[i])
            i += 1
    return out


def main(args: list | None = None, prog_name: str = "wittforge") -> None:
    """Exact verification suites for rank-1 and W_n weight-module
    computations."""
    argv = sys.argv[1:] if args is None else list(args)
    # Only the named command's options are built: all of them take about
    # 2 ms, and listing the presets imports `modules`.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser, takes_value = _parser(prog_name, command)
    kwargs = vars(parser.parse_args(_attach_values(argv, takes_value)))
    fn, sub = kwargs.pop("_command")
    try:
        fn(**kwargs)
    except UsageError as e:
        sub.error(str(e))
    except BrokenPipeError:
        # the reader of stdout has gone (`| head`): write nothing more. Some
        # records were lost, which refutes nothing, so this is not exit 1.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("# stdout closed", file=sys.stderr)
        sys.exit(EXIT_INTERNAL)
    except Exception as e:
        # an internal error must never read as a refutation (exit 1)
        print(json.dumps({"kind": "internal_error",
                          "type": type(e).__name__}, sort_keys=True))
        sys.exit(EXIT_INTERNAL)


# The call `main.main(args=..., prog_name=...)`, which perfbench/tracer.py
# makes, runs the same front door.
main.main = main


if __name__ == "__main__":
    main()
else:
    # Imported, not run: perfbench/tracer.py imports this module and then
    # wraps the layer modules it finds in sys.modules, so load them all here.
    # The tracer change of ROADMAP item 5 (its install() importing each
    # layer itself) deletes this branch.
    import importlib
    for _layer in ("scalars", "linalg", "lie", "enveloping", "modules",
                   "cover"):
        importlib.import_module(f"{__package__}.{_layer}")
