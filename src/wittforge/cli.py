"""Batch verification front door.

One process runs exactly one subcommand and emits newline-delimited JSON
records (deterministic ordering) plus a short summary line. Exit codes:
0 all assertions pass, 1 an assertion failed, 2 invalid configuration,
3 inconclusive (a spare sample of the emitted cover module's interpolation
missed the interpolant), 4 internal error (an unexpected exception: one
`internal_error` record naming its type, and no traceback).
"""

from __future__ import annotations

import csv as _csv
import functools
import io
import itertools
import json
import sys
from fractions import Fraction

import click
from click.core import ParameterSource

from . import cover as cover_mod
from . import modules as mod
from .enveloping import verify_key_identity, verify_solenoidal_identity
from .lie import AlgebraError, LatticeAutomorphism
from .modules import ModuleError
from .scalars import ScalarError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


class _Run:
    def __init__(self, emit: str):
        self.emit = emit
        self.records = []

    def record(self, obj: dict):
        self.records.append(obj)

    def finish(self, ok: bool, label: str, code: int | None = None):
        """Write the records and the stderr summary line, then exit with
        `code`, or by `ok` when no code is given."""
        if self.emit == "csv":
            keys = sorted({k for r in self.records for k in r})
            buf = io.StringIO()
            writer = _csv.DictWriter(buf, fieldnames=keys)
            writer.writeheader()
            for r in self.records:
                writer.writerow({k: json.dumps(v, sort_keys=True)
                                 if isinstance(v, (dict, list)) else v
                                 for k, v in r.items()})
            click.echo(buf.getvalue().rstrip("\n"))
        else:
            for r in self.records:
                click.echo(json.dumps(r, sort_keys=True))
        click.echo(f"# {label}: {'PASS' if ok else 'FAIL'}", err=True)
        sys.exit(code if code is not None else EXIT_PASS if ok else EXIT_FAIL)


def _module_source(fn):
    """The --preset / --module pair; _load_module takes exactly one."""
    fn = click.option("--module", "module_file", type=click.Path())(fn)
    return click.option("--preset", type=click.Choice(mod.PRESET_NAMES))(fn)


# A window radius; a negative one would sample nothing and still report.
_WINDOW = click.IntRange(min=0)

_emit = click.option("--emit", type=click.Choice(["json", "csv"]),
                     default="json")


def _parse_range(text: str) -> tuple:
    try:
        a, b = text.split("..")
        return int(a), int(b)
    except ValueError:
        raise click.UsageError(f"--range must look like a..b, got {text!r}")


def _parse_beta(text: str, n: int) -> tuple:
    try:
        parts = [Fraction(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"--beta must be comma-separated rationals, "
                               f"got {text!r}")
    if len(parts) != n:
        raise click.UsageError(f"--beta needs {n} entries, got {len(parts)}")
    return tuple(parts)


def _load_module(preset: str | None, module_file: str | None):
    if (preset is None) == (module_file is None):
        raise click.UsageError("give exactly one of --preset / --module")
    if preset is not None:
        try:
            return mod.build_preset(preset)
        except ModuleError as e:
            raise click.UsageError(str(e))
    try:
        with open(module_file) as f:
            data = json.load(f)
        return mod.module_from_json(data)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            ZeroDivisionError, ModuleError, ScalarError) as e:
        raise click.UsageError(f"cannot load module file: {e}")


def _module_errors(fn):
    """A ModuleError from a checker is a usage error (exit 2), never a
    refutation (exit 1)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ModuleError as e:
            raise click.UsageError(str(e))
    return wrapper


class _Main(click.Group):
    """Command group whose unexpected exceptions exit 4, so that an internal
    error never reads as a refutation (exit 1)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit,
                click.exceptions.Abort):
            raise
        except Exception as e:
            click.echo(json.dumps({"kind": "internal_error",
                                   "type": type(e).__name__}, sort_keys=True))
            sys.exit(EXIT_INTERNAL)


@click.group(cls=_Main)
def main():
    """Exact verification suites for rank-1 and W_n weight-module
    computations."""


@main.command("verify-identity")
@click.option("--m", "m", type=int, required=True)
@click.option("--r", "r", type=int, required=True)
@click.option("--mode", type=click.Choice(["symbolic", "grid"]),
              default="symbolic", show_default=True)
@click.option("--range", "range_", default="-2..2", show_default=True,
              help="grid range a..b for k,s,p,q")
@click.option("--intro", is_flag=True,
              help="check against the specialized m=r right-hand side")
@click.option("--solenoidal", is_flag=True,
              help="solenoidal variant with symbolic mu")
@click.option("--n", "n", type=int, default=2, show_default=True,
              help="rank of mu for the solenoidal variant")
@click.option("--h-box", type=int, default=2, show_default=True,
              help="sup-norm bound for the solenoidal step h")
@_emit
def cmd_verify_identity(m, r, mode, range_, intro, solenoidal, n, h_box, emit):
    """Verify the quadratic differentiator identity."""
    run = _Run(emit)
    if m < 2 or r < 2:
        raise click.UsageError("the identity requires m, r >= 2")
    if intro and m != r:
        raise click.UsageError("--intro requires m == r")
    if solenoidal and (mode == "grid" or intro):
        raise click.UsageError("--solenoidal takes neither --mode grid "
                               "nor --intro")
    given = click.get_current_context().get_parameter_source
    if not solenoidal and any(given(p) is ParameterSource.COMMANDLINE
                              for p in ("n", "h_box")):
        raise click.UsageError("--n and --h-box require --solenoidal")
    if mode != "grid" and given("range_") is ParameterSource.COMMANDLINE:
        raise click.UsageError("--range requires --mode grid")
    try:
        if solenoidal:
            report = verify_solenoidal_identity(m, r, n=n, h_box=h_box)
        else:
            report = verify_key_identity(m, r, mode=mode,
                                         grid_range=_parse_range(range_),
                                         intro_form=intro)
    except AlgebraError as e:
        raise click.UsageError(str(e))
    for rec in report.records:
        run.record(rec.to_json())
    label = "solenoidal" if solenoidal else mode
    run.finish(report.passed, f"identity m={m} r={r} mode={label}")


@main.command("annihilator")
@_module_source
@click.option("--m", "m", type=int, required=True,
              help="differentiator order")
@click.option("--window", type=_WINDOW, default=3, show_default=True)
@_emit
@_module_errors
def cmd_annihilator(preset, module_file, m, window, emit):
    """Certify whether the order-m differentiators kill a module."""
    M = _load_module(preset, module_file)
    if m < 0:
        raise click.UsageError("--m must be nonnegative")
    run = _Run(emit)
    cert = mod.annihilates(m, M, window=window)
    run.record(cert.to_json())
    run.finish(cert.annihilates, f"annihilator m={m} on {M.name}")


@main.command("module-check")
@_module_source
@click.option("--window", type=_WINDOW, default=2, show_default=True)
@click.option("--aw", is_flag=True, help="also assert AW-compatibility")
@_emit
@_module_errors
def cmd_module_check(preset, module_file, window, aw, emit):
    """Run the symbolic/window module-axiom suite on a module."""
    M = _load_module(preset, module_file)
    run = _Run(emit)
    rep = mod.check_module_axioms(M, window=window)
    run.record(rep.to_json())
    ok = rep.passed
    if aw:
        awrep = mod.check_aw_compat(M, window=window)
        run.record(awrep.to_json())
        ok = ok and awrep.passed
    run.record(mod.weight_report(M, radius=window + 2))
    run.finish(ok, f"module-check {M.name}")


@main.command("acover")
@_module_source
@click.option("--window", type=_WINDOW, default=7, show_default=True,
              help="weight window radius for rank certification")
@click.option("--seed", type=int, default=0, show_default=True)
@_emit
def cmd_acover(preset, module_file, window, seed, emit):
    """Build the A-cover, certify cuspidality, and check pi."""
    M = _load_module(preset, module_file)
    run = _Run(emit)
    try:
        C = cover_mod.CoverModule(M)
        cert = cover_mod.cuspidality_certificate(
            C, range(-window, window + 1))
        run.record(cert.to_json())
        ok = cert.to_json()["passed"]
        surj = [cover_mod.pi_surjectivity_check(C, w)
                for w in range(-2, 3)]
        hom = all(cover_mod.pi_homomorphism_check(C, w) for w in (-1, 0, 2))
        run.record({"kind": "pi", "homomorphism": hom,
                    "surjectivity": surj})
        ok = ok and hom and all(s["surjective_onto_action"] for s in surj)
        induced = cover_mod.emit_induced_module(C)
        axioms = mod.check_module_axioms(induced)
        run.record({"kind": "induced_module",
                    "module": mod.module_to_json(induced),
                    "axioms_pass": axioms.passed})
        ok = ok and axioms.passed
        if preset == "virasoro_adjoint":
            rep = cover_mod.adjoint_cover_report(M, 2, 2)
            run.record({"kind": rep["kind"], "passed": rep["passed"],
                        "action_match": rep["action_match"],
                        "pi_match": rep["pi_match"]})
            ok = ok and rep["passed"]
        psr = cover_mod.pi_star_check(M, mod.graded_dual(M), samples=50,
                                      seed=seed)
        run.record({"kind": "pi_star", "passed": psr["passed"],
                    "checked": psr["checked"]})
        ok = ok and psr["passed"]
    except cover_mod.DegreeBoundError as e:
        run.record({"kind": "inconclusive", "detail": str(e)})
        run.finish(False, f"acover {M.name} (inconclusive)", EXIT_INCONCLUSIVE)
    except (cover_mod.CoverError, ModuleError) as e:
        raise click.UsageError(str(e))
    run.finish(ok, f"acover {M.name}")


@main.command("derham")
@click.option("--n", "n", type=int, required=True)
@click.option("--beta", default=None, help="comma-separated rationals")
@click.option("--window", type=_WINDOW, default=2, show_default=True)
@_emit
def cmd_derham(n, beta, window, emit):
    """Homology table of the de Rham complex plus chain checks."""
    if n < 1:
        raise click.UsageError("--n must be positive")
    bvec = _parse_beta(beta, n) if beta is not None else (Fraction(0),) * n
    run = _Run(emit)
    for w in sorted(itertools.product(range(-window, window + 1), repeat=n)):
        ranks = mod.de_rham_homology(n, bvec, w)
        run.record({"kind": "derham_ranks", "w": list(w),
                    "ranks": ranks})
    chain = mod.check_de_rham_chain(n, bvec, mbox=min(window, 2))
    run.record(chain.to_json())
    run.finish(chain.passed, f"derham n={n} beta={beta or '0'}")


def _load_jets_rep(path: str) -> mod.JPlusRepData:
    try:
        with open(path) as f:
            return mod.jets_rep_from_json(json.load(f))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            ZeroDivisionError, ModuleError) as e:
        raise click.UsageError(f"cannot load representation file: {e}")


@main.command("jets")
@click.option("--rep", "rep_file", type=click.Path(), required=True,
              help="jet-algebra representation JSON")
@click.option("--beta", required=True)
@click.option("--window", type=_WINDOW, default=2, show_default=True)
@_emit
@_module_errors
def cmd_jets(rep_file, beta, window, emit):
    """Build the jets module from a representation file and check it."""
    rho = _load_jets_rep(rep_file)
    bvec = _parse_beta(beta, rho.n)
    run = _Run(emit)
    M = mod.jets_module(rho, bvec)
    axioms = mod.check_module_axioms(M, window=window)
    aw = mod.check_aw_compat(M, window=window)
    run.record({"kind": "jets", "module": mod.module_to_json(M)})
    run.record(axioms.to_json())
    run.record(aw.to_json())
    run.finish(axioms.passed and aw.passed, f"jets n={rho.n} dim={rho.dim}")


@main.command("twist")
@click.option("--module", "module_file", type=click.Path(), required=True,
              help="W_n module JSON")
@click.option("--g", "gtext", required=True,
              help="unimodular integer matrix, rows separated by ';'")
@click.option("--window", type=_WINDOW, default=1, show_default=True)
@_emit
@_module_errors
def cmd_twist(module_file, gtext, window, emit):
    """Twist a W_n module by a torus automorphism."""
    M = _load_module(None, module_file)
    try:
        rows = [[int(x) for x in row.split(",")] for row in gtext.split(";")]
        g = LatticeAutomorphism(rows)
    except (ValueError, AlgebraError) as e:
        raise click.UsageError(f"bad --g: {e}")
    T = mod.twist(M, g)
    run = _Run(emit)
    axioms = mod.check_module_axioms(T, window=window)
    run.record({"kind": "twist", "module": mod.module_to_json(T)})
    run.record(axioms.to_json())
    run.finish(axioms.passed, "twist")


@main.command("dual")
@_module_source
@click.option("--window", type=_WINDOW, default=2, show_default=True)
@_emit
@_module_errors
def cmd_dual(preset, module_file, window, emit):
    """Graded dual of a module, with axiom check and double-dual round trip."""
    M = _load_module(preset, module_file)
    D = mod.graded_dual(M)
    run = _Run(emit)
    axioms = mod.check_module_axioms(D, window=window)
    DD = mod.graded_dual(D)
    round_trip = (mod.action_polynomials(DD) == mod.action_polynomials(M)
                  and DD.beta == M.beta)
    run.record({"kind": "dual", "module": mod.module_to_json(D)})
    run.record(axioms.to_json())
    run.record({"kind": "double_dual", "round_trip": round_trip})
    run.finish(axioms.passed and round_trip, f"dual {M.name}")


if __name__ == "__main__":
    main()
