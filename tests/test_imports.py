"""Every name a library module imports is read somewhere in that module,
the package imports nothing outside the standard library, a CLI command
imports only the layers it calls, loading the layers pulls in neither
`dataclasses` nor `inspect` (each command process pays for what its layers
import and run at import), and each concept has one home: row echelon in
`linalg`, constraint lines in `modules`, sparse-sum arithmetic in
`scalars.Combination`, which the Lie, enveloping and module vectors and
the label matrices of the module checkers inherit, W_1 in `modules`
and `cover` as `WnAlgebra(1)`, each Lie algebra's bracket and basis
text in its own class, and the identity's algebras in `lie`'s
constructors, its records in one specialisation loop, and the fields of
each value and record type in its `__slots__`, which `scalars.Frozen`
takes once each. The coefficient types
answer their own zero test, text and inverse, so no layer re-dispatches on
the scalar type through a helper, and `PolyScalar` has one path per ring
operation and one constructor. Helpers whose job other code does stay
deleted.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wittforge"
FILES = sorted(SRC.glob("*.py"))
LAYERS = {"cover", "enveloping", "lie", "linalg", "modules", "scalars"}


def unused_imports(source: str) -> list:
    """Names bound by an import statement anywhere in `source` that no
    expression in it reads, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for line, name in sorted(imported)
            if name not in read]


def test_scan_sees_every_module():
    assert {p.stem for p in FILES} >= LAYERS | {"__init__", "cli"}


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unused_and_local_imports():
    source = ("import os\nimport os.path as osp\nfrom typing import (Iterable,\n"
              "    Mapping as M)\n\ndef f():\n    import json\n"
              "    return M, os\n")
    assert unused_imports(source) == ["line 2: osp", "line 3: Iterable",
                                      "line 7: json"]


def echelon_calls(source: str) -> list:
    """Lines of `source` that call `row_echelon`, by name or attribute."""
    return [line for line, _ in calls_to(source, {"row_echelon"})]


@pytest.mark.parametrize("path", [p for p in FILES if p.stem != "linalg"],
                         ids=lambda p: p.name)
def test_elimination_only_in_linalg(path):
    # span questions go through linalg.span_frame / solve_in_span, which
    # echelon a family once for all its target vectors
    assert echelon_calls(path.read_text()) == []


def test_echelon_scan_flags_calls():
    source = ("from .linalg import row_echelon\nx = linalg.row_echelon(a)\n"
              "y = row_echelon(b)\nz = linalg.rank(c)\n")
    assert echelon_calls(source) == [2, 3]


def constraint_reads(source: str) -> list:
    """Lines of `source` that read an attribute `constraint` or call
    `satisfied`, by name or attribute."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)
                   and node.attr == "constraint"
                   or isinstance(node, ast.Call)
                   and "satisfied" in (getattr(node.func, "id", None),
                                       getattr(node.func, "attr", None))})


@pytest.mark.parametrize("path", [p for p in FILES if p.stem != "modules"],
                         ids=lambda p: p.name)
def test_constraints_read_only_in_modules(path):
    # where a constraint term fires is decided by the module alone:
    # PolyWeightModule.constraint_modes, exceptional_offsets and the
    # generic slice of _generic_action_matrix
    assert constraint_reads(path.read_text()) == []


def test_constraint_scan_flags_reads():
    source = ("c = t.constraint\nok = c.satisfied(m, s)\n"
              "x = satisfied(a)\ny = ActionTerm(1, u, v, p, constraint=c)\n"
              "constraint = None\nz = t.poly\n")
    assert constraint_reads(source) == [1, 2, 3]


def node_names(node) -> set:
    """The name, attribute or imported name that `node` spells."""
    return {getattr(node, key, None) for key in ("id", "attr", "name")}


def calls_to(source: str, names: set) -> list:
    """(line, name) of each call in `source` to one of `names`, by name or
    attribute, in source order."""
    return sorted((node.lineno, name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  for name in node_names(node.func) & names)


def isinstance_tests(node, classes: set) -> bool:
    """Whether `node` is an `isinstance` call naming one of `classes`."""
    return (isinstance(node, ast.Call) and "isinstance" in node_names(node.func)
            and any(node_names(x) & classes
                    for a in node.args[1:] for x in ast.walk(a)))


def rank1_presentations(source: str) -> list:
    """Lines of `source` that name `Rank1Algebra` or `witt_algebra` (as a
    name, an attribute or an import) or test `isinstance` against
    `WnAlgebra`."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if node_names(node) & {"Rank1Algebra", "witt_algebra"}
                   or isinstance_tests(node, {"WnAlgebra"})})


@pytest.mark.parametrize("layer", ["modules", "cover"])
def test_modules_live_on_wn(layer):
    # every module is over WnAlgebra(n), W_1 included; the rank-1 lattices
    # of `lie` serve the identity's PBW computations alone
    assert rank1_presentations((SRC / f"{layer}.py").read_text()) == []


def test_rank1_scan_flags_names():
    source = ("from .lie import Rank1Algebra, witt_algebra\n"
              "a = witt_algebra()\nb = lie.Rank1Algebra\n"
              "if isinstance(M.algebra, (WnAlgebra, int)):\n    pass\n"
              "c = WnAlgebra(1)\nd = isinstance(x, int)\n"
              "e = M.algebra.basis((1,), 1)\n")
    assert rank1_presentations(source) == [1, 2, 3, 4]


def algebra_dispatch(source: str) -> list:
    """Lines of `source` that test `isinstance` against `Rank1Algebra` or
    `WnAlgebra`, outside `solenoidal_embed`, whose test validates its
    input."""
    tree = ast.parse(source)
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef)
              and fn.name == "solenoidal_embed" for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if id(node) not in exempt
                  and isinstance_tests(node, {"Rank1Algebra", "WnAlgebra"}))


@pytest.mark.parametrize("layer", ["lie", "enveloping"])
def test_algebras_answer_for_their_basis(layer):
    # an algebra gives its own bracket and basis text (`_bracket`, `_text`),
    # so no code asks an element which algebra class it belongs to
    assert algebra_dispatch((SRC / f"{layer}.py").read_text()) == []


def test_algebra_dispatch_scan_flags_isinstance():
    source = ("if isinstance(alg, Rank1Algebra):\n    pass\n"
              "elif not isinstance(alg, (lie.WnAlgebra, int)):\n    pass\n"
              "ok = isinstance(x, int)\nw = WnAlgebra(1)\n"
              "def solenoidal_embed(x, target):\n"
              "    if not isinstance(x.algebra, Rank1Algebra):\n"
              "        raise AlgebraError\n"
              "def f(alg):\n    return isinstance(alg, WnAlgebra)\n")
    assert algebra_dispatch(source) == [1, 3, 11]


SUM_METHODS = {"__init__", "__add__", "__sub__", "__neg__", "scale",
               "is_zero", "__eq__"}
FORMAL_SUMS = [("lie", "LieElement"), ("enveloping", "UEAElement"),
               ("modules", "ModuleVector"), ("modules", "LabelMatrix")]


def class_node(source: str, name: str) -> ast.ClassDef:
    """The definition of class `name` in `source`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    raise LookupError(name)


def class_attributes(source: str, name: str) -> set:
    """The names that the body of class `name` in `source` defines or
    assigns."""
    names = set()
    for stmt in class_node(source, name).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


@pytest.mark.parametrize("layer, name", FORMAL_SUMS, ids=lambda x: x)
def test_formal_sums_share_one_arithmetic(layer, name):
    # LieElement, UEAElement, ModuleVector and LabelMatrix inherit the
    # sparse-sum arithmetic of scalars.Combination and define none of it
    # themselves
    source = (SRC / f"{layer}.py").read_text()
    assert class_attributes(source, name) & SUM_METHODS == set()
    assert class_attributes((SRC / "scalars.py").read_text(),
                            "Combination") >= SUM_METHODS


def test_sum_scan_flags_definitions():
    source = ("class A(B):\n    __slots__ = ()\n    def __add__(self, o):\n"
              "        pass\n    scale = B.scale\n    x: int = 0\n"
              "class C:\n    def is_zero(self):\n        pass\n")
    assert class_attributes(source, "A") == {"__slots__", "__add__", "scale",
                                             "x"}


def top_level_names(source: str) -> set:
    """The names that the module body of `source` defines or assigns."""
    names = set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return names


def names_from(source: str, module: str) -> list:
    """The names that `source` imports from the sibling module `module`."""
    return [a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module == module for a in node.names]


def test_scalar_helpers_stay_gone():
    # `not x`, `str(x)`, `str(Fraction(x))`, `Fraction(text)` and
    # `Fraction(1) / x` hold for every coefficient type
    # (tests/test_scalars.py::TestScalarContract)
    assert top_level_names((SRC / "scalars.py").read_text()) & {
        "is_zero_scalar", "scalar_str", "format_rational",
        "parse_rational"} == set()
    linalg = (SRC / "linalg.py").read_text()
    assert "_inv" not in top_level_names(linalg)
    assert names_from(linalg, "scalars") == []
    assert "isinstance" not in linalg


def test_second_spellings_stay_gone():
    # the Lagrange tables are `linalg.inverse` of the nodes' power rows, a
    # coefficient of a one-variable polynomial is read from its terms, and
    # the CLI reads every JSON input file through `cli._read_json`; the
    # element grammar and the anticommutator had no caller. A module is one
    # `PolyWeightModule` call that takes no new attribute, and its symbol
    # names are read by the polynomial grammar of `scalars`. The
    # pushforward of vector fields and the automorphism product had no
    # caller
    read = lambda layer: (SRC / f"{layer}.py").read_text()
    assert "_lagrange" not in top_level_names(read("cover"))
    assert "coefficient_of" not in class_attributes(read("scalars"),
                                                    "PolyScalar")
    assert top_level_names(read("lie")) & {
        "parse_element", "apply_automorphism"} == set()
    assert "compose" not in class_attributes(read("lie"),
                                             "LatticeAutomorphism")
    assert "anticommutator" not in top_level_names(read("enveloping"))
    assert "_load_jets_rep" not in top_level_names(read("cli"))
    assert top_level_names(read("modules")) & {
        "de_rham_d", "gamma_tensor_module"} == set()
    assert "re" not in absolute_imports(read("modules"))
    assert class_slots(read("modules"), "PolyWeightModule")
    # the solenoidal records' algebra is `lie.symbolic_witt_algebra`, whose
    # lattice is its symbols, and one loop specialises the identity's proof
    assert top_level_names(read("enveloping")) & {
        "_solenoidal_frame", "_specialised_count"} == set()
    assert function_params(read("lie"), "symbolic_witt_algebra") == [
        "symbols"]


def function_params(source: str, name: str) -> list:
    """The parameter names of the top-level function `name` in `source`."""
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            args = stmt.args
            return [a.arg for a in (*args.posonlyargs, *args.args,
                                    *args.kwonlyargs)]
    raise LookupError(name)


def test_identity_builds_no_algebra_and_two_records():
    # the identity's algebras come from `lie`'s constructors, and its
    # records from the symbolic record and the one specialisation loop
    calls = calls_to((SRC / "enveloping.py").read_text(),
                     {"Rank1Algebra", "IndexLattice", "IdentityRecord"})
    assert [name for _, name in calls if name != "IdentityRecord"] == []
    assert len(calls) <= 2


def test_call_scan_flags_hand_built_frame_and_records():
    # a hand-built rank-1 frame and three record calls are flagged; a
    # reference to a constructor or a call to `lie`'s is not
    source = ("def _solenoidal_frame(n: int):\n"
              "    alg = Rank1Algebra(IndexLattice(names), phi)\n"
              "    report.records.append(IdentityRecord(\n"
              "        mode='symbolic', m=m, r=r, tuple_values=None))\n"
              "    report.records.append(IdentityRecord(\n"
              "        mode='grid', m=m, r=r, tuple_values=(kv, sv, pv, qv)))\n"
              "    report.records.append(IdentityRecord(\n"
              "        mode='solenoidal', m=m, r=r, tuple_values=None))\n"
              "x = lie.IndexLattice\ny = symbolic_witt_algebra(names)\n")
    assert calls_to(source, {"Rank1Algebra", "IndexLattice",
                             "IdentityRecord"}) == [
        (2, "IndexLattice"), (2, "Rank1Algebra"), (3, "IdentityRecord"),
        (5, "IdentityRecord"), (7, "IdentityRecord")]
    assert function_params("def f(symbols, with_unit=True):\n    pass\n",
                           "f") == ["symbols", "with_unit"]


def class_slots(source: str, name: str) -> tuple:
    """The `__slots__` of class `name` in `source`, () if it has none."""
    for stmt in class_node(source, name).body:
        if isinstance(stmt, ast.Assign) and any(
                getattr(t, "id", None) == "__slots__" for t in stmt.targets):
            return tuple(ast.literal_eval(stmt.value))
    return ()


def field_only_constructors(source: str) -> list:
    """The classes in `source` that derive from `Frozen` and define an
    `__init__` that defaults no parameter and whose body, its docstring
    aside, only stores its parameters with `object.__setattr__`, in source
    order."""

    def stores_a_parameter(stmt, params) -> bool:
        call = getattr(stmt, "value", None)
        return (isinstance(stmt, ast.Expr) and isinstance(call, ast.Call)
                and getattr(call.func, "attr", None) == "__setattr__"
                and getattr(call.func.value, "id", None) == "object"
                and len(call.args) == 3
                and getattr(call.args[2], "id", None) in params)

    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) or not any(
                "Frozen" in node_names(b) for b in cls.bases):
            continue
        for fn in cls.body:
            if (isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
                    and not fn.args.defaults and not any(
                        fn.args.kw_defaults)):
                params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
                body = fn.body[1:] if ast.get_docstring(fn) else fn.body
                if all(stores_a_parameter(stmt, params) for stmt in body):
                    found.append(cls.name)
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_frozen_types_write_no_field_only_constructor(path):
    # `Frozen.__init__` takes each field once; a subclass writes its own
    # constructor only to check, convert or default a field
    assert field_only_constructors(path.read_text()) == []


FROZEN_RECORDS = [("modules", "CheckReport"),
                  ("modules", "AnnihilationCertificate"),
                  ("modules", "Constraint"), ("enveloping", "IdentityRecord"),
                  ("enveloping", "IdentityReport"), ("lie", "JacobiReport"),
                  ("cover", "CoverWeightSpace"), ("cover", "ActionMatrices"),
                  ("cover", "PsiGenerator")]


@pytest.mark.parametrize("layer, name", FROZEN_RECORDS, ids=lambda x: x)
def test_records_take_their_fields_from_frozen(layer, name):
    # each record lists its fields once, as `__slots__`, and its producer
    # builds it in one constructor call
    source = (SRC / f"{layer}.py").read_text()
    assert any("Frozen" in node_names(b)
               for b in class_node(source, name).bases)
    assert class_slots(source, name)
    assert "__init__" not in class_attributes(source, name)


def test_constructor_scan_flags_field_stores():
    # the constructors of `Constraint` and `PsiGenerator` before `Frozen`
    # took the fields are flagged; one that converts a field, one that
    # checks it, one that defaults it and one outside `Frozen` are not
    source = '''
class Constraint(Frozen):
    __slots__ = ("m_coeffs", "s_coeffs", "const")

    def __init__(self, m_coeffs: tuple, s_coeffs: tuple, const: Fraction):
        object.__setattr__(self, "m_coeffs", m_coeffs)
        object.__setattr__(self, "s_coeffs", s_coeffs)
        object.__setattr__(self, "const", const)

class PsiGenerator(scalars.Frozen):
    """Descriptor of psi(e_k, u_{j,t}); its cover weight is j + k."""

    __slots__ = ("k", "j", "label")

    def __init__(self, k: int, j: int, label: str):
        """The generator psi(e_k, u_j)."""
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "label", label)

class IndexLattice(Frozen):
    def __init__(self, generator_names):
        object.__setattr__(self, "generator_names", tuple(generator_names))

class WnAlgebra(Frozen):
    def __init__(self, n):
        if n < 1:
            raise AlgebraError(n)
        object.__setattr__(self, "n", n)

class ActionTerm(Frozen):
    def __init__(self, direction, src, tgt, poly, constraint=None):
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "constraint", constraint)

class Plain:
    def __init__(self, k):
        object.__setattr__(self, "k", k)
'''
    assert field_only_constructors(source) == ["Constraint", "PsiGenerator"]


def method_calls(source: str, name: str, method: str) -> set:
    """The plain names that method `method` of class `name` calls."""
    for stmt in class_node(source, name).body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == method:
            return {node.func.id for node in ast.walk(stmt)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)}
    raise LookupError(f"{name}.{method}")


def test_poly_scalar_has_one_ring_path():
    # a sum or product coerces its operand with `_coerce` and runs one term
    # loop; `__init__` builds every value and `__hash__` caches nothing
    read = (SRC / "scalars.py").read_text()
    assert "_integral" not in top_level_names(read)
    assert "_clean" not in class_attributes(read, "PolyScalar")
    assert "_hash" not in class_slots(read, "PolyScalar")
    for method in ("__add__", "__mul__"):
        assert method_calls(read, "PolyScalar", method) & {
            "isinstance", "type"} == set(), method


def test_ring_path_scan_flags_dispatch_and_slots():
    source = ("class P:\n    __slots__ = ('a', '_hash')\n"
              "    def __mul__(self, o):\n"
              "        if isinstance(o, int) and type(o) is int:\n"
              "            return f(o)\n        return self._coerce(o)\n"
              "class Q:\n    def g(self):\n        pass\n")
    assert method_calls(source, "P", "__mul__") == {"isinstance", "type", "f"}
    assert method_calls(source, "Q", "g") == set()
    assert class_slots(source, "P") == ("a", "_hash")
    assert class_slots(source, "Q") == ()


def test_helper_scans_flag_definitions_and_imports():
    source = ("from .scalars import QuadExtScalar, parse_scalar\n"
              "from . import scalars\nfrom .lie import bracket\n"
              "def scalar_str(x):\n    def inner():\n        pass\n"
              "class A:\n    pass\nB = C = 1\nfor x in y:\n    pass\n")
    assert top_level_names(source) == {"scalar_str", "A", "B", "C"}
    assert names_from(source, "scalars") == ["QuadExtScalar", "parse_scalar"]


def absolute_imports(source: str) -> list:
    """The top-level package of every absolute import in `source`."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    names = absolute_imports(path.read_text())
    assert [n for n in names if n not in sys.stdlib_module_names] == []


def test_stdlib_scan_flags_third_party_imports():
    source = ("import os.path\nfrom . import cover\nfrom .lie import x\n"
              "import click\ndef f():\n    from hypothesis import given\n")
    assert [n for n in absolute_imports(source)
            if n not in sys.stdlib_module_names] == ["click", "hypothesis"]


def loaded_after(code: str) -> list:
    """The modules that a fresh `python -S` process has loaded after running
    `code` and that it had not loaded before, sorted. -S: no site hooks, so
    every module loaded comes from `code`. A SystemExit ends `code` only."""
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              f"try:\n    exec({code!r})\nexcept SystemExit:\n    pass\n"
              "sys.stdout = sys.__stdout__\n"
              "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_third_party_module():
    loaded = {name.split(".")[0]
              for name in loaded_after("import wittforge.cli")}
    assert "click" not in loaded
    assert loaded - set(sys.stdlib_module_names) == {"wittforge"}


# modules whose import a command process would pay for and no command uses:
# `dataclasses` imports `inspect`, which imports `ast`, `dis` and `tokenize`
HEAVY = {"dataclasses", "inspect"}


def test_layers_load_neither_dataclasses_nor_inspect():
    assert HEAVY & set(loaded_after("import wittforge.cli")) == set()


def test_heavy_scan_flags_dataclasses():
    assert HEAVY <= set(loaded_after("import dataclasses"))


def layers_loaded(code: str) -> set:
    return {name.split(".")[1] for name in loaded_after(code)
            if name.split(".")[0] == "wittforge" and "." in name}


def layers_of_command(*args) -> set:
    """The layers `python -m wittforge.cli ARGS` loads, run as __main__."""
    return layers_loaded(
        f"sys.argv = ['wittforge', *{args!r}]\n"
        "import io, runpy\nsys.stdout = io.StringIO()\n"
        "runpy.run_module('wittforge.cli', run_name='__main__')")


def test_identity_loads_neither_modules_nor_cover():
    assert layers_of_command("verify-identity", "--m", "2", "--r", "2") == {
        "enveloping", "lie", "linalg", "scalars"}


@pytest.mark.parametrize("command", [("annihilator", "--m", "3"),
                                     ("module-check",), ("dual",)],
                         ids=lambda c: c[0])
def test_checker_loads_neither_cover_nor_enveloping(command):
    assert layers_of_command(*command, "--preset", "punctured_functions") == {
        "lie", "linalg", "modules", "scalars"}


def test_acover_loads_no_enveloping():
    assert layers_of_command("acover", "--preset", "punctured_functions",
                             "--window", "1") == LAYERS - {"enveloping"}


def test_help_loads_no_layer():
    assert layers_of_command("--help") == set()


def test_imported_cli_loads_every_layer():
    # perfbench/tracer.py imports wittforge.cli and wraps the layers loaded
    assert layers_loaded("import wittforge.cli") == LAYERS | {"cli"}
