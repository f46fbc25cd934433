"""Exact computational companion for cuspidal weight modules over the Witt
algebra, its solenoidal relatives, and W_n: PBW rewriting, differentiator
identities, polynomially-presented weight modules, A-covers, and the de Rham
complex — all over exact scalar fields.

`import wittforge` loads none of the layers: the first access to a name
(`wittforge.act`, `from wittforge import act`) imports the submodule that
defines it, so a process pays only for the layers it uses.
"""

import importlib

# layer -> the names the package re-exports from it
_EXPORTS = {
    "enveloping": ("differentiator", "pbw_normal_form", "verify_key_identity",
                   "verify_solenoidal_identity"),
    "lie": ("LatticeAutomorphism", "LieElement", "Rank1Algebra", "WnAlgebra",
            "bracket", "jacobi_check", "solenoidal_algebra",
            "symbolic_witt_algebra", "witt_algebra"),
    "linalg": (),
    "modules": ("ActionTerm", "Constraint", "JPlusRepData", "ModuleVector",
                "PolyWeightModule", "act", "annihilates",
                "build_preset", "check_aw_compat", "check_de_rham_chain",
                "check_module_axioms", "de_rham_homology", "graded_dual",
                "jets_module", "module_from_json", "module_to_json",
                "natural_rep", "omega_forms", "tensor_density",
                "tensor_field", "trivial_rep", "twist", "wedge_rep",
                "weight_report"),
    "cover": ("CoverModule", "PsiGenerator", "QuasiPolyVector",
              "adjoint_cover_report", "cuspidality_certificate",
              "emit_induced_module", "induced_action", "pi_homomorphism_check",
              "pi_map", "pi_star_check", "pi_surjectivity_check",
              "psi_evaluate"),
    "scalars": ("PolyContext", "PolyScalar", "QuadExtScalar", "parse_poly",
                "parse_scalar"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items()
             for name in names}

__all__ = sorted([*_EXPORTS, *_LAYER_OF])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAYER_OF:
        return getattr(__getattr__(_LAYER_OF[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
