"""Exact computational companion for cuspidal weight modules over the Witt
algebra, its solenoidal relatives, and W_n: PBW rewriting, differentiator
identities, polynomially-presented weight modules, A-covers, and the de Rham
complex — all over exact scalar fields."""

from .enveloping import (differentiator, pbw_normal_form, verify_key_identity,
                         verify_solenoidal_identity)
from .lie import (LatticeAutomorphism, LieElement, Rank1Algebra, WnAlgebra,
                  apply_automorphism, bracket, jacobi_check,
                  solenoidal_algebra, symbolic_witt_algebra, witt_algebra)
from .modules import (ActionTerm, Constraint, GLnRepData, JPlusRepData,
                      ModuleVector, PolyWeightModule, act, annihilates,
                      build_preset, check_aw_compat,
                      check_de_rham_chain, check_module_axioms, de_rham_d,
                      de_rham_homology, gamma_tensor_module, graded_dual,
                      jets_module, module_from_json, module_to_json,
                      natural_rep, omega_forms, tensor_density, tensor_field,
                      trivial_rep, twist, wedge_rep, weight_report)
from .cover import (CoverModule, PsiGenerator, QuasiPolyVector,
                    adjoint_cover_report, cover_basis,
                    cuspidality_certificate, emit_induced_module,
                    induced_action, pi_homomorphism_check, pi_map,
                    pi_star_check, pi_surjectivity_check, psi_evaluate)
from .scalars import (PolyContext, PolyScalar, QuadExtScalar, parse_poly,
                      parse_scalar)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
