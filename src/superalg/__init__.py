"""superalg: exact symbolic engine for super-commutative algebra.

Koszul-sign normal forms over exact rationals, Grassmann algebras and
GL(m|n) points, super Hopf presentations with axiom checkers, exterior
duality, bosonization, integrals, truncated hyperalgebras, and
Harish-Chandra pairs with PBW envelopes.

Each submodule is imported on first use (PEP 562): ``import superalg``
loads none of them, and ``superalg.SuperMatrix`` loads only the point layer
(``core``, ``linalg``, ``table``, ``grassmann``).
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule with the names the package exports from it
_EXPORTS = {
    "core": ("EVEN", "ODD", "GeneratorSet", "GeneratorSetMismatch", "Scalar", "SuperMonomial",
             "SuperPoly", "UnknownGenerator", "evaluate_hom"),
    "tensor": ("TensorPoly",),
    "parsing": ("ParseError", "format_poly", "parse_generator_set", "parse_poly"),
    "grassmann": ("GrassmannAlgebra", "NotAPoint", "NotInvertible", "PointSampler",
                  "SuperMatrix", "invert_element"),
    "hopf": ("HopfPresentation", "OddCotangent", "PresentationError", "additive_presentation",
             "check_hopf_axioms", "compute_W", "even_quotient", "exterior_hopf",
             "glmn_presentation"),
    "finite": ("FiniteDimHopf", "IntegralSpace", "bosonize", "check_finite_hopf_axioms",
               "dual_hopf", "dual_iso_check", "exterior_finite", "finite_from_presentation",
               "integral_space"),
    "hyper": ("TruncatedDual", "primitives", "truncated_dual"),
    "liealg": ("StructureError", "SuperLieAlgebraData"),
    "hcpair": ("TruncatedEnvelope", "abelian_pair", "build_super_lie", "sp_basis", "spo_pair",
               "truncated_envelope", "validate_hcpair"),
    "decomposition": ("decomposition_check",),
    "presfile": ("load_presentation", "parse_presentation", "print_presentation"),
    "report": ("AxiomReport", "Report"),
    "linalg": (),
    "table": (),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    """Import the submodule that defines ``name``, or is named ``name``, and cache the value."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
