"""superalg: exact symbolic engine for super-commutative algebra.

Koszul-sign normal forms over exact rationals, Grassmann algebras and
GL(m|n) points, super Hopf presentations with axiom checkers, exterior
duality, bosonization, integrals, truncated hyperalgebras, and
Harish-Chandra pairs with PBW envelopes.
"""

from .core import (
    EVEN,
    ODD,
    GeneratorSet,
    GeneratorSetMismatch,
    Scalar,
    SuperMonomial,
    SuperPoly,
    UnknownGenerator,
    evaluate_hom,
)
from .tensor import TensorPoly
from .parsing import ParseError, format_poly, parse_generator_set, parse_poly
from .grassmann import (
    GrassmannAlgebra,
    NotAPoint,
    NotInvertible,
    PointSampler,
    SuperMatrix,
    invert_element,
)
from .hopf import (
    HopfPresentation,
    OddCotangent,
    PresentationError,
    additive_presentation,
    check_hopf_axioms,
    compute_W,
    even_quotient,
    exterior_hopf,
    glmn_presentation,
)
from .finite import (
    FiniteDimHopf,
    IntegralSpace,
    bosonize,
    check_finite_hopf_axioms,
    dual_hopf,
    dual_iso_check,
    exterior_finite,
    finite_from_presentation,
    integral_space,
)
from .hyper import TruncatedDual, primitives, truncated_dual
from .liealg import StructureError, SuperLieAlgebraData
from .hcpair import (
    TruncatedEnvelope,
    abelian_pair,
    build_super_lie,
    sp_basis,
    spo_pair,
    truncated_envelope,
    validate_hcpair,
)
from .decomposition import decomposition_check
from .presfile import load_presentation, parse_presentation, print_presentation
from .report import AxiomReport, Report

__version__ = "0.1.0"
