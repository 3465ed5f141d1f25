"""Exact SOS certification of partial Wronskians and symmetric
matrix-pencil realizations of rational functions, with a numeric scanner
for the Herglotz slice criterion."""

from .errors import (
    CapacityError,
    InconclusiveScanError,
    InternalConsistencyError,
    NoCertificateError,
    NotRepresentableError,
    ParseError,
    PreconditionError,
    SospencilError,
    StructuralError,
)
from .exactlinalg import SymMatrix, is_psd, psd_factor
from .gramkernel import (
    KernelElement,
    defect_completion,
    kernel_basis,
    kernel_dimension_oracle,
    pairs_for_beta,
)
from .herglotz import (
    CrosscheckReport,
    ScanReport,
    crosscheck_slice_criterion,
    holomorphy_sample_check,
    slice_scan,
)
from .parsing import parse_polynomial
from .polarize import (
    SymmetricPencil,
    chain_pencil,
    cross_product_polynomial,
    pair_pencil,
    pencil_row_action,
    product_polarization,
    quadratic_form_polynomial,
    verify_pencil,
)
from .polycore import (
    MonomialBasis,
    Polynomial,
    RationalFunction,
    build_basis,
    wronskian,
)
from .realize import Realization, verify_realization, wronskian_realization
from .soscert import (
    InfeasibilityEvidence,
    SosCertificate,
    artin_certify,
    artin_minimize,
    default_artin_candidates,
    sos_certify,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CrosscheckReport",
    "InconclusiveScanError",
    "InfeasibilityEvidence",
    "InternalConsistencyError",
    "KernelElement",
    "MonomialBasis",
    "NoCertificateError",
    "NotRepresentableError",
    "ParseError",
    "Polynomial",
    "PreconditionError",
    "RationalFunction",
    "Realization",
    "ScanReport",
    "SosCertificate",
    "SospencilError",
    "StructuralError",
    "SymMatrix",
    "SymmetricPencil",
    "artin_certify",
    "artin_minimize",
    "build_basis",
    "chain_pencil",
    "cross_product_polynomial",
    "crosscheck_slice_criterion",
    "default_artin_candidates",
    "defect_completion",
    "holomorphy_sample_check",
    "is_psd",
    "kernel_basis",
    "kernel_dimension_oracle",
    "pair_pencil",
    "pairs_for_beta",
    "parse_polynomial",
    "pencil_row_action",
    "product_polarization",
    "psd_factor",
    "quadratic_form_polynomial",
    "slice_scan",
    "sos_certify",
    "verify_pencil",
    "verify_realization",
    "wronskian",
    "wronskian_realization",
]
