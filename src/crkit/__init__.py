"""Exact formal geometry of real-analytic hypersurfaces.

Truncated multivariate power series over Gaussian rationals, hypersurface
germs with their graph form and Segre machinery, and reflection-based
analysis of formal maps between them. Every check in the package is exact;
the only floats live in the clearly labeled convergence diagnostic.
"""

from .errors import (
    CrkitError,
    DocumentError,
    GeometryError,
    ParseError,
    PrerequisiteError,
)
from .rational import GaussRational, I, ONE, ZERO
from .series import (
    SeriesMap,
    TruncatedSeries,
    compose,
    default_names,
    format_monomial,
    format_series,
    grlex_key,
    multi_factorial,
    multi_indices,
)
from .solvers import implicit_solve, invert_map, newton_extend
from .rank import (
    CERTIFIED,
    PROBABLE,
    RankCertificate,
    RankResult,
    generic_rank,
    matrix_generic_rank,
)
from .hypersurface import (
    DegeneracyResult,
    Hypersurface,
    MinimalityVerdict,
    SegreTriple,
    TangentField,
    defining_names,
    degeneracy,
    from_defining,
    graph_names,
    graph_residual,
    is_minimal,
    normalize,
    normalizing_change,
    phi_family,
    reality_defect,
    segre_closure_residual,
    segre_maps,
    tangent_fields,
)
from .documents import (
    FORMAT_VERSION,
    parse_document,
    read_document,
    serialize,
    serialize_report,
    write_document,
)
from .reflection import (
    ContainmentResult,
    ConvergenceEvidence,
    FormalMap,
    MapVerdict,
    PartialConvergenceResult,
    ReflectionReport,
    SegreIdentityVerdict,
    build_reflection_report,
    check_maps_into,
    convergence_evidence,
    exp_of,
    formal_containment,
    partial_convergence,
    reflection_at_lambda_zero,
    reflection_function,
    reflection_on_segre,
    segre_reflection_identity,
    u_family,
)
from . import linalg

__version__ = "0.1.0"

# No command parses an expression or builds a corpus object, so the
# expression parser and the corpus load on first use (PEP 562).
_LAZY = {
    "TruncationWarning": "parser",
    "normalize_declaration": "parser",
    "parse_expr": "parser",
}


def __getattr__(name):
    from importlib import import_module

    if name == "corpus":
        return import_module(".corpus", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module("." + _LAZY[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = [
    "CERTIFIED",
    "ContainmentResult",
    "ConvergenceEvidence",
    "CrkitError",
    "DegeneracyResult",
    "DocumentError",
    "FORMAT_VERSION",
    "FormalMap",
    "GaussRational",
    "GeometryError",
    "Hypersurface",
    "I",
    "MapVerdict",
    "MinimalityVerdict",
    "ONE",
    "PROBABLE",
    "ParseError",
    "PartialConvergenceResult",
    "PrerequisiteError",
    "RankCertificate",
    "RankResult",
    "ReflectionReport",
    "SegreIdentityVerdict",
    "SegreTriple",
    "SeriesMap",
    "TangentField",
    "TruncatedSeries",
    "TruncationWarning",
    "ZERO",
    "build_reflection_report",
    "check_maps_into",
    "compose",
    "convergence_evidence",
    "corpus",
    "default_names",
    "defining_names",
    "degeneracy",
    "exp_of",
    "formal_containment",
    "format_monomial",
    "format_series",
    "from_defining",
    "generic_rank",
    "graph_names",
    "graph_residual",
    "grlex_key",
    "implicit_solve",
    "invert_map",
    "is_minimal",
    "linalg",
    "matrix_generic_rank",
    "multi_factorial",
    "multi_indices",
    "newton_extend",
    "normalize",
    "normalize_declaration",
    "normalizing_change",
    "parse_document",
    "parse_expr",
    "partial_convergence",
    "phi_family",
    "read_document",
    "reality_defect",
    "reflection_at_lambda_zero",
    "reflection_function",
    "reflection_on_segre",
    "segre_closure_residual",
    "segre_maps",
    "segre_reflection_identity",
    "serialize",
    "serialize_report",
    "tangent_fields",
    "u_family",
    "write_document",
]
