"""Exact structural analysis of direct sums of rational matrices and
model shift operators: kernel/range chains, canonical semi-regular plus
quasi-nilpotent decompositions, indices, Drazin inverses, classification
flags, and spectra grid scans. All arithmetic is exact over the rationals.
"""
from .catalog import CATALOG, CatalogEntry, by_name
from .classify import FLAG_NAMES, ClassificationRecord, check_lattice, classify
from .docio import (
    AnalysisReport,
    OperatorDocument,
    build_report,
    parse_document,
    rational_str,
    serialize_document,
)
from .errors import (
    AmbientMismatch,
    DocumentError,
    FredprofileError,
    InternalInvariantError,
    NotInvariant,
    NotPseudoFredholm,
    OutputError,
)
from .extvals import INF, EvAffineSeq, ExtIndex, ExtNat
from .linalg import ExactMatrix, SubspaceBasis
from .model import (
    Atom,
    LEFT_SHIFT,
    OperatorExpr,
    QNIL_SHIFT,
    QNIL_SHIFT_DUAL,
    RIGHT_SHIFT,
    StructuralProfile,
    dual_expr,
    matrix_atom,
    point,
    power_profile,
)
from .spectra import (
    GridSpec,
    SPECTRUM_NAMES,
    SpectrumScan,
    component_index_report,
    scan,
    scan_to_csv,
    scan_to_json,
    spectrum_membership,
)
from .structure import GKDPair, StructuralSummary, analyze_expr, drazin_inverse, gkd_pair

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatch",
    "AnalysisReport",
    "Atom",
    "CATALOG",
    "CatalogEntry",
    "ClassificationRecord",
    "DocumentError",
    "EvAffineSeq",
    "ExactMatrix",
    "ExtIndex",
    "ExtNat",
    "FLAG_NAMES",
    "FredprofileError",
    "GKDPair",
    "GridSpec",
    "INF",
    "InternalInvariantError",
    "LEFT_SHIFT",
    "NotInvariant",
    "NotPseudoFredholm",
    "OperatorDocument",
    "OperatorExpr",
    "OutputError",
    "QNIL_SHIFT",
    "QNIL_SHIFT_DUAL",
    "RIGHT_SHIFT",
    "SPECTRUM_NAMES",
    "SpectrumScan",
    "StructuralProfile",
    "StructuralSummary",
    "SubspaceBasis",
    "analyze_expr",
    "build_report",
    "by_name",
    "check_lattice",
    "classify",
    "component_index_report",
    "drazin_inverse",
    "dual_expr",
    "gkd_pair",
    "matrix_atom",
    "parse_document",
    "point",
    "power_profile",
    "rational_str",
    "scan",
    "scan_to_csv",
    "scan_to_json",
    "serialize_document",
    "spectrum_membership",
]
