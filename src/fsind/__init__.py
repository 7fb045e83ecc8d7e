"""Exact indicators of duality for modules over pivotal algebras.

The package computes, in exact arithmetic, the trace of the transposition
map on spaces of invariant bilinear forms: for group algebras, adjacency
algebras of association schemes, duals of copivotal coalgebras, finite
quotients described by structure constants, and the simple modules of
quantum sl2 over Q(q). Definition-level computations are cross-checked
against the closed character formulas throughout.
"""

from .scalars import (
    Cyclotomic,
    FieldMismatch,
    FieldTag,
    ParseError,
    RATIONAL,
    RATIONAL_FUNCTION,
    RatFun,
    cyclotomic_field,
    field_tag_from_string,
    parse_scalar,
    scalar_to_string,
)
from .linalg import (
    DimensionMismatch,
    Matrix,
    NotInSpan,
    SingularMatrix,
    det,
    intertwiner_constraint,
    inverse,
    kernel_basis,
    kernel_intersection,
    rank,
    solve_in_span,
)
from .pivotal import (
    FormBasis,
    GroupLikeData,
    IndicatorReport,
    MissingComultiplication,
    MissingData,
    ModuleRep,
    NotCentralCharacter,
    PivotalAlgebra,
    ValidationError,
    direct_sum,
    dual_module,
    fs_indicator,
    hom_space,
    indicator_from_presentation,
    invariant_form_space,
    pivotal_from_character,
    regular_module,
    span_contains_invertible,
    transposition_on_forms,
    twist_algebra,
    validate_algebra_involution,
    validate_module,
    validate_pivotal,
)
from .formulas import (
    DegenerateTraceForm,
    IncompleteSimplesList,
    NotAbsolutelySimple,
    NotAnIntegral,
    NotSelfDual,
    NotSeparable,
    NotSymmetric,
    SeparabilityIdempotent,
    SymmetricFormData,
    SymmetricIndicator,
    TraceSCheck,
    ZeroValency,
    ZeroVolumeCharacter,
    doi_grouplike_indicator,
    fs_hopf_character_formula,
    fs_regular_trace_q,
    fs_via_separability,
    fs_via_symmetric,
    hopf_integral_idempotent,
    symmetric_form_data,
    trace_S_global,
    trace_S_on_image,
    validate_separability,
)
from .constructors import (
    CayleyTable,
    CoalgebraSpec,
    InvalidCayleyTable,
    NotAScheme,
    NotAutomorphism,
    NotInvolutive,
    NotSchemeInvolution,
    SchemeFormatError,
    SchemeSpec,
    builtin_description,
    builtin_document,
    builtin_names,
    coalgebra_regular_indicator,
    coalgebra_regular_module,
    cyclic_table,
    d4_table,
    dualize_coalgebra,
    group_algebra,
    group_involution,
    group_like_coalgebra,
    parse_scheme_text,
    perm_columns,
    q8_table,
    s3_table,
    scheme_involution,
    scheme_standard_module,
    scheme_to_grouplike,
)
from .documents import Document, DocumentError, document_from_dict, load_document
from .qsl2 import (
    QslModule,
    UnexpectedFormDimension,
    build_vl,
    q_integer,
    qsl2_indicator,
    verify_relations,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
