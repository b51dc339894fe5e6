"""ringlab: exhaustive classification of clean-family properties of finite rings."""

__version__ = "0.1.0"

from .core import (
    ConstructionError,
    GuardError,
    Ring,
    Subset,
    TableRing,
    check_ring_axioms,
    is_nilpotent,
    maybe_memoize,
)
from .constructions import (
    FiniteGroup,
    Pattern,
    cyclic_group,
    direct_product,
    double_extension_pattern,
    formal_matrix,
    gf,
    group_product,
    group_ring,
    ideal_generated,
    matrix_ring,
    pattern_subring,
    poly_quot,
    quotient_by_ideal,
    s_nm_pattern,
    s_pattern,
    t_nm_pattern,
    trivial_extension,
    u_pattern,
    upper_triangular,
    zmod,
)
from .structure import (
    StructuralFlags,
    WedderburnFingerprint,
    center,
    idempotents,
    is_nil_subset,
    jacobson,
    mod_j,
    nilpotents,
    structural_predicates,
    units,
    wedderburn_fingerprint,
)
from .decompositions import (
    DIAGRAM_EDGES,
    PropertyReport,
    Witness,
    classify,
    flag_counterexample,
    gwnc,
    ring_flag,
    validate_witness,
)
from .dsl import ParseError, build, canonical, parse
from .verify import (
    CatalogEntry,
    CheckResult,
    VerifyContext,
    VerifySummary,
    run_all,
    run_check,
)
