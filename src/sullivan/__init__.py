"""Exact-arithmetic cohomology and rational Toomer invariant of minimal
Sullivan algebras, with machine checks of the category formula, the
no-gap theorem and the Wang/Gysin long exact sequences."""

from .algebra import Derivation, Generator
from .cohomology import (
    BigradedTable,
    CohomologyClass,
    CohomologyTable,
    EllipticityCertificate,
    bigraded_cohomology,
    bigraded_profile,
    certify_elliptic,
    cohomology,
    cohomology_table,
    formal_dimension_formula,
    fundamental_class,
    pd_pairing,
)
from .model import (
    LengthProfile,
    ModelValidationError,
    RandomModelParams,
    SullivanModel,
    length_profile,
    make_model,
    quotient_model,
    random_elliptic_model,
    validate,
)
from .parser import ModelSyntaxError, parse_model, print_model
from .sequences import (
    LesReport,
    build_gysin,
    build_wang,
    check_exactness,
    formal_dimension_relation,
)
from .toomer import (
    ToomerReport,
    e0_spectrum,
    gap_scan,
    toomer_of_algebra,
    toomer_of_class,
)
from .verifiers import (
    VerificationReport,
    classify_conjecture5,
    scan_conjecture5,
    verify_all,
    verify_corollary4,
    verify_lemma1,
    verify_nilmanifold,
    verify_remark2,
    verify_theorem2,
    verify_theorem3,
)

__version__ = "0.1.0"
