"""hankelkit: exact Hankel determinants of combinatorial moment sequences
and their q-analogues, with closed-form evaluators verified against
brute-force elimination."""

from .closed_forms import (
    FORMULAS,
    QParams,
    cbqm_expanded,
    classical_A,
    classical_T,
    classical_det,
    closed_form,
    oracle_matrix,
    qmoment_A,
    qmoment_T,
    qmoment_c,
    qmoment_det,
    rising_ratio,
)
from .errors import (
    DivisionByZero,
    HankelkitError,
    InsufficientSamples,
    MissingParameter,
    NotNormalized,
    ParseError,
    PoleAtPoint,
    PoleInFormula,
    PoleInSequence,
    SingularLeadingMinor,
    UnsupportedNegativeUpper,
)
from .field import (
    FieldElem,
    Polynomial,
    as_field,
    parse_field_expr,
    q,
    render,
    specialize,
)
from .hankel import (
    LdltFactors,
    SquareMatrix,
    det_bareiss,
    det_division,
    det_exact,
    det_from_jacobi,
    hankel_matrix,
    jacobi_from_moments,
    ldlt,
    leading_minors,
)
from .identities import (
    IdentityReport,
    check_alt_sum,
    check_binomial_alt_sum,
    check_binomial_sum,
    check_row_sum,
    check_weighted_alt_sum,
    check_weighted_row_sum,
)
from .qcalc import (
    bracket_falling,
    gauss_binomial,
    q_binomial,
    q_factorial,
    q_int,
    q_pochhammer,
)
from .sequences import (
    CatalanSeq,
    CentralBinomialSeq,
    ExplicitSeq,
    MomentSeq,
    PochRatioSeq,
    RisingRatioSeq,
    ScaledSeq,
    ShiftedSeq,
    andrews_q_catalan,
    parse_sequence_spec,
)
from .triangle import (
    JacobiParams,
    TSeq,
    Triangle,
    build_triangle,
    build_zero_s_triangle,
    contract,
    cross_sum,
    rescale,
)
from .verify import (
    SUITES,
    SuiteReport,
    SuiteSpec,
    run_suite,
    sample_parameters,
)

__version__ = "0.1.0"
