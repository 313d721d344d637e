"""Infinite permutations of aperiodic binary words.

Build binary words (morphic fixed points, characteristic Sturmian words,
letter doublings, complements), rank their shifts lexicographically, extract
and enumerate the induced permutation patterns, push patterns through the
letter-doubling transfer map, and check the resulting counts against closed
forms.
"""

from .errors import (
    ClassMissing,
    DomainError,
    HorizonExhausted,
    InvalidDirective,
    LengthMismatch,
    LengthTooSmall,
    LimitExceeded,
    PermlexError,
    PrefixTooShort,
    Unsaturated,
    WordSpecError,
    WrongSource,
)
from .words import (
    ComplementSource,
    DoubledSource,
    ExplicitSource,
    MorphicSource,
    RunBounds,
    SturmianSource,
    WordSource,
    complement,
    double,
    explicit_source,
    factors,
    fibonacci_source,
    parse_word_spec,
    recurrence_bound,
    run_bounds,
    sturmian_characteristic,
    thue_morse_source,
)
from .ranking import shift_ranks, window_patterns
from .perms import (
    GREATER,
    LESS,
    Perm,
    PermSet,
    compare_shifts,
    form_of,
    format_perm,
    left_restrict,
    left_restrict_k,
    middle_restrict,
    parse_perm,
    perm_set,
    perm_set_parity,
    right_restrict,
    subpermutation,
)
from .doubling import (
    AuditReport,
    BoundsReport,
    ClassProfile,
    CollisionRecord,
    DeltaResult,
    ImageFormulaCheck,
    OrderCase,
    audit_map,
    check_bounds,
    class_profile,
    delta,
    delta_left,
    delta_middle,
    delta_right,
    doubling_order_case,
    verify_image_formulas,
)
from .pairs import (
    CensusReport,
    FormGroup,
    RestrictionTypeReport,
    TypeDecomposition,
    TypeRuleReport,
    check_type_rule,
    complementary_pair,
    restriction_type_check,
    same_form_census,
    types_of,
)
from .formulas import (
    Decomposition,
    ParityExpectation,
    decompose_floor,
    decompose_shifted,
    decompose_strict,
    doubled_sturmian_tau,
    doubled_tm_tau,
    expected_pair_type,
    expected_parity_cardinalities,
    formula_for,
    sturmian_tau,
    tm_rho,
    tm_tau,
)
from .suites import CheckResult, SUITES, run_suite

__version__ = "0.1.0"
