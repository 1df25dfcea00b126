"""Poisson distribution of order k.

Recurrence evaluation of the (unnormalized) probability mass function with
two mutually certifying recurrences, an exact combinatorial oracle over the
defining tuple sum, the rate thresholds and closed-form bounds that delimit
the distribution's shape regimes, and audits of its mode and monotonicity
structure.
"""

from .oracle import (
    WeightPolynomial,
    count_tuples,
    enumerate_tuples,
    lambda2_coefficient,
    weight_exact,
    weight_polynomial,
)
from .pmf import (
    Params,
    PmfTable,
    WeightUnderflowError,
    build_adaptive_table,
    build_table,
    build_table_km,
    diff_forward,
    diff_km,
    normalize,
)
from .roots import (
    BoundsRecord,
    RootResult,
    bounds_record,
    closed_form_root_n2,
    monotone_tail_bound,
    rise_threshold,
    root_upper_bound,
    shoulder_lambda,
    solve_weight_equals,
    weight_value,
)
from .structure import (
    StructureReport,
    audit_mode_bounds,
    build_report,
    check_block_assumption,
    check_initial_increase,
    check_monotone_tail,
    find_modes,
    find_triple_ties,
    local_maxima,
    mean_mode_gap,
)

__version__ = "0.1.0"

__all__ = [
    "Params",
    "PmfTable",
    "build_table",
    "build_table_km",
    "build_adaptive_table",
    "normalize",
    "diff_forward",
    "diff_km",
    "WeightUnderflowError",
    "WeightPolynomial",
    "count_tuples",
    "enumerate_tuples",
    "weight_polynomial",
    "weight_exact",
    "lambda2_coefficient",
    "RootResult",
    "BoundsRecord",
    "weight_value",
    "root_upper_bound",
    "solve_weight_equals",
    "closed_form_root_n2",
    "rise_threshold",
    "monotone_tail_bound",
    "shoulder_lambda",
    "bounds_record",
    "StructureReport",
    "find_modes",
    "local_maxima",
    "check_initial_increase",
    "check_monotone_tail",
    "audit_mode_bounds",
    "check_block_assumption",
    "mean_mode_gap",
    "find_triple_ties",
    "build_report",
]
