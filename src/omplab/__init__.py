"""omplab: a sparse-recovery laboratory.

Orthogonal matching pursuit with both classical stopping rules and full
per-iteration tracing, exact restricted-isometry constants by exhaustive
enumeration, checkers for the sharp support-recovery condition, and
reproducible Monte Carlo harnesses that validate the guarantee and probe its
sharpness.
"""

from .experiments import (
    ExperimentConfig,
    ExperimentRow,
    FailureInstance,
    LemmaSweepReport,
    lemma_sweep,
    load_failure_instance,
    parse_config,
    phase_table,
    rows_csv_text,
    save_failure_instance,
    sharpness_probe,
    theorem1_validation,
    write_rows_csv,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    SingularSystemError,
    as_epsilon,
    as_matrix,
    as_vector,
    format_matrix,
    format_vector,
    least_squares,
    parse_matrix,
    parse_vector,
    projection_residual,
    read_matrix,
    read_vector,
    write_matrix,
    write_vector,
)
from .omp import (
    GuaranteeViolation,
    OmpIterationRecord,
    OmpResult,
    ResidualBoundRecord,
    StopRule,
    omp_result_json,
    omp_run,
    residual_bound_probe,
    trace_csv_text,
    write_trace_csv,
)
from .ripcheck import (
    DEFAULT_SUBSET_BUDGET,
    CapacityError,
    ComparisonReport,
    ConditionVerdict,
    Lemma1Check,
    RicReport,
    chang_wu_min_mag_bound,
    chang_wu_ric_bound,
    check_theorem1_conditions,
    comparison_report,
    condition_verdict_json,
    exact_ric,
    min_magnitude_bound,
    ric_report_json,
    sharp_ric_bound,
    verify_lemma1,
)
from .sensing import (
    ProblemInstance,
    SparseSignal,
    format_signal,
    gaussian_sensing_matrix,
    generate_measurement,
    lemma1_example_instance,
    load_problem_instance,
    noise_vector,
    parse_signal,
    philox_generator,
    random_sparse_signal,
    read_signal,
    save_problem_instance,
    splitmix64,
    write_signal,
)

__version__ = "0.1.0"
