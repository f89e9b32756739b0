"""Solvers and a verification lab for one-dimensional reflected backward
stochastic differential equations with jumps, under stochastic monotone
and Lipschitz coefficient processes.

Pipeline: describe a problem (`model`, `registry`), simulate forward
bundles (`simulate`), run the penalized backward scheme or its
fixed-point variant (`backward`), drive the penalty to the reflected
limit and audit the Skorokhod conditions (`reflect`), estimate weighted
solution norms (`norms`), and property-test the structural claims
(`verify`).
"""

__version__ = "0.1.0"

from .backward import (
    BackwardSolution,
    RegressionBasis,
    RegressionRankError,
    RunRecord,
    SolverError,
    picard_solve,
    solve_penalized,
)
from .model import (
    AssumptionError,
    AssumptionReport,
    CoefficientSpec,
    DriverNormalization,
    Exponents,
    ForwardModel,
    MarkSpace,
    ProblemSpec,
    conjugate_exponent,
    cumulative_A,
    default_beta,
    normalize_driver,
    validate_assumptions,
)
from .norms import (
    NormReport,
    estimate_norms,
    lenglart_check,
    power_sum_bound,
    scale_solution,
    weighted_distance,
)
from .reflect import (
    PenalizationSchedule,
    ReflectedRun,
    SkorokhodReport,
    penalty_error,
    skorokhod_report,
    solve_reflected_dp_oracle,
    solve_reflected_penalization,
)
from .registry import PROBLEMS, build_problem
from .simulate import (
    PathBundle,
    TimeGrid,
    build_grid,
    sample_paths,
)
from .verify import (
    PropertyResult,
    apriori_suite,
    check_jump_inequality,
    comparison_suite,
    contraction_suite,
    jump_estimator_crosscheck,
    jump_inequality_suite,
    lenglart_sweep,
    penalty_decay_suite,
    scale_problem_data,
    summary_text,
)

__all__ = [name for name in dir() if not name.startswith("_")]
