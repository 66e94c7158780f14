"""Quantum maximum finding over smoothness classes.

The package simulates amplitude-amplified search on classical hardware
and builds on it a maximizer for functions on the unit cube whose
highest derivatives satisfy a Holder condition.  It tracks quantum and
classical query counts separately so the square-root speedup over
exhaustive grid search can be measured, and it includes the reduction
from the OR of n bits that shows the query exponent is tight.

Layer map:

- qcore: the amplification primitive on two class amplitudes, with a
  statevector reference
- search: unstructured search and sequence maximum finding
- holder: function classes, grids, local polynomial models, bump families
- maximizer: accuracy-driven maximization of real functions
- baselines: classical grid and random-sampling competitors
- reduction: OR-of-bits embedding and decision rule
- bench: seeded experiments with CSV output
- cli: the qfmax command line tool
"""

from .baselines import grid_maximize, random_maximize
from .bench import (
    ExperimentSpec,
    binomial_margin,
    estimate_error_quantile,
    fit_loglog_slope,
    run_experiment,
    trial_rng,
)
from .functions import available_functions, make_function
from .holder import (
    BumpFamily,
    Grid,
    HolderFunction,
    build_grid,
    bump_class_scale,
    bump_profile,
    coefficient_count,
    eval_taylor,
    make_bump_family,
    membership_check,
    multi_indices,
    remainder_bound_check,
    taylor_tableau,
)
from .maximizer import (
    MaximizerParams,
    choose_n,
    default_h_conf,
    local_max_at,
    quantum_maximize,
)
from .qcore import (
    ClassState,
    MarkPredicate,
    QueryLedger,
    StateVector,
    grover_iteration,
    grover_success_probability,
    measure,
    uniform_state,
)
from .reduction import decision_rule, embed_bits, or_trial
from .search import MaxResult, SearchParams, SequenceOracle, find_maximum, qsearch

__version__ = "0.1.0"

__all__ = [
    "BumpFamily",
    "ClassState",
    "ExperimentSpec",
    "Grid",
    "HolderFunction",
    "MarkPredicate",
    "MaxResult",
    "MaximizerParams",
    "QueryLedger",
    "SearchParams",
    "SequenceOracle",
    "StateVector",
    "available_functions",
    "binomial_margin",
    "build_grid",
    "bump_class_scale",
    "bump_profile",
    "choose_n",
    "coefficient_count",
    "decision_rule",
    "default_h_conf",
    "embed_bits",
    "estimate_error_quantile",
    "eval_taylor",
    "find_maximum",
    "fit_loglog_slope",
    "grid_maximize",
    "grover_iteration",
    "grover_success_probability",
    "local_max_at",
    "make_bump_family",
    "make_function",
    "measure",
    "membership_check",
    "multi_indices",
    "or_trial",
    "qsearch",
    "quantum_maximize",
    "random_maximize",
    "remainder_bound_check",
    "run_experiment",
    "taylor_tableau",
    "trial_rng",
    "uniform_state",
]
