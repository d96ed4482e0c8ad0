"""Differentially private data publishing through model release.

Instead of answering each query with fresh noise, this package buys
noisy answers to one low-sensitivity training workload, fits a small
regression model to them, and releases the model.  Anyone can then
answer unlimited new linear queries from the model at zero additional
privacy cost.  Batch Laplace, multiplicative-weights, and
strategy-matrix mechanisms are included as baselines, along with a
benchmark harness and a command-line interface.
"""

from ._version import __version__
from .bench import (
    MECHANISMS,
    SWEEP_VARIABLES,
    DatasetSpec,
    ExperimentConfig,
    ExperimentReport,
    ReportRow,
    emit_report,
    mae,
    read_report_csv,
    run_sweep,
)
from .histogram import (
    Histogram,
    generate_simulated_histogram,
    load_histogram_csv,
    neighbor,
    save_histogram_csv,
)
from .learning import (
    ModelMeta,
    PublishedModel,
    fit_linear,
    fit_rbf,
    load_model,
    median_pairwise_distance,
    predict,
    rbf_kernel,
    save_model,
    select_training_set,
)
from .mechanisms import (
    InsufficientBudgetError,
    NoisyAnswerSet,
    PrivacyBudget,
    clamp_nonnegative,
    laplace_batch,
    laplace_sample,
    mwem_publish,
    save_noisy_answers,
    strategy_mechanism,
)
from .pipeline import (
    BoundParameters,
    ErrorBound,
    MldpConfig,
    default_hypothesis_count,
    mldp_publish,
    model_error_bound,
    noise_error_bound,
    total_error_bound,
)
from .seeds import derive_seed
from .workload import (
    LinearQuery,
    Workload,
    all_range_queries,
    all_subset_queries,
    brute_force_sensitivity,
    evaluate,
    evaluate_workload,
    load_workload_csv,
    random_range_workload,
    range_query,
    save_workload_csv,
    workload_sensitivity,
)

__all__ = [
    "__version__",
    "Histogram",
    "load_histogram_csv",
    "save_histogram_csv",
    "generate_simulated_histogram",
    "neighbor",
    "LinearQuery",
    "Workload",
    "range_query",
    "evaluate",
    "evaluate_workload",
    "workload_sensitivity",
    "brute_force_sensitivity",
    "all_range_queries",
    "all_subset_queries",
    "random_range_workload",
    "save_workload_csv",
    "load_workload_csv",
    "InsufficientBudgetError",
    "PrivacyBudget",
    "NoisyAnswerSet",
    "laplace_sample",
    "laplace_batch",
    "mwem_publish",
    "strategy_mechanism",
    "clamp_nonnegative",
    "save_noisy_answers",
    "ModelMeta",
    "PublishedModel",
    "select_training_set",
    "fit_linear",
    "fit_rbf",
    "rbf_kernel",
    "median_pairwise_distance",
    "predict",
    "save_model",
    "load_model",
    "MldpConfig",
    "mldp_publish",
    "BoundParameters",
    "ErrorBound",
    "model_error_bound",
    "noise_error_bound",
    "total_error_bound",
    "default_hypothesis_count",
    "derive_seed",
    "mae",
    "DatasetSpec",
    "ExperimentConfig",
    "ExperimentReport",
    "ReportRow",
    "MECHANISMS",
    "SWEEP_VARIABLES",
    "run_sweep",
    "emit_report",
    "read_report_csv",
]
