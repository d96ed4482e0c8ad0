"""The publish/answer pipeline and its closed-form error bounds.

Publishing buys noisy answers to one training workload under a single
epsilon charge, fits a regression model to them, and releases the
model.  Answering evaluates the released model on fresh queries, which
is free: no histogram access, no budget charge, no limit on the number
of queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .histogram import Histogram
from .learning import (
    DEFAULT_LINEAR_RIDGE,
    DEFAULT_RBF_RIDGE,
    MODEL_KINDS,
    SELECTION_STRATEGIES,
    PublishedModel,
    _check_fit_options,
    _check_int,
    _check_real,
    _selection_bounds,
    fit_linear,
    fit_rbf,
    select_training_set,
)
from .mechanisms import PrivacyBudget, laplace_batch
from .seeds import derive_seed
from .workload import _POOL_KINDS, Workload

__all__ = [
    "MldpConfig",
    "mldp_publish",
    "BoundParameters",
    "ErrorBound",
    "model_error_bound",
    "noise_error_bound",
    "total_error_bound",
]


@dataclass(frozen=True)
class MldpConfig:
    """Everything that determines a publish run besides the histogram.

    selection picks the training workload ("singleton", "greedy_cover"
    or "random_m"; random_m also needs m).  learner is "linear" or
    "rbf"; ridge defaults per learner (a given ridge must be finite and
    >= 0, and > 0 for rbf) and width_u, finite and > 0 if given,
    defaults to the median pairwise distance heuristic.  pool names the
    candidate pool that random_m draws from ("ranges" = all contiguous
    ranges, "subsets" = all non-empty subsets); greedy_cover over either
    pool is the singleton workload.  Two runs with equal config,
    histogram and seed produce byte-identical model files.
    """

    epsilon: float = 1.0
    selection: str = "singleton"
    m: int | None = None
    learner: str = "linear"
    ridge: float | None = None
    width_u: float | None = None
    pool: str = "ranges"
    seed: int = 0

    def __post_init__(self):
        _check_real(self.epsilon, "epsilon", "publish config")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.selection not in SELECTION_STRATEGIES:
            raise ValueError(
                f"unknown selection {self.selection!r}; expected one of "
                f"{SELECTION_STRATEGIES}"
            )
        if self.m is not None:
            _check_int(self.m, "m", "publish config")
        if self.selection == "random_m" and (self.m is None or self.m < 1):
            raise ValueError("random_m selection needs m >= 1")
        if self.learner not in MODEL_KINDS:
            raise ValueError(
                f"unknown learner {self.learner!r}; expected one of {MODEL_KINDS}"
            )
        _check_fit_options(self.learner, self.ridge, self.width_u, "publish config")
        if self.pool not in _POOL_KINDS:
            raise ValueError(f"unknown pool {self.pool!r}; expected one of {_POOL_KINDS}")
        _check_int(self.seed, "seed", "publish config")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, data: dict) -> "MldpConfig":
        if not isinstance(data, dict):
            raise ValueError("publish config must be an object")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config keys {sorted(extra)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValueError(f"publish config field of the wrong type: {exc}") from None


def training_workload_for(hist_d: int, config: MldpConfig) -> Workload:
    """The training workload a publish run with this config will buy."""
    return select_training_set(
        hist_d, config.selection, config.m, derive_seed(config.seed, "select"), config.pool
    )


def _training_bounds(hist_d: int, config: MldpConfig) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of training_workload_for(hist_d, config), with no matrix built.

    The same seed and pool positions; the benchmark sweep counts
    training/test query overlap on them.  Only the ranges pool has
    bounds.
    """
    if config.pool != "ranges":
        raise ValueError(f"the {config.pool!r} pool has no range bounds")
    seed = derive_seed(config.seed, "select")
    return _selection_bounds(hist_d, config.selection, config.m, seed)


def mldp_publish(hist: Histogram, config: MldpConfig, budget: PrivacyBudget) -> PublishedModel:
    """Select training queries, buy noisy answers, fit, and release.

    Charges exactly config.epsilon to the budget (the single Laplace
    batch over the training workload) and records epsilon, the training
    size, the training sensitivity, and the run seed in the model
    metadata.
    """
    training_workload = training_workload_for(hist.d, config)
    noisy = laplace_batch(
        training_workload,
        hist,
        budget,
        config.epsilon,
        derive_seed(config.seed, "noise"),
    )
    # The model records the run seed, not the derived noise seed.
    training = replace(noisy, seed=config.seed)
    if config.learner == "linear":
        ridge = DEFAULT_LINEAR_RIDGE if config.ridge is None else config.ridge
        return fit_linear(training, ridge=ridge)
    ridge = DEFAULT_RBF_RIDGE if config.ridge is None else config.ridge
    return fit_rbf(training, width_u=config.width_u, ridge=ridge)


@dataclass(frozen=True)
class BoundParameters:
    """Inputs to the closed-form accuracy bounds.

    n_records bounds each query answer's magnitude, hypothesis_count is
    the size of the model class being selected from, beta is the
    per-bound failure probability, m the training-set size, sensitivity
    the training workload's joint sensitivity, and epsilon the privacy
    budget spent on the training answers.
    """

    n_records: float
    hypothesis_count: float
    beta: float
    m: int
    sensitivity: float = 1.0
    epsilon: float = 1.0

    def __post_init__(self):
        for name in ("n_records", "hypothesis_count", "beta", "sensitivity", "epsilon"):
            _check_real(getattr(self, name), name, "bound parameters")
        if not 0 <= self.n_records < math.inf:
            raise ValueError("n_records must be finite and non-negative")
        if not 1 < self.hypothesis_count < math.inf:
            raise ValueError("hypothesis_count must be finite and exceed 1")
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        _check_int(self.m, "m", "bound parameters")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not 0 <= self.sensitivity < math.inf:
            raise ValueError("sensitivity must be finite and non-negative")
        # An infinite epsilon is the noise-disabled test mode; the CLI refuses it.
        if not self.epsilon > 0 or math.isnan(self.epsilon):
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class ErrorBound:
    """The paper's two additive error terms and their joint failure mass."""

    alpha_model: float
    alpha_noise: float
    beta_total: float


def model_error_bound(p: BoundParameters) -> float:
    """The paper's generalization term: sqrt(n^2 * ln(2 |H| / beta) / (2 m)).

    This is Hoeffding's inequality with a union bound over a finite
    class of hypothesis_count candidates.  For a model picked from such
    a class by empirical risk over m training queries with answers in
    [0, n_records], it bounds the gap to the true risk with probability
    at least 1 - beta.  The linear and rbf models fitted here come from
    continuous classes, not finite ones, so for them no guarantee is
    checked.
    """
    return math.sqrt(
        p.n_records ** 2
        * math.log(2.0 * p.hypothesis_count / p.beta)
        / (2.0 * p.m)
    )


def noise_error_bound(p: BoundParameters) -> float:
    """The paper's noise term, as printed: sqrt(4 * S * ln(|H| / beta) / (m * epsilon^2)).

    It does not bound the mean absolute Laplace noise of the training
    answers with probability 1 - beta.  That noise is Laplace(S /
    epsilon), whose mean absolute value is S / epsilon for every m,
    while this term shrinks as 1 / sqrt(m).  For S=1, epsilon=1, m=100,
    |H|=1e6 and beta=0.05 the term is 0.82, and the mean absolute noise
    of 100 draws exceeded it in 97% of 2000 simulated releases (median
    0.99).  Zero in the noise-disabled (infinite epsilon) mode.
    """
    if math.isinf(p.epsilon):
        return 0.0
    return math.sqrt(
        4.0
        * p.sensitivity
        * math.log(p.hypothesis_count / p.beta)
        / (p.m * p.epsilon ** 2)
    )


def total_error_bound(p: BoundParameters) -> ErrorBound:
    """Both terms together, with the paper's joint failure mass 2 * beta."""
    return ErrorBound(
        alpha_model=model_error_bound(p),
        alpha_noise=noise_error_bound(p),
        beta_total=2.0 * p.beta,
    )
