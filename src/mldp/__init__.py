"""Differentially private data publishing through model release.

Instead of answering each query with fresh noise, this package buys
noisy answers to one low-sensitivity training workload, fits a small
regression model to them, and releases the model.  Anyone can then
answer unlimited new linear queries from the model at zero additional
privacy cost.  Batch Laplace, multiplicative-weights, and
strategy-matrix mechanisms are included as baselines, along with a
benchmark harness and a command-line interface.

The top level holds what publishing and answering need; everything
else is imported from its module, e.g. ``mldp.mechanisms.laplace_batch``.
"""

from ._version import __version__
from .histogram import Histogram
from .learning import predict
from .mechanisms import PrivacyBudget
from .pipeline import MldpConfig, mldp_publish
from .workload import all_range_queries, random_range_workload, save_workload_csv

__all__ = [
    "__version__",
    "Histogram",
    "PrivacyBudget",
    "MldpConfig",
    "mldp_publish",
    "predict",
    "all_range_queries",
    "random_range_workload",
    "save_workload_csv",
]
