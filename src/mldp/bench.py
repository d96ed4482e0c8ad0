"""Benchmark harness: mean-absolute-error sweeps across mechanisms.

Three sweeps: training-set size, test-set size, and privacy budget.
Every number in a report is a pure function of (config, base_seed):
trial t uses trial_seed = base_seed + t, and each random decision inside
a trial draws from an independent child seed derived by a documented
hash rule, so no mechanism ever observes another's noise stream and
re-running a config reproduces the report byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from .histogram import Histogram, generate_simulated_histogram, load_histogram_csv
from .learning import (
    MODEL_KINDS, SELECTION_STRATEGIES, _check_fit_options, _check_int, _check_real, predict
)
from .mechanisms import PrivacyBudget, laplace_batch, mwem_publish, strategy_mechanism
from .pipeline import MldpConfig, mldp_publish, training_workload_for
from .seeds import derive_seed
from .workload import Workload, evaluate_workload, random_range_workload

__all__ = [
    "MECHANISMS",
    "SWEEP_VARIABLES",
    "mae",
    "DatasetSpec",
    "ExperimentConfig",
    "ReportRow",
    "ExperimentReport",
    "run_sweep",
    "emit_report",
    "read_report_csv",
]

MECHANISMS = ("mldp", "laplace", "mwem", "strategy-identity", "strategy-hier")
SWEEP_VARIABLES = ("training_m", "test_m", "epsilon")

SEED_RULE = (
    "trial_seed = base_seed + trial; every random object inside a trial uses "
    "derive_seed(trial_seed, name[, grid_index]) where derive_seed is the first "
    "8 bytes of sha256('base|part|part...'); the grid index is included exactly "
    "when the object depends on the swept variable (it is omitted for the "
    "held-out test workload in the training_m and epsilon sweeps, for the "
    "trained model in the test_m sweep, and for mechanisms unaffected by the "
    "training size in the training_m sweep, which therefore repeat identical "
    "rows across that grid)."
)


def mae(predicted, truth) -> float:
    """Mean absolute error between two equal-length answer vectors."""
    predicted = np.asarray(predicted, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ValueError(
            f"shape mismatch: predicted {predicted.shape}, truth {truth.shape}"
        )
    if predicted.size == 0:
        raise ValueError("mae of empty answer vectors is undefined")
    return float(np.mean(np.abs(predicted - truth)))


@dataclass(frozen=True)
class DatasetSpec:
    """Where the histogram comes from: a CSV path or a simulation spec."""

    path: str | None = None
    d: int | None = None
    max_count: int | None = None
    seed: int | None = None

    def __post_init__(self):
        simulated = (self.d, self.max_count, self.seed)
        if self.path is not None:
            if any(v is not None for v in simulated):
                raise ValueError("dataset spec takes a path or simulation fields, not both")
        elif any(v is None for v in simulated):
            raise ValueError("simulated dataset spec needs d, max_count and seed")
        else:
            for key, value in zip(("d", "max_count", "seed"), simulated):
                _check_int(value, f"dataset {key}", "experiment config")

    def load(self) -> Histogram:
        if self.path is not None:
            return load_histogram_csv(self.path)
        return generate_simulated_histogram(self.d, self.max_count, self.seed)

    def to_dict(self) -> dict:
        if self.path is not None:
            return {"path": self.path}
        return {"simulated": {"d": self.d, "max_count": self.max_count, "seed": self.seed}}

    @classmethod
    def from_dict(cls, data: dict) -> "DatasetSpec":
        if not isinstance(data, dict):
            raise ValueError("dataset spec must be an object")
        extra = set(data) - {"path", "simulated"}
        if extra:
            raise ValueError(f"unknown dataset keys {sorted(extra)}")
        if "path" in data and "simulated" in data:
            raise ValueError("dataset spec takes a path or simulation fields, not both")
        if "path" in data:
            return cls(path=str(data["path"]))
        if "simulated" in data:
            sim = data["simulated"]
            try:
                fields = {key: sim[key] for key in ("d", "max_count", "seed")}
            except (KeyError, TypeError) as exc:
                raise ValueError(f"bad simulated dataset spec: {exc}") from None
            return cls(**fields)
        raise ValueError("dataset spec needs 'path' or 'simulated'")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: dataset, mechanisms, swept grid, fixed parameters.

    The swept variable's fixed field is ignored at the swept grid
    points (epsilon during an epsilon sweep, and so on).  Round-trips
    through to_dict/from_dict and therefore through JSON.
    """

    dataset: DatasetSpec
    mechanisms: tuple[str, ...]
    sweep_variable: str
    grid: tuple[float, ...]
    epsilon: float = 1.0
    training_m: int = 100
    test_m: int = 500
    selection: str = "singleton"
    learner: str = "linear"
    ridge: float | None = None
    width_u: float | None = None
    rounds: int = 10
    trials: int = 20
    base_seed: int = 0

    def __post_init__(self):
        for key in ("training_m", "test_m", "rounds", "trials", "base_seed"):
            _check_int(getattr(self, key), key, "experiment config")
        object.__setattr__(self, "mechanisms", tuple(self.mechanisms))
        for v in self.grid:
            _check_real(v, "grid", "experiment config")
        object.__setattr__(self, "grid", tuple(float(v) for v in self.grid))
        if not self.mechanisms:
            raise ValueError("mechanisms must not be empty")
        unknown = [m for m in self.mechanisms if m not in MECHANISMS]
        if unknown:
            raise ValueError(f"unknown mechanisms {unknown}; expected subset of {MECHANISMS}")
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"unknown sweep variable {self.sweep_variable!r}; expected one of "
                f"{SWEEP_VARIABLES}"
            )
        if not self.grid:
            raise ValueError("grid must not be empty")
        if self.sweep_variable == "epsilon":
            if any(not (v > 0 and math.isfinite(v)) for v in self.grid):
                raise ValueError("epsilon grid values must be finite and positive")
        elif any(not (math.isfinite(v) and v >= 1 and v == int(v)) for v in self.grid):
            raise ValueError(f"{self.sweep_variable} grid values must be finite integers >= 1")
        _check_real(self.epsilon, "epsilon", "experiment config")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be finite and positive")
        if self.training_m < 1 or self.test_m < 1:
            raise ValueError("training_m and test_m must be at least 1")
        if self.selection not in SELECTION_STRATEGIES:
            raise ValueError(f"unknown selection {self.selection!r}")
        if self.learner not in MODEL_KINDS:
            raise ValueError(f"unknown learner {self.learner!r}")
        _check_fit_options(self.learner, self.ridge, self.width_u, "experiment config")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")

    def to_dict(self) -> dict:
        return {
            **{name: getattr(self, name) for name in self.__dataclass_fields__},
            "dataset": self.dataset.to_dict(),
            "mechanisms": list(self.mechanisms),
            "grid": list(self.grid),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError("experiment config must be an object")
        known = set(cls.__dataclass_fields__)
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config keys {sorted(extra)}")
        missing = {"dataset", "mechanisms", "sweep_variable", "grid"} - set(data)
        if missing:
            raise ValueError(f"missing config keys {sorted(missing)}")
        kwargs = dict(data)
        kwargs["dataset"] = DatasetSpec.from_dict(data["dataset"])
        try:
            kwargs["mechanisms"] = tuple(data["mechanisms"])
            kwargs["grid"] = tuple(data["grid"])
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"experiment config field of the wrong type: {exc}") from None


@dataclass(frozen=True)
class ReportRow:
    """Aggregated MAE of one mechanism at one grid point."""

    mechanism: str
    grid_index: int
    grid_value: float
    mean_mae: float
    std_mae: float
    trial_seeds: tuple[int, ...]
    trial_maes: tuple[float, ...]
    train_test_overlap: float | None = None

    def to_dict(self) -> dict:
        return {
            **{name: getattr(self, name) for name in self.__dataclass_fields__},
            "trial_seeds": list(self.trial_seeds),
            "trial_maes": list(self.trial_maes),
        }


@dataclass(frozen=True)
class ExperimentReport:
    """Sweep results plus everything needed to reproduce them."""

    config: dict
    sweep_variable: str
    grid: tuple[float, ...]
    rows: tuple[ReportRow, ...]
    code_version: str = __version__
    seed_rule: str = SEED_RULE

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "code_version": self.code_version,
            "seed_rule": self.seed_rule,
            "sweep_variable": self.sweep_variable,
            "grid": list(self.grid),
            "rows": [row.to_dict() for row in self.rows],
        }

    def row(self, mechanism: str, grid_index: int) -> ReportRow:
        for r in self.rows:
            if r.mechanism == mechanism and r.grid_index == grid_index:
                return r
        raise KeyError(f"no row for ({mechanism!r}, {grid_index})")


class _Collector:
    """Accumulates per-trial MAEs keyed by (mechanism, grid index)."""

    def __init__(self, mechanisms, grid):
        self.grid = grid
        self.maes = {(m, i): [] for m in mechanisms for i in range(len(grid))}
        self.seeds = {(m, i): [] for m in mechanisms for i in range(len(grid))}
        self.overlaps = {(m, i): [] for m in mechanisms for i in range(len(grid))}

    def add(self, mechanism, grid_index, seed, value, overlap=None):
        self.maes[(mechanism, grid_index)].append(float(value))
        self.seeds[(mechanism, grid_index)].append(int(seed))
        if overlap is not None:
            self.overlaps[(mechanism, grid_index)].append(float(overlap))

    def rows(self, mechanisms) -> tuple[ReportRow, ...]:
        rows = []
        for mech in mechanisms:
            for i, value in enumerate(self.grid):
                maes = self.maes[(mech, i)]
                overlaps = self.overlaps[(mech, i)]
                rows.append(
                    ReportRow(
                        mechanism=mech,
                        grid_index=i,
                        grid_value=float(value),
                        mean_mae=float(np.mean(maes)),
                        std_mae=float(np.std(maes, ddof=1)) if len(maes) > 1 else 0.0,
                        trial_seeds=tuple(self.seeds[(mech, i)]),
                        trial_maes=tuple(maes),
                        train_test_overlap=float(np.mean(overlaps)) if overlaps else None,
                    )
                )
        return tuple(rows)


def _baseline_mae(mechanism, test, truth, hist, epsilon, rounds, seed) -> float:
    """One run of a non-mldp mechanism against one test workload."""
    budget = PrivacyBudget(epsilon)
    if mechanism == "laplace":
        result = laplace_batch(test, hist, budget, epsilon, seed)
        return mae(result.answers, truth)
    if mechanism == "mwem":
        _, answers = mwem_publish(test, hist, epsilon, rounds, seed, budget=budget)
        return mae(answers, truth)
    if mechanism == "strategy-identity":
        result = strategy_mechanism(test, "identity", hist, epsilon, seed, budget=budget)
        return mae(result.answers, truth)
    if mechanism == "strategy-hier":
        result = strategy_mechanism(test, "hierarchical", hist, epsilon, seed, budget=budget)
        return mae(result.answers, truth)
    raise ValueError(f"unknown mechanism {mechanism!r}")


def _overlap_count(training: Workload, test: Workload) -> int:
    """How many test queries also appear in the training workload.

    Both are range workloads: the test workload comes from
    ``random_range_workload`` and a sweep's training workload from the
    ranges pool.  So a query is its ``(lo, hi)`` pair and no rows are
    compared.
    """
    keys = set(zip(training._lo, training._hi))
    return sum(key in keys for key in zip(test._lo, test._hi))


# Which swept variables each per-trial object reads: SEED_RULE as data.
# An object that reads the swept variable is drawn at each grid point i
# from derive_seed(trial_seed, name, i); any other is drawn once per
# trial from derive_seed(trial_seed, name) and shared across the grid.
_READS = {
    "test-workload": ("test_m",),
    "mldp": ("training_m", "epsilon"),
    "baseline": ("test_m", "epsilon"),
}


def run_sweep(config: ExperimentConfig) -> ExperimentReport:
    """MAE of every mechanism at every point of the config's grid.

    One loop serves all three sweep kinds: trial, then grid point, then
    mechanism.  Each trial draws a held-out test workload of random
    ranges, an mldp model and one run of each baseline, each with its
    own child seed.  What a kind of sweep redraws per grid point and
    what it shares across the grid follows from _READS:

    - training_m: the model is retrained at each m, by random_m
      selection from the range pool; the test workload and the
      baselines are shared, so baseline rows repeat across the grid.
    - test_m: the test workload and the baselines are redrawn at each
      size; one model per trial answers them all.
    - epsilon: the model and the baselines rerun at each epsilon with a
      fresh budget; the test workload and its exact answers are shared.

    Nothing is held across trials.
    """
    var = config.sweep_variable
    if var == "training_m" and "mldp" in config.mechanisms and config.selection != "random_m":
        raise ValueError("the training-size sweep varies m, which needs random_m selection")
    hist = config.dataset.load()
    collector = _Collector(config.mechanisms, config.grid)

    def test_workload(at, seed):
        test = random_range_workload(hist.d, at["test_m"], seed)
        return test, evaluate_workload(test, hist)

    def publish(at, seed):
        mc = MldpConfig(
            epsilon=at["epsilon"],
            selection=config.selection,
            m=at["training_m"] if config.selection == "random_m" else None,
            learner=config.learner,
            ridge=config.ridge,
            width_u=config.width_u,
            seed=seed,
        )
        return seed, mc, mldp_publish(hist, mc, PrivacyBudget(at["epsilon"]))

    def baseline(mech, at, test, truth, seed):
        return seed, _baseline_mae(mech, test, truth, hist, at["epsilon"], config.rounds, seed)

    for t in range(config.trials):
        trial_seed = config.base_seed + t
        shared = {}  # this trial's draws that do not read the swept variable

        def draw(kind, name, i, make):
            if var in _READS[kind]:
                return make(derive_seed(trial_seed, name, i))
            if name not in shared:
                shared[name] = make(derive_seed(trial_seed, name))
            return shared[name]

        for i, value in enumerate(config.grid):
            at = {  # the fixed values, with the swept one set to the grid value
                "training_m": config.training_m,
                "test_m": config.test_m,
                "epsilon": config.epsilon,
                var: value if var == "epsilon" else int(value),
            }
            test, truth = draw(
                "test-workload", "test-workload", i, lambda s: test_workload(at, s)
            )
            for mech in config.mechanisms:
                if mech == "mldp":
                    seed, mc, model = draw("mldp", "mldp", i, lambda s: publish(at, s))
                    error = mae(predict(model, test), truth)
                    overlap = _overlap_count(training_workload_for(hist.d, mc), test)
                    collector.add(mech, i, seed, error, overlap)
                else:
                    seed, error = draw(
                        "baseline", mech, i, lambda s: baseline(mech, at, test, truth, s)
                    )
                    collector.add(mech, i, seed, error)

    return ExperimentReport(
        config=config.to_dict(),
        sweep_variable=config.sweep_variable,
        grid=config.grid,
        rows=collector.rows(config.mechanisms),
    )


def emit_report(report: ExperimentReport, path, fmt: str | None = None) -> None:
    """Write a report as JSON (verbatim) or CSV (plot-ready statistics).

    fmt defaults to the path's extension.  The JSON body is byte-stable:
    re-running the same config and seed writes the identical file.  The
    CSV carries the config echo and provenance as '#' comment lines,
    then one row per (mechanism, grid point, statistic).
    """
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}; expected 'csv' or 'json'")
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        return
    lines = [
        f"# config: {json.dumps(report.config, separators=(',', ':'))}",
        f"# code_version: {report.code_version}",
        f"# seed_rule: {report.seed_rule}",
        f"# sweep_variable: {report.sweep_variable}",
        "mechanism,grid_value,statistic,value",
    ]
    for row in report.rows:
        stats = [("mean_mae", row.mean_mae), ("std_mae", row.std_mae)]
        if row.train_test_overlap is not None:
            stats.append(("train_test_overlap", row.train_test_overlap))
        for name, value in stats:
            lines.append(f"{row.mechanism},{row.grid_value!r},{name},{value!r}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_report_csv(path) -> dict:
    """Parse a CSV report back into its comments and statistic rows."""
    comments: dict[str, str] = {}
    rows = []
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            comments[key] = value
        elif line != "mechanism,grid_value,statistic,value":
            mechanism, grid_value, statistic, value = line.split(",")
            rows.append(
                {
                    "mechanism": mechanism,
                    "grid_value": float(grid_value),
                    "statistic": statistic,
                    "value": float(value),
                }
            )
    if "config" not in comments:
        raise ValueError(f"{path}: missing config comment line")
    return {
        "config": json.loads(comments["config"]),
        "code_version": comments.get("code_version"),
        "seed_rule": comments.get("seed_rule"),
        "sweep_variable": comments.get("sweep_variable"),
        "rows": rows,
    }
