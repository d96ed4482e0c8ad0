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
from .mechanisms import (
    PrivacyBudget, _mwem_runs, laplace_batch, mwem_publish, strategy_mechanism
)
from .pipeline import MldpConfig, _training_bounds, mldp_publish
from .seeds import derive_seed
from .workload import Workload, _range_indicators, evaluate_workload, random_range_workload

__all__ = [
    "MECHANISMS",
    "SWEEP_VARIABLES",
    "mae",
    "DatasetSpec",
    "ExperimentConfig",
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
    """Where the histogram comes from: a CSV path (a str) or a simulation spec."""

    path: str | None = None
    d: int | None = None
    max_count: int | None = None
    seed: int | None = None

    def __post_init__(self):
        simulated = (self.d, self.max_count, self.seed)
        # A spec with no simulation field is a path spec, so {"path": null} is refused here.
        if self.path is not None or all(v is None for v in simulated):
            if not isinstance(self.path, str):
                raise ValueError(f"dataset path must be a string, got {self.path!r}")
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
            return cls(path=data["path"])
        if "simulated" in data:
            sim = data["simulated"]
            extra = set(sim) - {"d", "max_count", "seed"} if isinstance(sim, dict) else ()
            if extra:
                raise ValueError(f"unknown simulated dataset keys {sorted(extra)}")
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
        repeated = sorted({m for m in self.mechanisms if self.mechanisms.count(m) > 1})
        if repeated:
            raise ValueError(f"mechanisms listed more than once: {repeated}")
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


# The most MWEM runs run_sweep queues before it refits them together: it
# bounds what a sweep holds at once, whatever its number of trials.
_MWEM_BATCH = 200


class _PendingMae:
    """A queued MWEM run's MAE; float() reads it once its batch has run."""

    __slots__ = ("value",)

    def __float__(self) -> float:
        return self.value


def _run_mwem_queue(queue: list, hist: Histogram, rounds: int) -> None:
    """Refit the queued MWEM runs together and fill in their MAEs; empties the queue.

    A queued run is ``(pending, group, epsilon, seed)``, with ``group``
    its test workload's engine group ``(rows, truth)``, shared by every
    run on that workload.  Each run gets a fresh budget of its epsilon,
    as in :func:`_baseline_mae`, and the MAE of the answers of its
    synthetic histogram.
    """
    if not queue:
        return
    groups, position, runs = [], {}, []
    for _, group, epsilon, seed in queue:
        if id(group) not in position:
            position[id(group)] = len(groups)
            groups.append(group)
        runs.append((position[id(group)], epsilon, seed, PrivacyBudget(epsilon), None))
    for k, _, answers in _mwem_runs(hist, groups, runs, rounds):
        queue[k][0].value = mae(answers, groups[runs[k][0]][1])
    queue.clear()


def _overlap_count(lo, hi, test: Workload) -> int:
    """How many test queries also appear in the training ranges [lo[i], hi[i]].

    Both are range workloads: the test workload comes from
    ``random_range_workload`` and a sweep's training workload from the
    ranges pool.  So a query is its integer key ``lo * (d + 1) + hi``
    and no rows are compared.
    """
    n = test.d + 1
    keys = np.asarray(lo, dtype=np.int64) * n + np.asarray(hi, dtype=np.int64)
    tested = np.array(test._lo, dtype=np.int64) * n + np.array(test._hi, dtype=np.int64)
    return int(np.isin(tested, keys).sum())


# Which swept variables each per-trial object reads: SEED_RULE as data.
# An object that reads the swept variable is drawn at each grid point i
# from derive_seed(trial_seed, name, i); any other is drawn once per
# trial from derive_seed(trial_seed, name) and shared across the grid.
_READS = {
    "test-workload": ("test_m",),
    "mldp": ("training_m", "epsilon"),
    "baseline": ("test_m", "epsilon"),
}


def run_sweep(config: ExperimentConfig) -> dict:
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

    MWEM runs are not run one by one.  Each is queued with its epsilon,
    its seed and its test workload's exact answers and ``rows``, which
    builds the 0/1 range rows afresh from the workload's int32 bounds;
    its report rows hold a placeholder for its MAE.  When a run finds
    _MWEM_BATCH runs waiting, and after the last trial, the queue runs
    through the lockstep engine ``mechanisms._mwem_runs``, which gives
    each run the bytes mwem_publish gives it alone, and the MAEs are
    filled in.  A queued run holds no test Workload and no matrix, so
    what a sweep holds across trials is bounded by the batch.

    Returns the report document that emit_report writes, with the keys
    config, code_version, seed_rule, sweep_variable, grid and rows.
    There is one row per mechanism and grid index, in the config's
    order.  A row holds mechanism, grid_index, grid_value, mean_mae,
    std_mae (sample standard deviation, 0.0 for one trial), trial_seeds,
    trial_maes and train_test_overlap.  The overlap is the mean count of
    test queries found in the training workload; it is None for the
    baselines.
    """
    var = config.sweep_variable
    if var == "training_m" and "mldp" in config.mechanisms and config.selection != "random_m":
        raise ValueError("the training-size sweep varies m, which needs random_m selection")
    hist = config.dataset.load()
    # (seed, mae, overlap) of each trial, by (mechanism, grid index)
    trials = {(mech, i): [] for mech in config.mechanisms for i in range(len(config.grid))}
    queue = []  # MWEM runs waiting for _run_mwem_queue

    def test_workload(at, seed):
        test = random_range_workload(hist.d, at["test_m"], seed)
        test.matrix  # built once: every grid point's model and both strategies answer it
        truth = evaluate_workload(test, hist)
        lo, hi = np.array(test._lo, dtype=np.int32), np.array(test._hi, dtype=np.int32)
        return test, truth, (lambda: _range_indicators(hist.d, lo, hi).astype(float), truth)

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

    def baseline(mech, at, test, truth, group, seed):
        if mech != "mwem":
            return seed, _baseline_mae(mech, test, truth, hist, at["epsilon"], config.rounds, seed)
        if len(queue) == _MWEM_BATCH:
            _run_mwem_queue(queue, hist, config.rounds)
        pending = _PendingMae()
        queue.append((pending, group, at["epsilon"], seed))
        return seed, pending

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
            test, truth, group = draw(
                "test-workload", "test-workload", i, lambda s: test_workload(at, s)
            )
            for mech in config.mechanisms:
                if mech == "mldp":
                    seed, mc, model = draw("mldp", "mldp", i, lambda s: publish(at, s))
                    error = mae(predict(model, test), truth)
                    overlap = _overlap_count(*_training_bounds(hist.d, mc), test)
                    trials[mech, i].append((seed, error, overlap))
                else:
                    seed, error = draw(
                        "baseline", mech, i, lambda s: baseline(mech, at, test, truth, group, s)
                    )
                    trials[mech, i].append((seed, error, None))

    test = shared = None  # release the last test workload before the queue is refit
    _run_mwem_queue(queue, hist, config.rounds)

    return {
        "config": config.to_dict(),
        "code_version": __version__,
        "seed_rule": SEED_RULE,
        "sweep_variable": var,
        "grid": list(config.grid),
        "rows": [
            _report_row(mech, i, value, trials[mech, i])
            for mech in config.mechanisms
            for i, value in enumerate(config.grid)
        ],
    }


def _report_row(mechanism, grid_index, grid_value, trials) -> dict:
    """A report row from one (mechanism, grid point)'s (seed, mae, overlap) trials."""
    maes = [float(error) for _, error, _ in trials]
    overlaps = [float(overlap) for _, _, overlap in trials if overlap is not None]
    return {
        "mechanism": mechanism,
        "grid_index": grid_index,
        "grid_value": float(grid_value),
        "mean_mae": float(np.mean(maes)),
        "std_mae": float(np.std(maes, ddof=1)) if len(maes) > 1 else 0.0,
        "trial_seeds": [int(seed) for seed, _, _ in trials],
        "trial_maes": maes,
        "train_test_overlap": float(np.mean(overlaps)) if overlaps else None,
    }


def _report_format(path) -> str:
    """"json" or "csv", from the path's suffix; ValueError for any other."""
    fmt = Path(path).suffix.lstrip(".").lower()
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}; expected a .csv or .json path")
    return fmt


def emit_report(report: dict, path) -> None:
    """Write a run_sweep report to a .json or a .csv path.

    The path's suffix picks the format.  A .json file is the document
    itself and is byte-stable: re-running the same config and seed
    writes the identical file.  A document strict JSON cannot hold (a
    NaN, an infinity, an np.float32) raises ValueError before the file
    is opened.
    A .csv file carries the config echo and provenance as '#' comment
    lines, then one line per (mechanism, grid point, statistic), for
    plotting; a grid value or statistic that is not a finite Python int
    or float raises ValueError before the file is opened.
    """
    if _report_format(path) == "json":
        text = json.dumps(report, indent=2, allow_nan=False, default=_json_refusal)
        with open(path, "w") as fh:
            fh.write(text + "\n")
        return
    lines = [
        f"# config: {json.dumps(report['config'], separators=(',', ':'))}",
        f"# code_version: {report['code_version']}",
        f"# seed_rule: {report['seed_rule']}",
        f"# sweep_variable: {report['sweep_variable']}",
        "mechanism,grid_value,statistic,value",
    ]
    for row in report["rows"]:
        for name in ("mean_mae", "std_mae", "train_test_overlap"):
            if row[name] is not None:
                grid_value, value = _csv_number(row["grid_value"]), _csv_number(row[name])
                lines.append(f"{row['mechanism']},{grid_value},{name},{value}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_refusal(value):
    """The json.dumps default hook: ValueError, as for a NaN, in place of json's TypeError."""
    raise ValueError(f"a JSON report holds JSON types only, not {value!r}")


def _csv_number(value) -> str:
    """The repr of a finite Python int or float, which read_report_csv reads back."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"a CSV report holds finite Python numbers, not {value!r}")
    return repr(value)


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
