"""The three benchmark workloads: inputs, timed body, output checks.

Each workload is a closed loop: one caller makes one call at a time.
Its inputs come from one of ``INPUT_SETS`` input sets, picked by the
run seed, and ``reference.json`` holds the expected outputs of every
input set as measured on the commit named there.  Outputs are compared
as numbers, never as bytes: report bytes depend on the BLAS thread
count.

An operation is a sweep cell (mechanism x grid point x trial) or a CLI
command.  ``check`` counts the operations attempted and failed.

The end-to-end metrics include an MAE for every mechanism.  Where the
timed body does not run a mechanism, its MAE comes from an untimed
probe after the timed loop: the mechanism answers the workload's own
test queries at the workload's epsilon, so the timed body still
bypasses it.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from mldp import bench, cli, histogram, learning, seeds, workload

INPUT_SETS = 16

MECHANISMS = ("mldp", "laplace", "mwem", "strategy-identity", "strategy-hier")

# Matches a sweep row's MAE statistics, a model MAE or a probe MAE to its
# reference.  Loose enough for rewrites that only reorder floating-point
# sums (a second BLAS thread moves trial MAEs by about 2e-13 relative),
# tight enough for any change in accuracy.
REL_TOL = 1e-6

# answer output against library predict on the same model.
ANSWER_REL_TOL = 1e-9


def close(a, b) -> bool:
    return a is not None and b is not None and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


@dataclass
class Outcome:
    """What one timed iteration (or the probe) did, as the checks saw it."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    maes: dict[str, float] = field(default_factory=dict)
    publish_s: float = 0.0
    answer_s: float = 0.0
    answered: int = 0
    observed: dict = field(default_factory=dict)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


class _CallTimer:
    """Sums the wall time of calls to ``bench.<attr>`` while installed."""

    def __init__(self, attr: str, size_of=None):
        self.attr, self.size_of = attr, size_of
        self.seconds, self.items = 0.0, 0

    def __enter__(self):
        self.original = original = getattr(bench, self.attr)

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - start
                if self.size_of is not None:
                    self.items += self.size_of(*args, **kwargs)

        setattr(bench, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(bench, self.attr, self.original)


class _Sweep:
    """A ``run_sweep`` plus ``emit_report`` over a simulated histogram."""

    name = ""
    mechanisms: tuple[str, ...] = ()
    grid: tuple[float, ...] = ()
    trend_rules = False

    def config(self, k: int) -> bench.ExperimentConfig:
        raise NotImplementedError

    def setup(self, work: Path, k: int) -> None:
        self.work, self.k = work, k
        self.cfg = self.config(k)
        self.hist = self.cfg.dataset.load()
        self.report_path = work / "report.json"

    def run(self, out: Outcome) -> None:
        with _CallTimer("mldp_publish") as publish, _CallTimer(
            "predict", lambda model, wl: wl.m
        ) as predict:
            report = bench.run_sweep(self.cfg)
            bench.emit_report(report, self.report_path)
        out.publish_s = publish.seconds
        out.answer_s, out.answered = predict.seconds, predict.items

    def ops_per_iteration(self) -> int:
        return len(self.mechanisms) * len(self.cfg.grid) * self.cfg.trials

    def check(self, out: Outcome, ref: dict | None) -> None:
        """Compare the emitted report, read back from its file, to the reference."""
        trials, grid = self.cfg.trials, self.cfg.grid
        out.attempted += self.ops_per_iteration()
        rows = {}
        try:
            with open(self.report_path) as fh:
                doc = json.load(fh)
            for row in doc["rows"]:
                rows[(row["mechanism"], row["grid_index"])] = row
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out.fail(self.ops_per_iteration(), f"unreadable report: {exc}")
            return
        observed = {}
        bad = set()
        for mech in self.mechanisms:
            means, stds = [], []
            for i, value in enumerate(grid):
                row = rows.get((mech, i))
                if (
                    row is None
                    or row.get("grid_value") != value
                    or len(row.get("trial_maes", ())) != trials
                    or not all(math.isfinite(v) for v in row["trial_maes"])
                ):
                    bad.add((mech, i))
                    means.append(None)
                    stds.append(None)
                    continue
                means.append(row["mean_mae"])
                stds.append(row["std_mae"])
                if ref is not None and not (
                    close(row["mean_mae"], ref["mean_mae"][mech][i])
                    and close(row["std_mae"], ref["std_mae"][mech][i])
                ):
                    bad.add((mech, i))
            observed[mech] = {"mean_mae": means, "std_mae": stds}
        if self.trend_rules and self.k == 0:
            bad |= _trend_failures(observed, grid)
        for mech, i in sorted(bad):
            out.fail(trials, f"{mech} at grid point {grid[i]} fails its check")
        out.observed = {
            stat: {mech: v[stat] for mech, v in observed.items()}
            for stat in ("mean_mae", "std_mae")
        }
        for mech, v in observed.items():
            if None not in v["mean_mae"]:
                out.maes[mech] = float(np.mean(v["mean_mae"]))

    def probe(self, out: Outcome, ref: dict | None) -> None:
        """Untimed MAE of each mechanism the sweep leaves out, on its test sets."""
        cfg = self.cfg
        for mech in MECHANISMS:
            if mech in self.mechanisms:
                continue
            values = []
            for t in range(cfg.trials):
                trial_seed = cfg.base_seed + t
                test = workload.random_range_workload(
                    self.hist.d, cfg.test_m, seeds.derive_seed(trial_seed, "test-workload")
                )
                truth = workload.evaluate_workload(test, self.hist)
                values.append(
                    bench._baseline_mae(
                        mech, test, truth, self.hist, cfg.epsilon, cfg.rounds,
                        seeds.derive_seed(trial_seed, mech),
                    )
                )
            _record_probe(out, ref, mech, float(np.mean(values)), len(values))


def _trend_failures(observed: dict, grid) -> set:
    """The acceptance-07 trend rules, as the set of (mechanism, index) breaking them.

    Each mechanism's mean MAE may rise by at most 5% from one epsilon to
    the next, and the model's mean MAE stays below batch Laplace's.
    """
    bad = set()
    for mech, v in observed.items():
        means = v["mean_mae"]
        for i in range(len(grid) - 1):
            if means[i] is not None and means[i + 1] is not None and means[i + 1] > means[i] * 1.05:
                bad.add((mech, i + 1))
    if "mldp" in observed and "laplace" in observed:
        for i, (ours, direct) in enumerate(
            zip(observed["mldp"]["mean_mae"], observed["laplace"]["mean_mae"])
        ):
            if ours is not None and direct is not None and not ours < direct:
                bad.add(("mldp", i))
    return bad


def _record_probe(out: Outcome, ref: dict | None, mech: str, value: float, ops: int) -> None:
    out.attempted += ops
    out.maes[mech] = value
    out.observed.setdefault("probe", {})[mech] = value
    if not math.isfinite(value) or (ref is not None and not close(value, ref["probe"][mech])):
        out.fail(ops, f"probe {mech} MAE {value!r} differs from the reference")


class EpsSweep(_Sweep):
    """The acceptance-07 epsilon sweep; the input set picks the trial seeds.

    Input set 0 is the acceptance-07 config exactly and must also pass
    its trend rules.  The rules are a statistical claim about those
    seeds: at other trial seeds adjacent epsilons can differ by more
    than 5% by chance (input sets 11, 12 and 15 do), so there the
    numeric reference alone pins the outputs.
    """

    name = "eps-sweep-d128"
    mechanisms = MECHANISMS
    grid = tuple(round(0.1 * k, 1) for k in range(1, 11))
    trend_rules = True

    def config(self, k: int) -> bench.ExperimentConfig:
        return bench.ExperimentConfig(
            dataset=bench.DatasetSpec(d=128, max_count=1000, seed=7),
            mechanisms=self.mechanisms,
            sweep_variable="epsilon",
            grid=self.grid,
            test_m=500,
            selection="singleton",
            learner="linear",
            rounds=10,
            trials=20,
            base_seed=k,
        )


class TrainSweep(_Sweep):
    """A training-size sweep over all 131 328 ranges at d=512."""

    name = "train-sweep-d512"
    mechanisms = ("mldp", "laplace", "strategy-identity", "strategy-hier")
    grid = (128.0, 256.0, 512.0, 1024.0, 2048.0)

    def config(self, k: int) -> bench.ExperimentConfig:
        return bench.ExperimentConfig(
            dataset=bench.DatasetSpec(d=512, max_count=1000, seed=7),
            mechanisms=self.mechanisms,
            sweep_variable="training_m",
            grid=self.grid,
            epsilon=1.0,
            test_m=2000,
            selection="random_m",
            learner="linear",
            rounds=10,
            trials=20,
            base_seed=k,
        )


# (selection, m, learner) of the three models a cli session publishes.
CLI_MODELS = (
    ("greedy_cover", None, "linear"),
    ("random_m", 500, "rbf"),
    ("random_m", 2000, "linear"),
)


# Noise draws averaged by each cli probe; one draw is too noisy to compare
# across input sets.
PROBE_TRIALS = 20


class CliSession:
    """A curator's session through ``mldp.cli.main``: publish three, answer three."""

    name = "cli-session-d256"
    d = 256
    answer_m = 10_000
    epsilon = 1.0

    def setup(self, work: Path, k: int) -> None:
        self.work, self.k = work, k
        self.hist = histogram.generate_simulated_histogram(self.d, 1000, 7)
        self.hist_path = work / "histogram.csv"
        histogram.save_histogram_csv(self.hist, self.hist_path)
        self.queries = workload.random_range_workload(
            self.d, self.answer_m, seeds.derive_seed(k, "cli-queries")
        )
        self.queries_path = work / "queries.csv"
        workload.save_workload_csv(self.queries, self.queries_path)
        self.truth = workload.evaluate_workload(self.queries, self.hist)
        self.config_paths, self.model_paths, self.answer_paths = [], [], []
        for i, (selection, m, learner) in enumerate(CLI_MODELS):
            config = {"epsilon": self.epsilon, "selection": selection, "learner": learner,
                      "seed": seeds.derive_seed(k, "cli-model", i)}
            if m is not None:
                config["m"] = m
            path = work / f"publish{i}.json"
            path.write_text(json.dumps(config))
            self.config_paths.append(path)
            self.model_paths.append(work / f"model{i}.json")
            self.answer_paths.append(work / f"answers{i}.csv")
        self.log_path = work / "cli.log"

    def ops_per_iteration(self) -> int:
        return 2 * len(CLI_MODELS)

    def _main(self, argv, stdout_path) -> tuple[int, float]:
        start = perf_counter()
        with open(stdout_path, "w") as out, open(self.log_path, "a") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([str(a) for a in argv])
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
        return code, perf_counter() - start

    def run(self, out: Outcome) -> None:
        self.codes = []
        for config, model in zip(self.config_paths, self.model_paths):
            code, seconds = self._main(
                ["publish", self.hist_path, "--config", config, "--out", model],
                self.work / "publish.out",
            )
            self.codes.append(code)
            out.publish_s += seconds
        for model, answers in zip(self.model_paths, self.answer_paths):
            code, seconds = self._main(["answer", model, self.queries_path], answers)
            self.codes.append(code)
            out.answer_s += seconds
            out.answered += self.answer_m

    def check(self, out: Outcome, ref: dict | None) -> None:
        n = len(CLI_MODELS)
        out.attempted += self.ops_per_iteration()
        model_maes = []
        for i in range(n):
            publish_code, answer_code = self.codes[i], self.codes[n + i]
            if publish_code != 0 or answer_code != 0:
                out.fail(2, f"model {i}: publish exited {publish_code}, answer {answer_code}")
                model_maes.append(None)
                continue
            try:
                model = learning.load_model(self.model_paths[i])
            except (OSError, ValueError) as exc:
                out.fail(2, f"model {i} does not load: {exc}")
                model_maes.append(None)
                continue
            answers = _read_answers(self.answer_paths[i])
            expected = learning.predict(model, self.queries)
            if answers is None or answers.shape != expected.shape or not np.allclose(
                answers, expected, rtol=ANSWER_REL_TOL, atol=1e-9
            ):
                out.fail(1, f"model {i}: answer output differs from library predict")
            value = bench.mae(expected, self.truth)
            model_maes.append(value)
            if ref is not None and not close(value, ref["model_mae"][i]):
                out.fail(1, f"model {i}: MAE {value!r} differs from the reference")
        out.observed = {"model_mae": model_maes}
        if None not in model_maes:
            out.maes["mldp"] = float(np.mean(model_maes))

    def probe(self, out: Outcome, ref: dict | None) -> None:
        """Untimed: each baseline answers the session's queries PROBE_TRIALS times.

        The noise seeds are the same for every input set, so a probe's MAE
        moves only with the session's queries and with the code.
        """
        for mech in MECHANISMS[1:]:
            values = [
                bench._baseline_mae(
                    mech, self.queries, self.truth, self.hist, self.epsilon, 10,
                    seeds.derive_seed(t, "cli-probe", mech),
                )
                for t in range(PROBE_TRIALS)
            ]
            _record_probe(out, ref, mech, float(np.mean(values)), PROBE_TRIALS)


def _read_answers(path) -> np.ndarray | None:
    """The answer column of an ``mldp answer`` output, or None if malformed."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    if not lines or lines[0] != "query_id,answer":
        return None
    values = []
    for i, line in enumerate(lines[1:]):
        qid, _, value = line.partition(",")
        if qid != str(i):
            return None
        try:
            values.append(float(value))
        except ValueError:
            return None
    return np.array(values)


WORKLOADS = {w.name: w for w in (EpsSweep, TrainSweep, CliSession)}
