"""Acceptance gate: ten end-to-end criteria, one PASS/FAIL line each.

Each test prints ``acceptance NN <slug>: PASS`` (or FAIL) directly to the
terminal, then asserts.  Heavy statistical criteria use fixed seeds, so
every verdict here is deterministic.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from mldp import Histogram, MldpConfig, PrivacyBudget, all_range_queries, mldp_publish, predict
from mldp.bench import DatasetSpec, ExperimentConfig, run_sweep
from mldp.learning import fit_linear
from mldp.mechanisms import (
    NoisyAnswerSet,
    laplace_batch,
    laplace_sample,
    mwem_publish,
    strategy_mechanism,
)
from mldp.pipeline import BoundParameters, model_error_bound, noise_error_bound
from mldp.workload import (
    LinearQuery,
    Workload,
    all_subset_queries,
    brute_force_sensitivity,
    evaluate_workload,
    range_query,
    workload_sensitivity,
)

TABLE_HIST = Histogram([12.0, 24.0, 6.0, 7.0])
SIM_DATASET = DatasetSpec(d=128, max_count=1000, seed=7)


def _mean_mae(report: dict, mechanism: str, grid_index: int) -> float:
    """The mean MAE in a sweep report's row for one mechanism and grid index."""
    for row in report["rows"]:
        if row["mechanism"] == mechanism and row["grid_index"] == grid_index:
            return row["mean_mae"]
    raise KeyError(f"no row for ({mechanism!r}, {grid_index})")


def _verdict(capsys, label: str, failures: list[str]) -> None:
    ok = not failures
    with capsys.disabled():
        print(f"\nacceptance {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance {label}: " + "; ".join(failures)


def test_acceptance_01_sensitivity_exactness(capsys):
    failures: list[str] = []
    start = time.perf_counter()

    ranges = all_range_queries(4)
    if workload_sensitivity(ranges) != 6.0:
        failures.append("complete-range sensitivity over 4 bins is not 6")
    if brute_force_sensitivity(ranges, TABLE_HIST) != 6.0:
        failures.append("brute force disagrees on the worked example")
    singletons = Workload(4, [range_query(i, i, 4) for i in range(4)])
    if workload_sensitivity(singletons) != 1.0:
        failures.append("singleton workload sensitivity is not 1")

    rng = np.random.default_rng(20240817)
    for case in range(200):
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, 31))
        rows = rng.integers(-3, 4, size=(m, d)).astype(float)
        bins = rng.integers(0, 6, size=d).astype(float)
        w = Workload(d, [LinearQuery(r) for r in rows])
        h = Histogram(bins)
        if brute_force_sensitivity(w, h) != workload_sensitivity(w):
            failures.append(f"random case {case} (d={d}, m={m}) mismatch")
            break

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, limit 1s")
    _verdict(capsys, "01 sensitivity-exactness", failures)


def test_acceptance_02_workload_generators(capsys):
    failures: list[str] = []
    start = time.perf_counter()

    for d in range(2, 17):
        w = all_range_queries(d)
        if w.m != d * (d + 1) // 2:
            failures.append(f"all_range_queries({d}) has m={w.m}")
        expected = float(max(j * (d - j + 1) for j in range(1, d + 1)))
        if workload_sensitivity(w) != expected:
            failures.append(f"all_range_queries({d}) sensitivity != {expected}")

    subsets = all_subset_queries(10)
    if subsets.m != 1023:
        failures.append(f"all_subset_queries(10) has m={subsets.m}, not 1023")
    if workload_sensitivity(subsets) != 512.0:
        failures.append("all_subset_queries(10) sensitivity is not 512")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, limit 1s")
    _verdict(capsys, "02 workload-generators", failures)


def test_acceptance_03_laplace_statistics(capsys):
    failures: list[str] = []
    start = time.perf_counter()

    rng = np.random.default_rng(314159)
    draws = np.fromiter(
        (laplace_sample(6.0, rng) for _ in range(100_000)), dtype=float, count=100_000
    )
    mean_abs = float(np.mean(np.abs(draws)))
    median = float(np.median(draws))
    if not 5.82 <= mean_abs <= 6.18:
        failures.append(f"mean |x| = {mean_abs:.4f} outside [5.82, 6.18]")
    if not -0.15 <= median <= 0.15:
        failures.append(f"median = {median:.4f} outside [-0.15, 0.15]")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, limit 1s")
    _verdict(capsys, "03 laplace-statistics", failures)


def test_acceptance_04_zero_noise_exactness(capsys):
    failures: list[str] = []
    config = MldpConfig(
        epsilon=math.inf, selection="singleton", learner="linear", ridge=0.0
    )
    model = mldp_publish(TABLE_HIST, config, PrivacyBudget(math.inf))
    ranges = all_range_queries(4)
    errors = np.abs(predict(model, ranges) - evaluate_workload(ranges, TABLE_HIST))
    if errors.max() >= 1e-6:
        failures.append(f"max |error| = {errors.max():.3e} over the 10 range queries")
    _verdict(capsys, "04 zero-noise-exactness", failures)


def test_acceptance_05_budget_accounting(capsys):
    failures: list[str] = []
    ranges = all_range_queries(4)

    budget = PrivacyBudget(1.0)
    laplace_batch(ranges, TABLE_HIST, budget, 1.0, seed=0)
    if budget.ledger != (("laplace batch m=10", 1.0),):
        failures.append("laplace batch did not charge exactly its declared epsilon")

    budget = PrivacyBudget(0.75)
    mldp_publish(TABLE_HIST, MldpConfig(epsilon=0.75), budget)
    if len(budget.ledger) != 1 or budget.ledger[0][1] != 0.75:
        failures.append("model publishing did not charge exactly its declared epsilon")

    rounds = 10
    budget = PrivacyBudget(1.0)
    mwem_publish(ranges, TABLE_HIST, 1.0, rounds=rounds, seed=0, budget=budget)
    charges = [eps for _, eps in budget.ledger]
    if len(charges) != 2 * rounds:
        failures.append(f"mwem made {len(charges)} charges, expected {2 * rounds}")
    if len(set(charges)) != 1 or charges[0] != 1.0 / (2 * rounds):
        failures.append("mwem charges are not 2T equal slices of epsilon/(2T)")
    if abs(math.fsum(charges) - 1.0) > 1e-9:
        failures.append(f"mwem charges sum to {math.fsum(charges)}, not 1.0")

    for strategy in ("identity", "hierarchical"):
        budget = PrivacyBudget(0.5)
        strategy_mechanism(ranges, strategy, TABLE_HIST, 0.5, seed=0, budget=budget)
        if len(budget.ledger) != 1 or budget.ledger[0][1] != 0.5:
            failures.append(f"strategy {strategy} did not charge exactly its epsilon")

    budget = PrivacyBudget(1.0)
    model = mldp_publish(TABLE_HIST, MldpConfig(epsilon=1.0), budget)
    before = (budget.ledger, budget.spent, budget.remaining)
    for _ in range(10_000):
        predict(model, ranges)
    after = (budget.ledger, budget.spent, budget.remaining)
    if before != after:
        failures.append("answering queries from the model moved the ledger")

    _verdict(capsys, "05 budget-accounting", failures)


def test_acceptance_06_test_size_sweep_trend(capsys):
    failures: list[str] = []
    start = time.perf_counter()

    config = ExperimentConfig(
        dataset=SIM_DATASET,
        mechanisms=("mldp", "laplace"),
        sweep_variable="test_m",
        grid=tuple(float(v) for v in range(50, 501, 50)),
        epsilon=1.0,
        selection="singleton",
        learner="linear",
        trials=20,
        base_seed=0,
    )
    report = run_sweep(config)
    grid = report["grid"]
    mldp_means = np.array([_mean_mae(report, "mldp", i) for i in range(len(grid))])
    laplace_means = [_mean_mae(report, "laplace", i) for i in range(len(grid))]

    cov = float(np.std(mldp_means) / np.mean(mldp_means))
    if not cov < 0.2:
        failures.append(f"model-answer MAE coefficient of variation {cov:.3f} >= 0.2")
    rho = float(spearmanr(grid, laplace_means).statistic)
    if not rho >= 0.9:
        failures.append(f"batch-Laplace MAE Spearman rho {rho:.3f} < 0.9")

    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, limit 120s")
    _verdict(capsys, "06 test-size-sweep-trend", failures)


def test_acceptance_07_epsilon_sweep_trend(capsys):
    failures: list[str] = []
    start = time.perf_counter()

    grid = tuple(round(0.1 * k, 1) for k in range(1, 11))
    config = ExperimentConfig(
        dataset=SIM_DATASET,
        mechanisms=("mldp", "laplace", "mwem", "strategy-identity", "strategy-hier"),
        sweep_variable="epsilon",
        grid=grid,
        test_m=500,
        selection="singleton",
        learner="linear",
        rounds=10,
        trials=20,
        base_seed=0,
    )
    report = run_sweep(config)

    for mech in config.mechanisms:
        means = [_mean_mae(report, mech, i) for i in range(len(grid))]
        for i in range(len(means) - 1):
            if means[i + 1] > means[i] * 1.05:
                failures.append(
                    f"{mech} mean MAE rises {means[i]:.3f} -> {means[i + 1]:.3f} "
                    f"at epsilon {grid[i]} -> {grid[i + 1]} (beyond 5%)"
                )
    mldp_means = [_mean_mae(report, "mldp", i) for i in range(len(grid))]
    laplace_means = [_mean_mae(report, "laplace", i) for i in range(len(grid))]
    for i, (ours, direct) in enumerate(zip(mldp_means, laplace_means)):
        if not ours < direct:
            failures.append(
                f"model answering ({ours:.3f}) not below batch Laplace "
                f"({direct:.3f}) at epsilon {grid[i]}"
            )

    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s, limit 300s")
    _verdict(capsys, "07 epsilon-sweep-trend", failures)


def test_acceptance_08_bound_calculators(capsys):
    failures: list[str] = []

    worked_model = model_error_bound(
        BoundParameters(n_records=100, hypothesis_count=16, beta=0.05, m=50)
    )
    if abs(worked_model - 25.419418121494672) > 1e-9 * 25.42:
        failures.append(f"worked generalization bound {worked_model!r}")
    if abs(worked_model - 25.4196) > 5e-4:
        failures.append("worked generalization bound far from its quoted rounding")

    worked_noise = noise_error_bound(
        BoundParameters(
            n_records=100, hypothesis_count=16, beta=0.05, m=100, sensitivity=1.0, epsilon=1.0
        )
    )
    if abs(worked_noise - 0.48034658303328326) > 1e-9 * 0.49:
        failures.append(f"worked noise bound {worked_noise!r}")
    if abs(worked_noise - 0.48045) > 5e-4:
        failures.append("worked noise bound far from its quoted rounding")

    model_formula = "sqrt(n * n * log(2.0 * H / beta) / (2.0 * m))"
    noise_formula = "sqrt(4.0 * S * log(H / beta) / (m * eps * eps))"
    env = {"sqrt": math.sqrt, "log": math.log}
    rng = np.random.default_rng(8)
    for case in range(50):
        params = {
            "n": float(rng.uniform(0.5, 10_000.0)),
            "H": float(rng.uniform(2.0, 1e6)),
            "beta": float(rng.uniform(0.001, 0.5)),
            "m": int(rng.integers(1, 100_000)),
            "S": float(rng.uniform(0.1, 1000.0)),
            "eps": float(rng.uniform(0.01, 10.0)),
        }
        p = BoundParameters(
            n_records=params["n"],
            hypothesis_count=params["H"],
            beta=params["beta"],
            m=params["m"],
            sensitivity=params["S"],
            epsilon=params["eps"],
        )
        expected_model = eval(model_formula, {"__builtins__": {}}, {**env, **params})
        expected_noise = eval(noise_formula, {"__builtins__": {}}, {**env, **params})
        if abs(model_error_bound(p) - expected_model) > 1e-9 * abs(expected_model):
            failures.append(f"generalization bound off on random case {case}")
        if abs(noise_error_bound(p) - expected_noise) > 1e-9 * abs(expected_noise):
            failures.append(f"noise bound off on random case {case}")

    _verdict(capsys, "08 bound-calculators", failures)


def test_acceptance_09_mwem_sanity(capsys):
    failures: list[str] = []

    # A one-query workload pins the selected query, so the final answer
    # to it measures how well the refit synthetic absorbed the
    # measurements; epsilon = 50 over T = 10 rounds must land within 2.
    w = Workload(4, [range_query(1, 1, 4)])
    errors = []
    for seed in range(20):
        invariant_broken = []

        def check(t, bins, bad=invariant_broken):
            if bins.min() < 0:
                bad.append(f"negative bin in round {t}")
            if abs(bins.sum() - TABLE_HIST.total) > 1e-9:
                bad.append(f"total drifted in round {t}")

        _, answers = mwem_publish(
            w, TABLE_HIST, 50.0, rounds=10, seed=seed, on_round=check
        )
        if invariant_broken:
            failures.append(f"seed {seed}: {invariant_broken[0]}")
        errors.append(abs(float(answers[0]) - 24.0))

    mean_error = float(np.mean(errors))
    if not mean_error < 2.0:
        failures.append(f"mean |answer - 24| = {mean_error:.3f} over 20 seeds")

    _verdict(capsys, "09 mwem-sanity", failures)


def test_acceptance_10_gradient_check(capsys):
    failures: list[str] = []
    rng = np.random.default_rng(99)

    for case in range(20):
        d = int(rng.integers(2, 11))
        m = int(rng.integers(1, 16))
        features = rng.normal(size=(m, d))
        targets = rng.normal(scale=10.0, size=m)
        ridge = float(10.0 ** rng.uniform(-6, -1))
        workload = Workload(d, [LinearQuery(row) for row in features])
        training = NoisyAnswerSet(workload, targets, 1.0, 1.0, seed=None)
        v = fit_linear(training, ridge=ridge).weights[1:]

        def loss(vec):
            r = features @ vec - targets
            return float(r @ r + ridge * (vec @ vec))

        def fd_gradient(vec, h=1e-6):
            g = np.zeros_like(vec)
            for i in range(vec.size):
                e = np.zeros_like(vec)
                e[i] = h
                g[i] = (loss(vec + e) - loss(vec - e)) / (2 * h)
            return g

        at_solution = np.linalg.norm(fd_gradient(v))
        away = np.linalg.norm(fd_gradient(v + 0.5))
        if not at_solution <= 1e-4 * away:
            failures.append(
                f"case {case}: gradient norm {at_solution:.3e} vs {away:.3e} nearby"
            )

    _verdict(capsys, "10 gradient-check", failures)
