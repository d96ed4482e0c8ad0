"""Budget ledger, Laplace batch release, MW synthesis, strategy answering."""

from __future__ import annotations

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from mldp import (
    Histogram,
    MldpConfig,
    PrivacyBudget,
    mechanisms,
    mldp_publish,
    random_range_workload,
)
from mldp.histogram import generate_simulated_histogram
from mldp.learning import DEFAULT_LINEAR_RIDGE, fit_linear, select_training_set
from mldp.mechanisms import (
    InsufficientBudgetError,
    NoisyAnswerSet,
    _exponential_mechanism,
    laplace_batch,
    laplace_sample,
    mwem_publish,
    strategy_mechanism,
)
from mldp.seeds import derive_seed
from mldp.workload import (
    LinearQuery,
    Workload,
    _range_indicators,
    evaluate_workload,
    range_query,
    workload_sensitivity,
)


class TestPrivacyBudget:
    def test_ledger_appends_in_order(self):
        b = PrivacyBudget(1.0)
        b.charge("first", 0.25)
        b.charge("second", 0.5)
        assert b.ledger == (("first", 0.25), ("second", 0.5))
        assert b.spent == pytest.approx(0.75, abs=1e-15)
        assert b.remaining == pytest.approx(0.25, abs=1e-15)
        assert b.epsilon_total == 1.0

    def test_overcharge_raises_and_leaves_ledger_untouched(self):
        b = PrivacyBudget(1.0)
        b.charge("first", 0.75)
        with pytest.raises(InsufficientBudgetError, match="exceeds remaining"):
            b.charge("too much", 0.5)
        assert b.ledger == (("first", 0.75),)
        assert b.spent == 0.75

    def test_exact_exhaustion_is_allowed(self):
        b = PrivacyBudget(1.0)
        for i in range(10):
            b.charge(f"slice {i}", 0.1)
        assert b.spent == pytest.approx(1.0, abs=1e-12)
        assert b.remaining == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(InsufficientBudgetError):
            b.charge("one more", 0.1)

    def test_infinite_budget(self):
        b = PrivacyBudget(math.inf)
        b.charge("big", math.inf)
        b.charge("more", 5.0)
        assert b.remaining == math.inf
        assert math.isinf(b.spent)

    def test_finite_budget_rejects_infinite_charge(self):
        b = PrivacyBudget(2.0)
        with pytest.raises(InsufficientBudgetError):
            b.charge("noise-free", math.inf)

    def test_rejects_bad_totals(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                PrivacyBudget(bad)

    def test_rejects_bad_charges(self):
        b = PrivacyBudget(1.0)
        for bad in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="strictly positive"):
                b.charge("bad", bad)
        assert b.ledger == ()


class TestLaplaceSample:
    def test_zero_scale_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        assert laplace_sample(0.0, rng) == 0.0

    def test_rejects_negative_or_nan_scale(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            laplace_sample(-1.0, rng)
        with pytest.raises(ValueError):
            laplace_sample(math.nan, rng)

    def test_deterministic_given_generator_state(self):
        a = laplace_sample(2.0, np.random.default_rng(42))
        b = laplace_sample(2.0, np.random.default_rng(42))
        assert a == b

    def test_moments_match_distribution(self):
        # E|X| = scale and median = 0 for Laplace(0, scale).
        rng = np.random.default_rng(2024)
        draws = np.array([laplace_sample(2.0, rng) for _ in range(20_000)])
        assert abs(np.mean(np.abs(draws)) - 2.0) < 0.06
        assert abs(np.median(draws)) < 0.05


# Values float() would read as a number; every entry point refuses them.
NOT_NUMBERS = [True, "1.0", None]


class TestNumbersAreNotCoerced:
    @pytest.mark.parametrize("bad", NOT_NUMBERS, ids=repr)
    def test_budget_total_and_charge(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"epsilon_total={bad!r} is not a number")):
            PrivacyBudget(bad)
        b = PrivacyBudget(1.0)
        with pytest.raises(ValueError, match=re.escape(f"epsilon={bad!r} is not a number")):
            b.charge("bad", bad)
        assert b.ledger == ()

    @pytest.mark.parametrize("bad", NOT_NUMBERS, ids=repr)
    def test_laplace_sample_scale(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"scale={bad!r} is not a number")):
            laplace_sample(bad, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", NOT_NUMBERS, ids=repr)
    @pytest.mark.parametrize("release", ["laplace_batch", "mwem_publish", "strategy_mechanism"])
    def test_release_epsilon_charges_nothing(self, hist4, ranges4, release, bad):
        budget = PrivacyBudget(10.0)
        run = {
            "laplace_batch": lambda: laplace_batch(ranges4, hist4, budget, bad, seed=0),
            "mwem_publish": lambda: mwem_publish(ranges4, hist4, bad, 2, 0, budget=budget),
            "strategy_mechanism": lambda: strategy_mechanism(
                ranges4, "identity", hist4, bad, 0, budget=budget
            ),
        }[release]
        message = f"{release} field of the wrong type: epsilon={bad!r} is not a number"
        with pytest.raises(ValueError, match=re.escape(message)):
            run()
        assert budget.ledger == ()

    def test_ints_numpy_floats_and_inf_are_accepted(self, hist4, ranges4):
        budget = PrivacyBudget(np.float64(10.0))
        budget.charge("int", 1)
        laplace_batch(ranges4, hist4, budget, np.float32(0.5), seed=0)
        mwem_publish(ranges4, hist4, 2, 2, 0, budget=budget)
        strategy_mechanism(ranges4, "identity", hist4, np.float64(1.5), 0, budget=budget)
        assert [eps for _, eps in budget.ledger][:2] == [1.0, 0.5]
        assert budget.spent == pytest.approx(5.0)
        assert laplace_sample(np.float64(0.0), np.random.default_rng(0)) == 0.0
        assert laplace_sample(1, np.random.default_rng(0)) != 0.0
        unlimited = PrivacyBudget(math.inf)
        exact = laplace_batch(ranges4, hist4, unlimited, math.inf, seed=0)
        np.testing.assert_array_equal(exact.answers, evaluate_workload(ranges4, hist4))
        assert unlimited.ledger == (("laplace batch m=10", math.inf),)


class TestLaplaceBatch:
    def test_release_metadata(self, hist4, ranges4):
        b = PrivacyBudget(2.0)
        out = laplace_batch(ranges4, hist4, b, 1.0, seed=11)
        assert out.sensitivity_used == 6.0
        assert out.epsilon_used == 1.0
        assert out.seed == 11
        assert out.answers.shape == (10,)
        assert out.workload is ranges4

    def test_charges_exactly_once(self, hist4, ranges4):
        b = PrivacyBudget(2.0)
        laplace_batch(ranges4, hist4, b, 1.25, seed=0)
        assert b.ledger == (("laplace batch m=10", 1.25),)

    def test_deterministic_per_seed(self, hist4, ranges4):
        b = PrivacyBudget(math.inf)
        one = laplace_batch(ranges4, hist4, b, 1.0, seed=5)
        two = laplace_batch(ranges4, hist4, b, 1.0, seed=5)
        other = laplace_batch(ranges4, hist4, b, 1.0, seed=6)
        np.testing.assert_array_equal(one.answers, two.answers)
        assert not np.array_equal(one.answers, other.answers)

    def test_insufficient_budget_charges_nothing(self, hist4, ranges4):
        b = PrivacyBudget(0.5)
        with pytest.raises(InsufficientBudgetError):
            laplace_batch(ranges4, hist4, b, 1.0, seed=0)
        assert b.ledger == ()

    def test_empty_workload_is_free(self, hist4):
        b = PrivacyBudget(1.0)
        out = laplace_batch(Workload(4, []), hist4, b, 1.0, seed=0)
        assert out.answers.shape == (0,)
        assert b.ledger == ()

    def test_noise_free_mode_returns_exact_answers(self, hist4, ranges4, ranges4_answers):
        b = PrivacyBudget(math.inf)
        out = laplace_batch(ranges4, hist4, b, math.inf, seed=0)
        np.testing.assert_array_equal(out.answers, ranges4_answers)

    def test_empirical_error_matches_noise_scale(self, hist4, ranges4, ranges4_answers):
        # Scale is S/eps = 6/2 = 3, so mean |answer - truth| should be 3.
        b = PrivacyBudget(math.inf)
        errs = []
        for seed in range(2_000):
            out = laplace_batch(ranges4, hist4, b, 2.0, seed=seed)
            errs.append(np.abs(out.answers - ranges4_answers).mean())
        assert abs(float(np.mean(errs)) - 3.0) < 0.15  # within 5%

    def test_dimension_mismatch(self, ranges4):
        b = PrivacyBudget(1.0)
        with pytest.raises(ValueError, match="d=3"):
            laplace_batch(ranges4, Histogram([1.0, 2.0, 3.0]), b, 1.0, seed=0)

    def test_rejects_bad_epsilon(self, hist4, ranges4):
        b = PrivacyBudget(1.0)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="epsilon"):
                laplace_batch(ranges4, hist4, b, bad, seed=0)


class TestNoisyAnswerSet:
    def test_rejects_answer_count_mismatch(self, ranges4):
        with pytest.raises(ValueError, match="answers"):
            NoisyAnswerSet(ranges4, np.zeros(3), 6.0, 1.0, seed=0)

    def test_answers_read_only(self, ranges4):
        out = NoisyAnswerSet(ranges4, np.zeros(10), 6.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            out.answers[0] = 1.0


class TestExponentialMechanism:
    def test_noise_free_mode_is_argmax_with_lowest_index_ties(self):
        rng = np.random.default_rng(0)
        scores = np.array([1.0, 7.0, 7.0, 3.0])
        assert _exponential_mechanism(scores, math.inf, rng) == 1

    def test_sampling_frequencies_follow_scores(self):
        # eps=2 with scores [1, 0] gives P(0) = e / (1 + e) ~ 0.731.
        rng = np.random.default_rng(77)
        scores = np.array([1.0, 0.0])
        hits = sum(
            _exponential_mechanism(scores, 2.0, rng) == 0 for _ in range(5_000)
        )
        assert abs(hits / 5_000 - math.e / (1 + math.e)) < 0.02

    def test_large_scores_do_not_overflow(self):
        rng = np.random.default_rng(0)
        scores = np.array([1e6, 1e6 - 1.0])
        assert _exponential_mechanism(scores, 1.0, rng) in (0, 1)


class TestMwem:
    def test_budget_split_across_rounds(self, hist4, ranges4):
        b = PrivacyBudget(1.0)
        mwem_publish(ranges4, hist4, 1.0, rounds=5, seed=0, budget=b)
        assert len(b.ledger) == 10
        assert all(eps == pytest.approx(0.1, abs=1e-15) for _, eps in b.ledger)
        labels = [label for label, _ in b.ledger]
        assert labels[0] == "mwem select round 1"
        assert labels[1] == "mwem measure round 1"
        assert labels[-1] == "mwem measure round 5"
        assert b.spent == pytest.approx(1.0, abs=1e-12)

    def test_self_budget_when_none_given(self, hist4, ranges4):
        synthetic, answers = mwem_publish(ranges4, hist4, 1.0, rounds=3, seed=1)
        assert isinstance(synthetic, Histogram)
        assert answers.shape == (10,)

    def test_deterministic_per_seed(self, hist4, ranges4):
        a = mwem_publish(ranges4, hist4, 1.0, rounds=4, seed=9)
        b = mwem_publish(ranges4, hist4, 1.0, rounds=4, seed=9)
        c = mwem_publish(ranges4, hist4, 1.0, rounds=4, seed=10)
        np.testing.assert_array_equal(a[0].bins, b[0].bins)
        np.testing.assert_array_equal(a[1], b[1])
        assert not np.array_equal(a[0].bins, c[0].bins)

    def test_synthetic_preserves_total_and_positivity(self, hist4, ranges4):
        seen = []
        synthetic, _ = mwem_publish(
            ranges4, hist4, 2.0, rounds=6, seed=3, on_round=lambda t, bins: seen.append((t, bins))
        )
        assert [t for t, _ in seen] == list(range(6))
        for _, bins in seen:
            assert bins.min() > 0
            assert bins.sum() == pytest.approx(49.0, abs=1e-9)
        assert synthetic.total == pytest.approx(49.0, abs=1e-9)

    def test_answers_come_from_the_synthetic_histogram(self, hist4, ranges4):
        synthetic, answers = mwem_publish(ranges4, hist4, 1.0, rounds=3, seed=2)
        np.testing.assert_array_equal(answers, evaluate_workload(ranges4, synthetic))

    def test_noise_free_single_query_converges(self, hist4):
        w = Workload(4, [range_query(1, 1, 4)])
        _, answers = mwem_publish(w, hist4, math.inf, rounds=3, seed=0)
        assert abs(answers[0] - 24.0) < 0.5

    def test_insufficient_budget_stops_before_spending(self, hist4, ranges4):
        # Short of the first round's charge, and short of the whole epsilon.
        for total in (0.04, 0.5):
            b = PrivacyBudget(total)
            with pytest.raises(InsufficientBudgetError):
                mwem_publish(ranges4, hist4, 1.0, rounds=5, seed=0, budget=b)
            assert b.ledger == ()

    def test_noise_scales_with_the_largest_coefficient(self, hist4, monkeypatch):
        noise_scales, select_epsilons = [], []
        laplace_noise = mechanisms._laplace_noise
        exponential = mechanisms._exponential_mechanism

        def spy_noise(scale, size, rng):
            noise_scales.append(scale)
            return laplace_noise(scale, size, rng)

        def spy_select(scores, epsilon, rng):
            select_epsilons.append(epsilon)
            return exponential(scores, epsilon, rng)

        monkeypatch.setattr(mechanisms, "_laplace_noise", spy_noise)
        monkeypatch.setattr(mechanisms, "_exponential_mechanism", spy_select)
        w = Workload(4, [LinearQuery([10.0, 0.0, 0.0, 0.0]), range_query(1, 2, 4)])
        mwem_publish(w, hist4, 1.0, rounds=2, seed=0)
        eps_round = 1.0 / 4
        assert noise_scales == [10.0 / eps_round] * 2
        assert select_epsilons == [eps_round / 10.0] * 2

    def test_measurement_noise_is_laplace_at_the_declared_scale(self):
        """MWEM's measurement noise, recovered from its output alone.

        With one round, one refit pass and the range over bin 0 of a
        2-bin histogram with total N, the replay sets bin 0 to
        N f / (1 + f) with f = exp((measured - N/2) / (2N)).  So the
        returned answer a gives the measurement exactly:
        measured = N/2 + 2N ln(a / (N - a)).  At epsilon = 1 the round
        spends 1/2 on the measurement, so the noise is Laplace(0, 2).

        A KS test checks the shape.  The scale is checked through its
        maximum-likelihood estimate, the mean absolute noise, whose
        standard error is scale / sqrt(n): the 4-sigma band passes the
        true scale and excludes scales 10% too high or too low (about
        9 standard errors away at n = 8000).
        """
        n, total, truth, scale = 8000, 1000.0, 600.0, 2.0
        hist = Histogram([truth, total - truth])
        w = Workload(2, [range_query(0, 0, 2)])
        noise = np.empty(n)
        for seed in range(n):
            _, answers = mwem_publish(w, hist, 1.0, rounds=1, seed=seed, mw_iters=1)
            a = answers[0]
            noise[seed] = total / 2 + 2 * total * math.log(a / (total - a)) - truth
        assert stats.kstest(noise, stats.laplace(0.0, scale).cdf).pvalue > 0.01
        assert abs(np.abs(noise).mean() / scale - 1.0) < 4.0 / math.sqrt(n)

    def test_all_zero_workload_needs_no_noise(self, hist4):
        w = Workload(4, [LinearQuery([0.0, 0.0, 0.0, 0.0])])
        _, answers = mwem_publish(w, hist4, 1.0, rounds=2, seed=0)
        assert answers.tolist() == [0.0]

    def test_validation(self, hist4, ranges4):
        with pytest.raises(ValueError, match="rounds"):
            mwem_publish(ranges4, hist4, 1.0, rounds=0, seed=0)
        with pytest.raises(ValueError, match="mw_iters"):
            mwem_publish(ranges4, hist4, 1.0, rounds=2, seed=0, mw_iters=0)
        with pytest.raises(ValueError, match="at least one query"):
            mwem_publish(Workload(4, []), hist4, 1.0, rounds=2, seed=0)
        with pytest.raises(ValueError, match="at least one record"):
            mwem_publish(ranges4, Histogram([0.0] * 4), 1.0, rounds=2, seed=0)
        with pytest.raises(ValueError, match="d=3"):
            mwem_publish(ranges4, Histogram([1.0] * 3), 1.0, rounds=2, seed=0)
        with pytest.raises(ValueError, match="epsilon"):
            mwem_publish(ranges4, hist4, 0.0, rounds=2, seed=0)


def _dense_mw_replay(bins, total, rows, mw_iters):
    """Reference for ``_mw_refit``: each step multiplies all d bins and renormalizes them."""
    for _ in range(mw_iters):
        for row, value in rows:
            estimate = row @ bins
            bins = bins * np.exp(row * ((value - estimate) / (2.0 * total)))
            bins *= total / bins.sum()
    return bins


def _random_rows(kind: str, d: int, m: int, rng) -> Workload:
    """m random queries over d bins: ranges, subsets, general rows, or all three in turn."""
    queries = []
    for i in range(m):
        row_kind = ("range", "subset", "general")[i % 3] if kind == "mixed" else kind
        if row_kind == "range":
            lo = int(rng.integers(0, d))
            queries.append(range_query(lo, int(rng.integers(lo, d)), d))
        elif row_kind == "subset":
            mask = (rng.random(d) < 0.3).astype(float)
            mask[rng.integers(0, d)] = 1.0
            queries.append(LinearQuery(mask, "subset"))
        else:
            coeffs = rng.uniform(-1.0, 2.0, d) * (rng.random(d) < 0.5)
            queries.append(LinearQuery(coeffs))
    return Workload(d, queries)


def _replay_both(kind, rounds, mw_iters, noise_scale, seed=0):
    """Run MWEM's refit schedule (history grows by one entry per round) both ways.

    Yields the refit's bins and the dense reference's bins after each
    round, plus the true total.
    """
    rng = np.random.default_rng(seed)
    d = 24
    hist = generate_simulated_histogram(d, 100, seed=seed)
    total = hist.total
    workload = _random_rows(kind, d, rounds, rng)
    values = evaluate_workload(workload, hist) + rng.laplace(0.0, noise_scale, rounds)
    weights = np.full(d, total / d)
    dense = weights.copy()
    atoms = mechanisms._MwAtoms(1, d)  # split by one more row each round, as in the engine
    rows = []
    for t in range(rounds):
        rows.append((workload.matrix[t], values[t]))
        atoms.split(workload.matrix[t : t + 1])
        mechanisms._mw_refit(weights[None], atoms, values[None, : t + 1], total, mw_iters)
        dense = _dense_mw_replay(dense, total, rows, mw_iters)
        yield mechanisms._mw_bins(weights, total), dense, total


# Below the smallest normal float a bin carries fewer than 53 bits, so
# relative agreement there is not defined.
_SUBNORMAL = np.finfo(float).tiny


@pytest.mark.parametrize("mw_iters", [1, 20])
@pytest.mark.parametrize("rounds", [1, 10, 100])
@pytest.mark.parametrize("kind", ["range", "subset", "general", "mixed"])
def test_mw_refit_matches_dense_reference(kind, rounds, mw_iters):
    # The noise MWEM adds at epsilon=1: scale 2 * rounds.
    for bins, dense, total in _replay_both(kind, rounds, mw_iters, 2.0 * rounds):
        np.testing.assert_allclose(bins, dense, rtol=1e-12, atol=_SUBNORMAL)
        assert bins.min() > 0
        assert abs(bins.sum() - total) <= 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["range", "mixed"])
def test_mw_refit_survives_measurements_far_off_the_total(kind, seed):
    # Noise about a hundred times the total (24 bins of 0..100 records)
    # moves most steps' mass by more than a factor of two, and unless
    # the weights are rescaled they leave the float range within a few
    # rounds.  Most bins underflow to zero in both versions; with ranges
    # only, whole cells do, and their bins must stay 0, not 0/0.
    for bins, dense, total in _replay_both(kind, 30, 20, 120_000.0, seed):
        np.testing.assert_allclose(bins, dense, rtol=1e-12, atol=_SUBNORMAL)
        assert bins.min() >= 0
        assert abs(bins.sum() - total) <= 1e-9


def test_mwem_at_extreme_noise_takes_the_update_limit():
    # At epsilon 0.001 the measurement noise (scale 20 000) dwarfs the
    # total of 10, so the factors of most runs' steps leave the float
    # range, or leave no mass to rescale.
    workload, hist = random_range_workload(4, 20, seed=1), Histogram([3, 1, 4, 2])
    for seed in range(20):
        synthetic, answers = mwem_publish(workload, hist, 0.001, rounds=10, seed=seed)
        assert np.isfinite(synthetic.bins).all(), seed
        assert synthetic.bins.min() >= 0, seed
        assert abs(synthetic.bins.sum() - 10.0) <= 1e-9, seed
        assert np.isfinite(answers).all(), seed


def test_mwem_at_extreme_noise_on_the_bins_takes_the_update_limit():
    # The same noise on a workload with subset and general rows, whose
    # atoms can be single bins.
    rng = np.random.default_rng(5)
    hist = Histogram([3, 1, 4, 2])
    for seed in range(10):
        workload = _random_rows("mixed", 4, 6, rng)
        synthetic, answers = mwem_publish(workload, hist, 0.001, rounds=10, seed=seed)
        assert np.isfinite(synthetic.bins).all(), seed
        assert synthetic.bins.min() >= 0, seed
        assert abs(synthetic.bins.sum() - 10.0) <= 1e-9, seed
        assert np.isfinite(answers).all(), seed


def test_mw_limit_moves_the_mass_to_the_winning_side():
    weights = np.array([1.0, 3.0, 0.0, 4.0])
    covered = np.array([0.0, 800.0, 800.0, 0.0])
    # Onto the covered bins that hold mass, off them, or nowhere new.
    np.testing.assert_array_equal(mechanisms._mw_limit(weights, covered, 6.0), [0, 6, 0, 0])
    np.testing.assert_array_equal(mechanisms._mw_limit(weights, -covered, 10.0), [2, 0, 0, 8])
    alone = np.array([0.0, 2.0, 2.0, 0.0])
    np.testing.assert_array_equal(mechanisms._mw_limit(alone, -covered, 8.0), [0, 4, 4, 0])
    # A general row: the bins with the largest exponent win.
    np.testing.assert_array_equal(
        mechanisms._mw_limit(weights, np.array([-900.0, 700.0, 0.0, 700.0]), 14.0), [0, 6, 0, 8]
    )


def _per_bin_mw_replay(weights, total, history, mw_iters):
    """Reference for the cell refit: every step scales the bins of its range."""
    steps = [(weights[support], value) for support, _, value in history]
    two_total = 2.0 * total
    for _ in range(mw_iters):
        weights *= total / weights.sum()
        mass = total
        for target, value in steps:
            scale = total / mass
            part = target.sum()
            factor = math.exp((value - scale * part) / two_total)
            target *= factor
            change = (factor - 1.0) * part
            if -0.5 * mass < change < mass:
                mass += change
            else:
                weights *= total / weights.sum()
                mass = total
    return weights * (total / weights.sum())


def _python_cell_refit(weights, total, history, mw_iters):
    """Reference for the lockstep refit's bytes: one run's cells in Python floats.

    The cuts are the distinct endpoints, each cell's initial sum an
    ``np.add.reduceat`` over the weights, and every sum a plain loop.
    """
    cuts = sorted({0, weights.size} | {b for s, _, _ in history for b in (s.start, s.stop)})
    cell = {cut: k for k, cut in enumerate(cuts)}
    steps = [(cell[s.start], cell[s.stop], value) for s, _, value in history]
    initial = np.add.reduceat(weights, cuts[:-1])

    def scaled(sums):
        mass = 0.0
        for part in sums:
            mass += part
        return [part * (total / mass) for part in sums]

    sums = initial.tolist()
    for _ in range(mw_iters):
        sums = scaled(sums)
        mass = total
        for first, stop, value in steps:
            part = 0.0
            for k in range(first, stop):
                part += sums[k]
            factor = math.exp((value - total / mass * part) / (2.0 * total))
            for k in range(first, stop):
                sums[k] *= factor
            change = (factor - 1.0) * part
            if -0.5 * mass < change < mass:
                mass += change
            else:
                sums = scaled(sums)
                mass = total
    lengths = np.diff(cuts)
    weights /= np.repeat(np.where(initial > 0, initial, 1.0), lengths)
    weights *= np.repeat(sums, lengths)


def test_lockstep_refit_has_the_bytes_of_one_run_in_python_floats():
    # Runs of one batch share their step count; their domains, ranges,
    # noise and refit histories differ, some with repeated endpoints,
    # some with noise large enough to rescale most steps.
    rng = np.random.default_rng(11)
    for d, t in ((1, 3), (2, 5), (7, 4), (128, 10), (512, 40)):
        hist = generate_simulated_histogram(d, 1000, seed=d)
        total = hist.total
        lo = rng.integers(0, d, (30, t))
        stop = np.maximum(lo, rng.integers(0, d, (30, t))) + 1
        truth = np.array([[hist.bins[a:b].sum() for a, b in zip(*row)] for row in zip(lo, stop)])
        scales = np.repeat([1.0, 30.0, 3.0 * total], 10)[:, None]
        values = truth + rng.laplace(0.0, 1.0, (30, t)) * scales
        batch = np.full((30, d), total / d)
        atoms = mechanisms._MwAtoms(30, d)
        for a, b in zip(lo.T, stop.T):
            atoms.split(((a[:, None] <= np.arange(d)) & (np.arange(d) < b[:, None])) * 1.0)
        mechanisms._mw_refit(batch, atoms, values, total, 20)
        for r in range(30):
            alone = np.full(d, total / d)
            history = [(slice(a, b), None, v) for a, b, v in zip(lo[r], stop[r], values[r])]
            _python_cell_refit(alone, total, history, 20)
            np.testing.assert_array_equal(batch[r], alone)


# The engine's refit, which _mwem_with replaces in the module.
_REFIT = mechanisms._mw_refit


def _cell_refit(weights, total, history, mw_iters):
    """The engine's lockstep refit, run on one run's ``(slice, None, measured)`` history."""
    atoms = mechanisms._MwAtoms(1, weights.size)
    for support, _, _ in history:
        row = np.zeros((1, weights.size))
        row[0, support] = 1.0
        atoms.split(row)
    _REFIT(weights[None], atoms, np.array([[value for _, _, value in history]]), total, mw_iters)


def _rows_of(atoms, r):
    """Run r's measured rows, rebuilt from its atoms' slots and levels."""
    steps, _, runs = atoms.coefs.shape
    # Indexed by slot: r for coefficient 0, (l + 1) * runs + r for level l.
    coefs = np.hstack([np.zeros((steps, runs)), atoms.coefs.reshape(steps, -1)])
    labels = np.cumsum(atoms.starts[r]) - 1
    return np.take_along_axis(coefs, np.array(atoms.slots)[:, r, labels], axis=1)


def _mwem_with(refit, monkeypatch, test, hist, epsilon, seed, rounds=10):
    """mwem_publish's answers with ``refit`` as its refit, and the ranges it measured.

    ``refit`` takes one run's weights, the total, its ``(slice, None,
    measured)`` history and the passes, and refits the weights in
    place, as :func:`_per_bin_mw_replay` and :func:`_cell_refit` do.
    Fails unless mwem_publish refit through it once every round.
    """
    measured, sizes = [], []

    def one_run(weights, atoms, values, total, mw_iters):
        (run_weights,) = weights
        history = []
        for row, value in zip(_rows_of(atoms, 0), *values):
            (support,) = np.nonzero(row)
            span = slice(support[0], support[-1] + 1)
            assert row[span].tolist() == [1.0] * support.size  # a range
            history.append((span, None, value))
        measured[:] = [(support, value) for support, _, value in history]
        sizes.append(len(history))
        refit(run_weights, total, history, mw_iters)

    monkeypatch.setattr(mechanisms, "_mw_refit", one_run)
    _, answers = mwem_publish(test, hist, epsilon, rounds=rounds, seed=seed)
    assert sizes == list(range(1, rounds + 1))
    return answers, measured


@pytest.mark.parametrize("cells", [80, 81])
def test_cell_refit_matches_the_per_bin_refit_at_80_and_81_cells(cells):
    # One-bin ranges over the first n of 128 bins cut them into n + 1 cells.
    n = cells - 1
    hist = generate_simulated_histogram(128, 100, seed=4)
    total = hist.total
    noise = np.random.default_rng(4).laplace(0.0, 20.0, n)
    history = [(slice(k, k + 1), None, hist.bins[k] + noise[k]) for k in range(n)]
    weights = np.full(128, total / 128)
    _cell_refit(weights, total, history, 20)
    expected = _per_bin_mw_replay(np.full(128, total / 128), total, history, 20)
    np.testing.assert_allclose(mechanisms._mw_bins(weights, total), expected, rtol=1e-12, atol=0)


# At epsilon 2e-4 the measurement noise (scale 1e5 over 10 rounds) is
# larger than the acceptance-07 histogram's total of about 67 000, so
# many steps move the mass by more than a factor of two and rescale.
@pytest.mark.parametrize("epsilon", [2e-4, 0.1, 0.5, 1.0])
def test_mwem_on_cells_matches_the_per_bin_refit(epsilon, monkeypatch):
    # The acceptance-07 sweep's histogram, test size and rounds.
    hist = generate_simulated_histogram(128, 1000, seed=7)
    for trial in range(3):
        test = random_range_workload(128, 500, seed=derive_seed(trial, "test"))
        seed = derive_seed(trial, "mwem")
        answers, measured = _mwem_with(_cell_refit, monkeypatch, test, hist, epsilon, seed)
        expected, expected_measured = _mwem_with(
            _per_bin_mw_replay, monkeypatch, test, hist, epsilon, seed
        )
        assert measured == expected_measured
        np.testing.assert_allclose(answers, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("epsilon", [1e-4, 0.5])
def test_mwem_past_the_cell_limit_matches_the_per_bin_refit(epsilon, monkeypatch):
    # 60 rounds at d=512 cut more than 80 cells, where the refit used to
    # move from the cells to the bins; at epsilon 1e-4 the noise (scale
    # 1.2e6) is larger than the total and many steps rescale.
    hist = generate_simulated_histogram(512, 1000, seed=7)
    test = random_range_workload(512, 500, seed=derive_seed(0, "test"))
    seed = derive_seed(0, "mwem")
    answers, measured = _mwem_with(_cell_refit, monkeypatch, test, hist, epsilon, seed, 60)
    assert len({cut for support, _ in measured for cut in (support.start, support.stop)}) > 81
    expected, expected_measured = _mwem_with(
        _per_bin_mw_replay, monkeypatch, test, hist, epsilon, seed, 60
    )
    assert measured == expected_measured
    np.testing.assert_allclose(answers, expected, rtol=1e-12, atol=0)


def _engine_group(workload, hist, as_bounds):
    """An engine group: rows that return the held matrix, or fresh rows from int32 bounds."""
    truth = evaluate_workload(workload, hist)
    if not as_bounds:
        return (lambda: workload.matrix), truth
    lo, hi = np.array(workload._lo, dtype=np.int32), np.array(workload._hi, dtype=np.int32)
    return (lambda: _range_indicators(hist.d, lo, hi).astype(float)), truth


def test_engine_batch_gives_every_run_its_bytes_alone():
    hist = generate_simulated_histogram(16, 100, seed=2)
    rng = np.random.default_rng(3)
    # Every row kind goes through the one refit: ranges, subsets and
    # general rows alone, and all three in one workload.  Groups 1 and 3
    # build their range rows afresh from int32 bounds at every call, as
    # run_sweep's do; the others return the matrix their workload holds.
    workloads = [
        random_range_workload(16, 30, seed=1),
        random_range_workload(16, 7, seed=2),
        _random_rows("mixed", 16, 9, rng),
        random_range_workload(16, 50, seed=3),
        _random_rows("subset", 16, 12, rng),
        _random_rows("general", 16, 10, rng),
    ]
    groups = [
        _engine_group(w, hist, as_bounds=g in (1, 3)) for g, w in enumerate(workloads)
    ]
    runs = []
    for k in range(36):
        # At epsilon 1e-5 a third of the steps take the update's limit.
        group, epsilon, seed = k % 6, (1e-5, 0.001, 0.3, 1.0, 5.0)[k % 5], 100 + k
        runs.append((group, epsilon, seed, PrivacyBudget(epsilon), None))
    results = {
        k: (bins, answers)
        for k, bins, answers in mechanisms._mwem_runs(hist, groups, runs, rounds=6)
    }
    assert sorted(results) == list(range(36))
    for k, (group, epsilon, seed, budget, _) in enumerate(runs):
        alone = PrivacyBudget(epsilon)
        synthetic, answers = mwem_publish(workloads[group], hist, epsilon, 6, seed, budget=alone)
        bins, batch_answers = results[k]
        np.testing.assert_array_equal(bins, synthetic.bins)
        np.testing.assert_array_equal(batch_answers, answers)
        assert budget.ledger == alone.ledger


class TestStrategyMechanism:
    def test_identity_records_unit_sensitivity(self, hist4, ranges4):
        out = strategy_mechanism(ranges4, "identity", hist4, 1.0, seed=0)
        assert out.sensitivity_used == 1.0

    def test_hierarchical_sensitivity_is_tree_depth(self, hist4, ranges4):
        out = strategy_mechanism(ranges4, "hierarchical", hist4, 1.0, seed=0)
        assert out.sensitivity_used == 3.0  # log2(4) + 1 levels

    def test_hierarchical_pads_to_power_of_two(self):
        h = Histogram([1.0, 2.0, 3.0, 4.0, 5.0])
        w = Workload(5, [range_query(0, 4, 5)])
        out = strategy_mechanism(w, "hierarchical", h, 1.0, seed=0)
        assert out.sensitivity_used == 4.0  # padded to 8 bins -> 4 levels

    def test_noise_free_reconstruction_is_exact(self, hist4, ranges4, ranges4_answers):
        for strategy in ("identity", "hierarchical"):
            out = strategy_mechanism(ranges4, strategy, hist4, math.inf, seed=0)
            np.testing.assert_allclose(out.answers, ranges4_answers, atol=1e-6)

    def test_charges_exactly_once(self, hist4, ranges4):
        b = PrivacyBudget(3.0)
        strategy_mechanism(ranges4, "hierarchical", hist4, 1.5, seed=0, budget=b)
        assert b.ledger == (("strategy hierarchical", 1.5),)

    def test_insufficient_budget(self, hist4, ranges4):
        b = PrivacyBudget(1.0)
        with pytest.raises(InsufficientBudgetError):
            strategy_mechanism(ranges4, "identity", hist4, 2.0, seed=0, budget=b)
        assert b.ledger == ()

    def test_deterministic_per_seed(self, hist4, ranges4):
        a = strategy_mechanism(ranges4, "identity", hist4, 1.0, seed=4)
        b = strategy_mechanism(ranges4, "identity", hist4, 1.0, seed=4)
        c = strategy_mechanism(ranges4, "identity", hist4, 1.0, seed=5)
        np.testing.assert_array_equal(a.answers, b.answers)
        assert not np.array_equal(a.answers, c.answers)

    def test_unknown_strategy(self, hist4, ranges4):
        with pytest.raises(ValueError, match="unknown strategy"):
            strategy_mechanism(ranges4, "wavelet", hist4, 1.0, seed=0)


@pytest.mark.parametrize("strategy", ["identity", "hierarchical"])
def test_strategy_answers_build_no_matrix(strategy):
    """Neither the strategy's matrix nor the requested range workload's is built.

    At d=1024 the identity matrix alone is 8 MiB and the tree's 16 MiB.
    """
    d = 1024
    hist = generate_simulated_histogram(d, 1000, seed=1)
    workload = random_range_workload(d, 100, seed=2)
    tracemalloc.start()
    try:
        out = strategy_mechanism(workload, strategy, hist, 1.0, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert workload._matrix is None
    assert peak < d * d * 8 // 4
    workload.matrix
    again = strategy_mechanism(workload, strategy, hist, 1.0, seed=3)
    assert out.answers.tobytes() == again.answers.tobytes()


def _dense_strategy_matrix(strategy: str, d: int) -> tuple[np.ndarray, float, int]:
    """Reference: the strategy matrix built row by row, its sensitivity and padded d."""
    if strategy == "identity":
        return np.eye(d), 1.0, d
    padded = 1
    while padded < d:
        padded *= 2
    levels = int(math.log2(padded)) + 1
    rows = []
    length = padded
    while length >= 1:
        for k in range(padded // length):
            row = np.zeros(padded)
            row[k * length : (k + 1) * length] = 1.0
            rows.append(row)
        length //= 2
    # Every bin lies in exactly one interval per level.
    return np.stack(rows), float(levels), padded


@pytest.mark.parametrize("strategy", ["identity", "hierarchical"])
def test_strategy_workload_matches_dense_reference(strategy):
    for d in range(1, 41):
        matrix, sensitivity, padded = _dense_strategy_matrix(strategy, d)
        w = mechanisms._strategy_workload(strategy, d)
        assert w.d == padded, d
        assert np.array_equal(w.matrix, matrix), d
        assert workload_sensitivity(w) == sensitivity, d


def _dense_ridge_solve(release, ridge: float) -> np.ndarray:
    """Reference: the normal equations of a release, formed and solved densely."""
    features = release.workload.matrix
    gram = features.T @ features + ridge * np.eye(release.workload.d)
    return np.linalg.solve(gram, features.T @ release.answers)


@pytest.mark.parametrize("epsilon", [0.1, 1.0, math.inf])
@pytest.mark.parametrize("strategy", ["identity", "hierarchical"])
def test_strategy_estimate_matches_dense_ridge_solve(strategy, epsilon, monkeypatch):
    """The closed-form fits against the dense solve they replaced.

    ``fit_linear`` on a strategy release takes the closed form (it runs
    no ``np.linalg.solve``); the reference forms F^T F and solves it.
    Identity must agree bitwise, at the reconstruction ridge and, as
    the singleton mldp fit, at the default linear ridge.  The Haar path
    adds in another order than the LU solve, so there the bin estimates
    must agree to 1e-12 of their largest magnitude.
    """
    for d in [*range(1, 71), 100, 127, 128, 129, 256, 512]:
        strategy_workload = mechanisms._strategy_workload(strategy, d)
        hist = generate_simulated_histogram(d, 1000, seed=d)
        padded = Histogram(np.pad(hist.bins, (0, strategy_workload.d - d)))
        measured = mechanisms._release(strategy_workload, padded, epsilon, seed=d)
        if strategy == "identity":
            config = MldpConfig(epsilon=epsilon, seed=d)
            training = laplace_batch(
                select_training_set(d, "singleton"),
                hist,
                PrivacyBudget(epsilon),
                epsilon,
                derive_seed(d, "noise"),
            )
            cases = [
                (measured, mechanisms._RECONSTRUCTION_RIDGE, None),
                (training, DEFAULT_LINEAR_RIDGE, config),
            ]
        else:
            cases = [(measured, mechanisms._RECONSTRUCTION_RIDGE, None)]
        for release, ridge, config in cases:
            dense = _dense_ridge_solve(release, ridge)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "solve", None)  # any dense solve raises
                if config is None:
                    estimate = fit_linear(release, ridge=ridge).weights[1:]
                else:
                    estimate = mldp_publish(hist, config, PrivacyBudget(epsilon)).weights[1:]
            if strategy == "identity":
                np.testing.assert_array_equal(estimate, dense, err_msg=f"d={d}")
            else:
                assert np.abs(estimate - dense).max() <= 1e-12 * np.abs(dense).max(), d


GOLDEN_STRATEGY = json.loads(
    (Path(__file__).parent / "data" / "golden_strategy.json").read_text()
)


@pytest.mark.parametrize("name", list(GOLDEN_STRATEGY))
def test_strategy_answers_match_golden(name):
    """Strategy answers and sensitivities match the pinned fixture.

    Keys read "<strategy>/d=<d>".  Each entry was written with
    OPENBLAS_NUM_THREADS=1 from strategy_mechanism(random_range_workload(
    d, 40, seed=d), strategy, generate_simulated_histogram(d, 1000,
    seed=7), 0.5, seed=11).  The sensitivity must match exactly; the
    answers to a relative 1e-12.  The fixture predates the closed-form
    hierarchical reconstruction, whose answers differ from it by up to
    2e-15 relative (d=100).
    """
    strategy, d = name.split("/")
    d = int(d[2:])
    out = strategy_mechanism(
        random_range_workload(d, 40, seed=d),
        strategy,
        generate_simulated_histogram(d, 1000, seed=7),
        0.5,
        seed=11,
    )
    golden = GOLDEN_STRATEGY[name]
    assert out.sensitivity_used == golden["sensitivity_used"]
    np.testing.assert_allclose(out.answers, golden["answers"], rtol=1e-12, atol=0)

