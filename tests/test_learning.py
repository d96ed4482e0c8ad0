"""Training-set selection, linear/kernel fits, prediction, model files."""

from __future__ import annotations

import json
import math
import os
import statistics
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mldp import Histogram, PrivacyBudget, predict, random_range_workload
from mldp.histogram import generate_simulated_histogram
from mldp.learning import (
    DEFAULT_LINEAR_RIDGE,
    ModelMeta,
    PublishedModel,
    _dyadic_bounds,
    fit_linear,
    fit_rbf,
    load_model,
    median_pairwise_distance,
    rbf_kernel,
    save_model,
    select_training_set,
)
from mldp.mechanisms import NoisyAnswerSet, laplace_batch
from mldp.workload import LinearQuery, Workload, range_query, range_workload

TABLE_WEIGHTS = np.array([12.0, 24.0, 6.0, 7.0])


def _swap_two_tree_rows(d):
    lo, hi = _dyadic_bounds(d)
    order = np.arange(lo.size)
    order[[1, 2]] = order[[2, 1]]
    return lo[order], hi[order]


# name: d -> the (lo, hi) bounds of a range set near a closed-form strategy
NEAR_STRATEGY_BOUNDS = {
    "reversed-singletons": lambda d: (np.arange(d)[::-1], np.arange(d)[::-1]),
    "duplicated-singleton": lambda d: (np.r_[0, 0, 2 : d], np.r_[0, 0, 2 : d]),
    "appended-duplicate": lambda d: (np.r_[0:d, 3], np.r_[0:d, 3]),
    "incomplete-singletons": lambda d: (np.arange(d - 1), np.arange(d - 1)),
    "reordered-tree": _swap_two_tree_rows,
    "truncated-tree": lambda d: tuple(b[:-1] for b in _dyadic_bounds(d)),
}


def singleton_training(hist: Histogram) -> NoisyAnswerSet:
    """Noiseless singleton training release for a histogram."""
    w = Workload(hist.d, [range_query(i, i, hist.d) for i in range(hist.d)])
    return NoisyAnswerSet(w, hist.bins, sensitivity_used=1.0, epsilon_used=math.inf, seed=0)


def general_training(features, targets) -> NoisyAnswerSet:
    """A training release whose queries are the given feature rows."""
    features = np.asarray(features, dtype=float)
    w = Workload(features.shape[1], [LinearQuery(row) for row in features])
    return NoisyAnswerSet(w, targets, sensitivity_used=1.0, epsilon_used=1.0, seed=None)


def finite_difference_gradient(features, targets, ridge, v, h=1e-6):
    """Central-difference gradient of ||F v - y||^2 + ridge ||v||^2."""

    def loss(vec):
        r = features @ vec - targets
        return float(r @ r + ridge * (vec @ vec))

    g = np.zeros_like(v)
    for i in range(v.size):
        e = np.zeros_like(v)
        e[i] = h
        g[i] = (loss(v + e) - loss(v - e)) / (2 * h)
    return g


class TestTrainingSet:
    """The training release the fits read: a ``NoisyAnswerSet``."""

    def test_fields_and_shapes(self, hist4):
        t = singleton_training(hist4)
        assert (t.workload.m, t.workload.d) == (4, 4)
        np.testing.assert_array_equal(t.answers, TABLE_WEIGHTS)

    def test_from_noisy_answers(self, hist4, ranges4):
        # A Laplace release is fitted as it comes; the model records its provenance.
        out = laplace_batch(ranges4, hist4, PrivacyBudget(1.0), 1.0, seed=7)
        for model in (fit_linear(out), fit_rbf(out)):
            meta = model.meta
            provenance = (meta.epsilon_consumed, meta.training_m, meta.sensitivity, meta.seed)
            assert provenance == (1.0, 10, 6.0, 7)

    def test_shares_a_workload_matrix(self):
        # The linear fit reads the workload matrix in place: it never
        # allocates a copy of the m x d features.
        w = random_range_workload(64, 20_000, seed=3)
        targets = np.random.default_rng(3).normal(size=w.m)
        training = NoisyAnswerSet(w, targets, float(w.m), 1.0, seed=None)
        tracemalloc.start()
        try:
            fit_linear(training)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < w.matrix.nbytes // 4

    def test_copies_a_writable_matrix(self):
        # The workload keeps its own copy of the rows, so writes to the
        # source array after the release do not reach the fit.
        features = np.eye(3)
        t = general_training(features, np.ones(3))
        features[0, 0] = 9.0
        np.testing.assert_array_equal(t.workload.matrix, np.eye(3))
        assert not np.shares_memory(t.workload.matrix, features)
        np.testing.assert_allclose(fit_linear(t, ridge=0.0).weights[1:], np.ones(3))

    def test_rejects_bad_shapes(self):
        w = Workload(3, [LinearQuery([1.0, 0.0, 0.0]), LinearQuery([0.0, 1.0, 1.0])])
        with pytest.raises(ValueError, match="answers"):
            NoisyAnswerSet(w, np.zeros((2, 1)), 1.0, 1.0, seed=None)
        with pytest.raises(ValueError, match="answers"):
            NoisyAnswerSet(w, np.zeros(3), 1.0, 1.0, seed=None)

    def test_arrays_read_only(self, hist4):
        t = singleton_training(hist4)
        with pytest.raises(ValueError):
            t.workload.matrix[0, 0] = 9.0
        with pytest.raises(ValueError):
            t.answers[0] = 9.0


class TestSelection:
    def test_singleton_builds_one_query_per_bin(self):
        w = select_training_set(4, "singleton")
        assert [(q.lo, q.hi) for q in w] == [(0, 0), (1, 1), (2, 2), (3, 3)]
        np.testing.assert_array_equal(w.matrix, np.eye(4))

    def test_greedy_on_all_ranges_picks_the_singletons(self):
        w = select_training_set(4, "greedy_cover")
        assert [(q.lo, q.hi) for q in w] == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_greedy_on_all_subsets_picks_the_singleton_ranges(self):
        w = select_training_set(4, "greedy_cover", pool="subsets")
        assert [(q.kind, q.lo, q.hi) for q in w] == [("range", i, i) for i in range(4)]

    def test_greedy_over_subsets_has_no_size_limit(self):
        assert select_training_set(64, "greedy_cover", pool="subsets").m == 64
        with pytest.raises(ValueError, match="limit"):
            select_training_set(21, "random_m", m=5, pool="subsets")

    def test_random_m_is_deterministic_and_from_pool(self, ranges4):
        a = select_training_set(4, "random_m", m=25, seed=3)
        b = select_training_set(4, "random_m", m=25, seed=3)
        c = select_training_set(4, "random_m", m=25, seed=4)
        assert a == b
        assert a != c
        assert a.m == 25
        pool_queries = set(ranges4)
        assert all(q in pool_queries for q in a)

    def test_random_m_samples_with_replacement(self):
        w = select_training_set(4, "random_m", m=50, seed=0)
        assert len(set(w)) < 50  # pigeonhole: pool has only 10

    def test_random_m_requires_m(self):
        with pytest.raises(ValueError, match="m >= 1"):
            select_training_set(4, "random_m")
        with pytest.raises(ValueError, match="m >= 1"):
            select_training_set(4, "random_m", m=0)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown selection strategy"):
            select_training_set(4, "exhaustive")

    def test_unknown_pool(self):
        with pytest.raises(ValueError, match="unknown pool"):
            select_training_set(4, "singleton", pool="wavelets")


GOLDEN_SELECTIONS = json.loads(
    (Path(__file__).parent / "data" / "golden_selections.json").read_text()
)


@pytest.mark.parametrize("name", list(GOLDEN_SELECTIONS))
def test_selections_match_golden(name):
    """Training workloads match the pinned fixture exactly.

    Keys read "<pool>/<strategy>/d=<d>[/m=<m>/seed=<seed>]"; each row is
    a range's [lo, hi] or a subset's bin mask (bit i selects bin i).
    """
    pool, strategy, d, *rest = name.split("/")
    d = int(d[2:])
    m, seed = (int(part.split("=")[1]) for part in rest) if rest else (None, None)
    w = select_training_set(d, strategy, m, seed, pool=pool)
    golden = GOLDEN_SELECTIONS[name]
    expected = np.zeros((len(golden["rows"]), d))
    for i, (kind, row) in enumerate(zip(golden["kinds"], golden["rows"], strict=True)):
        if kind == "range":
            expected[i, row[0] : row[1] + 1] = 1.0
        else:
            expected[i] = [(row >> j) & 1 for j in range(d)]
    assert [q.kind for q in w] == golden["kinds"]
    assert w.matrix.shape == expected.shape
    assert np.array_equal(w.matrix, expected)


class TestFitLinear:
    def test_noiseless_singletons_recover_the_histogram(self, hist4):
        model = fit_linear(singleton_training(hist4))
        assert model.kind == "linear"
        assert model.weights[0] == 0.0
        np.testing.assert_allclose(model.weights[1:], TABLE_WEIGHTS, atol=1e-3)

    def test_recovered_model_answers_a_fresh_range(self, hist4):
        model = fit_linear(singleton_training(hist4))
        answer = predict(model, Workload(4, [range_query(1, 2, 4)]))[0]
        assert answer == pytest.approx(30.0, abs=1e-3)

    def test_zero_ridge_is_exact(self, hist4):
        model = fit_linear(singleton_training(hist4), ridge=0.0)
        np.testing.assert_allclose(model.weights[1:], TABLE_WEIGHTS, atol=1e-9)

    def test_zero_noise_model_answers_all_subsets_exactly(self, hist4):
        from mldp.workload import all_subset_queries, evaluate_workload

        model = fit_linear(singleton_training(hist4), ridge=0.0)
        subsets = all_subset_queries(4)
        np.testing.assert_allclose(
            predict(model, subsets), evaluate_workload(subsets, hist4), atol=1e-9
        )

    def test_zero_ridge_rank_deficient_takes_minimum_norm(self):
        features = np.array([[1.0, 0.0], [1.0, 0.0]])
        targets = np.array([2.0, 2.0])
        t = general_training(features, targets)
        model = fit_linear(t, ridge=0.0)
        expected = np.linalg.pinv(features) @ targets
        np.testing.assert_allclose(model.weights[1:], expected, atol=1e-12)

    def test_single_query_fit_has_tiny_residual(self):
        t = general_training([[1.0, 1.0, 0.0, 0.0]], [36.0])
        model = fit_linear(t, ridge=1e-9)
        residual = t.workload.matrix @ model.weights[1:] - t.answers
        assert abs(residual[0]) < 1e-6
        np.testing.assert_allclose(model.weights[1:], [18.0, 18.0, 0.0, 0.0], atol=1e-6)

    def test_larger_ridge_shrinks_the_weights(self):
        rng = np.random.default_rng(0)
        t = general_training(rng.normal(size=(12, 5)), rng.normal(size=12))
        norms = [
            float(np.linalg.norm(fit_linear(t, ridge=r).weights[1:]))
            for r in (1e-8, 1e-4, 1e-2, 1.0, 100.0)
        ]
        assert norms == sorted(norms, reverse=True)

    def test_solution_zeroes_the_gradient(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(9, 4))
        targets = rng.normal(size=9)
        ridge = 0.01
        t = general_training(features, targets)
        v = fit_linear(t, ridge=ridge).weights[1:]
        at_solution = finite_difference_gradient(features, targets, ridge, v)
        away = finite_difference_gradient(features, targets, ridge, v + 0.1)
        assert np.linalg.norm(at_solution) <= 1e-4 * np.linalg.norm(away)

    def test_meta_records_training_provenance(self, hist4):
        model = fit_linear(singleton_training(hist4))
        assert model.meta == ModelMeta(
            epsilon_consumed=math.inf, training_m=4, sensitivity=1.0, seed=0
        )

    def test_rejects_bad_ridge(self, hist4):
        t = singleton_training(hist4)
        with pytest.raises(ValueError, match="ridge"):
            fit_linear(t, ridge=-1.0)
        with pytest.raises(ValueError, match="ridge"):
            fit_linear(t, ridge=math.nan)

    def test_rejects_an_empty_release(self):
        empty = NoisyAnswerSet(Workload(3, []), np.zeros(0), 1.0, 1.0, seed=None)
        with pytest.raises(ValueError, match="at least one"):
            fit_linear(empty)

    @pytest.mark.parametrize("name", sorted(NEAR_STRATEGY_BOUNDS))
    def test_near_strategy_ranges_take_the_dense_solve(self, name, monkeypatch):
        """Only exact singleton or dyadic-tree bounds take a closed form.

        Each of these range sets is one edit away from one of them; the
        fit must run one dense solve and equal the normal equations
        solved inline.
        """
        d = 16
        lo, hi = NEAR_STRATEGY_BOUNDS[name](d)
        workload = range_workload(d, lo, hi)
        release = laplace_batch(
            workload, generate_simulated_histogram(d, 1000, 3), PrivacyBudget(1.0), 1.0, 5
        )
        features = workload.matrix
        gram = features.T @ features + DEFAULT_LINEAR_RIDGE * np.eye(d)
        dense = np.linalg.solve(gram, features.T @ release.answers)
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
        weights = fit_linear(release).weights
        assert solves == [1]
        np.testing.assert_array_equal(weights[1:], dense)


class TestKernel:
    def test_kernel_matches_direct_formula(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        k = rbf_kernel(a, b, width_u=2.0)
        expected = np.array(
            [
                [math.exp(-1.0 / 8.0)],
                [math.exp(-2.0 / 8.0)],
            ]
        )
        np.testing.assert_allclose(k, expected, atol=1e-12)

    def test_kernel_symmetric_with_unit_diagonal(self, ranges4):
        k = rbf_kernel(ranges4.matrix, ranges4.matrix, width_u=1.5)
        np.testing.assert_allclose(k, k.T, atol=1e-15)
        np.testing.assert_allclose(np.diag(k), np.ones(10), atol=1e-15)
        assert k.min() > 0.0
        assert k.max() <= 1.0

    def test_kernel_rejects_bad_width(self, ranges4):
        with pytest.raises(ValueError, match="width_u"):
            rbf_kernel(ranges4.matrix, ranges4.matrix, width_u=0.0)

    def test_median_pairwise_distance_hand_case(self):
        feats = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
        # Distances: 5, 0 (ignored), 5 -> median 5.
        assert median_pairwise_distance(feats) == 5.0

    @pytest.mark.parametrize("seed", range(5))
    def test_median_pairwise_distance_matches_brute_force_on_0_1_rows(self, seed):
        rng = np.random.default_rng(seed)
        feats = rng.integers(0, 2, size=(25, 9)).astype(float)
        feats[20:] = feats[:5]  # duplicate rows are skipped as zero distances
        dists = [
            math.dist(feats[i], feats[j]) for i in range(25) for j in range(i + 1, 25)
        ]
        assert median_pairwise_distance(feats) == statistics.median(
            [x for x in dists if x > 0]
        )

    def test_median_pairwise_distance_memory_is_quadratic_in_rows(self):
        # An m x m x d difference array here would take about 150 MiB.
        feats = np.random.default_rng(0).integers(0, 2, size=(200, 256)).astype(float)
        tracemalloc.start()
        try:
            median_pairwise_distance(feats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_median_pairwise_distance_fallbacks(self):
        assert median_pairwise_distance(np.array([[1.0, 2.0]])) == 1.0
        assert median_pairwise_distance(np.ones((4, 3))) == 1.0


class TestFitRbf:
    def test_near_interpolation_with_small_ridge(self, ranges4):
        rng = np.random.default_rng(5)
        targets = rng.normal(size=10)
        t = NoisyAnswerSet(ranges4, targets, 6.0, 1.0, seed=None)
        model = fit_rbf(t, ridge=1e-9)
        np.testing.assert_allclose(predict(model, ranges4), targets, atol=1e-4)

    def test_default_width_is_median_distance(self, ranges4):
        t = NoisyAnswerSet(ranges4, np.arange(10.0), 6.0, 1.0, seed=None)
        model = fit_rbf(t)
        assert model.width_u == median_pairwise_distance(ranges4.matrix)

    def test_centers_are_the_training_features(self, ranges4):
        t = NoisyAnswerSet(ranges4, np.arange(10.0), 6.0, 1.0, seed=None)
        model = fit_rbf(t)
        np.testing.assert_array_equal(model.centers, ranges4.matrix)
        assert model.weights.shape == (10,)

    def test_mu_records_target_mean(self, ranges4):
        t = NoisyAnswerSet(ranges4, np.arange(10.0), 6.0, 1.0, seed=4)
        model = fit_rbf(t)
        assert model.meta.mu == 4.5
        assert model.meta.seed == 4

    def test_larger_ridge_shrinks_coefficients(self, ranges4):
        t = NoisyAnswerSet(ranges4, np.arange(10.0), 6.0, 1.0, seed=None)
        norms = [
            float(np.linalg.norm(fit_rbf(t, ridge=r).weights))
            for r in (1e-6, 1e-3, 1e-1, 10.0)
        ]
        assert norms == sorted(norms, reverse=True)

    def test_rejects_bad_ridge_and_width(self, ranges4):
        t = NoisyAnswerSet(ranges4, np.arange(10.0), 6.0, 1.0, seed=None)
        with pytest.raises(ValueError, match="ridge"):
            fit_rbf(t, ridge=0.0)
        with pytest.raises(ValueError, match="width_u"):
            fit_rbf(t, width_u=-1.0)

    def test_rejects_an_empty_release(self):
        empty = NoisyAnswerSet(Workload(3, []), np.zeros(0), 1.0, 1.0, seed=None)
        with pytest.raises(ValueError, match="at least one"):
            fit_rbf(empty)


class TestPredict:
    def test_dimension_mismatch(self, hist4):
        model = fit_linear(singleton_training(hist4))
        with pytest.raises(ValueError, match="d=3"):
            predict(model, Workload(3, [range_query(0, 0, 3)]))

    def test_empty_workload(self, hist4):
        model = fit_linear(singleton_training(hist4))
        assert predict(model, Workload(4, [])).shape == (0,)

    def test_linear_prediction_is_homogeneous(self, hist4):
        model = fit_linear(singleton_training(hist4))
        zero_q = Workload(4, [LinearQuery([0.0, 0.0, 0.0, 0.0])])
        assert predict(model, zero_q)[0] == 0.0

    @pytest.mark.parametrize("centers", [1, 7, 500])
    @pytest.mark.parametrize("m", [1, 2, 511, 512, 513, 1025, 1537])
    def test_rbf_answers_equal_the_whole_kernel_product(self, m, centers):
        """The row blocks change no answer.

        Bitwise at one BLAS thread.  At more threads the whole product
        splits its rows between threads differently from the blocks, so
        the last bits of such rows can move.
        """
        d = 32
        model = PublishedModel(
            kind="rbf",
            d=d,
            weights=np.random.default_rng(centers).normal(size=centers),
            centers=random_range_workload(d, centers, seed=centers).matrix,
            width_u=4.0,
        )
        queries = random_range_workload(d, m, seed=m)
        got = predict(model, queries)
        want = rbf_kernel(queries.matrix, model.centers, model.width_u) @ model.weights
        if os.environ.get("OPENBLAS_NUM_THREADS") == "1":
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    def test_rbf_memory_does_not_grow_with_queries_times_centers(self):
        # The whole 10 000 x 500 kernel and its temporaries peak at about 76 MiB.
        d = 256
        model = PublishedModel(
            kind="rbf",
            d=d,
            weights=np.random.default_rng(0).normal(size=500),
            centers=random_range_workload(d, 500, seed=1).matrix,
            width_u=10.0,
        )
        queries = random_range_workload(d, 10_000, seed=2)
        tracemalloc.start()
        try:
            predict(model, queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestModelFiles:
    def test_linear_round_trip(self, tmp_path, hist4, ranges4):
        model = fit_linear(singleton_training(hist4))
        p = tmp_path / "model.json"
        save_model(model, p)
        again = load_model(p)
        assert again.kind == "linear"
        assert again.d == 4
        np.testing.assert_array_equal(again.weights, model.weights)
        assert again.meta == model.meta
        np.testing.assert_array_equal(predict(again, ranges4), predict(model, ranges4))

    def test_rbf_round_trip(self, tmp_path, ranges4):
        t = NoisyAnswerSet(ranges4, np.arange(10.0), 6.0, 0.5, seed=2)
        model = fit_rbf(t)
        p = tmp_path / "model.json"
        save_model(model, p)
        again = load_model(p)
        assert again.kind == "rbf"
        assert again.width_u == model.width_u
        np.testing.assert_array_equal(again.centers, model.centers)
        np.testing.assert_array_equal(predict(again, ranges4), predict(model, ranges4))
        assert again.meta.mu == model.meta.mu

    def test_infinite_epsilon_round_trips(self, tmp_path, hist4):
        model = fit_linear(singleton_training(hist4))
        p = tmp_path / "model.json"
        save_model(model, p)
        assert math.isinf(load_model(p).meta.epsilon_consumed)

    def test_meta_free_model_round_trips(self, tmp_path):
        model = PublishedModel(kind="linear", d=2, weights=np.array([0.0, 1.0, 2.0]))
        p = tmp_path / "model.json"
        save_model(model, p)
        assert load_model(p).meta is None

    @pytest.mark.parametrize(
        "model, expected",
        [
            (
                PublishedModel(
                    kind="linear",
                    d=3,
                    weights=np.array([0.0, 1 / 3, -2.5e-300, 1e22]),
                    meta=ModelMeta(math.inf, 3, 1.0, seed=7, mu=0.1 + 0.2),
                ),
                b'{"kind": "linear", "d": 3, "weights": [0.0, 0.3333333333333333, -2.5e-300, '
                b'1e+22], "centers": null, "width_u": null, "meta": {"epsilon_consumed": '
                b'Infinity, "training_m": 3, "sensitivity": 1.0, "seed": 7, "mu": '
                b'0.30000000000000004}}\n',
            ),
            (
                PublishedModel(
                    kind="rbf",
                    d=3,
                    weights=np.array([-0.0, 123456.789]),
                    centers=np.array([[1.0, 0.0, 1.0], [0.5, 2 / 3, 5e-324]]),
                    width_u=np.float64(1.75),
                    meta=ModelMeta(0.5, 2, 2.0),
                ),
                b'{"kind": "rbf", "d": 3, "weights": [-0.0, 123456.789], "centers": [[1.0, '
                b'0.0, 1.0], [0.5, 0.6666666666666666, 5e-324]], "width_u": 1.75, "meta": '
                b'{"epsilon_consumed": 0.5, "training_m": 2, "sensitivity": 2.0, "seed": '
                b'null, "mu": null}}\n',
            ),
        ],
        ids=["linear", "rbf"],
    )
    def test_file_bytes_are_pinned(self, tmp_path, model, expected):
        p = tmp_path / "model.json"
        save_model(model, p)
        assert p.read_bytes() == expected

    @pytest.mark.parametrize(
        "payload",
        [
            "not json at all {",
            "[1, 2, 3]",
            "{}",
            '{"kind": "linear", "d": 4, "weights": [0.0, 1.0]}',
            '{"kind": "rbf", "d": 2, "weights": [1.0]}',
            '{"kind": "cubist", "d": 2, "weights": [0.0, 1.0, 2.0]}',
            '{"weights": [0.0, NaN, 1.0], "kind": "linear", "d": 2}',
            '{"centers": [[Infinity, 0.0]], "kind": "rbf", "d": 2, "weights": [1.0], '
            '"width_u": 1.0}',
            '{"width_u": Infinity, "kind": "rbf", "d": 2, "weights": [1.0], '
            '"centers": [[1.0, 0.0]]}',
            '{"kind": "linear", "d": 2.0, "weights": [0.0, 1.0, 2.0]}',
            '{"kind": "linear", "d": "2", "weights": [0.0, 1.0, 2.0]}',
            '{"kind": "linear", "d": true, "weights": [0.0, 1.0]}',
            # Numbers are read as JSON numbers, never converted from a string or bool.
            '{"kind": "linear", "d": 4, "weights": ["0", "1", "2", "3", "4"]}',
            '{"kind": "linear", "d": 4, "weights": [true, false, true, false, true]}',
            '{"kind": "linear", "d": 2, "weights": [0.0, 1.0, true]}',
            '{"kind": "rbf", "d": 2, "weights": [1.0], "centers": [["1", 0.0]], "width_u": 1.0}',
            '{"kind": "rbf", "d": 2, "weights": [1.0], "centers": [[true, 0.0]], "width_u": 1.0}',
            '{"kind": "rbf", "d": 2, "weights": [1.0], "centers": [[1.0, 0.0]], "width_u": "1"}',
            '{"kind": "rbf", "d": 2, "weights": [1.0], "centers": [[1.0, 0.0]], "width_u": true}',
            *(
                '{"kind": "linear", "d": 1, "weights": [0.0, 1.0], "meta": '
                '{"epsilon_consumed": 1.0, "sensitivity": 1.0, %s}}' % fields
                for fields in (
                    '"training_m": 2.9, "seed": 7',
                    '"training_m": "2", "seed": 7',
                    '"training_m": true, "seed": 7',
                    '"training_m": 2, "seed": "7"',
                    '"training_m": 2, "seed": 7.0',
                    '"training_m": 2, "seed": false',
                    '"training_m": 2, "mu": "0.5"',
                    '"training_m": 2, "mu": true',
                )
            ),
            *(
                '{"kind": "linear", "d": 1, "weights": [0.0, 1.0], "meta": '
                '{"training_m": 2, "seed": 7, %s}}' % fields
                for fields in (
                    '"epsilon_consumed": 1.0, "sensitivity": "2"',
                    '"epsilon_consumed": 1.0, "sensitivity": true',
                    '"epsilon_consumed": 1.0, "sensitivity": -1.0',
                    '"epsilon_consumed": 1.0, "sensitivity": NaN',
                    '"epsilon_consumed": "1.0", "sensitivity": 1.0',
                    '"epsilon_consumed": true, "sensitivity": 1.0',
                    '"epsilon_consumed": -1, "sensitivity": 1.0',
                    '"epsilon_consumed": 0, "sensitivity": 1.0',
                    '"epsilon_consumed": -Infinity, "sensitivity": 1.0',
                    '"epsilon_consumed": NaN, "sensitivity": 1.0',
                )
            ),
        ],
    )
    def test_malformed_files_are_rejected(self, tmp_path, payload):
        p = tmp_path / "model.json"
        p.write_text(payload)
        with pytest.raises(ValueError, match="not a valid model file"):
            load_model(p)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "absent.json")


class TestPublishedModelValidation:
    def test_linear_weight_count(self):
        with pytest.raises(ValueError, match="weights"):
            PublishedModel(kind="linear", d=3, weights=np.zeros(3))

    def test_linear_rejects_kernel_fields(self):
        with pytest.raises(ValueError, match="no centers"):
            PublishedModel(
                kind="linear", d=2, weights=np.zeros(3), centers=np.zeros((1, 2)), width_u=1.0
            )

    def test_rbf_requires_centers_and_width(self):
        with pytest.raises(ValueError, match="centers"):
            PublishedModel(kind="rbf", d=2, weights=np.zeros(3))

    def test_rbf_center_shape(self):
        with pytest.raises(ValueError, match="centers"):
            PublishedModel(
                kind="rbf", d=2, weights=np.zeros(3), centers=np.zeros((2, 2)), width_u=1.0
            )

    def test_rbf_width_positive(self):
        with pytest.raises(ValueError, match="width_u"):
            PublishedModel(
                kind="rbf", d=2, weights=np.zeros(3), centers=np.zeros((3, 2)), width_u=0.0
            )

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            PublishedModel(kind="forest", d=2, weights=np.zeros(3))
