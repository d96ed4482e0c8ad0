"""Publish/answer pipeline, config plumbing, and closed-form error bounds."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mldp import MldpConfig, PrivacyBudget, mldp_publish, predict
from mldp.histogram import generate_simulated_histogram
from mldp.learning import fit_linear, save_model
from mldp.mechanisms import InsufficientBudgetError, laplace_batch
from mldp.pipeline import (
    BoundParameters,
    model_error_bound,
    noise_error_bound,
    total_error_bound,
    training_workload_for,
)
from mldp.seeds import derive_seed

GOLDEN_MODEL_SHA256 = json.loads(
    (Path(__file__).parent / "data" / "golden_model_sha256.json").read_text()
)

ZERO_NOISE = dict(epsilon=math.inf, selection="singleton", learner="linear", ridge=0.0)

# Publish-config numbers a fit would refuse, and the field each error names.
BAD_FIT_NUMBERS = [
    ({"epsilon": True}, "epsilon"),
    ({"epsilon": "1.0"}, "epsilon"),
    ({"ridge": -1.0}, "ridge"),
    ({"ridge": "abc"}, "ridge"),
    ({"ridge": True}, "ridge"),
    ({"ridge": math.nan}, "ridge"),
    ({"learner": "rbf", "ridge": 0.0}, "ridge"),
    ({"width_u": -1.0}, "width_u"),
    ({"width_u": 0}, "width_u"),
    ({"width_u": math.inf}, "width_u"),
    ({"width_u": math.nan}, "width_u"),
    ({"width_u": "1.5"}, "width_u"),
]


class TestConfig:
    def test_defaults(self):
        c = MldpConfig()
        assert (c.epsilon, c.selection, c.learner, c.pool, c.seed) == (
            1.0,
            "singleton",
            "linear",
            "ranges",
            0,
        )

    def test_round_trip_through_dict(self):
        c = MldpConfig(epsilon=0.5, selection="random_m", m=30, learner="rbf", seed=9)
        assert MldpConfig.from_dict(c.to_dict()) == c

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            MldpConfig.from_dict({"epsilon": 1.0, "optimizer": "adam"})

    def test_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            MldpConfig(epsilon=0.0)
        with pytest.raises(ValueError, match="selection"):
            MldpConfig(selection="all")
        with pytest.raises(ValueError, match="random_m"):
            MldpConfig(selection="random_m")
        with pytest.raises(ValueError, match="m=2.5 is not an integer"):
            MldpConfig(selection="random_m", m=2.5)
        with pytest.raises(ValueError, match="m=2.0 is not an integer"):
            MldpConfig(m=2.0)
        with pytest.raises(ValueError, match="learner"):
            MldpConfig(learner="tree")
        with pytest.raises(ValueError, match="pool"):
            MldpConfig(pool="wavelets")

    @pytest.mark.parametrize(
        "fields, name",
        BAD_FIT_NUMBERS,
        ids=[",".join(f"{k}={v!r}" for k, v in f.items()) for f, _ in BAD_FIT_NUMBERS],
    )
    def test_bad_numbers_are_refused_before_any_charge(self, hist4, fields, name):
        budget = PrivacyBudget(1.0)
        with pytest.raises(ValueError, match=name):
            mldp_publish(hist4, MldpConfig(**fields), budget)
        with pytest.raises(ValueError, match=name):
            MldpConfig.from_dict(fields)
        assert budget.ledger == ()

    def test_numbers_every_fit_takes_are_accepted(self, hist4):
        for fields in (
            {"epsilon": math.inf, "ridge": 0},
            {"epsilon": 2, "ridge": 0.0},
            {"learner": "rbf", "ridge": 1e-3, "width_u": 2, "selection": "random_m", "m": 5},
        ):
            budget = PrivacyBudget(fields.get("epsilon", 1.0))
            mldp_publish(hist4, MldpConfig(**fields), budget)
            assert len(budget.ledger) == 1


class TestPublish:
    def test_zero_noise_run_recovers_the_histogram(self, hist4, ranges4, ranges4_answers):
        model = mldp_publish(hist4, MldpConfig(**ZERO_NOISE), PrivacyBudget(math.inf))
        np.testing.assert_allclose(model.weights, [0.0, 12.0, 24.0, 6.0, 7.0], atol=1e-9)
        np.testing.assert_allclose(predict(model, ranges4), ranges4_answers, atol=1e-9)

    def test_charges_epsilon_exactly_once(self, hist4):
        budget = PrivacyBudget(2.0)
        mldp_publish(hist4, MldpConfig(epsilon=0.75), budget)
        assert len(budget.ledger) == 1
        assert budget.ledger[0][1] == 0.75
        assert budget.spent == 0.75

    def test_insufficient_budget_aborts_cleanly(self, hist4):
        budget = PrivacyBudget(0.5)
        with pytest.raises(InsufficientBudgetError):
            mldp_publish(hist4, MldpConfig(epsilon=1.0), budget)
        assert budget.ledger == ()

    def test_same_seed_gives_byte_identical_model_files(self, tmp_path, hist4):
        config = MldpConfig(epsilon=1.0, seed=123)
        a = mldp_publish(hist4, config, PrivacyBudget(1.0))
        b = mldp_publish(hist4, config, PrivacyBudget(1.0))
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, pa)
        save_model(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_give_different_models(self, hist4):
        a = mldp_publish(hist4, MldpConfig(epsilon=1.0, seed=1), PrivacyBudget(1.0))
        b = mldp_publish(hist4, MldpConfig(epsilon=1.0, seed=2), PrivacyBudget(1.0))
        assert not np.array_equal(a.weights, b.weights)

    def test_meta_records_the_run(self, hist4):
        model = mldp_publish(hist4, MldpConfig(epsilon=0.5, seed=77), PrivacyBudget(1.0))
        assert model.meta.epsilon_consumed == 0.5
        assert model.meta.training_m == 4
        assert model.meta.sensitivity == 1.0
        assert model.meta.seed == 77

    def test_publish_decomposes_into_select_buy_fit(self, tmp_path, hist4):
        # Re-running the documented stages by hand must give the same model file.
        config = MldpConfig(epsilon=1.0, selection="random_m", m=12, seed=5)
        model = mldp_publish(hist4, config, PrivacyBudget(1.0))
        training_workload = training_workload_for(hist4.d, config)
        noisy = laplace_batch(
            training_workload,
            hist4,
            PrivacyBudget(1.0),
            config.epsilon,
            derive_seed(config.seed, "noise"),
        )
        manual = fit_linear(replace(noisy, seed=config.seed))
        save_model(model, tmp_path / "published.json")
        save_model(manual, tmp_path / "manual.json")
        assert (tmp_path / "published.json").read_bytes() == (
            tmp_path / "manual.json"
        ).read_bytes()

    @pytest.mark.parametrize("name", list(GOLDEN_MODEL_SHA256))
    def test_model_file_matches_golden_digest(self, tmp_path, name):
        """Singleton and greedy_cover linear model files keep their bytes.

        Keys read "<selection>/d=<d>/eps=<epsilon>".  Each digest is the
        sha256 of the file save_model writes for mldp_publish(
        generate_simulated_histogram(d, 1000, seed=7), MldpConfig(epsilon,
        selection, seed=11)); the digests were written with the dense
        normal-equation solve, so they also pin the closed-form singleton
        fit to it, at any BLAS thread count.
        """
        selection, d, eps = name.split("/")
        d, eps = int(d[2:]), float(eps[4:])
        model = mldp_publish(
            generate_simulated_histogram(d, 1000, seed=7),
            MldpConfig(epsilon=eps, selection=selection, seed=11),
            PrivacyBudget(eps),
        )
        save_model(model, tmp_path / "model.json")
        digest = hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest()
        assert digest == GOLDEN_MODEL_SHA256[name]

    def test_random_m_uses_the_requested_pool(self, hist4):
        config = MldpConfig(epsilon=1.0, selection="random_m", m=6, pool="subsets", seed=0)
        w = training_workload_for(hist4.d, config)
        assert w.m == 6
        assert all(q.kind == "subset" for q in w)

    def test_greedy_selection_through_the_pipeline(self, hist4):
        config = MldpConfig(**{**ZERO_NOISE, "selection": "greedy_cover"})
        model = mldp_publish(hist4, config, PrivacyBudget(math.inf))
        np.testing.assert_allclose(model.weights[1:], hist4.bins, atol=1e-9)

    def test_rbf_learner_through_the_pipeline(self, hist4, ranges4):
        config = MldpConfig(
            epsilon=math.inf, selection="random_m", m=10, learner="rbf", seed=3
        )
        model = mldp_publish(hist4, config, PrivacyBudget(math.inf))
        assert model.kind == "rbf"
        assert model.meta.mu is not None
        assert np.all(np.isfinite(predict(model, ranges4)))

    def test_answering_never_touches_the_budget(self, hist4, ranges4):
        budget = PrivacyBudget(1.0)
        model = mldp_publish(hist4, MldpConfig(epsilon=1.0), budget)
        before = (budget.ledger, budget.spent, budget.remaining)
        for _ in range(500):
            predict(model, ranges4)
        assert (budget.ledger, budget.spent, budget.remaining) == before


class TestBounds:
    def test_model_bound_worked_value(self):
        p = BoundParameters(n_records=100, hypothesis_count=16, beta=0.05, m=50)
        value = model_error_bound(p)
        assert value == pytest.approx(25.419418121494672, rel=1e-12)
        assert abs(value - 25.4196) < 5e-4

    def test_rejects_a_non_integer_m(self):
        with pytest.raises(ValueError, match="m=2.5 is not an integer"):
            BoundParameters(n_records=100, hypothesis_count=16, beta=0.05, m=2.5)

    def test_noise_bound_worked_value(self):
        p = BoundParameters(
            n_records=100, hypothesis_count=16, beta=0.05, m=100, sensitivity=1.0, epsilon=1.0
        )
        value = noise_error_bound(p)
        assert value == pytest.approx(0.48034658303328326, rel=1e-12)
        assert abs(value - 0.48045) < 5e-4

    def test_formulas_match_independent_evaluation(self):
        # The formulas are rebuilt here from strings and evaluated with
        # the math module only, then compared at 1e-9 relative.
        model_formula = "sqrt(n * n * log(2.0 * H / beta) / (2.0 * m))"
        noise_formula = "sqrt(4.0 * S * log(H / beta) / (m * eps * eps))"
        env = {"sqrt": math.sqrt, "log": math.log}
        rng = np.random.default_rng(123)
        for _ in range(50):
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
            assert model_error_bound(p) == pytest.approx(expected_model, rel=1e-9)
            assert noise_error_bound(p) == pytest.approx(expected_noise, rel=1e-9)

    def test_total_bound_doubles_beta(self):
        p = BoundParameters(n_records=10, hypothesis_count=8, beta=0.05, m=20)
        bound = total_error_bound(p)
        assert bound.beta_total == 0.1
        assert bound.alpha_model == model_error_bound(p)
        assert bound.alpha_noise == noise_error_bound(p)

    def test_quadrupling_m_halves_the_model_bound(self):
        base = BoundParameters(n_records=50, hypothesis_count=64, beta=0.1, m=25)
        bigger = BoundParameters(n_records=50, hypothesis_count=64, beta=0.1, m=100)
        assert model_error_bound(bigger) == pytest.approx(model_error_bound(base) / 2, rel=1e-12)

    def test_doubling_epsilon_halves_the_noise_bound(self):
        base = BoundParameters(n_records=50, hypothesis_count=64, beta=0.1, m=25, epsilon=0.5)
        bigger = BoundParameters(n_records=50, hypothesis_count=64, beta=0.1, m=25, epsilon=1.0)
        assert noise_error_bound(bigger) == pytest.approx(noise_error_bound(base) / 2, rel=1e-12)

    def test_both_bounds_decrease_in_m_at_fixed_sensitivity(self):
        values = [
            total_error_bound(
                BoundParameters(n_records=100, hypothesis_count=16, beta=0.05, m=m)
            )
            for m in (10, 40, 160, 640)
        ]
        models = [v.alpha_model for v in values]
        noises = [v.alpha_noise for v in values]
        assert models == sorted(models, reverse=True)
        assert noises == sorted(noises, reverse=True)

    def test_noise_bound_flat_when_sensitivity_tracks_m(self):
        # Worst case: every extra training query overlaps everything, so
        # S grows linearly with m and extra measurements stop helping.
        values = [
            noise_error_bound(
                BoundParameters(
                    n_records=100, hypothesis_count=16, beta=0.05, m=m, sensitivity=float(m)
                )
            )
            for m in (10, 100, 1000)
        ]
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - 1e-12

    def test_model_bound_grows_with_n(self):
        lo = model_error_bound(BoundParameters(n_records=10, hypothesis_count=16, beta=0.05, m=50))
        hi = model_error_bound(BoundParameters(n_records=20, hypothesis_count=16, beta=0.05, m=50))
        assert hi == pytest.approx(2 * lo, rel=1e-12)

    def test_zero_records_gives_zero_model_bound(self):
        p = BoundParameters(n_records=0, hypothesis_count=16, beta=0.05, m=50)
        assert model_error_bound(p) == 0.0

    def test_infinite_epsilon_silences_the_noise_bound(self):
        p = BoundParameters(
            n_records=10, hypothesis_count=16, beta=0.05, m=50, epsilon=math.inf
        )
        assert noise_error_bound(p) == 0.0

    def test_parameter_validation(self):
        good = dict(n_records=10, hypothesis_count=16, beta=0.05, m=50)
        with pytest.raises(ValueError, match="n_records"):
            BoundParameters(**{**good, "n_records": -1})
        with pytest.raises(ValueError, match="hypothesis_count"):
            BoundParameters(**{**good, "hypothesis_count": 1.0})
        with pytest.raises(ValueError, match="beta"):
            BoundParameters(**{**good, "beta": 0.0})
        with pytest.raises(ValueError, match="beta"):
            BoundParameters(**{**good, "beta": 1.0})
        with pytest.raises(ValueError, match="m"):
            BoundParameters(**{**good, "m": 0})
        with pytest.raises(ValueError, match="sensitivity"):
            BoundParameters(**good, sensitivity=-2.0)
        with pytest.raises(ValueError, match="epsilon"):
            BoundParameters(**good, epsilon=0.0)
