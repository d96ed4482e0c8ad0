"""Benchmark harness: configs, sweeps, determinism, report files."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mldp import MldpConfig, PrivacyBudget, mldp_publish
from mldp.bench import (
    DatasetSpec,
    ExperimentConfig,
    MECHANISMS,
    emit_report,
    mae,
    _overlap_count,
    read_report_csv,
    run_sweep,
)
from mldp.histogram import save_histogram_csv
from mldp.learning import SELECTION_STRATEGIES, select_training_set
from mldp.workload import _POOL_KINDS as POOL_KINDS, random_range_workload

SIM = DatasetSpec(d=16, max_count=100, seed=11)


def small_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        dataset=SIM,
        mechanisms=MECHANISMS,
        sweep_variable="test_m",
        grid=(10.0, 25.0),
        epsilon=1.0,
        test_m=30,
        rounds=3,
        trials=3,
        base_seed=0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestMae:
    def test_hand_values(self):
        assert mae([1.0, 2.0], [1.0, 3.0]) == 0.5
        assert mae([4.0, 4.0], [4.0, 4.0]) == 0.0
        assert mae([-1.0], [2.0]) == 3.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mae([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mae([], [])


class TestDatasetSpec:
    def test_simulated_load_is_deterministic(self):
        assert SIM.load() == SIM.load()
        assert SIM.load().d == 16

    def test_path_load(self, tmp_path, hist4):
        p = tmp_path / "h.csv"
        save_histogram_csv(hist4, p)
        spec = DatasetSpec(path=str(p))
        assert spec.load() == hist4

    def test_rejects_mixed_and_missing_fields(self):
        with pytest.raises(ValueError, match="not both"):
            DatasetSpec(path="x.csv", d=4, max_count=10, seed=0)
        with pytest.raises(ValueError, match="needs d, max_count and seed"):
            DatasetSpec(d=4)

    @pytest.mark.parametrize("field", ["d", "max_count", "seed"])
    def test_rejects_non_integer_simulation_fields(self, field):
        fields = {"d": 4, "max_count": 10, "seed": 0, field: 4.5}
        with pytest.raises(ValueError, match=f"wrong type: dataset {field}=4.5 is not an integer"):
            DatasetSpec(**fields)

    def test_dict_round_trip(self):
        assert DatasetSpec.from_dict(SIM.to_dict()) == SIM
        spec = DatasetSpec(path="data/h.csv")
        assert DatasetSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_validation(self):
        with pytest.raises(ValueError, match="unknown dataset keys"):
            DatasetSpec.from_dict({"url": "http://x"})
        with pytest.raises(ValueError, match="not both"):
            DatasetSpec.from_dict({"path": "x", "simulated": {}})
        with pytest.raises(ValueError, match="bad simulated"):
            DatasetSpec.from_dict({"simulated": {"d": 4}})
        with pytest.raises(ValueError, match="needs 'path' or 'simulated'"):
            DatasetSpec.from_dict({})


class TestExperimentConfig:
    def test_json_round_trip(self):
        config = small_config()
        text = json.dumps(config.to_dict())
        assert ExperimentConfig.from_dict(json.loads(text)) == config

    def test_rejects_empty_or_unknown_mechanisms(self):
        with pytest.raises(ValueError, match="must not be empty"):
            small_config(mechanisms=())
        with pytest.raises(ValueError, match="unknown mechanisms"):
            small_config(mechanisms=("mldp", "magic"))

    def test_rejects_bad_sweeps_and_grids(self):
        with pytest.raises(ValueError, match="unknown sweep variable"):
            small_config(sweep_variable="noise")
        with pytest.raises(ValueError, match="grid must not be empty"):
            small_config(grid=())
        with pytest.raises(ValueError, match="integers >= 1"):
            small_config(grid=(10.5,))
        for variable in ("test_m", "training_m"):
            for value in (float("inf"), float("nan")):
                with pytest.raises(ValueError, match=f"{variable} grid values must be finite"):
                    small_config(sweep_variable=variable, grid=(10.0, value))
        with pytest.raises(ValueError, match="finite and positive"):
            small_config(sweep_variable="epsilon", grid=(0.5, 0.0))
        with pytest.raises(ValueError, match="finite and positive"):
            small_config(sweep_variable="epsilon", grid=(float("inf"),))

    def test_rejects_bad_fixed_parameters(self):
        with pytest.raises(ValueError, match="epsilon"):
            small_config(epsilon=float("inf"))
        with pytest.raises(ValueError, match="at least 1"):
            small_config(test_m=0)
        with pytest.raises(ValueError, match="unknown selection"):
            small_config(selection="magic")
        with pytest.raises(ValueError, match="unknown learner"):
            small_config(learner="forest")
        with pytest.raises(ValueError, match="rounds"):
            small_config(rounds=0)
        with pytest.raises(ValueError, match="trials"):
            small_config(trials=0)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"epsilon": True}, "epsilon"),
            ({"epsilon": "1"}, "epsilon"),
            ({"ridge": -1.0}, "ridge"),
            ({"ridge": "0.5"}, "ridge"),
            ({"ridge": float("nan")}, "ridge"),
            ({"learner": "rbf", "ridge": 0.0}, "ridge"),
            ({"width_u": 0.0}, "width_u"),
            ({"width_u": float("inf")}, "width_u"),
            ({"width_u": True}, "width_u"),
        ],
        ids=lambda v: ",".join(f"{k}={x!r}" for k, x in v.items()) if isinstance(v, dict) else v,
    )
    def test_rejects_bad_fit_numbers(self, fields, name):
        with pytest.raises(ValueError, match=name):
            small_config(**fields)

    @pytest.mark.parametrize(
        "grid, bad", [(["0.5", 1.0], "'0.5'"), ([0.5, True], "True"), ([0.5, None], "None")]
    )
    def test_from_dict_refuses_grid_values_that_are_not_numbers(self, grid, bad):
        data = {**small_config(sweep_variable="epsilon", grid=(0.5,)).to_dict(), "grid": grid}
        with pytest.raises(ValueError, match=f"wrong type: grid={bad} is not a number"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("field", ["training_m", "test_m", "rounds", "trials", "base_seed"])
    def test_rejects_non_integer_counts(self, field):
        with pytest.raises(ValueError, match=f"wrong type: {field}=2.5 is not an integer"):
            small_config(**{field: 2.5})

    def test_from_dict_key_checks(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({**small_config().to_dict(), "gpu": True})
        with pytest.raises(ValueError, match="missing config keys"):
            ExperimentConfig.from_dict({"dataset": SIM.to_dict()})


class TestTrainingSizeSweep:
    def test_structure_and_baseline_reuse(self):
        config = small_config(
            sweep_variable="training_m",
            grid=(5.0, 20.0),
            selection="random_m",
            training_m=5,
        )
        report = run_sweep(config)
        assert report.sweep_variable == "training_m"
        assert len(report.rows) == len(MECHANISMS) * 2
        for mech in MECHANISMS:
            for i in (0, 1):
                row = report.row(mech, i)
                assert len(row.trial_maes) == 3
                assert len(row.trial_seeds) == 3
                assert row.mean_mae == pytest.approx(float(np.mean(row.trial_maes)))
                assert row.std_mae == pytest.approx(
                    float(np.std(row.trial_maes, ddof=1))
                )
        # Mechanisms that never see the training set repeat one row.
        for mech in ("laplace", "mwem", "strategy-identity", "strategy-hier"):
            assert report.row(mech, 0).trial_maes == report.row(mech, 1).trial_maes
            assert report.row(mech, 0).trial_seeds == report.row(mech, 1).trial_seeds
            assert report.row(mech, 0).train_test_overlap is None
        # The model is retrained per grid point from per-point seeds.
        assert report.row("mldp", 0).trial_seeds != report.row("mldp", 1).trial_seeds
        assert report.row("mldp", 0).train_test_overlap is not None

    def test_requires_random_m_selection_for_mldp(self):
        config = small_config(sweep_variable="training_m", grid=(5.0,))
        with pytest.raises(ValueError, match="random_m"):
            run_sweep(config)

    def test_baselines_alone_do_not_need_random_m(self):
        config = small_config(
            sweep_variable="training_m", grid=(5.0,), mechanisms=("laplace",), trials=2
        )
        report = run_sweep(config)
        assert len(report.rows) == 1


class TestTestSizeSweep:
    def test_model_reused_across_grid(self):
        report = run_sweep(small_config())
        # One model per trial: identical seeds across grid points ...
        assert report.row("mldp", 0).trial_seeds == report.row("mldp", 1).trial_seeds
        # ... answering freshly drawn test workloads per point.
        assert report.row("mldp", 0).trial_maes != report.row("mldp", 1).trial_maes
        assert report.row("laplace", 0).trial_seeds != report.row("laplace", 1).trial_seeds
        for i in (0, 1):
            assert report.row("mldp", i).train_test_overlap is not None


class TestEpsilonSweep:
    def test_all_mechanisms_rerun_per_epsilon(self):
        config = small_config(sweep_variable="epsilon", grid=(0.5, 1.0), trials=2)
        report = run_sweep(config)
        assert len(report.rows) == len(MECHANISMS) * 2
        for mech in MECHANISMS:
            assert report.row(mech, 0).trial_seeds != report.row(mech, 1).trial_seeds

    def test_deterministic_given_config(self):
        config = small_config(sweep_variable="epsilon", grid=(0.5, 1.0), trials=2)
        assert run_sweep(config).to_dict() == run_sweep(config).to_dict()


@pytest.fixture
def no_pool_builders(monkeypatch):
    """Make every mldp namespace's pool builders fail if called."""

    def no_pool(d):
        raise AssertionError("a query pool was built")

    for name, module in list(sys.modules.items()):
        if name == "mldp" or name.startswith("mldp."):
            for attr in ("all_range_queries", "all_subset_queries"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, no_pool)


@pytest.mark.parametrize(
    "config",
    [
        small_config(sweep_variable="epsilon", grid=(0.5, 1.0), trials=2),
        small_config(
            sweep_variable="training_m", grid=(5.0, 20.0), mechanisms=("laplace",), trials=2
        ),
    ],
    ids=["singleton-epsilon", "baselines-only-training_m"],
)
def test_range_pool_built_only_for_pool_selection(no_pool_builders, config):
    report = run_sweep(config)
    assert len(report.rows) == len(config.mechanisms) * len(config.grid)


def test_no_pool_is_ever_built(no_pool_builders):
    """Selection maps pool positions to queries; it never builds a pool."""
    hist = SIM.load()
    for pool in POOL_KINDS:
        for selection in SELECTION_STRATEGIES:
            m = 20 if selection == "random_m" else None
            config = MldpConfig(selection=selection, m=m, pool=pool)
            assert mldp_publish(hist, config, PrivacyBudget(1.0)).d == hist.d
    config = small_config(
        sweep_variable="training_m", grid=(5.0, 20.0), selection="random_m", trials=2
    )
    report = run_sweep(config)
    assert len(report.rows) == len(config.mechanisms) * len(config.grid)


@pytest.fixture(scope="module")
def report():
    return run_sweep(small_config(trials=2, mechanisms=("mldp", "laplace")))


class TestRunSweepAndReports:
    def test_dispatch_follows_the_config(self, report):
        assert report.sweep_variable == "test_m"
        assert report.code_version
        assert "derive_seed" in report.seed_rule

    def test_json_report_round_trips_and_is_byte_stable(self, tmp_path, report):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        emit_report(report, p1)
        emit_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        doc = json.loads(p1.read_text())
        assert doc == report.to_dict()
        assert ExperimentConfig.from_dict(doc["config"]) == small_config(
            trials=2, mechanisms=("mldp", "laplace")
        )

    def test_csv_report_matches_the_json_numbers(self, tmp_path, report):
        p = tmp_path / "r.csv"
        emit_report(report, p)
        parsed = read_report_csv(p)
        assert parsed["config"] == report.config
        assert parsed["sweep_variable"] == "test_m"
        assert parsed["code_version"] == report.code_version
        by_key = {
            (r["mechanism"], r["grid_value"], r["statistic"]): r["value"]
            for r in parsed["rows"]
        }
        for row in report.rows:
            assert by_key[(row.mechanism, row.grid_value, "mean_mae")] == row.mean_mae
            assert by_key[(row.mechanism, row.grid_value, "std_mae")] == row.std_mae
            if row.train_test_overlap is not None:
                assert (
                    by_key[(row.mechanism, row.grid_value, "train_test_overlap")]
                    == row.train_test_overlap
                )
        # Exactly the statistics above, nothing else.
        expected_rows = sum(
            2 + (1 if row.train_test_overlap is not None else 0) for row in report.rows
        )
        assert len(parsed["rows"]) == expected_rows

    def test_format_inferred_from_extension(self, tmp_path, report):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(report, tmp_path / "r.txt")
        emit_report(report, tmp_path / "r.data", fmt="json")
        assert json.loads((tmp_path / "r.data").read_text()) == report.to_dict()

    def test_csv_reader_requires_config_comment(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("mechanism,grid_value,statistic,value\nlaplace,1.0,mean_mae,2.0\n")
        with pytest.raises(ValueError, match="missing config"):
            read_report_csv(p)


GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_sweeps.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reports_match_golden(name):
    """Sweep reports match the pinned fixture.

    The fixture holds run_sweep(config).to_dict() at d=16 for test_m,
    training_m and epsilon sweeps over each selection and learner path,
    plus the acceptance-07 config shrunk to d=16.  Seeds must match
    exactly; MAEs to a relative 1e-12, which absorbs BLAS threading.
    Regenerate it only for a deliberate change of report contents.
    """
    golden = GOLDEN[name]
    report = run_sweep(ExperimentConfig.from_dict(golden["config"])).to_dict()
    assert report["config"] == golden["config"]
    assert report["seed_rule"] == golden["seed_rule"]
    assert len(report["rows"]) == len(golden["rows"])
    for row, want in zip(report["rows"], golden["rows"]):
        key = (want["mechanism"], want["grid_index"])
        assert (row["mechanism"], row["grid_index"]) == key
        assert row["grid_value"] == want["grid_value"], key
        assert row["trial_seeds"] == want["trial_seeds"], key
        assert row["train_test_overlap"] == want["train_test_overlap"], key
        for got, expected in zip(row["trial_maes"], want["trial_maes"], strict=True):
            assert math.isclose(got, expected, rel_tol=1e-12), key


def _overlap_by_row_bytes(training, test) -> int:
    """Reference for ``_overlap_count``: a test query overlaps when its row's bytes match."""
    keys = {row.tobytes() for row in training.matrix}
    return sum(row.tobytes() in keys for row in test.matrix)


# A sweep builds its training workloads from the ranges pool only.
@pytest.mark.parametrize("pool", ["ranges"])
@pytest.mark.parametrize("selection", SELECTION_STRATEGIES)
def test_overlap_count_matches_row_bytes(selection, pool):
    # Small domains and many test queries, so most counts are far from 0.
    for d in (1, 2, 3, 5, 8, 13, 20):
        for seed in range(4):
            training = select_training_set(d, selection, 3 * d + 1, seed, pool)
            test = random_range_workload(d, 40, seed + 100)
            want = _overlap_by_row_bytes(training, test)
            assert _overlap_count(training, test) == want, (d, seed)
