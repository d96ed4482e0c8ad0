"""Command-line interface, exercised in-process through main()."""

from __future__ import annotations

import json

import numpy as np
import pytest

from mldp import all_range_queries, save_workload_csv
from mldp.bench import read_report_csv
from mldp.cli import main
from mldp.histogram import save_histogram_csv


@pytest.fixture
def hist_csv(tmp_path, hist4):
    p = tmp_path / "hist.csv"
    save_histogram_csv(hist4, p)
    return str(p)


@pytest.fixture
def workload_csv(tmp_path, ranges4):
    p = tmp_path / "ranges.csv"
    save_workload_csv(ranges4, p)
    return str(p)


def publish_config(tmp_path, **overrides) -> str:
    doc = {"epsilon": 1e6, "selection": "singleton", "learner": "linear", "seed": 1}
    doc.update(overrides)
    p = tmp_path / "publish.json"
    p.write_text(json.dumps(doc))
    return str(p)


class TestSensitivity:
    def test_prints_the_joint_sensitivity(self, capsys, workload_csv):
        assert main(["sensitivity", workload_csv]) == 0
        assert capsys.readouterr().out.strip() == "6.0"

    def test_missing_file_exits_2_with_diagnostic(self, capsys, tmp_path):
        assert main(["sensitivity", str(tmp_path / "nope.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nope.csv" in err


class TestPublishAnswer:
    def test_round_trip(self, capsys, tmp_path, hist_csv, workload_csv, ranges4_answers):
        model_path = str(tmp_path / "model.json")
        rc = main(
            ["publish", hist_csv, "--config", publish_config(tmp_path), "--out", model_path]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "published linear model over d=4" in out
        assert "training_m=4" in out

        assert main(["answer", model_path, workload_csv]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "query_id,answer"
        assert [int(l.split(",")[0]) for l in lines[1:]] == list(range(10))
        answers = np.array([float(l.split(",")[1]) for l in lines[1:]])
        # epsilon=1e6 makes the noise negligible next to this tolerance.
        np.testing.assert_allclose(answers, ranges4_answers, atol=0.1)

    @pytest.mark.parametrize("learner", ["linear", "rbf"])
    def test_answer_prints_library_predict_byte_for_byte(
        self, capsys, tmp_path, hist_csv, learner
    ):
        from mldp import predict
        from mldp.learning import load_model
        from mldp.workload import LinearQuery, Workload, load_workload_csv

        queries = list(all_range_queries(4)) + [
            LinearQuery([1.0, 0.0, 1.0, 1.0], kind="subset"),
            LinearQuery([0.1, -2.5, 1 / 3, 7.0]),
        ]
        workload_path = tmp_path / "mixed.csv"
        save_workload_csv(Workload(4, queries), workload_path)
        model_path = tmp_path / "model.json"
        config = publish_config(tmp_path, epsilon=1.0, learner=learner)
        assert main(["publish", hist_csv, "--config", config, "--out", str(model_path)]) == 0
        capsys.readouterr()
        assert main(["answer", str(model_path), str(workload_path)]) == 0
        answers = predict(load_model(model_path), load_workload_csv(workload_path))
        expected = "query_id,answer\n" + "".join(
            f"{i},{float(v)!r}\n" for i, v in enumerate(answers)
        )
        assert capsys.readouterr().out == expected

    def test_publish_rejects_infinite_epsilon(self, capsys, tmp_path, hist_csv):
        config = publish_config(tmp_path, epsilon=float("inf"))
        rc = main(["publish", hist_csv, "--config", config, "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_publish_rejects_unknown_config_keys(self, capsys, tmp_path, hist_csv):
        config = publish_config(tmp_path, optimizer="adam")
        rc = main(["publish", hist_csv, "--config", config, "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_publish_rejects_malformed_json(self, capsys, tmp_path, hist_csv):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        rc = main(
            ["publish", hist_csv, "--config", str(config), "--out", str(tmp_path / "m.json")]
        )
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_answer_rejects_truncated_model(self, capsys, tmp_path, workload_csv):
        bad = tmp_path / "model.json"
        bad.write_text('{"kind": "linear", "d": 4')
        assert main(["answer", str(bad), workload_csv]) == 2
        assert "not a valid model file" in capsys.readouterr().err

    def test_answer_rejects_non_finite_weights(
        self, capsys, tmp_path, hist_csv, workload_csv
    ):
        model_path = tmp_path / "model.json"
        main(["publish", hist_csv, "--config", publish_config(tmp_path), "--out", str(model_path)])
        doc = json.loads(model_path.read_text())
        doc["weights"][1] = float("nan")
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["answer", str(model_path), workload_csv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "finite" in captured.err
        assert captured.out == ""

    def test_answer_rejects_a_non_integer_meta_field(
        self, capsys, tmp_path, hist_csv, workload_csv
    ):
        model_path = tmp_path / "model.json"
        main(["publish", hist_csv, "--config", publish_config(tmp_path), "--out", str(model_path)])
        doc = json.loads(model_path.read_text())
        doc["meta"]["training_m"] = 2.9
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["answer", str(model_path), workload_csv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "not a valid model file" in captured.err
        assert "training_m=2.9 is not an integer" in captured.err
        assert captured.out == ""

    def test_publish_rejects_non_object_config(self, capsys, tmp_path, hist_csv):
        config = tmp_path / "publish.json"
        config.write_text("5")
        rc = main(
            ["publish", hist_csv, "--config", str(config), "--out", str(tmp_path / "m.json")]
        )
        assert rc == 2
        assert "must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field",
        [{"epsilon": "1"}, {"epsilon": None}, {"m": [5]}, {"seed": 1.7}, {"m": "5"}],
    )
    def test_publish_rejects_config_fields_of_the_wrong_type(
        self, capsys, tmp_path, hist_csv, field
    ):
        config = publish_config(tmp_path, **{"selection": "random_m", "m": 5, **field})
        out = tmp_path / "m.json"
        rc = main(["publish", hist_csv, "--config", config, "--out", str(out)])
        assert rc == 2
        assert "error: publish config field of the wrong type" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field",
        [
            {"ridge": -1},
            {"ridge": "0.5"},
            {"epsilon": True},
            {"width_u": 0},
            {"learner": "rbf", "ridge": 0},
        ],
        ids=["negative-ridge", "string-ridge", "bool-epsilon", "zero-width", "rbf-zero-ridge"],
    )
    def test_publish_refuses_bad_fit_numbers_and_writes_nothing(
        self, capsys, tmp_path, hist_csv, field
    ):
        out = tmp_path / "m.json"
        config = publish_config(tmp_path, **field)
        assert main(["publish", hist_csv, "--config", config, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and list(field)[-1] in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_answer_rejects_dimension_mismatch(
        self, capsys, tmp_path, hist_csv, workload_csv
    ):
        from mldp.workload import Workload, range_query

        model_path = str(tmp_path / "model.json")
        main(["publish", hist_csv, "--config", publish_config(tmp_path), "--out", model_path])
        w3 = tmp_path / "w3.csv"
        save_workload_csv(Workload(3, [range_query(0, 2, 3)]), w3)
        capsys.readouterr()
        assert main(["answer", model_path, str(w3)]) == 2
        assert "d=3" in capsys.readouterr().err


class TestBounds:
    def test_worked_values(self, capsys):
        rc = main(
            [
                "bounds",
                "--n", "100", "--h", "16", "--beta", "0.05",
                "--m", "50", "--s", "1", "--eps", "1",
            ]
        )
        assert rc == 0
        lines = dict(
            line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(lines["alpha_model"]) == pytest.approx(25.419418121494672, rel=1e-12)
        assert float(lines["beta_total"]) == 0.1

    def test_rejects_infinite_epsilon(self, capsys):
        rc = main(
            [
                "bounds",
                "--n", "100", "--h", "16", "--beta", "0.05",
                "--m", "50", "--s", "1", "--eps", "inf",
            ]
        )
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_rejects_bad_beta(self, capsys):
        rc = main(
            [
                "bounds",
                "--n", "100", "--h", "16", "--beta", "1.5",
                "--m", "50", "--s", "1", "--eps", "1",
            ]
        )
        assert rc == 2
        assert "beta" in capsys.readouterr().err


class TestBench:
    def bench_config(self, tmp_path, **overrides) -> str:
        doc = {
            "dataset": {"simulated": {"d": 8, "max_count": 50, "seed": 3}},
            "mechanisms": ["laplace"],
            "sweep_variable": "test_m",
            "grid": [5],
            "trials": 2,
            "test_m": 5,
        }
        doc.update(overrides)
        p = tmp_path / "bench.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_writes_a_csv_report(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        rc = main(["bench", self.bench_config(tmp_path), "--out", str(out)])
        assert rc == 0
        assert "wrote test_m sweep" in capsys.readouterr().out
        parsed = read_report_csv(out)
        assert parsed["rows"]
        assert parsed["config"]["mechanisms"] == ["laplace"]

    def test_writes_a_json_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert main(["bench", self.bench_config(tmp_path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["sweep_variable"] == "test_m"
        assert len(doc["rows"]) == 1

    def test_rejects_unknown_report_extension(self, capsys, tmp_path):
        rc = main(["bench", self.bench_config(tmp_path), "--out", str(tmp_path / "r.txt")])
        assert rc == 2
        assert "unknown report format" in capsys.readouterr().err

    def test_rejects_non_object_config(self, capsys, tmp_path):
        p = tmp_path / "bench.json"
        p.write_text("[1, 2, 3]")
        rc = main(["bench", str(p), "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field",
        [
            {"mechanisms": 5},
            {"epsilon": "1"},
            {"grid": None},
            {"trials": 2.9},
            {"dataset": {"simulated": {"d": True, "max_count": 50, "seed": 3}}},
            {"grid": ["10", 25]},
            {"grid": [True]},
        ],
    )
    def test_rejects_config_fields_of_the_wrong_type(self, capsys, tmp_path, field):
        out = tmp_path / "r.csv"
        rc = main(["bench", self.bench_config(tmp_path, **field), "--out", str(out)])
        assert rc == 2
        assert "error: experiment config field of the wrong type" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_rejects_a_non_finite_size_grid(self, capsys, tmp_path, value):
        # json writes these as Infinity and NaN, which json.load reads back.
        out = tmp_path / "r.csv"
        rc = main(["bench", self.bench_config(tmp_path, grid=[5, value]), "--out", str(out)])
        assert rc == 2
        assert "error: test_m grid values must be finite integers >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_empty_mechanisms_before_writing(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(["bench", self.bench_config(tmp_path, mechanisms=[]), "--out", str(out)])
        assert rc == 2
        assert not out.exists()


class TestParser:
    def test_programming_errors_are_not_reported_as_input_errors(
        self, monkeypatch, tmp_path, workload_csv
    ):
        def broken(path):
            raise KeyError("x")

        monkeypatch.setattr("mldp.cli.load_model", broken)
        with pytest.raises(KeyError):
            main(["answer", str(tmp_path / "model.json"), workload_csv])

    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
