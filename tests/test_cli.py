import json

import numpy as np
import pytest

import cache_rl as cr
from cache_rl.cli import main


def test_presets_lists_all(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in list(cr.PRESET_PARAMS) + ["dynamic", "small network", "large network"]:
        assert name in out


def test_run_preset_writes_metrics(tmp_path, capsys):
    out_path = tmp_path / "metrics.csv"
    code = main(
        [
            "run",
            "--scenario",
            "s3",
            "--horizon",
            "300",
            "--realizations",
            "2",
            "--seed",
            "11",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    metadata, cols = cr.read_metrics(out_path)
    assert len(cols["slot"]) == 300
    assert metadata["base_seed"] == "11"
    assert "final running-average cost" in capsys.readouterr().out


def test_run_scenario_file_with_oracle_compare(tmp_path):
    sc = cr.preset_scenario("s1", horizon=200, realizations=2)
    sc_path = tmp_path / "scenario.json"
    cr.save_scenario(sc, sc_path)
    out_path = tmp_path / "metrics.csv"
    code = main(
        ["run", "--scenario", str(sc_path), "--out", str(out_path), "--oracle-compare"]
    )
    assert code == 0
    metadata, cols = cr.read_metrics(out_path)
    assert "norm_error" in cols
    assert "oracle_average_cost" in metadata


def test_run_rejects_unknown_scenario(capsys):
    assert main(["run", "--scenario", "nope", "--out", "x.csv"]) == 2
    assert "error" in capsys.readouterr().err


def test_run_reports_divergence(tmp_path, capsys):
    rng = np.random.default_rng(1)
    g_chain = cr.random_chain(3, 60, rng, eta_range=(1.0, 2.0))
    l_chain = cr.random_chain(3, 60, rng, eta_range=(1.0, 2.0))
    sc = cr.Scenario(
        name="diverges",
        g_chain=g_chain,
        l_chain=l_chain,
        cache_size=5,
        gamma=0.8,
        lambda_schedule=cr.PiecewiseCostSchedule.constant(cr.CostParams(100, 500, 500)),
        learner="linear",
        learner_config=cr.LinearLearnerConfig(
            alpha_g=0.5, alpha_l=0.5, alpha_r=0.5, epsilon=0.2, gamma=0.8
        ),
        horizon=5000,
        realizations=1,
        base_seed=0,
    )
    sc_path = tmp_path / "diverges.json"
    cr.save_scenario(sc, sc_path)
    code = main(["run", "--scenario", str(sc_path), "--out", str(tmp_path / "m.csv")])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


def test_oracle_subcommand_exports_three_csvs(tmp_path, capsys):
    prefix = tmp_path / "oracle"
    code = main(["oracle", "--scenario", "s2", "--out", str(prefix)])
    assert code == 0
    policy = (tmp_path / "oracle_policy.csv").read_text().splitlines()
    values = (tmp_path / "oracle_values.csv").read_text().splitlines()
    q = (tmp_path / "oracle_q.csv").read_text().splitlines()
    assert len(policy) == 181
    assert len(values) == 181
    assert len(q) == 180 * 45 + 1
    assert "180 states x 45 actions" in capsys.readouterr().out


def test_oracle_rejects_dynamic(capsys):
    assert main(["oracle", "--scenario", "dynamic", "--out", "x"]) == 2
    assert "constant" in capsys.readouterr().err


def test_run_rejects_non_finite_cost_weight(tmp_path, capsys):
    doc = json.loads(cr.scenario_to_json(cr.preset_scenario("s1", horizon=50, realizations=1)))
    doc["lambda_schedule"][0]["lambda2"] = float("nan")
    sc_path = tmp_path / "nan.json"
    sc_path.write_text(json.dumps(doc))
    out_path = tmp_path / "m.csv"
    assert main(["run", "--scenario", str(sc_path), "--out", str(out_path)]) == 2
    assert "lambda2 must be finite" in capsys.readouterr().err
    assert not out_path.exists()


def test_run_rejects_fractional_int_field(tmp_path, capsys):
    doc = json.loads(cr.scenario_to_json(cr.preset_scenario("s1", horizon=50, realizations=1)))
    doc["horizon"] = 50.9
    sc_path = tmp_path / "frac.json"
    sc_path.write_text(json.dumps(doc))
    out_path = tmp_path / "m.csv"
    assert main(["run", "--scenario", str(sc_path), "--out", str(out_path)]) == 2
    assert "horizon must be an integer" in capsys.readouterr().err
    assert not out_path.exists()


def test_run_rejects_learner_override_for_scenario_file(tmp_path, capsys):
    sc_path = tmp_path / "scenario.json"
    cr.save_scenario(cr.preset_scenario("s1", horizon=50, realizations=1), sc_path)
    out_path = tmp_path / "m.csv"
    code = main(
        ["run", "--scenario", str(sc_path), "--learner", "random-baseline", "--out", str(out_path)]
    )
    assert code == 2
    assert "--learner" in capsys.readouterr().err
