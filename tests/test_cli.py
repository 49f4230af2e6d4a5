import json

import numpy as np
import pytest

import cache_rl as cr
from cache_rl import cli
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


@pytest.mark.parametrize(
    "argv", [["oracle", "--scenario", "s7"], ["run", "--scenario", "s7", "--oracle-compare"]]
)
def test_large_network_oracle_exits_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "too large to materialize" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "chain, key, row", [("l_chain", "states", 0), ("g_chain", "transition", 1)]
)
def test_non_finite_probability_exits_2(tmp_path, capsys, chain, key, row):
    # a NaN in a local profile, or a global transition row [NaN, 1.0]
    doc = json.loads(cr.scenario_to_json(cr.preset_scenario("s1", horizon=50, realizations=1)))
    doc[chain][key][row][0] = float("nan")
    if key == "transition":
        doc[chain][key][row][1] = 1.0
    sc_path = tmp_path / "nan.json"
    sc_path.write_text(json.dumps(doc))
    out_path = tmp_path / "m.csv"
    assert main(["run", "--scenario", str(sc_path), "--out", str(out_path)]) == 2
    assert f"{key} entries must be finite and non-negative" in capsys.readouterr().err
    assert not out_path.exists()
    assert main(["oracle", "--scenario", str(sc_path), "--out", str(tmp_path / "o")]) == 2
    assert f"{key} entries must be finite and non-negative" in capsys.readouterr().err
    assert not list(tmp_path.glob("o_*"))


def test_run_rejects_fractional_int_field(tmp_path, capsys):
    doc = json.loads(cr.scenario_to_json(cr.preset_scenario("s1", horizon=50, realizations=1)))
    doc["horizon"] = 50.9
    sc_path = tmp_path / "frac.json"
    sc_path.write_text(json.dumps(doc))
    out_path = tmp_path / "m.csv"
    assert main(["run", "--scenario", str(sc_path), "--out", str(out_path)]) == 2
    assert "horizon must be an integer" in capsys.readouterr().err
    assert not out_path.exists()


def test_run_rejects_line_break_in_name(tmp_path, capsys):
    doc = json.loads(cr.scenario_to_json(cr.preset_scenario("s1", horizon=50, realizations=1)))
    doc["name"] = "a\nb"
    sc_path = tmp_path / "name.json"
    sc_path.write_text(json.dumps(doc))
    out_path = tmp_path / "m.csv"
    assert main(["run", "--scenario", str(sc_path), "--out", str(out_path)]) == 2
    assert "name must not contain a line break" in capsys.readouterr().err
    assert not out_path.exists()


def test_run_dynamic_preset_with_one_slot(tmp_path):
    out_path = tmp_path / "m.csv"
    args = ["run", "--scenario", "dynamic", "--horizon", "1", "--realizations", "2"]
    assert main(args + ["--out", str(out_path)]) == 0
    _, cols = cr.read_metrics(out_path)
    assert len(cols["slot"]) == 1


@pytest.mark.parametrize("key", ["epsilon", "beta"])
def test_run_rejects_bool_number(tmp_path, capsys, key):
    # a JSON string holding a number is rejected the same way
    for bad, message in ((True, "must not be a boolean"), ("0.8", "must be a number")):
        doc = json.loads(cr.scenario_to_json(cr.preset_scenario("s1", horizon=50, realizations=1)))
        doc["learner_config"][key] = bad
        sc_path = tmp_path / "bad.json"
        sc_path.write_text(json.dumps(doc))
        out_path = tmp_path / "m.csv"
        assert main(["run", "--scenario", str(sc_path), "--out", str(out_path)]) == 2
        assert f"{key} {message}" in capsys.readouterr().err
        assert not out_path.exists()


def test_oracle_rejects_seed_and_horizon(capsys):
    for flag in ("--seed", "--horizon"):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--scenario", "s1", flag, "3", "--out", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_run_rejects_learner_override_for_scenario_file(tmp_path, capsys):
    sc_path = tmp_path / "scenario.json"
    cr.save_scenario(cr.preset_scenario("s1", horizon=50, realizations=1), sc_path)
    out_path = tmp_path / "m.csv"
    code = main(
        ["run", "--scenario", str(sc_path), "--learner", "random-baseline", "--out", str(out_path)]
    )
    assert code == 2
    assert "--learner" in capsys.readouterr().err


def test_unwritable_out_fails_before_computing(tmp_path, capsys, monkeypatch):
    def computed(*args, **kwargs):
        raise AssertionError("computed before --out was checked")

    monkeypatch.setattr(cli, "run_scenario", computed)
    monkeypatch.setattr(cli, "StateSpace", computed)
    monkeypatch.setattr(cli, "policy_iteration", computed)
    missing = tmp_path / "missing"
    assert main(["run", "--scenario", "s1", "--out", str(missing / "m.csv")]) == 2
    assert f"cannot write {missing / 'm.csv'}" in capsys.readouterr().err
    assert main(["oracle", "--scenario", "s1", "--out", str(missing / "o")]) == 2
    assert f"cannot write {missing / 'o'}_policy.csv" in capsys.readouterr().err
    assert main(["run", "--scenario", "s1", "--out", str(tmp_path)]) == 2
    assert f"cannot write {tmp_path}" in capsys.readouterr().err
