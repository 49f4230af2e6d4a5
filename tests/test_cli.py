import json
import re

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
    # each label lines up with its column: name, network and learner are
    # left-aligned, the others right-aligned; the lambdas are checked on
    # constant-weight rows, the other cells on every row
    header, *lines = out.splitlines()
    labels = list(re.finditer(r"\S+", header))
    assert [m.group() for m in labels] == [
        "name", "network", "F", "M", "lambda1", "lambda2", "lambda3", "learner", "horizon", "realiz."
    ]
    rows = lines[: lines.index("")]
    assert len(rows) == len(cr.PRESET_PARAMS) + 1
    for row in rows:
        cells = list(re.finditer(r"\S+", row))
        pairs = list(zip(labels, cells))
        if "two-interval" in row:
            pairs = pairs[:4] + list(zip(labels[-3:], cells[-3:]))
        for label, cell in pairs:
            if label.group() in ("name", "network", "learner"):
                assert cell.start() == label.start(), (label.group(), row)
            else:
                assert cell.end() == label.end(), (label.group(), row)


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


def test_run_reports_overflowing_q_error_as_divergence(tmp_path, capsys, monkeypatch):
    """Finite parameters whose squared Q error overflows: exit 3, not an inf metric."""
    learn = cr.q_linear.BatchLinearAgent.learn

    def learn_to_huge(self, *args):
        learn(self, *args)
        self.theta_g[:] = 1e160

    monkeypatch.setattr(cr.q_linear.BatchLinearAgent, "learn", learn_to_huge)
    out = tmp_path / "m.csv"
    argv = ["run", "--scenario", "s1", "--learner", "linear", "--horizon", "5",
            "--realizations", "1", "--oracle-compare", "--out", str(out)]
    assert main(argv) == 3
    assert "non-finite linear Q error" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("argv", [["oracle"], ["run", "--oracle-compare"]])
def test_oracle_beyond_physical_memory_exits_2(tmp_path, capsys, argv):
    g_chain, l_chain = cr.small_network_chains(30)
    sc = cr.preset_scenario("s1", horizon=50, realizations=1)
    sc = cr.scenario_with(sc, g_chain=g_chain, l_chain=l_chain, cache_size=5)
    sc_path = tmp_path / "f30m5.json"
    sc_path.write_text(cr.scenario_to_json(sc))
    assert main(argv + ["--scenario", str(sc_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "too large to materialize" in err
    assert "Traceback" not in err


def test_oracle_rejects_dynamic(capsys):
    assert main(["oracle", "--scenario", "dynamic", "--out", "x"]) == 2
    assert "constant" in capsys.readouterr().err


def test_constant_weights_one_message(tmp_path, capsys):
    sc = cr.preset_scenario("dynamic", horizon=10, realizations=1)
    with pytest.raises(ValueError) as raised:
        cr.run_scenario(sc, oracle_compare=True)
    assert str(raised.value) == "the oracle needs constant cost weights, not 2 segments"
    assert main(["oracle", "--scenario", "dynamic", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {raised.value}\n"


def test_oracle_refuses_unexportable_q_before_solving(tmp_path, capsys, monkeypatch):
    def computed(*args, **kwargs):
        raise AssertionError("solved although the Q table cannot be exported")

    # the 45 x 45 refresh table (16 200 B) fits, the 180 x 45 Q table (64 800 B) does not
    monkeypatch.setattr(cr.mdp_oracle, "_PHYSICAL_MEMORY", 32_000)
    monkeypatch.setattr(cli, "policy_iteration", computed)
    assert main(["oracle", "--scenario", "s1", "--out", str(tmp_path / "o")]) == 2
    assert "180-state Q table is too large to materialize" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_run_exact_tables_beyond_memory_exit_2(tmp_path, capsys, monkeypatch):
    # one 180 x 45 table fits in 100 000 B, the two of two realizations do not
    monkeypatch.setattr(cr.mdp_oracle, "_PHYSICAL_MEMORY", 100_000)
    out = tmp_path / "m.csv"
    argv = ["run", "--scenario", "s1", "--horizon", "10", "--realizations", "2", "--out", str(out)]
    assert main(argv) == 2
    assert "180-state Q table x 2 is too large to materialize" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_non_finite_cost_weight(tmp_path, capsys):
    doc = json.loads(cr.scenario_to_json(cr.preset_scenario("s1", horizon=50, realizations=1)))
    doc["lambda_schedule"][0]["lambda2"] = float("nan")
    sc_path = tmp_path / "nan.json"
    sc_path.write_text(json.dumps(doc))
    out_path = tmp_path / "m.csv"
    assert main(["run", "--scenario", str(sc_path), "--out", str(out_path)]) == 2
    assert "lambda2 must lie in [0, inf), got nan" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "keys, bad, message",
    [
        (("gamma",), 1.0, "gamma must lie in [0, 1), got 1.0"),
        (("learner_config", "beta"), 0.0, "beta must lie in (0, 1], got 0.0"),
        (("learner_config", "epsilon"), 1.5, "epsilon must lie in [0, 1], got 1.5"),
        (("lambda_schedule", 0, "lambda3"), -1.0, "lambda3 must lie in [0, inf), got -1.0"),
    ],
)
def test_run_rejects_real_outside_its_interval(tmp_path, capsys, keys, bad, message):
    doc = json.loads(cr.scenario_to_json(cr.preset_scenario("s1", horizon=50, realizations=1)))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = bad
    sc_path = tmp_path / "bad.json"
    sc_path.write_text(json.dumps(doc))
    out_path = tmp_path / "m.csv"
    assert main(["run", "--scenario", str(sc_path), "--out", str(out_path)]) == 2
    assert message in capsys.readouterr().err
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


@pytest.mark.parametrize("chain, key", [("l_chain", "states"), ("g_chain", "transition")])
def test_ragged_rows_exit_2(tmp_path, capsys, chain, key):
    # row 1 of a local profile matrix, or of a global transition matrix, cut to one entry
    doc = json.loads(cr.scenario_to_json(cr.preset_scenario("s1", horizon=50, realizations=1)))
    doc[chain][key][1] = doc[chain][key][1][:1]
    sc_path = tmp_path / "ragged.json"
    sc_path.write_text(json.dumps(doc))
    out_path = tmp_path / "m.csv"
    assert main(["run", "--scenario", str(sc_path), "--out", str(out_path)]) == 2
    assert f"error: {key} rows must all have one length" in capsys.readouterr().err
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


def test_run_rejects_requests_per_slot_beyond_int64(tmp_path, capsys):
    # a Generator draws int64 counts: 2**63 requests would fail inside the run
    doc = json.loads(cr.scenario_to_json(cr.preset_scenario("s1", horizon=50, realizations=1)))
    doc["request_mode"] = "empirical"
    doc["requests_per_slot"] = 2**63
    sc_path = tmp_path / "big.json"
    sc_path.write_text(json.dumps(doc))
    out_path = tmp_path / "m.csv"
    assert main(["run", "--scenario", str(sc_path), "--out", str(out_path)]) == 2
    assert f"requests_per_slot must lie in [1, {2**63}), got {2**63}" in capsys.readouterr().err
    assert not out_path.exists()


def test_run_rejects_unknown_key(tmp_path, capsys):
    doc = json.loads(cr.scenario_to_json(cr.preset_scenario("s1", horizon=50, realizations=1)))
    doc["horizn"] = 50
    sc_path = tmp_path / "typo.json"
    sc_path.write_text(json.dumps(doc))
    out_path = tmp_path / "m.csv"
    assert main(["run", "--scenario", str(sc_path), "--out", str(out_path)]) == 2
    assert "unexpected key 'horizn' in a Scenario document" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("key", ["g_chain", "horizon"])
def test_run_rejects_missing_key(tmp_path, capsys, key):
    doc = json.loads(cr.scenario_to_json(cr.preset_scenario("s1", horizon=50, realizations=1)))
    del doc[key]
    sc_path = tmp_path / "short.json"
    sc_path.write_text(json.dumps(doc))
    out_path = tmp_path / "m.csv"
    assert main(["run", "--scenario", str(sc_path), "--out", str(out_path)]) == 2
    assert f"missing key '{key}' in a Scenario document" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "key, bad, message",
    [
        ("g_chain", 5, "g_chain must be a MarkovChain document (a JSON object), got 5"),
        ("lambda_schedule", {}, "lambda_schedule must be a list of CostParams documents, got {}"),
        ("learner_config", [1], "learner_config must be a QLearnerConfig document"),
    ],
)
def test_run_rejects_wrong_json_type(tmp_path, capsys, key, bad, message):
    doc = json.loads(cr.scenario_to_json(cr.preset_scenario("s1", horizon=50, realizations=1)))
    doc[key] = bad
    sc_path = tmp_path / "typed.json"
    sc_path.write_text(json.dumps(doc))
    out_path = tmp_path / "m.csv"
    assert main(["run", "--scenario", str(sc_path), "--out", str(out_path)]) == 2
    assert message in capsys.readouterr().err
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
    assert main(["run", "--scenario", "s1", "--out", ""]) == 2
    assert "cannot write ''" in capsys.readouterr().err
    monkeypatch.chdir(tmp_path)
    for prefix in ("", "sub/"):
        assert main(["oracle", "--scenario", "s1", "--out", prefix]) == 2
        assert f"--out must end in a file name prefix, got {prefix!r}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
