"""The on-disk format of every CSV table, pinned on one tiny instance.

Expected lines are built here from the arrays each run returns, with the
documented format: comma-separated cells, LF line endings, floats as 17
significant digits, cached files as sorted 1-based indices joined with ';',
metrics metadata as leading '# key=value' lines.
"""

import numpy as np

import cache_rl as cr
from cache_rl.cli import main
from cache_rl.q_linear import LinearParams
from cache_rl.simulate import realization_rng

PARAMS = cr.CostParams(1, 10, 20)


def g17(value) -> str:
    return f"{value:.17g}"


def label(files) -> str:
    return ";".join(str(int(f) + 1) for f in files)


def table_lines(path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def metrics_lines(trace, name: str) -> list[str]:
    lines = [
        "# learner=exact",
        f"# gamma={g17(trace.gamma)}",
        f"# realizations={trace.realizations}",
        f"# base_seed={trace.base_seed}",
        f"# scenario={name}",
        "# norm_error_metric=relative_frobenius",
        "# hit_metric=expected_mass",
    ]
    columns = [trace.avg_cost, trace.run_avg_cost, trace.hit_fraction]
    header = "slot,avg_cost,run_avg_cost,hit_fraction"
    if trace.norm_error is not None:
        lines.append(f"# oracle_average_cost={g17(trace.oracle_average_cost)}")
        header += ",norm_error"
        snapshots = dict(zip(trace.error_slots.tolist(), trace.norm_error.tolist()))
        latest, err = 1.0, []
        for t in range(trace.horizon):
            latest = snapshots.get(t, latest)
            err.append(latest)
        columns.append(err)
    lines.append(header)
    for t in range(trace.horizon):
        lines.append(",".join([str(t), *(g17(c[t]) for c in columns)]))
    return lines


def trace_lines(trace) -> list[str]:
    lines = ["slot,g_state,l_state,action,realized_cost,epsilon,beta"]
    for t in range(trace.horizon):
        cells = [t, trace.g_states[t], trace.l_states[t], label(trace.actions[t])]
        cells += [g17(trace.costs[t]), g17(trace.epsilons[t]), g17(trace.betas[t])]
        lines.append(",".join(str(c) for c in cells))
    return lines


def test_every_table_format(tiny_instance, tmp_path):
    g_chain, l_chain = tiny_instance.g_chain, tiny_instance.l_chain
    space = cr.StateSpace(g_chain, l_chain, 2)
    scenario = cr.Scenario(
        name="tables",
        g_chain=g_chain,
        l_chain=l_chain,
        cache_size=2,
        gamma=0.8,
        lambda_schedule=cr.PiecewiseCostSchedule.constant(PARAMS),
        learner="exact",
        learner_config=cr.QLearnerConfig(),
        horizon=30,
        realizations=2,
        base_seed=5,
    )
    written = []

    def check(path, expected):
        assert table_lines(path) == expected
        assert b"\r" not in path.read_bytes()
        written.append(path)

    plain = cr.run_scenario(scenario)
    compared = cr.run_scenario(scenario, oracle_compare=True, error_slots=[4, 9, 20])
    for trace, name in ((plain, "plain.csv"), (compared, "compared.csv")):
        cr.export_metrics(trace, tmp_path / name)
        check(tmp_path / name, metrics_lines(trace, "tables"))

    env = cr.PopularityEnv(g_chain=g_chain, l_chain=l_chain)
    exact = cr.run_exact(env, 2, PARAMS, cr.QLearnerConfig(), 12, realization_rng(1, 0))
    linear = cr.run_linear(
        env, 2, PARAMS, cr.LinearLearnerConfig(epsilon=0.3), 12, realization_rng(2, 0)
    )
    for result, name in ((exact, "exact_trace.csv"), (linear, "linear_trace.csv")):
        result.trace.to_csv(tmp_path / name)
        check(tmp_path / name, trace_lines(result.trace))

    params = LinearParams(
        theta_g=np.array([[0.1, 1 / 3]]), theta_l=np.array([[-2.5e-300, 1e17]]), theta_r=2 / 3
    )
    params.to_csv(tmp_path / "params.csv")
    check(
        tmp_path / "params.csv",
        [
            "block,state,file,value",
            "theta_g,0,1,0.10000000000000001",
            "theta_g,0,2,0.33333333333333331",
            "theta_l,0,1,-2.5e-300",
            "theta_l,0,2,1e+17",
            "theta_r,,,0.66666666666666663",
        ],
    )

    res = cr.policy_iteration(space, scenario.gamma, PARAMS)
    labels = [label(files) for files in space.action_files]
    policy_expected = ["state_index,g_state,l_state,cached_files,action_index,action_files,value"]
    q_expected = ["state_index,action_index,action_files,value"]
    values_expected = ["state_index,value"]
    for s in range(space.n_states):
        g, l, a_prev = space.state_components(s)
        a = int(res.policy[s])
        policy_expected.append(
            f"{s},{g},{l},{labels[a_prev]},{a},{labels[a]},{g17(res.values[s])}"
        )
        q_expected += [f"{s},{b},{labels[b]},{g17(res.q[s, b])}" for b in range(space.n_actions)]
        values_expected.append(f"{s},{g17(res.values[s])}")
    cr.export_policy_csv(space, res.policy, res.values, tmp_path / "policy.csv")
    cr.export_qtable_csv(space, res.q, tmp_path / "q.csv")
    check(tmp_path / "policy.csv", policy_expected)
    check(tmp_path / "q.csv", q_expected)

    cr.save_scenario(scenario, tmp_path / "scenario.json")
    prefix = tmp_path / "oracle"
    assert main(["oracle", "--scenario", str(tmp_path / "scenario.json"), "--out", str(prefix)]) == 0
    check(tmp_path / "oracle_policy.csv", policy_expected)
    check(tmp_path / "oracle_values.csv", values_expected)
    check(tmp_path / "oracle_q.csv", q_expected)
    assert len(written) == 10
