#!/usr/bin/env python3
"""Scalability: a 1000-file catalog where the action space is astronomical.

C(1000, 10) is about 2.6e23 feasible cache contents, so anything that
enumerates actions or keeps a Q table is hopeless. The linear learner keeps
(50 + 40) * 1000 + 1 = 90001 parameters, picks the top M file scores by a
partition rather than a sort, and beats the random-placement baseline by a
wide margin.
"""

import math
import time

import cache_rl as cr

sc = cr.preset_scenario("s7", horizon=30_000, realizations=1)
print(f"catalog {sc.catalog_size}, cache {sc.cache_size}, "
      f"|P_G| = {sc.g_chain.n_states}, |P_L| = {sc.l_chain.n_states}")
print(f"feasible actions: C(1000, 10) = {math.comb(1000, 10):.3e}")
print(f"linear parameters: {(sc.g_chain.n_states + sc.l_chain.n_states) * 1000 + 1}")
print(f"epsilon schedule: {sc.learner_config.epsilon} (explore, then 1/t decay)")

t0 = time.time()
trace = cr.run_scenario(sc, windows=((25_000, 30_000),))
print(f"\nlearner run: {sc.horizon} slots in {time.time() - t0:.1f}s")

baseline_sc = cr.scenario_with(sc, learner="random-baseline", learner_config=None)
baseline = cr.run_scenario(baseline_sc, windows=((25_000, 30_000),))

print("\nslot     learner run-avg cost    random-baseline run-avg cost")
for t in (1000, 5000, 10_000, 20_000, 29_999):
    print(f"{t:>6}   {trace.run_avg_cost[t]:>20.1f}    {baseline.run_avg_cost[t]:>27.1f}")
print(f"\nfinal-window mean cost: learner {trace.window_cost.mean():.1f} "
      f"vs random baseline {baseline.window_cost.mean():.1f}")
print("(during the exploration phase both behave randomly by design;")
print(" once the schedule switches to exploitation the learner's cost collapses)")
