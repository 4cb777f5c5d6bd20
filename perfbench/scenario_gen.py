"""Seeded generator of the plan_m5 scenario: a random 5-station network.

Every station is adjacent to three distinct users drawn at random, redrawn
until every user is covered by at least one station. Each of four
equiprobable channel states gives every link a rate drawn uniformly from
{1, 2}, so under the one-user-per-station rule every region member is
distinct and the planning LP has 2**5 + 4 * (1 + 3)**5 = 12,532 columns.
The same seed always gives the same scenario.
"""

from __future__ import annotations

import random

N_STATIONS = 5
N_USERS = 8
USERS_PER_STATION = 3
N_STATES = 4
ARRIVAL_RATE = 0.1


def generate(seed: int) -> dict:
    """Scenario JSON (as a dict) for the seeded random network."""
    rng = random.Random(seed)
    while True:
        adjacency = [
            [m, u]
            for m in range(N_STATIONS)
            for u in sorted(rng.sample(range(N_USERS), USERS_PER_STATION))
        ]
        if len({u for _, u in adjacency}) == N_USERS:
            break
    states = []
    for h in range(N_STATES):
        rates = [[0] * N_USERS for _ in range(N_STATIONS)]
        for m, u in adjacency:
            rates[m][u] = rng.choice((1, 2))
        states.append({"name": f"state_{h}", "rates": rates})
    return {
        "name": f"plan_m5_seed{seed}",
        "network": {
            "n_users": N_USERS,
            "n_stations": N_STATIONS,
            "adjacency": adjacency,
            "arrival_rate": ARRIVAL_RATE,
            "max_arrivals": 1,
            "max_rate": 2,
            "costs": {"switch_off": 1.0, "active": 1.0, "switch_on": 0.0, "sleep": 0.0},
        },
        "channel": {
            "interference": "one_user_per_station",
            "states": states,
            "pmf": [1.0 / N_STATES] * N_STATES,
        },
        "arrivals": {"law": "bernoulli"},
        "policy": {"name": "static_split_mw", "eps_s": 0.05, "eps_g": 0.05},
        "run": {"horizon": 1000, "seeds": [0], "window": 200, "q_bar": 200},
    }
