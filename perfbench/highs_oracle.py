"""Independent check of the planning-LP optimum with HiGHS.

Under the one-user-per-station rule the region R(j, h) is a product of
per-station choices (idle, or serve one adjacent user), so its convex hull
is a product of per-station simplices. The planning LP therefore has the
same optimum as this compact LP, built straight from the scenario JSON
without any ``bssched`` code:

    min  sum_j cost_j sigma_j
    s.t. sum_j sigma_j = 1
         sum_u x[j,h,m,u] <= sigma_j                  for j, h, m ON in j
         sum_{j,h} mu_h r_h[m,u] x[j,h,m,u] >= lam + eps_g   per link
         sigma, x >= 0

where x[j,h,m,u] is the probability of activation j, channel state h and
station m serving user u, and lam is the scenario's uniform arrival_rate.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog


def highs_objective(scenario: dict, eps_g: float) -> float:
    net, chan = scenario["network"], scenario["channel"]
    if chan.get("interference", "one_user_per_station") != "one_user_per_station":
        raise ValueError("the compact LP needs the one_user_per_station rule")
    n_st = net["n_stations"]
    links = [tuple(p) for p in net["adjacency"]]
    lam = net["arrival_rate"]
    active_cost = net.get("costs", {}).get("active", 1.0)
    mu = chan["pmf"]
    rates = [st["rates"] for st in chan["states"]]
    acts = list(itertools.product((0, 1), repeat=n_st))

    columns = [(j, None, None) for j in range(len(acts))]  # sigma first
    for j, act in enumerate(acts):
        for h in range(len(mu)):
            for m, u in links:
                if act[m]:
                    columns.append((j, h, (m, u)))
    col_of = {key: i for i, key in enumerate(columns)}
    n = len(columns)

    cost = np.zeros(n)
    cost[: len(acts)] = [active_cost * sum(a) for a in acts]
    a_eq = np.zeros((1, n))
    a_eq[0, : len(acts)] = 1.0

    ub_rows, ub_rhs = [], []
    for j, act in enumerate(acts):
        for h in range(len(mu)):
            for m in range(n_st):
                if not act[m]:
                    continue
                row = np.zeros(n)
                row[j] = -1.0
                for u in (u for mm, u in links if mm == m):
                    row[col_of[(j, h, (m, u))]] = 1.0
                ub_rows.append(row)
                ub_rhs.append(0.0)
    for m, u in links:
        row = np.zeros(n)
        for j, act in enumerate(acts):
            if act[m]:
                for h in range(len(mu)):
                    row[col_of[(j, h, (m, u))]] = -mu[h] * rates[h][m][u]
        ub_rows.append(row)
        ub_rhs.append(-(lam + eps_g))

    res = linprog(
        cost,
        A_ub=np.array(ub_rows),
        b_ub=np.array(ub_rhs),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the compact LP: {res.message}")
    return float(res.fun)
