"""The plan_m5 scenario generator and the HiGHS cross-check it is judged by."""

import json

import pytest

from bssched.cli import load_scenario
from bssched.lp import build_lp, solve_lp
from highs_oracle import highs_objective
from run import PLAN_WORKLOADS
from scenario_gen import generate

PLAN = PLAN_WORKLOADS["plan_m5"]


def test_same_seed_same_scenario():
    assert generate(PLAN.generator_seed) == generate(PLAN.generator_seed)
    assert generate(PLAN.generator_seed) != generate(PLAN.generator_seed + 1)


@pytest.mark.parametrize("seed", range(20))
def test_every_user_covered_three_users_per_station(seed):
    net = generate(seed)["network"]
    stations = [m for m, _ in net["adjacency"]]
    assert sorted({u for _, u in net["adjacency"]}) == list(range(net["n_users"]))
    assert all(stations.count(m) == 3 for m in range(net["n_stations"]))


def test_plan_lp_size_status_and_highs_objective(tmp_path):
    path = tmp_path / "plan_m5.json"
    path.write_text(json.dumps(generate(PLAN.generator_seed)))
    scenario = load_scenario(path)
    problem = build_lp(scenario.cfg, scenario.cm, eps_g=PLAN.eps_g)
    assert problem.dim == 12532
    solution = solve_lp(problem)
    assert solution.status == "optimal"
    expected = highs_objective(json.loads(path.read_text()), PLAN.eps_g)
    assert abs(solution.objective - expected) <= 1e-7
