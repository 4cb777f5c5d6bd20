"""Planning LP: construction, solving, perturbation, alpha extraction."""

import dataclasses
import pickle

import numpy as np
import pytest

import bssched.lp as lp_module
from bssched import (
    ChannelModel,
    ChannelState,
    LearningMaxWeight,
    NetworkConfig,
    beta_to_alpha,
    build_lp,
    expected_offered_rates,
    perturb_cost,
    run,
    solve_lp,
)
from bssched.cli import reference_scenario

from oracles import (
    bfs_minimum,
    bfs_vertices,
    random_small_instance,
    reference_solve,
    standard_form,
)

scipy_opt = pytest.importorskip("scipy.optimize")


def toy_instance(lam=0.4, active_cost=1.0):
    """One station, one user, rate 1 when the station is on."""
    cfg = NetworkConfig(
        n_users=1,
        n_stations=1,
        adjacency=((0, 0),),
        arrival_rates=np.array([[lam]]),
        active_cost=active_cost,
    )
    cm = ChannelModel(
        states=(ChannelState(name="h0", rates=np.array([[1]])),),
        pmf=np.array([1.0]),
    )
    return cfg, cm


def scipy_reference(problem, cost=None):
    c, a, b = standard_form(problem, cost=cost)
    res = scipy_opt.linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    return res


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_toy_dimension():
    cfg, cm = toy_instance()
    problem = build_lp(cfg, cm)
    # sigma block of 2 plus regions {0} for OFF and {0, serve} for ON
    assert problem.dim == 5
    # 3 equality rows and 1 coverage row; 1 surplus column
    assert problem.a.shape == (3 + 1, 5 + 1)
    assert problem.rates.shape == (1, 5)
    assert problem.col_state.shape == (5,) and cm.n_states == 1


def test_reference_dimension():
    cfg, cm = reference_scenario()
    problem = build_lp(cfg, cm, eps_g=0.05)
    assert problem.dim == 608
    assert problem.a.shape == (1 + 8 * 4 + 10, problem.dim + 10)
    assert problem.rates.shape[0] == 10
    sizes = sum(size for _, size in problem.beta_offsets.values())
    assert problem.n_act + sizes == problem.dim


def test_base_cost_prices_activity_only():
    """With no sleep cost, activation j costs active_cost * |j|."""
    cfg, cm = reference_scenario()
    problem = build_lp(cfg, cm)
    active = problem.activations.sum(axis=1)
    assert np.array_equal(
        problem.base_cost[: problem.n_act], cfg.active_cost * active
    )
    assert np.all(problem.base_cost[problem.n_act :] == 0)


def test_equality_rows_tie_sigma_to_beta():
    cfg, cm = toy_instance()
    problem = build_lp(cfg, cm)
    # first row: sigma simplex
    assert np.array_equal(problem.a[0], [1, 1, 0, 0, 0, 0])
    assert problem.b[0] == 1.0
    assert np.all(problem.b[1:3] == 0.0)


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def test_toy_half_on_optimum():
    cfg, cm = toy_instance(lam=0.4)
    problem = build_lp(cfg, cm, eps_g=0.1)
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.5, abs=1e-9)
    sigma_on = sol.sigma[1]
    assert sigma_on == pytest.approx(0.5, abs=1e-9)


def test_zero_load_prefers_everything_off():
    cfg, cm = toy_instance(lam=0.0)
    problem = build_lp(cfg, cm, eps_g=0.0)
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-12)
    assert sol.sigma[0] == pytest.approx(1.0, abs=1e-9)


def test_reference_optimum_with_slack():
    cfg, cm = reference_scenario()
    problem = build_lp(cfg, cm, eps_g=0.05)
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.2, abs=1e-9)
    ref = scipy_reference(problem)
    assert ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, abs=1e-8)


def test_reference_optimum_at_exact_load():
    cfg, cm = reference_scenario()
    problem = build_lp(cfg, cm, eps_g=0.0)
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.8, abs=1e-9)


def test_slack_only_tightens():
    cfg, cm = reference_scenario()
    loose = solve_lp(build_lp(cfg, cm, eps_g=0.0))
    tight = solve_lp(build_lp(cfg, cm, eps_g=0.05))
    assert loose.objective <= tight.objective + 1e-12


def test_solution_satisfies_constraints():
    cfg, cm = reference_scenario()
    problem = build_lp(cfg, cm, eps_g=0.05)
    sol = solve_lp(problem)
    assert abs(sol.sigma.sum() - 1.0) < 1e-9
    n_links = len(cfg.adjacency)
    equalities = problem.a[:-n_links, : problem.dim]
    assert np.max(np.abs(equalities @ sol.x - problem.b[:-n_links])) < 1e-9
    covered = problem.a[-n_links:, : problem.dim] @ sol.x
    assert np.all(covered >= problem.b[-n_links:] - 1e-9)


def test_solver_is_deterministic():
    cfg, cm = reference_scenario()
    problem = build_lp(cfg, cm, eps_g=0.05)
    a = solve_lp(problem)
    b = solve_lp(problem)
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective


def test_cost_scale_scales_optimum():
    cfg, cm = reference_scenario()
    base = solve_lp(build_lp(cfg, cm, eps_g=0.05)).objective
    scaled_cfg = NetworkConfig(
        n_users=cfg.n_users,
        n_stations=cfg.n_stations,
        adjacency=cfg.adjacency,
        arrival_rates=cfg.arrival_rates,
        max_arrivals=cfg.max_arrivals,
        max_rate=cfg.max_rate,
        switch_off_cost=cfg.switch_off_cost,
        active_cost=cfg.active_cost * 3.0,
    )
    scaled = solve_lp(build_lp(scaled_cfg, cm, eps_g=0.05)).objective
    assert scaled == pytest.approx(3.0 * base, abs=1e-9)


def test_overload_is_infeasible():
    cfg, cm = reference_scenario()
    lam = cfg.arrival_rates * 5.0
    # independent certificate: station 1 carries four links of 0.5 packets
    # per slot but can move at most 0.25 * 2 + 0.75 * 1 packets per slot
    assert lam[1].sum() > 0.25 * 2 + 0.75 * 1
    problem = build_lp(cfg, cm, lam=lam, eps_g=0.0)
    sol = solve_lp(problem)
    assert sol.status == "infeasible"
    assert sol.objective is None and sol.sigma is None


def test_triple_load_is_still_feasible():
    # the busiest station sits at 1.2 packets per slot against a 1.25
    # packets per slot service ceiling, so a 3x surge remains plannable
    cfg, cm = reference_scenario()
    lam = cfg.arrival_rates * 3.0
    assert lam[1].sum() == pytest.approx(1.2)
    sol = solve_lp(build_lp(cfg, cm, lam=lam, eps_g=0.0))
    assert sol.status == "optimal"


def test_estimate_overrides_reuse_problem():
    cfg, cm = reference_scenario()
    problem = build_lp(cfg, cm, eps_g=0.05)
    mu_hat = np.array([0.4, 0.2, 0.2, 0.2])
    lam_hat = cfg.arrival_rates * 0.9
    sol = solve_lp(problem, mu=mu_hat, lam=lam_hat)
    assert sol.status == "optimal"
    _, a, b = standard_form(problem, mu=mu_hat, lam=lam_hat)
    n_links = len(cfg.adjacency)
    covered = a[-n_links:, : problem.dim] @ sol.x
    assert np.all(covered >= b[-n_links:] - 1e-9)
    # solving with explicit defaults matches the plain call
    again = solve_lp(problem, mu=cm.pmf, lam=cfg.arrival_rates)
    assert again.objective == pytest.approx(
        solve_lp(problem).objective, abs=1e-12
    )


def _capture_standard_form(monkeypatch):
    """Record every (c, a, b) that solve_lp hands the simplex."""
    calls = []
    real = lp_module.solve_standard_form

    def spy(c, a, b, **kwargs):
        calls.append((c, a, b))
        return real(c, a, b, **kwargs)

    monkeypatch.setattr(lp_module, "solve_standard_form", spy)
    return calls


def test_solver_gets_the_oracle_standard_form(monkeypatch):
    """Byte for byte, under the true pmf and under estimates with a zero mu,
    without and with a sleep cost."""
    calls = _capture_standard_form(monkeypatch)
    ref_cfg, cm = reference_scenario()
    for cfg in (ref_cfg, dataclasses.replace(ref_cfg, sleep_cost=2.0)):
        calls.clear()
        problem = build_lp(cfg, cm, eps_g=0.05)
        cost = perturb_cost(problem, 0.01, np.random.default_rng(0))
        mu_hat = np.array([0.5, 0.0, 0.3, 0.2])
        scale = np.random.default_rng(1).uniform(0.5, 1.1, cfg.arrival_rates.shape)
        lam_hat = cfg.arrival_rates * scale
        cases = [{}, {"cost": cost}, {"cost": cost, "mu": mu_hat, "lam": lam_hat},
                 {"mu": mu_hat}, {"lam": lam_hat}]
        for kwargs in cases:
            assert solve_lp(problem, **kwargs).status == "optimal"
        assert len(calls) == len(cases)
        for kwargs, got in zip(cases, calls):
            want = standard_form(problem, **kwargs)
            for got_v, want_v in zip(got, want):
                assert got_v.dtype == want_v.dtype and got_v.shape == want_v.shape
                assert got_v.tobytes() == want_v.tobytes()
        # a true-parameter solve hands over the problem's own arrays
        assert calls[0][1] is problem.a and calls[0][2] is problem.b


def test_estimated_resolves_reuse_the_elimination_of_unmoved_columns(monkeypatch):
    """A re-solve whose pmf and cost did not move reuses the last one's
    elimination, though it gets new arrays; every answer is the reference
    simplex's, and the problem keeps nothing of its solves."""
    calls = _capture_standard_form(monkeypatch)
    cfg, cm = reference_scenario()
    problem = build_lp(cfg, cm, eps_g=0.05)
    before = pickle.dumps(problem)
    cost = perturb_cost(problem, 0.01, np.random.default_rng(0))
    mu = np.array([0.4, 0.2, 0.2, 0.2])
    lam = cfg.arrival_rates * 0.9
    steps = [(mu, lam), (mu.copy(), lam * 0.95), (mu[::-1], lam * 0.95)]
    solution = basis = None
    eliminations = []
    for step_mu, step_lam in steps:
        warm = {} if solution is None else {
            "basis": solution.basis, "elimination": solution.elimination
        }
        solution = solve_lp(problem, cost=cost.copy(), mu=step_mu, lam=step_lam, **warm)
        c, a, b = calls[-1]
        want = reference_solve(c, a, b, basis=basis)
        assert solution.x.tobytes() == want.x[: problem.dim].tobytes()
        assert solution.basis.tobytes() == want.basis.tobytes()
        assert (solution.iterations, solution.warm) == (want.iterations, want.warm)
        basis = want.basis
        eliminations.append(solution.eliminations)
    assert eliminations[:2] == [1, 0] and eliminations[2] >= 1
    assert pickle.dumps(problem) == before


def test_learning_resolves_leave_the_problem_unchanged():
    cfg, cm = reference_scenario()
    rng = np.random.default_rng(0)
    policy = LearningMaxWeight(cfg, cm, eps_s=0.2, eps_p=0.01, eps_g=0.05, rng=rng)
    a, b = policy.problem.a.copy(), policy.problem.b.copy()
    run(cfg, cm, policy, horizon=300, seed=0, rng=rng)
    assert policy.lp_solves > 0
    assert policy.problem.a.tobytes() == a.tobytes()
    assert policy.problem.b.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# oracle equivalence on small instances
# ---------------------------------------------------------------------------


def test_small_instances_match_bfs_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(8):
        cfg, cm = random_small_instance(rng)
        problem = build_lp(cfg, cm, eps_g=0.0)
        sol = solve_lp(problem)
        assert sol.status == "optimal"
        best, _ = bfs_minimum(*standard_form(problem))
        assert sol.objective == pytest.approx(best, abs=1e-9)


def test_perturbation_bound_on_small_instances():
    rng = np.random.default_rng(4)
    for _ in range(5):
        cfg, cm = random_small_instance(rng)
        problem = build_lp(cfg, cm, eps_g=0.0)
        base = solve_lp(problem)
        cost = perturb_cost(problem, 0.05, rng)
        moved = solve_lp(problem, cost=cost)
        _, a, b = standard_form(problem)
        radius = max(float(np.linalg.norm(v)) for v in bfs_vertices(a, b))
        delta = float(np.linalg.norm(cost - problem.base_cost))
        assert abs(moved.objective - base.objective) <= delta * radius + 1e-9


def test_perturbed_cost_has_unique_optimum_on_small_instances():
    rng = np.random.default_rng(5)
    for _ in range(5):
        cfg, cm = random_small_instance(rng)
        problem = build_lp(cfg, cm, eps_g=0.0)
        cost = perturb_cost(problem, 0.01, rng)
        sol = solve_lp(problem, cost=cost)
        assert sol.status == "optimal"
        _, vertices = bfs_minimum(*standard_form(problem, cost=cost))
        assert len(vertices) == 1


# ---------------------------------------------------------------------------
# cost perturbation
# ---------------------------------------------------------------------------


def test_perturbation_norm_and_zero_limit():
    cfg, cm = reference_scenario()
    problem = build_lp(cfg, cm, eps_g=0.05)
    rng = np.random.default_rng(0)
    for eps_p in (0.01, 0.1):
        cost = perturb_cost(problem, eps_p, np.random.default_rng(1))
        assert np.linalg.norm(cost - problem.base_cost) == pytest.approx(
            eps_p, abs=1e-12
        )
    tiny = perturb_cost(problem, 1e-15, rng)
    assert np.allclose(tiny, problem.base_cost, atol=1e-12)


def test_different_seeds_give_different_directions():
    cfg, cm = reference_scenario()
    problem = build_lp(cfg, cm, eps_g=0.05)
    a = perturb_cost(problem, 0.01, np.random.default_rng(1))
    b = perturb_cost(problem, 0.01, np.random.default_rng(2))
    assert not np.allclose(a, b)
    # both stay near the unperturbed optimum
    base = solve_lp(problem).objective
    for cost in (a, b):
        sol = solve_lp(problem, cost=cost)
        assert sol.status == "optimal"
        assert abs(sol.objective - base) < 0.05


# ---------------------------------------------------------------------------
# beta -> alpha and offered rates
# ---------------------------------------------------------------------------


def test_alpha_direct_ratio():
    cfg, cm = toy_instance(lam=0.4)
    problem = build_lp(cfg, cm, eps_g=0.1)
    sol = solve_lp(problem)
    alpha = beta_to_alpha(problem, sol)
    on_idx = 1
    start, size = problem.beta_offsets[(on_idx, 0)]
    np.testing.assert_allclose(
        alpha[(on_idx, 0)], sol.x[start : start + size] / sol.sigma[on_idx], atol=1e-9
    )


def test_alpha_is_pmf_per_visited_state():
    cfg, cm = reference_scenario()
    problem = build_lp(cfg, cm, eps_g=0.05)
    sol = solve_lp(problem)
    alpha = beta_to_alpha(problem, sol)
    for (j_idx, h), pmf in alpha.items():
        assert pmf.shape[0] == len(problem.regions[j_idx][h])
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(pmf >= 0)


def test_alpha_unused_state_is_zero_point_mass():
    cfg, cm = reference_scenario()
    problem = build_lp(cfg, cm, eps_g=0.05)
    sol = solve_lp(problem)
    alpha = beta_to_alpha(problem, sol)
    unused = [j for j in range(problem.n_act) if sol.sigma[j] <= 1e-9]
    assert unused, "expected at least one unused activation"
    j_idx = unused[0]
    for h in range(cm.n_states):
        pmf = alpha[(j_idx, h)]
        members = problem.regions[j_idx][h]
        chosen = members[np.argmax(pmf)]
        assert pmf.max() == 1.0 and np.all(chosen == 0)


def test_planned_offered_rates_cover_target():
    cfg, cm = reference_scenario()
    problem = build_lp(cfg, cm, eps_g=0.05)
    sol = solve_lp(problem)
    offered = expected_offered_rates(problem, sol)
    for m, u in cfg.adjacency:
        assert offered[m, u] >= cfg.arrival_rates[m, u] + 0.05 - 1e-9
    # recompute from (sigma, alpha) instead of beta
    alpha = beta_to_alpha(problem, sol)
    rebuilt = np.zeros_like(offered)
    for (j_idx, h), pmf in alpha.items():
        members = problem.regions[j_idx][h]
        rebuilt += (
            sol.sigma[j_idx] * cm.pmf[h] * np.einsum("k,kmu->mu", pmf, members)
        )
    np.testing.assert_allclose(rebuilt, offered, atol=1e-9)


def test_alpha_requires_optimal_solution():
    cfg, cm = reference_scenario()
    problem = build_lp(cfg, cm, lam=cfg.arrival_rates * 5.0)
    sol = solve_lp(problem)
    with pytest.raises(ValueError, match="optimal"):
        beta_to_alpha(problem, sol)
