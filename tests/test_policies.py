"""Policy tests: Max-Weight allocation, activation resampling, learning loop."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bssched.policies as policies_module
from bssched.cli import bundled_scenario_path, load_scenario, reference_scenario
from bssched.model import NetworkConfig, activation_id
from bssched.policies import (
    POLICY_NAMES,
    AlwaysOnMaxWeight,
    LearningMaxWeight,
    PolicyError,
    StaticSplitMaxWeight,
    StaticSplitStatic,
    make_policy,
    max_weight,
)
from bssched.rateregion import (
    ChannelModel,
    ChannelState,
    full_region,
    region_index,
)
from bssched.sim import run, stability_fraction

from oracles import brute_force_max_weight, occupancy, step_queues


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference():
    return reference_scenario()


@pytest.fixture(scope="module")
def split_trace_100k(reference):
    """One long static-split run shared by the frequency and occupancy tests."""
    cfg, cm = reference
    policy = StaticSplitMaxWeight(cfg, cm, eps_s=0.05, eps_g=0.05)
    trace = run(cfg, cm, policy, horizon=100_000, seed=11)
    return policy, trace


def toy_instance(lam=0.4):
    """One station, one user, rate 1 when the station is on."""
    cfg = NetworkConfig(
        n_users=1,
        n_stations=1,
        adjacency=((0, 0),),
        arrival_rates=np.array([[lam]]),
    )
    cm = ChannelModel(
        states=(ChannelState(name="h0", rates=np.array([[1]])),),
        pmf=np.array([1.0]),
    )
    return cfg, cm


def service_matrix(service, shape):
    """A step's (link, rate) pairs as a rate matrix, each link at most once."""
    s = np.zeros(shape, dtype=np.int64)
    for link, rate in service:
        assert s.flat[link] == 0
        s.flat[link] = rate
    return s


def adjacency_matrix(cfg, value):
    lam = np.zeros((cfg.n_stations, cfg.n_users))
    for m, u in cfg.adjacency:
        lam[m, u] = value
    return lam


# ---------------------------------------------------------------------------
# Max-Weight rate allocation
# ---------------------------------------------------------------------------


def test_max_weight_zero_queue_picks_zero_member(reference):
    cfg, cm = reference
    for h in range(cm.n_states):
        region = full_region(cm, cfg, h)
        idx = max_weight(np.zeros((3, 5)), region)
        assert idx == 0
        assert not region[idx].any()


def test_explicit_region_keeps_its_order_for_empty_queues():
    """Empty queues pick member 0 even when the zero matrix comes second."""
    cfg = NetworkConfig(
        n_users=2, n_stations=1, adjacency=((0, 0), (0, 1)),
        arrival_rates=np.zeros((1, 2)),
    )
    members = np.array([[[1, 0]], [[0, 0]], [[0, 1]]])
    cm = ChannelModel(
        states=(ChannelState("h0", np.array([[1, 1]])),), pmf=np.array([1.0]),
        interference="explicit", explicit_regions=(members,),
    )
    assert cm.validate_against(cfg) == []
    q = np.zeros((1, 2), dtype=np.int64)
    assert max_weight(q, full_region(cm, cfg, 0)) == 0
    policy = AlwaysOnMaxWeight(cfg, cm)
    flat = q.ravel().tolist()
    j, _, drawn = policy.step(1, 0, flat, np.random.default_rng(0))
    assert drawn is None
    service = policy.max_weight(flat, j, 0)
    s = service_matrix(service, q.shape)
    assert s.tolist() == [[1, 0]]
    next_q, departures = step_queues(q, s, q)
    assert not departures.any() and not next_q.any()


def test_max_weight_serves_heaviest_link(reference):
    cfg, cm = reference
    q = np.zeros((3, 5))
    q[1, 2] = 50.0
    region = full_region(cm, cfg, 0)
    s = region[max_weight(q, region)]
    assert s[1, 2] == 1
    assert s.sum() >= s[1, 2]


def test_max_weight_matches_brute_force(reference):
    cfg, cm = reference
    regions = region_index(cfg, cm)
    rng = np.random.default_rng(42)
    for _ in range(200):
        q = rng.integers(0, 40, size=(3, 5)).astype(float)
        if rng.random() < 0.25:
            q[rng.integers(0, 3)] = 0.0
        j = rng.integers(0, 2, size=3)
        h = int(rng.integers(0, cm.n_states))
        region = regions[activation_id(j)][h]
        assert max_weight(q, region) == brute_force_max_weight(q, region)


def test_max_weight_scale_invariance(reference):
    cfg, cm = reference
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = rng.integers(0, 30, size=(3, 5)).astype(float)
        h = int(rng.integers(0, cm.n_states))
        region = full_region(cm, cfg, h)
        base = max_weight(q, region)
        for kappa in (0.5, 3.0, 1000.0):
            assert max_weight(kappa * q, region) == base


def test_max_weight_value_grows_with_activation(reference):
    """Turning more stations on can only improve the achievable weight."""
    cfg, cm = reference
    regions = region_index(cfg, cm)
    rng = np.random.default_rng(3)
    for _ in range(60):
        q = rng.integers(0, 30, size=(3, 5)).astype(float)
        h = int(rng.integers(0, cm.n_states))
        j_small = rng.integers(0, 2, size=3)
        j_big = np.maximum(j_small, rng.integers(0, 2, size=3))

        def best_value(j):
            region = regions[activation_id(j)][h]
            flat = region.reshape(len(region), -1)
            return float((flat @ q.ravel()).max())

        assert best_value(j_big) >= best_value(j_small) - 1e-12


@st.composite
def one_user_networks(draw):
    """A one-user-per-station network with 1-3 channel states and queues:
    1-4 stations, 1-4 users that stations may share, rates in {0, 1, 2},
    queue lengths in {0, ..., 3} (so weights tie) with some stations'
    rows all zero. Returns (cfg, cm, flat queue list)."""
    n_stations = draw(st.integers(1, 4))
    n_users = draw(st.integers(1, 4))
    pairs = [(m, u) for m in range(n_stations) for u in range(n_users)]
    adjacency = tuple(draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)))
    n_states = draw(st.integers(1, 3))
    states = []
    for h in range(n_states):
        rates = np.zeros((n_stations, n_users), dtype=np.int64)
        for m, u in adjacency:
            rates[m, u] = draw(st.integers(0, 2))
        states.append(ChannelState(name=f"h{h}", rates=rates))
    cfg = NetworkConfig(
        n_users=n_users,
        n_stations=n_stations,
        adjacency=adjacency,
        arrival_rates=np.zeros((n_stations, n_users)),
        max_rate=2,
    )
    cm = ChannelModel(states=tuple(states), pmf=np.full(n_states, 1.0 / n_states))
    size = n_stations * n_users
    q = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    for m in draw(st.sets(st.integers(0, n_stations - 1))):
        q[m * n_users : (m + 1) * n_users] = [0] * n_users
    return cfg, cm, q


@settings(max_examples=200, deadline=None)
@given(network=one_user_networks())
def test_per_station_max_weight_equals_region_max_weight(network):
    """For every activation and state, the per-station service is the
    nonzero entries of the region's Max-Weight member, link by link."""
    cfg, cm, q = network
    policy = AlwaysOnMaxWeight(cfg, cm)
    regions = region_index(cfg, cm)
    queues = np.array(q, dtype=np.int64).reshape(cfg.n_stations, cfg.n_users)
    for j in range(2**cfg.n_stations):
        for h in range(cm.n_states):
            region = regions[j][h]
            member = region[max_weight(queues, region)].ravel().tolist()
            expected = [(link, rate) for link, rate in enumerate(member) if rate]
            assert policy.max_weight(q, j, h) == expected


# ---------------------------------------------------------------------------
# Always-on policy
# ---------------------------------------------------------------------------


def test_always_on_pays_full_activity_cost(reference):
    cfg, cm = reference
    trace = run(cfg, cm, AlwaysOnMaxWeight(cfg, cm), horizon=50, seed=0)
    assert np.all(trace.j_bits == 7)
    assert np.all(trace.cost == 3.0)
    assert trace.avg_cost == 3.0
    assert occupancy(trace) == {7: 1.0}
    assert not trace.explore.any()


# ---------------------------------------------------------------------------
# Static-split resampling
# ---------------------------------------------------------------------------


def test_static_split_eps_zero_never_resamples(reference):
    cfg, cm = reference
    policy = StaticSplitMaxWeight(cfg, cm, eps_s=0.0, eps_g=0.05)
    trace = run(cfg, cm, policy, horizon=500, seed=1)
    assert policy.resample_count == 0
    assert trace.switch_count == 0
    assert np.all(trace.j_bits == 7)


def test_static_split_eps_one_resamples_every_slot(reference):
    cfg, cm = reference
    policy = StaticSplitMaxWeight(cfg, cm, eps_s=1.0, eps_g=0.05)
    run(cfg, cm, policy, horizon=2000, seed=2)
    assert policy.resample_count == 2000


def test_resample_frequency_matches_eps_s(split_trace_100k):
    policy, trace = split_trace_100k
    horizon = trace.horizon
    freq = policy.resample_count / horizon
    tol = 3.0 * math.sqrt(0.05 * 0.95 / horizon)
    assert abs(freq - 0.05) <= tol


def test_occupancy_tracks_planned_distribution(split_trace_100k):
    policy, trace = split_trace_100k
    freq = np.zeros(len(policy.problem.activations))
    for bits, fraction in occupancy(trace).items():
        freq[bits] = fraction
    assert np.abs(freq - policy.sigma_star).sum() <= 0.05


def test_static_split_static_stays_stable(reference):
    cfg, cm = reference
    policy = StaticSplitStatic(cfg, cm, eps_s=0.05, eps_g=0.05)
    assert policy.name == "static_split_static"
    trace = run(cfg, cm, policy, horizon=30_000, seed=7)
    assert stability_fraction(trace, 300.0, start_slot=15_001) >= 0.9
    assert trace.final_queues.sum() < 1000


def test_static_split_rejects_unstabilizable_load(reference):
    cfg, cm = reference
    overloaded = dataclasses.replace(
        cfg, arrival_rates=5.0 * np.asarray(cfg.arrival_rates)
    )
    with pytest.raises(PolicyError, match="infeasible"):
        StaticSplitMaxWeight(overloaded, cm, eps_s=0.05, eps_g=0.05)


def test_eps_s_out_of_range_rejected(reference):
    cfg, cm = reference
    with pytest.raises(PolicyError, match="eps_s"):
        StaticSplitMaxWeight(cfg, cm, eps_s=1.5, eps_g=0.05)
    with pytest.raises(PolicyError, match="eps_s"):
        LearningMaxWeight(
            cfg, cm, eps_s=-0.1, eps_p=0.01, eps_g=0.05, rng=np.random.default_rng(0)
        )


# ---------------------------------------------------------------------------
# Switch-gap hysteresis
# ---------------------------------------------------------------------------


def test_min_switch_gap_enforces_exact_spacing(reference):
    cfg, cm = reference
    policy = StaticSplitMaxWeight(cfg, cm, eps_s=1.0, eps_g=0.05, min_switch_gap=10)
    policy.reset(0b111)
    rng = np.random.default_rng(0)
    a = [0] * 15
    for t in range(1, 101):
        policy.step(t, 0, a, rng)
    # resamples land exactly at t = 1, 11, 21, ..., 91
    assert policy.resample_count == 10
    assert policy._last_switch == 91


def test_min_switch_gap_one_is_no_restriction(reference):
    cfg, cm = reference
    policy = StaticSplitMaxWeight(cfg, cm, eps_s=1.0, eps_g=0.05, min_switch_gap=1)
    run(cfg, cm, policy, horizon=200, seed=3)
    assert policy.resample_count == 200


class _CountingUniform:
    """Stub generator recording how many uniforms the policy consumes."""

    def __init__(self):
        self.calls = 0

    def random(self):
        self.calls += 1
        return 0.0


def test_min_switch_gap_consumes_no_uniform_while_gated(reference):
    cfg, cm = reference
    a = [0] * 15

    gated = StaticSplitMaxWeight(cfg, cm, eps_s=1.0, eps_g=0.05, min_switch_gap=10)
    gated.reset(0b111)
    stub = _CountingUniform()
    for t in range(1, 21):
        gated.step(t, 0, a, stub)
    # two uniforms (coin + draw) at t = 1 and t = 11, none in between
    assert stub.calls == 4

    free = StaticSplitMaxWeight(cfg, cm, eps_s=1.0, eps_g=0.05)
    free.reset(0b111)
    stub = _CountingUniform()
    for t in range(1, 21):
        free.step(t, 0, a, stub)
    assert stub.calls == 40


def test_negative_min_switch_gap_rejected(reference):
    cfg, cm = reference
    with pytest.raises(PolicyError, match="min_switch_gap"):
        StaticSplitMaxWeight(cfg, cm, eps_s=0.5, eps_g=0.05, min_switch_gap=-1)
    with pytest.raises(PolicyError, match="min_switch_gap"):
        LearningMaxWeight(
            cfg,
            cm,
            eps_s=0.5,
            eps_p=0.01,
            eps_g=0.05,
            rng=np.random.default_rng(0),
            min_switch_gap=-2,
        )


def test_make_policy_forwards_min_switch_gap(reference):
    cfg, cm = reference
    rng = np.random.default_rng(0)
    for name in ("static_split_mw", "static_split_static", "algorithm1"):
        params = {"name": "always_on", "min_switch_gap": 5}
        policy = make_policy(name, cfg, cm, rng, params=params)
        assert policy.min_switch_gap == 5
        assert policy.name == name


# ---------------------------------------------------------------------------
# Learning policy: exploration schedule
# ---------------------------------------------------------------------------


def test_explore_probability_schedule(reference):
    cfg, cm = reference
    policy = LearningMaxWeight(
        cfg, cm, eps_s=0.05, eps_p=0.01, eps_g=0.05, rng=np.random.default_rng(0)
    )
    assert policy.explore_probability(1) == 0.0
    assert policy.explore_probability(2) == pytest.approx(math.log(2.0))
    assert policy.explore_probability(3) == pytest.approx(2.0 * math.log(3.0) / 3.0)
    values = [policy.explore_probability(t) for t in range(1, 10_001)]
    assert max(values) == pytest.approx(2.0 * math.log(3.0) / 3.0)
    assert max(values) <= 2.0 / math.e + 1e-12
    assert policy.explore_probability(10**9) < 1e-7


def test_tracking_floors_explore_and_learning_rate(reference):
    cfg, cm = reference
    rng = np.random.default_rng(0)
    tracking = make_policy(
        "algorithm1_tracking", cfg, cm, rng, params={"learning_floor": 0.001}
    )
    assert tracking.name == "algorithm1_tracking"
    assert tracking.explore_probability(10**6) == 0.001
    assert tracking._learning_rate(10**6) == 0.001
    assert tracking._learning_rate(2) == 0.5

    plain = make_policy("algorithm1", cfg, cm, rng)
    assert plain._learning_rate(10**6) == pytest.approx(1e-6)
    assert plain.explore_probability(10**6) < 0.001


def test_explore_slots_activate_all_stations(reference):
    cfg, cm = reference
    rng = np.random.default_rng(5)
    policy = LearningMaxWeight(cfg, cm, eps_s=0.05, eps_p=0.01, eps_g=0.05, rng=rng)
    trace = run(cfg, cm, policy, horizon=3000, rng=rng)
    assert trace.explore.sum() >= 10
    assert np.all(trace.j_bits[trace.explore] == 7)


def test_activation_dominates_baseline(reference):
    cfg, cm = reference
    rng = np.random.default_rng(21)
    policy = LearningMaxWeight(cfg, cm, eps_s=0.1, eps_p=0.01, eps_g=0.05, rng=rng)
    policy.reset(0b111)
    q = np.zeros((3, 5), dtype=np.int64)
    rates = np.asarray(cfg.arrival_rates)
    cum = np.cumsum(np.asarray(cm.pmf))
    for t in range(1, 1501):
        a = (rng.random((3, 5)) < rates).astype(np.int64)
        h = min(int(np.searchsorted(cum, rng.random(), side="right")), cm.n_states - 1)
        j, _, _ = policy.step(t, h, a.ravel().tolist(), rng)
        service = policy.max_weight(q.ravel().tolist(), j, h)
        assert j & policy.j_tilde == policy.j_tilde  # every baseline station is on
        q, _ = step_queues(q, service_matrix(service, q.shape), a)


# ---------------------------------------------------------------------------
# Learning policy: estimates and the planned distribution
# ---------------------------------------------------------------------------


def test_estimate_update_averages_observations(reference):
    cfg, cm = reference
    policy = LearningMaxWeight(
        cfg, cm, eps_s=0.05, eps_p=0.01, eps_g=0.05, rng=np.random.default_rng(0)
    )
    a = np.zeros((3, 5))
    policy._update_estimates(2, a)
    assert np.allclose(policy.mu_hat, [0.0, 0.0, 1.0, 0.0])
    policy._update_estimates(0, a)
    assert np.allclose(policy.mu_hat, [0.5, 0.0, 0.5, 0.0])
    assert policy.explore_count == 2


def test_cold_start_keeps_baseline(reference):
    cfg, cm = reference
    rng = np.random.default_rng(0)
    policy = LearningMaxWeight(cfg, cm, eps_s=1.0, eps_p=0.01, eps_g=0.05, rng=rng)
    policy.reset(0)
    policy._resample_j_tilde(rng)
    assert policy.j_tilde == 0
    assert policy._sigma_hat is None


def test_infeasible_estimates_keep_baseline(reference):
    cfg, cm = reference
    rng = np.random.default_rng(0)
    policy = LearningMaxWeight(cfg, cm, eps_s=1.0, eps_p=0.01, eps_g=0.05, rng=rng)
    policy.mu_hat = np.array([1.0, 0.0, 0.0, 0.0])
    policy.lambda_hat = adjacency_matrix(cfg, 0.5)
    policy.explore_count = 1
    policy._estimate_version += 1
    before = policy.j_tilde
    policy._resample_j_tilde(rng)
    assert policy.j_tilde == before
    assert policy._sigma_hat is None


def test_true_estimates_recover_planned_distribution_on_toy():
    cfg, cm = toy_instance(lam=0.4)
    rng = np.random.default_rng(3)
    policy = LearningMaxWeight(cfg, cm, eps_s=0.2, eps_p=1e-10, eps_g=0.1, rng=rng)
    policy.mu_hat = np.array([1.0])
    policy.lambda_hat = np.array([[0.4]])
    policy.explore_count = 1
    policy._estimate_version += 1
    policy._resample_j_tilde(rng)
    assert policy._sigma_hat == pytest.approx([0.5, 0.5], abs=1e-6)


def test_true_estimates_match_planned_cost_on_reference(reference):
    cfg, cm = reference
    rng = np.random.default_rng(9)
    policy = LearningMaxWeight(cfg, cm, eps_s=0.05, eps_p=0.01, eps_g=0.05, rng=rng)
    policy.mu_hat = np.asarray(cm.pmf, dtype=float)
    policy.lambda_hat = np.asarray(cfg.arrival_rates, dtype=float)
    policy.explore_count = 1
    policy._estimate_version += 1
    policy._resample_j_tilde(rng)
    sizes = np.array([j.sum() for j in policy.problem.activations], dtype=float)
    activity_cost = float((policy._sigma_hat * cfg.active_cost * sizes).sum())
    assert activity_cost >= 1.2 - 1e-9
    assert activity_cost == pytest.approx(1.2, abs=0.02)


def test_resample_solves_once_per_estimate_version(reference, monkeypatch):
    cfg, cm = reference
    rng = np.random.default_rng(0)
    policy = LearningMaxWeight(cfg, cm, eps_s=1.0, eps_p=0.01, eps_g=0.05, rng=rng)
    policy.mu_hat = np.asarray(cm.pmf, dtype=float)
    policy.lambda_hat = np.asarray(cfg.arrival_rates, dtype=float)
    policy.explore_count = 1
    policy._estimate_version += 1

    real_solve = policies_module.solve_lp
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(policies_module, "solve_lp", counting_solve)
    for _ in range(5):
        policy._resample_j_tilde(rng)
    assert len(calls) == 1
    policy._estimate_version += 1
    policy._resample_j_tilde(rng)
    assert len(calls) == 2


def test_infeasible_resolve_keeps_the_previous_basis(reference):
    cfg, cm = reference
    rng = np.random.default_rng(0)
    policy = LearningMaxWeight(cfg, cm, eps_s=1.0, eps_p=0.01, eps_g=0.05, rng=rng)
    policy.mu_hat = np.asarray(cm.pmf, dtype=float)
    policy.lambda_hat = np.asarray(cfg.arrival_rates, dtype=float)
    policy.explore_count = 1
    policy._estimate_version += 1
    policy._resample_j_tilde(rng)
    basis = policy._basis
    assert basis is not None and policy.lp_warm_solves == 0

    policy.lambda_hat = adjacency_matrix(cfg, 0.5)  # past the capacity region
    policy._estimate_version += 1
    policy._resample_j_tilde(rng)
    assert policy._sigma_hat is None and policy._basis is basis

    policy.lambda_hat = 0.9 * np.asarray(cfg.arrival_rates, dtype=float)
    policy._estimate_version += 1
    policy._resample_j_tilde(rng)
    assert policy._sigma_hat is not None
    assert (policy.lp_solves, policy.lp_warm_solves) == (3, 2)


def test_warm_resolves_leave_the_run_unchanged(monkeypatch):
    """2,000 slots of reference_regime, warm against cold re-solves, and
    Dantzig's rule against Bland's."""
    scenario = load_scenario(bundled_scenario_path("reference_regime"))

    def simulate(**params):
        rng = np.random.default_rng(0)
        params = {**scenario.policy_params, **params}
        policy = make_policy(
            scenario.policy_name, scenario.cfg, scenario.cm, rng, params
        )
        trace = run(
            scenario.cfg,
            scenario.cm,
            policy,
            horizon=2000,
            seed=0,
            rng=rng,
            regime=scenario.regime,
            arrival_law=scenario.arrival_law,
        )
        return policy, trace

    warm_policy, warm = simulate()
    zero_policy, _ = simulate(eps_p=0.0)  # an optimum that may not be unique
    real_solve = policies_module.solve_lp

    def solve_dropping(dropped):
        def solve(*args, **kwargs):
            kwargs.pop(dropped)
            return real_solve(*args, **kwargs)

        return solve

    monkeypatch.setattr(policies_module, "solve_lp", solve_dropping("elimination"))
    unreused_policy, unreused = simulate()
    monkeypatch.setattr(policies_module, "solve_lp", solve_dropping("basis"))
    cold_policy, cold = simulate()
    monkeypatch.setattr(policies_module, "solve_lp", solve_dropping("dantzig"))
    bland_policy, bland = simulate()
    zero_bland_policy, _ = simulate(eps_p=0.0)

    for field in dataclasses.fields(warm):
        expected = getattr(warm, field.name)
        for other in (unreused, cold, bland):
            got = getattr(other, field.name)
            np.testing.assert_array_equal(got, expected, err_msg=field.name)
    assert warm_policy.lp_solves == cold_policy.lp_solves > 10
    assert cold_policy.lp_warm_solves == 0 < warm_policy.lp_warm_solves
    assert warm_policy.lp_pivots < cold_policy.lp_pivots
    assert cold_policy.lp_eliminations == cold_policy.lp_solves
    # the same warm solves, the certificate's elimination reused as a start
    assert unreused_policy.lp_warm_solves == warm_policy.lp_warm_solves
    assert unreused_policy.lp_pivots == warm_policy.lp_pivots
    assert warm_policy.lp_eliminations < unreused_policy.lp_eliminations
    assert unreused_policy.lp_eliminations < 2 * unreused_policy.lp_solves
    # Dantzig's rule takes fewer pivots to the same vertex; eps_p = 0 keeps
    # Bland's rule
    assert bland_policy.lp_solves == warm_policy.lp_solves
    assert warm_policy.lp_pivots < bland_policy.lp_pivots
    assert zero_policy.lp_solves > 10
    assert zero_policy.lp_pivots == zero_bland_policy.lp_pivots


def test_update_arrivals_every_slot(reference):
    cfg, cm = reference
    rng = np.random.default_rng(0)
    policy = make_policy(
        "algorithm1", cfg, cm, rng, params={"update_arrivals_every_slot": True}
    )
    a = adjacency_matrix(cfg, 1.0).astype(np.int64)
    policy.step(1, 0, a.ravel().tolist(), rng)
    assert np.array_equal(policy.lambda_hat, a)
    assert not policy.mu_hat.any()


def test_estimates_converge_with_exploration(reference):
    cfg, cm = reference
    rng = np.random.default_rng(5)
    policy = LearningMaxWeight(cfg, cm, eps_s=0.05, eps_p=0.01, eps_g=0.05, rng=rng)
    trace = run(cfg, cm, policy, horizon=20_000, rng=rng)
    assert trace.mu_err[0] == pytest.approx(1.0)
    assert trace.mu_err[-1] < 0.4
    assert trace.mu_err[-1] < trace.mu_err[0]
    assert trace.lambda_err[-1] < 0.4
    assert trace.explore.sum() >= 50


def test_reset_clears_learning_state(reference):
    cfg, cm = reference
    rng = np.random.default_rng(13)
    policy = LearningMaxWeight(cfg, cm, eps_s=0.1, eps_p=0.01, eps_g=0.05, rng=rng)
    run(cfg, cm, policy, horizon=2000, rng=rng)
    assert policy.explore_count > 0
    assert policy._basis is not None and policy.lp_warm_solves > 0
    assert policy._elimination is not None and policy.lp_eliminations > 0
    policy.reset(0)
    assert policy._basis is None and policy._elimination is None
    assert policy.lp_solves == policy.lp_warm_solves == policy.lp_pivots == 0
    assert policy.lp_eliminations == 0
    assert policy.explore_count == 0
    assert policy.resample_count == 0
    assert not policy.mu_hat.any()
    assert not policy.lambda_hat.any()
    assert policy._sigma_hat is None
    assert policy.j_tilde == 0


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


def test_make_policy_builds_every_name(reference):
    cfg, cm = reference
    rng = np.random.default_rng(0)
    for name in POLICY_NAMES:
        policy = make_policy(name, cfg, cm, rng)
        assert policy.name == name


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_step_returns_the_traced_activation_id(reference, name):
    """The ids that ``step``, or ``draw_block`` for the policies drawn by
    events, returns are the trace's."""
    cfg, cm = reference
    rng = np.random.default_rng(4)
    policy = make_policy(name, cfg, cm, rng, params={"eps_s": 0.2})
    step, draw_block = policy.step, policy.draw_block
    ids = []

    def recording_step(*args):
        j, s, explore = step(*args)
        ids.append(j)
        return j, s, explore

    def recording_draw_block(*args):
        drawn = draw_block(*args)
        if drawn is not None:
            ids.extend(drawn[1])
        return drawn

    policy.step, policy.draw_block = recording_step, recording_draw_block
    trace = run(cfg, cm, policy, horizon=400, rng=rng)
    assert all(type(j) is int and 0 <= j < 2**cfg.n_stations for j in ids)
    assert ids == trace.j_bits.tolist()
    assert name == "always_on" or len(set(ids)) > 1


def test_make_policy_rejects_unknown_name(reference):
    cfg, cm = reference
    with pytest.raises(PolicyError, match="unknown policy"):
        make_policy("round_robin", cfg, cm, np.random.default_rng(0))


@pytest.mark.parametrize(
    "name, params, problem",
    [
        ("static_split_mw", {"eps_ss": 0.5}, "unknown key 'eps_ss'"),
        ("static_split_mw", {"eps_g": -1.0}, "eps_g must be nonnegative"),
        ("algorithm1_tracking", {"learning_floor": 2.0}, "learning_floor must lie in"),
        ("always_on", {"eps_s": 5.0}, "eps_s must lie in"),
        ("round_robin", {"eps_p": -0.5}, "unknown policy 'round_robin'"),
    ],
)
def test_make_policy_checks_every_parameter_before_building(
    reference, monkeypatch, name, params, problem
):
    cfg, cm = reference

    def no_build(*args, **kwargs):
        raise AssertionError("built an LP for a rejected policy")

    monkeypatch.setattr(policies_module, "build_lp", no_build)
    with pytest.raises(PolicyError, match=problem) as caught:
        make_policy(name, cfg, cm, np.random.default_rng(0), params)
    if name == "round_robin":
        assert "eps_p must be nonnegative" in str(caught.value)


BAD_VALUES = [
    ({"min_switch_gap": 2.5}, "min_switch_gap must be an integer"),
    ({"eps_s": True}, "eps_s must be a number"),
    ({"eps_g": float("inf")}, "eps_g must be finite"),
    ({"eps_s": "0.1"}, "eps_s must be a number"),
]


@pytest.mark.parametrize("params, problem", BAD_VALUES)
def test_make_policy_rejects_mistyped_and_infinite_values(reference, params, problem):
    cfg, cm = reference
    with pytest.raises(PolicyError, match=problem):
        make_policy("static_split_mw", cfg, cm, np.random.default_rng(0), params)


@pytest.mark.parametrize("params, problem", BAD_VALUES)
def test_constructors_reject_mistyped_and_infinite_values(reference, params, problem):
    cfg, cm = reference
    with pytest.raises(PolicyError, match=problem):
        StaticSplitMaxWeight(cfg, cm, **{"eps_s": 0.05, "eps_g": 0.05, **params})


def test_policy_parameters_accept_numpy_numbers_and_whole_floats(reference):
    cfg, cm = reference
    params = {"eps_s": np.float64(0.1), "min_switch_gap": 3.0, "eps_p": np.int64(0)}
    policy = make_policy("algorithm1", cfg, cm, np.random.default_rng(0), params)
    assert (policy.eps_s, policy.min_switch_gap, policy.eps_p) == (0.1, 3, 0.0)
    params = {"update_arrivals_every_slot": 1}
    with pytest.raises(PolicyError, match="update_arrivals_every_slot must be a boolean"):
        make_policy("algorithm1", cfg, cm, np.random.default_rng(0), params)


def test_constructors_check_every_parameter_they_take(reference):
    cfg, cm = reference
    rng = np.random.default_rng(0)
    with pytest.raises(PolicyError, match="eps_g must be nonnegative"):
        StaticSplitMaxWeight(cfg, cm, eps_s=0.05, eps_g=-1.0)
    with pytest.raises(PolicyError, match="eps_g must be nonnegative"):
        StaticSplitStatic(cfg, cm, eps_s=0.05, eps_g=float("nan"))
    learning = {"eps_s": 0.05, "eps_p": 0.01, "eps_g": 0.05, "rng": rng}
    for key, value in (("eps_p", -1e-3), ("eps_g", -1.0), ("learning_floor", 1.5)):
        with pytest.raises(PolicyError, match=key):
            LearningMaxWeight(cfg, cm, **{**learning, key: value})
