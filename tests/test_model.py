"""Core model: configuration validation, activation math, cost, queues."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bssched import (
    NetworkConfig,
    activation_id,
    all_on,
    enumerate_activations,
    network_cost,
)

from oracles import all_off, step_queues, vector_network_cost


def small_cfg(**overrides):
    kwargs = dict(
        n_users=2,
        n_stations=3,
        adjacency=((0, 0), (1, 0), (1, 1), (2, 1)),
        arrival_rates=np.zeros((3, 2)),
    )
    kwargs.update(overrides)
    return NetworkConfig(**kwargs)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_valid_config_roundtrip():
    cfg = small_cfg()
    assert cfg.validate() == []
    assert cfg.adjacency_mask().sum(axis=1).tolist() == [1, 2, 1]
    assert cfg.adjacency_mask().sum() == 4


def test_config_rejects_out_of_range_adjacency():
    with pytest.raises(ValueError, match="out of range"):
        small_cfg(adjacency=((0, 0), (3, 1)))


def test_config_rejects_duplicate_links():
    with pytest.raises(ValueError, match="duplicate"):
        small_cfg(adjacency=((0, 0), (0, 0)))


def test_config_rejects_offadjacency_rates():
    rates = np.zeros((3, 2))
    rates[0, 1] = 0.2
    with pytest.raises(ValueError, match="off the adjacency"):
        small_cfg(arrival_rates=rates)


def test_config_rejects_nan_rates_and_costs():
    rates = np.zeros((3, 2))
    rates[0, 0] = np.nan
    with pytest.raises(ValueError, match="arrival_rates must be nonnegative"):
        small_cfg(arrival_rates=rates)
    with pytest.raises(ValueError, match="active_cost must be nonnegative"):
        small_cfg(active_cost=np.nan)
    # an infinite cost would price holding an activation at inf * 0 = NaN
    with pytest.raises(ValueError, match="switch_off_cost must be nonnegative"):
        small_cfg(switch_off_cost=np.inf)


def test_config_rejects_negative_cost():
    with pytest.raises(ValueError, match="nonnegative"):
        small_cfg(active_cost=-1.0)


def test_config_rejects_rates_above_max_arrivals():
    rates = np.zeros((3, 2))
    rates[0, 0] = 1.5
    with pytest.raises(ValueError, match="max_arrivals"):
        small_cfg(arrival_rates=rates)


def test_config_collects_all_errors():
    try:
        NetworkConfig(
            n_users=0,
            n_stations=0,
            adjacency=(),
            arrival_rates=np.zeros((0, 0)),
        )
    except ValueError as exc:
        text = str(exc)
        assert "n_users" in text and "n_stations" in text and "adjacency" in text
    else:
        pytest.fail("expected a ValueError")


# ---------------------------------------------------------------------------
# activation enumeration
# ---------------------------------------------------------------------------


def test_enumerate_activations_binary_counting():
    acts = enumerate_activations(3)
    assert acts.shape == (8, 3)
    assert acts[0].tolist() == [0, 0, 0]
    assert acts[1].tolist() == [0, 0, 1]
    assert acts[4].tolist() == [1, 0, 0]
    assert acts[7].tolist() == [1, 1, 1]


def test_activation_id_inverts_enumeration():
    acts = enumerate_activations(4)
    for k in range(acts.shape[0]):
        assert activation_id(acts[k]) == k


def test_all_on_off_helpers():
    assert all_on(3).tolist() == [1, 1, 1]
    assert all_off(3).tolist() == [0, 0, 0]
    assert activation_id(all_on(3)) == 7
    assert activation_id(all_off(3)) == 0


# ---------------------------------------------------------------------------
# network cost
# ---------------------------------------------------------------------------


def test_cost_switch_off_plus_active():
    cfg = small_cfg()
    # one station turns off, two stay on
    assert network_cost(activation_id([1, 1, 0]), activation_id([0, 1, 1]), cfg) == 3.0


def test_cost_all_off_is_zero_with_defaults():
    cfg = small_cfg()
    z = np.zeros(3, dtype=int)
    assert network_cost(activation_id(z), activation_id(z), cfg) == 0.0


def test_cost_sleep_term():
    cfg = small_cfg(sleep_cost=2.0)
    z = np.zeros(3, dtype=int)
    assert network_cost(activation_id(z), activation_id(z), cfg) == 6.0


def test_cost_full_shutdown():
    cfg = small_cfg(switch_off_cost=1.0, active_cost=0.0)
    assert network_cost(activation_id(all_on(3)), activation_id(all_off(3)), cfg) == 3.0


def test_cost_extended_terms():
    cfg = small_cfg(
        switch_off_cost=2.0, active_cost=3.0, switch_on_cost=5.0, sleep_cost=7.0
    )
    prev = activation_id([1, 0, 0])
    cur = activation_id([0, 1, 1])
    # 1 off-switch, 2 on-switches, 2 active, 1 sleeping
    assert network_cost(prev, cur, cfg) == 2.0 + 5.0 * 2 + 3.0 * 2 + 7.0


def test_cost_nonnegative_and_zero_only_when_everything_off():
    cfg = small_cfg()
    acts = enumerate_activations(3)
    for prev in acts:
        for cur in acts:
            c = network_cost(activation_id(prev), activation_id(cur), cfg)
            assert c >= 0.0
            if c == 0.0:
                assert cur.sum() == 0 and np.all(prev <= cur)


# up to 1e300, so that no cost sum overflows
COST = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e300))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 8),
    costs=st.tuples(COST, COST, COST, COST),
    data=st.data(),
)
def test_cost_on_ids_equals_the_vector_cost_bit_for_bit(m, costs, data):
    """Pricing from the ids' popcounts gives the elementwise count on 0/1
    vectors exactly: every (prev, j) pair up to M = 5, sampled pairs above."""
    names = ("switch_off_cost", "active_cost", "switch_on_cost", "sleep_cost")
    cfg = small_cfg(
        n_stations=m,
        adjacency=((0, 0),),
        arrival_rates=np.zeros((m, 2)),
        **dict(zip(names, costs)),
    )
    acts = enumerate_activations(m)
    n_act = len(acts)
    if m <= 5:
        prev, cur = np.divmod(np.arange(n_act * n_act), n_act)
    else:
        ids = st.integers(0, n_act - 1)
        pairs = data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=200))
        prev, cur = np.array(pairs).T
    expected = np.array(
        [vector_network_cost(acts[a], acts[b], cfg) for a, b in zip(prev, cur)],
        dtype=float,
    )
    got = np.asarray(network_cost(prev, cur, cfg), dtype=float)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert network_cost(int(prev[0]), int(cur[0]), cfg) == expected[0]


# ---------------------------------------------------------------------------
# queue update
# ---------------------------------------------------------------------------


def test_step_queues_caps_service_at_queue():
    next_q, dep = step_queues(np.array([[3]]), np.array([[5]]), np.array([[1]]))
    assert next_q.tolist() == [[1]] and dep.tolist() == [[3]]


def test_step_queues_pure_arrival():
    next_q, dep = step_queues(np.array([[0]]), np.array([[0]]), np.array([[2]]))
    assert next_q.tolist() == [[2]] and dep.tolist() == [[0]]


def test_step_queues_elementwise():
    next_q, dep = step_queues(
        np.array([[4, 1]]), np.array([[2, 1]]), np.array([[0, 0]])
    )
    assert next_q.tolist() == [[2, 0]] and dep.tolist() == [[2, 1]]


def test_step_queues_conservation_property():
    rng = np.random.default_rng(1)
    for _ in range(200):
        q = rng.integers(0, 10, size=(3, 4))
        s = rng.integers(0, 4, size=(3, 4))
        a = rng.integers(0, 2, size=(3, 4))
        next_q, dep = step_queues(q, s, a)
        assert np.array_equal(next_q, q - dep + a)
        assert np.all(dep == np.minimum(s, q))
        assert np.all(next_q >= 0)
