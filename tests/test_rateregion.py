"""Channel model checks and rate-region enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bssched.rateregion as rateregion_module
from bssched import (
    ChannelModel,
    ChannelState,
    NetworkConfig,
    activation_id,
    build_lp,
    enumerate_activations,
    full_region,
    make_policy,
    region_index,
    restricted_region,
    run,
)
from bssched.cli import reference_scenario

from oracles import count_one_user_region, enumerate_one_user_region, mask_and_dedupe


def one_station_cfg():
    return NetworkConfig(
        n_users=2,
        n_stations=1,
        adjacency=((0, 0), (0, 1)),
        arrival_rates=np.zeros((1, 2)),
        max_rate=2,
    )


def one_station_cm():
    state = ChannelState(name="h0", rates=np.array([[2, 1]]))
    return ChannelModel(states=(state,), pmf=np.array([1.0]))


# ---------------------------------------------------------------------------
# channel model validation
# ---------------------------------------------------------------------------


def test_pmf_must_sum_to_one():
    state = ChannelState(name="h0", rates=np.array([[1, 1]]))
    with pytest.raises(ValueError, match="probability"):
        ChannelModel(states=(state,), pmf=np.array([0.7]))


def test_pmf_rejects_nan():
    states = tuple(ChannelState(name=f"h{i}", rates=np.array([[1, 1]])) for i in (0, 1))
    with pytest.raises(ValueError, match="probability"):
        ChannelModel(states=states, pmf=np.array([np.nan, 0.5]))


def test_explicit_interference_needs_regions():
    state = ChannelState(name="h0", rates=np.array([[1, 1]]))
    with pytest.raises(ValueError, match="explicit_regions"):
        ChannelModel(states=(state,), pmf=np.array([1.0]), interference="explicit")


def test_validate_against_flags_rate_problems():
    cfg = one_station_cfg()
    bad = ChannelModel(
        states=(ChannelState(name="h0", rates=np.array([[5, 1]])),),
        pmf=np.array([1.0]),
    )
    errors = bad.validate_against(cfg)
    assert any("max_rate" in e for e in errors)

    off_adj = NetworkConfig(
        n_users=2,
        n_stations=1,
        adjacency=((0, 0),),
        arrival_rates=np.zeros((1, 2)),
        max_rate=2,
    )
    errors = one_station_cm().validate_against(off_adj)
    assert any("adjacency" in e for e in errors)


# ---------------------------------------------------------------------------
# full region enumeration
# ---------------------------------------------------------------------------


def test_one_station_region_members():
    region = full_region(one_station_cm(), one_station_cfg(), 0)
    members = {tuple(map(tuple, m)) for m in region}
    assert members == {((0, 0),), ((2, 0),), ((0, 1),)}
    # the zero matrix is member 0
    assert np.all(region[0] == 0)


def test_zero_rate_user_is_not_an_option():
    cfg = one_station_cfg()
    cm = ChannelModel(
        states=(ChannelState(name="h0", rates=np.array([[2, 0]])),),
        pmf=np.array([1.0]),
    )
    region = full_region(cm, cfg, 0)
    assert len(region) == 2  # idle or serve user 0


def test_explicit_region_passthrough():
    cfg = one_station_cfg()
    members = np.zeros((1, 1, 2), dtype=np.int64)
    cm = ChannelModel(
        states=(ChannelState(name="h0", rates=np.array([[0, 0]])),),
        pmf=np.array([1.0]),
        interference="explicit",
        explicit_regions=(members,),
    )
    region = full_region(cm, cfg, 0)
    assert len(region) == 1 and np.all(region == 0)


def test_reference_all_bad_region_size():
    cfg, cm = reference_scenario()
    region = full_region(cm, cfg, 0)
    assert len(region) == 80  # 4 * 5 * 4 station choices
    assert count_one_user_region(cfg, cm.rates_for(0)) == 80


def test_region_size_matches_degree_product_on_every_state():
    cfg, cm = reference_scenario()
    for h in range(cm.n_states):
        region = full_region(cm, cfg, h)
        rates = cm.rates_for(h)
        assert len(region) == count_one_user_region(cfg, rates)
        members = {tuple(map(tuple, m)) for m in region}
        assert members == enumerate_one_user_region(cfg, rates)


def test_region_members_within_caps():
    cfg, cm = reference_scenario()
    mask = cfg.adjacency_mask()
    for h in range(cm.n_states):
        members = full_region(cm, cfg, h)
        assert np.all(members >= 0) and np.all(members <= cfg.max_rate)
        assert np.all(members[:, ~mask] == 0)


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------


def test_restriction_to_all_off_is_zero_only():
    region = full_region(one_station_cm(), one_station_cfg(), 0)
    restricted = restricted_region(region, np.array([0]))
    assert len(restricted) == 1 and np.all(restricted == 0)


def test_restriction_identity_under_all_on():
    region = full_region(one_station_cm(), one_station_cfg(), 0)
    restricted = restricted_region(region, np.array([1]))
    assert np.array_equal(restricted, region)


def test_restriction_masks_rows():
    cfg = NetworkConfig(
        n_users=2,
        n_stations=2,
        adjacency=((0, 0), (1, 1)),
        arrival_rates=np.zeros((2, 2)),
        max_rate=2,
    )
    cm = ChannelModel(
        states=(ChannelState(name="h0", rates=np.array([[2, 0], [0, 1]])),),
        pmf=np.array([1.0]),
    )
    region = full_region(cm, cfg, 0)
    restricted = restricted_region(region, np.array([1, 0]))
    members = {tuple(map(tuple, m)) for m in restricted}
    assert members == {((0, 0), (0, 0)), ((2, 0), (0, 0))}


def test_restriction_nested_along_activation_order():
    cfg, cm = reference_scenario()
    acts = enumerate_activations(cfg.n_stations)
    for h in range(cm.n_states):
        region = full_region(cm, cfg, h)
        sets = {}
        for j in acts:
            members = restricted_region(region, j)
            sets[tuple(j)] = {tuple(map(tuple, m)) for m in members}
        for j in acts:
            for j_small in acts:
                if np.all(j_small <= j):
                    assert sets[tuple(j_small)] <= sets[tuple(j)]


def test_restriction_idempotent_as_a_set():
    cfg, cm = reference_scenario()
    region = full_region(cm, cfg, 1)
    j = np.array([1, 0, 1])
    once = restricted_region(region, j)
    twice = restricted_region(once, j)
    assert np.array_equal(once, twice)


@st.composite
def one_user_scenarios(draw):
    """A random one-user-per-station network and one channel state: 1-4
    stations, 1-4 users that stations may share, link rates in {0, 1, 2}."""
    n_stations = draw(st.integers(1, 4))
    n_users = draw(st.integers(1, 4))
    pairs = [(m, u) for m in range(n_stations) for u in range(n_users)]
    adjacency = tuple(draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)))
    rates = np.zeros((n_stations, n_users), dtype=np.int64)
    for m, u in adjacency:
        rates[m, u] = draw(st.integers(0, 2))
    cfg = NetworkConfig(
        n_users=n_users,
        n_stations=n_stations,
        adjacency=adjacency,
        arrival_rates=np.zeros((n_stations, n_users)),
        max_rate=2,
    )
    cm = ChannelModel(states=(ChannelState(name="h0", rates=rates),), pmf=np.array([1.0]))
    return cfg, cm


@settings(max_examples=200, deadline=None)
@given(scenario=one_user_scenarios())
def test_restriction_equals_mask_and_dedupe(scenario):
    """Selecting the members whose OFF stations idle gives the masked and
    deduplicated region, member for member, for every activation."""
    cfg, cm = scenario
    region = full_region(cm, cfg, 0)
    for j in enumerate_activations(cfg.n_stations):
        selected = restricted_region(region, j)
        expected = mask_and_dedupe(region, j)
        assert selected.dtype == expected.dtype == np.int64
        assert np.array_equal(selected, expected)


def test_explicit_restriction_keeps_first_occurrences_in_file_order():
    cfg = NetworkConfig(
        n_users=1,
        n_stations=2,
        adjacency=((0, 0), (1, 0)),
        arrival_rates=np.zeros((2, 1)),
        max_rate=2,
    )
    members = np.array([[[0], [0]], [[2], [1]], [[1], [0]], [[2], [0]]])
    cm = ChannelModel(
        states=(ChannelState(name="h0", rates=np.array([[2], [1]])),),
        pmf=np.array([1.0]),
        interference="explicit",
        explicit_regions=(members,),
    )
    region = region_index(cfg, cm)[activation_id(np.array([1, 0]))][0]
    assert region.dtype == np.int64
    assert region.tolist() == [[[0], [0]], [[2], [0]], [[1], [0]]]


def test_one_user_region_index_never_dedupes(monkeypatch):
    def refuse(region, j):
        raise AssertionError("explicit restriction on a one-user-per-station region")

    monkeypatch.setattr(rateregion_module, "_restricted_explicit", refuse)
    cfg, cm = reference_scenario()
    assert len(region_index(cfg, cm)) == 2**cfg.n_stations


# ---------------------------------------------------------------------------
# region index
# ---------------------------------------------------------------------------


def test_region_index_rows_follow_activation_ids():
    cfg, cm = reference_scenario()
    regions = region_index(cfg, cm)
    acts = enumerate_activations(cfg.n_stations)
    assert len(regions) == len(acts)
    lp_regions = build_lp(cfg, cm).regions
    for j in acts:
        row = regions[activation_id(j)]
        assert len(row) == cm.n_states
        for h, region in enumerate(row):
            expected = restricted_region(full_region(cm, cfg, h), j)
            assert np.array_equal(region, expected)
            assert np.array_equal(lp_regions[activation_id(j)][h], expected)


def test_policies_build_no_region_after_construction(monkeypatch):
    """Max-Weight reads the region index built with the planning LP."""
    cfg, cm = reference_scenario()
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapped

    for name in ("static_split_mw", "algorithm1"):
        rng = np.random.default_rng(0)
        policy = make_policy(name, cfg, cm, rng)
        with monkeypatch.context() as patch:
            for attr in ("full_region", "restricted_region"):
                fn = getattr(rateregion_module, attr)
                patch.setattr(rateregion_module, attr, counting(fn))
            trace = run(cfg, cm, policy, horizon=2000, rng=rng)
        assert policy.resample_count > 0
        assert name != "algorithm1" or trace.explore.any()
        assert calls == [], name


# ---------------------------------------------------------------------------
# reference scenario facts
# ---------------------------------------------------------------------------


def test_reference_scenario_shape():
    cfg, cm = reference_scenario()
    assert cfg.n_users == 5 and cfg.n_stations == 3
    assert len(cfg.adjacency) == 10
    assert cm.n_states == 4
    assert np.allclose(cm.pmf, 0.25)
    assert cfg.arrival_rates.sum() == pytest.approx(1.0)
    assert cfg.switch_off_cost == 1.0 and cfg.active_cost == 1.0


def test_reference_good_states_double_only_their_station():
    cfg, cm = reference_scenario()
    mask = cfg.adjacency_mask()
    base = cm.rates_for(0)
    assert np.all(base[mask] == 1)
    for k in range(3):
        rates = cm.rates_for(k + 1)
        assert np.all(rates[k][mask[k]] == 2)
        others = [m for m in range(3) if m != k]
        for m in others:
            assert np.all(rates[m][mask[m]] == 1)
