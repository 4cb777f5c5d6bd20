"""Simulation engine tests: slot mechanics, reproducibility, diagnostics."""

import dataclasses
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bssched.cli import bundled_scenario_path, load_scenario, reference_scenario
from bssched.model import NetworkConfig, activation_id
from bssched.policies import (
    POLICY_NAMES,
    AlwaysOnMaxWeight,
    LearningMaxWeight,
    StaticSplitMaxWeight,
    make_policy,
)
from bssched import sim
from bssched.rateregion import EXPLICIT, ChannelModel, ChannelState, full_region
from bssched.sim import (
    ARRIVAL_LAWS,
    RegimeSchedule,
    SimTrace,
    _can_restart,
    _inversion,
    _px_steps,
    arrival_errors,
    draw_channel_index,
    drift_diagnostic,
    run,
    stability_fraction,
)

from oracles import occupancy, reference_run, scale_at


@pytest.fixture(scope="module")
def reference():
    return reference_scenario()


def adjacency_queues(cfg, value):
    q = np.zeros((cfg.n_stations, cfg.n_users), dtype=np.int64)
    for m, u in cfg.adjacency:
        q[m, u] = value
    return q


def popcount(bits):
    return bin(int(bits)).count("1")


# ---------------------------------------------------------------------------
# Basic slot mechanics
# ---------------------------------------------------------------------------


def test_single_slot_run(reference):
    cfg, cm = reference
    trace = run(cfg, cm, AlwaysOnMaxWeight(cfg, cm), horizon=1, seed=0)
    assert trace.horizon == 1
    assert trace.cost[0] == 3.0
    assert trace.total_queue[0] == 0


def test_horizon_must_be_positive(reference):
    cfg, cm = reference
    with pytest.raises(ValueError, match="horizon"):
        run(cfg, cm, AlwaysOnMaxWeight(cfg, cm), horizon=0, seed=0)


def test_unknown_arrival_law_rejected(reference):
    cfg, cm = reference
    with pytest.raises(ValueError, match="arrival_law"):
        run(cfg, cm, AlwaysOnMaxWeight(cfg, cm), horizon=5, seed=0, arrival_law="poisson")
    assert ARRIVAL_LAWS == ("bernoulli", "binomial")


def test_zero_arrivals_leave_queues_empty(reference):
    cfg, cm = reference
    silent = dataclasses.replace(cfg, arrival_rates=0.0 * np.asarray(cfg.arrival_rates))
    trace = run(silent, cm, AlwaysOnMaxWeight(silent, cm), horizon=300, seed=1)
    assert not trace.total_queue.any()
    assert not trace.served.any()
    assert not trace.final_queues.any()


def test_q0_and_j0_are_respected(reference):
    cfg, cm = reference
    q0 = adjacency_queues(cfg, 5)
    j0 = np.array([0, 1, 0], dtype=np.int64)
    policy = StaticSplitMaxWeight(cfg, cm, eps_s=0.0, eps_g=0.05)
    trace = run(cfg, cm, policy, horizon=50, seed=2, q0=q0, j0=j0)
    assert trace.total_queue[0] == q0.sum()
    # eps_s = 0 holds the initial activation forever: one active station
    assert np.all(trace.j_bits == activation_id(j0))
    assert np.all(trace.cost == 1.0)
    assert np.isnan(trace.mu_err).all()
    assert np.isnan(trace.lambda_err).all()


def test_q0_validation(reference):
    cfg, cm = reference
    policy = AlwaysOnMaxWeight(cfg, cm)
    with pytest.raises(ValueError, match="q0"):
        run(cfg, cm, policy, horizon=5, seed=0, q0=-np.ones((3, 5), dtype=np.int64))
    with pytest.raises(ValueError, match="q0"):
        run(cfg, cm, policy, horizon=5, seed=0, q0=np.zeros((2, 5), dtype=np.int64))


@pytest.mark.parametrize("bad", [1.7, np.nan, np.inf, 2.0**63])
def test_q0_must_hold_whole_numbers(reference, bad):
    """A fractional, NaN, infinite or out-of-range entry is rejected, not
    truncated; whole floats are taken as the integers they hold."""
    cfg, cm = reference
    policy = AlwaysOnMaxWeight(cfg, cm)
    q0 = np.ones((3, 5))
    q0[1, 2] = bad
    with pytest.raises(ValueError, match="q0"):
        run(cfg, cm, policy, horizon=5, seed=0, q0=q0)
    whole = run(cfg, cm, policy, horizon=5, seed=0, q0=np.full((3, 5), 2.0))
    assert whole.total_queue[0] == 30


@pytest.mark.parametrize("name", ["always_on", "static_split_mw"])
@pytest.mark.parametrize(
    "j0",
    [[1, 1], [2, 0, 0], [1, 1, 1, 1], [[1, 1, 1]], [0.5, 1, 1], [-1, 1, 1]],
    ids=["short", "two", "long", "matrix", "half", "negative"],
)
def test_j0_validation(reference, name, j0):
    cfg, cm = reference
    policy = make_policy(name, cfg, cm, np.random.default_rng(0))
    with pytest.raises(ValueError, match="j0"):
        run(cfg, cm, policy, horizon=5, seed=0, j0=np.array(j0))


def test_cost_accounting_matches_activation_path(reference):
    """Per-slot cost re-derivable from the activation bit path and j0."""
    cfg, cm = reference
    policy = StaticSplitMaxWeight(cfg, cm, eps_s=0.3, eps_g=0.05)
    trace = run(cfg, cm, policy, horizon=400, seed=9)
    prev = 0b111  # default j0 is all stations on
    for i in range(trace.horizon):
        cur = int(trace.j_bits[i])
        switched_off = popcount(prev & ~cur)
        expected = cfg.switch_off_cost * switched_off + cfg.active_cost * popcount(cur)
        assert trace.cost[i] == pytest.approx(expected)
        prev = cur


def test_conservation_of_packets(reference):
    """Arrivals = departures + final backlog when queues start empty."""
    cfg, cm = reference
    policy = StaticSplitMaxWeight(cfg, cm, eps_s=0.05, eps_g=0.05)
    trace = run(cfg, cm, policy, horizon=5000, seed=3)
    arrivals = trace.served.sum() + trace.final_queues.sum()
    rate = arrivals / trace.horizon
    lam_total = float(np.asarray(cfg.arrival_rates).sum())
    tol = 3.0 * np.sqrt(lam_total * (1.0 - 0.1) / trace.horizon)
    assert abs(rate - lam_total) <= tol


# ---------------------------------------------------------------------------
# Reproducibility
# ---------------------------------------------------------------------------


def trace_arrays(trace):
    return (
        trace.total_queue,
        trace.v_quad,
        trace.cost,
        trace.served,
        trace.j_bits,
        trace.explore,
        trace.mu_err,
        trace.lambda_err,
        trace.final_queues,
    )


def test_same_seed_same_trace(reference):
    cfg, cm = reference
    traces = []
    for _ in range(2):
        policy = StaticSplitMaxWeight(cfg, cm, eps_s=0.1, eps_g=0.05)
        traces.append(run(cfg, cm, policy, horizon=2000, seed=77))
    for a, b in zip(trace_arrays(traces[0]), trace_arrays(traces[1])):
        assert np.array_equal(a, b, equal_nan=(a.dtype.kind == "f"))


def test_same_seed_same_trace_learning(reference):
    cfg, cm = reference
    traces = []
    for _ in range(2):
        rng = np.random.default_rng(123)
        policy = LearningMaxWeight(cfg, cm, eps_s=0.05, eps_p=0.01, eps_g=0.05, rng=rng)
        traces.append(run(cfg, cm, policy, horizon=2000, rng=rng))
    for a, b in zip(trace_arrays(traces[0]), trace_arrays(traces[1])):
        assert np.array_equal(a, b, equal_nan=(a.dtype.kind == "f"))


def test_different_seeds_differ(reference):
    cfg, cm = reference
    policy = StaticSplitMaxWeight(cfg, cm, eps_s=0.1, eps_g=0.05)
    t1 = run(cfg, cm, policy, horizon=2000, seed=1)
    policy2 = StaticSplitMaxWeight(cfg, cm, eps_s=0.1, eps_g=0.05)
    t2 = run(cfg, cm, policy2, horizon=2000, seed=2)
    assert not np.array_equal(t1.total_queue, t2.total_queue)


# ---------------------------------------------------------------------------
# Arrival laws
# ---------------------------------------------------------------------------


def test_bernoulli_arrival_rate_empirical(reference):
    cfg, cm = reference
    trace = run(cfg, cm, AlwaysOnMaxWeight(cfg, cm), horizon=100_000, seed=17)
    arrivals = trace.served.sum() + trace.final_queues.sum()
    lam_total = float(np.asarray(cfg.arrival_rates).sum())
    sigma = np.sqrt(lam_total * 0.9 / trace.horizon)
    assert abs(arrivals / trace.horizon - lam_total) <= 3.0 * sigma


def test_binomial_arrival_rate_empirical(reference):
    cfg, cm = reference
    wide = dataclasses.replace(cfg, max_arrivals=2)
    trace = run(
        wide, cm, AlwaysOnMaxWeight(wide, cm), horizon=100_000, seed=18,
        arrival_law="binomial",
    )
    arrivals = trace.served.sum() + trace.final_queues.sum()
    lam_total = float(np.asarray(wide.arrival_rates).sum())
    # per-link variance 2 p (1 - p) with p = rate / 2
    var_total = float((2 * (np.asarray(wide.arrival_rates) / 2)
                       * (1 - np.asarray(wide.arrival_rates) / 2)).sum())
    sigma = np.sqrt(var_total / trace.horizon)
    assert abs(arrivals / trace.horizon - lam_total) <= 3.0 * sigma


PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK64 = (1 << 64) - 1


def force_next_uniform(rng, k):
    """Rewind ``rng``'s PCG64 state so that its next ``random()`` is k * 2**-53.

    PCG64 steps s = s * MULT + inc (mod 2**128) and outputs
    rotr64(hi ^ lo, s >> 122) of the new state; ``random()`` keeps the top
    53 bits of that output. So pick the new state's high half, solve for
    the low half that outputs k << 11, and step back once.
    """
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    hi = state["state"]["state"] >> 64
    out, rot = k << 11, hi >> 58
    lo = hi ^ (((out << rot) | (out >> (64 - rot))) & MASK64)
    new = (hi << 64) | lo
    state["state"]["state"] = (new - inc) * pow(PCG64_MULT, -1, 1 << 128) % (1 << 128)
    rng.bit_generator.state = state


def test_force_next_uniform():
    rng = np.random.default_rng(4)
    for k in (0, 1, 3**30, 2**53 - 1):
        force_next_uniform(rng, k)
        assert rng.random() == k * 2.0**-53


def _cumulative_pmf(n, p):
    """numpy's inversion thresholds for binomial(n, p): the running sums of
    its ``_px_steps`` at min(p, 1 - p); none where it takes no uniform or
    BTPE."""
    low = min(p, 1.0 - p)
    if p == 0 or low * n > 30.0:
        return []
    return list(accumulate(_px_steps(n, low)))


@st.composite
def _binomial_draw(draw):
    """(n, link probabilities, slots, forced): p = 0, p = 1, p = 0.5 and
    n * p near 30 among the probabilities, and ``forced`` None or a
    (position, k) that sets the block's uniform at ``position`` to
    k * 2**-53: at an inversion edge of its link, a step either side of
    it, near 1, or 0."""
    n = draw(st.integers(1, 100))
    special = st.sampled_from([0.0, 1.0, 0.5, float(np.nextafter(0.5, 1.0))])
    near_30 = st.floats(0.95, 1.05).map(lambda f: min(1.0, 30.0 * f / n))
    prob = st.one_of(st.floats(0.0, 1.0), special, near_30, near_30.map(lambda p: 1.0 - p))
    ps = draw(st.lists(prob, min_size=1, max_size=3))
    slots = draw(st.integers(1, 4))
    drawn = [p for p in ps if p > 0]  # one uniform each
    if not drawn or draw(st.booleans()):
        return n, ps, slots, None
    position = draw(st.integers(0, slots * len(drawn) - 1))
    edges = [c for c in _cumulative_pmf(n, drawn[position % len(drawn)]) if c < 1.0]
    at_edge = st.sampled_from(edges or [0.5]).map(lambda c: int(c * 2.0**53))
    shifted = st.tuples(at_edge, st.integers(-1, 1)).map(
        lambda t: min(max(sum(t), 0), 2**53 - 1)
    )
    near_one = st.integers(1, 2**20).map(lambda d: 2**53 - d)
    return n, ps, slots, (position, draw(st.one_of(shifted, near_one, st.just(0))))


def _restarts(n, p, k):
    """Whether ``rng.binomial(n, p)`` restarts its inversion draw on the
    first uniform k * 2**-53, as it takes more than that one uniform."""
    binomial, stream = np.random.default_rng(0), np.random.default_rng(0)
    for rng in (binomial, stream):
        force_next_uniform(rng, k)
    binomial.binomial(n, p)
    stream.random()
    return binomial.bit_generator.state != stream.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 120),
    p=st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.01, 0.002, 0.2, 0.97, 0.25, 0.05, 2 / 3]),
    ),
    data=st.data(),
)
def test_a_draw_can_restart_exactly_when_the_largest_uniform_restarts_it(n, p, data):
    """A first uniform on which ``rng.binomial`` restarts its inversion draw
    has every larger one restart it too, so some uniform restarts it exactly
    when 1 - 2**-53 does, which is what ``_can_restart`` says. The uniforms
    are drawn at gaps from 1 of every scale, where restarts begin."""
    low = min(p, 1.0 - p)
    if p == 0 or low * n > 30.0:  # no uniform, or BTPE
        return
    gap = data.draw(st.integers(1, 53).flatmap(lambda e: st.integers(1, 2**e)))
    k = 2**53 - gap
    larger = data.draw(st.integers(k, 2**53 - 1))
    if _restarts(n, p, k):
        assert _restarts(n, p, larger)
    assert _can_restart(_px_steps(n, low)) == _restarts(n, p, 2**53 - 1)


@settings(max_examples=500, deadline=None)
@given(case=_binomial_draw(), seed=st.integers(0, 2**32 - 1))
@example(case=(1, [0.5], 1, (0, 2**52)), seed=0)  # u = px = 0.5: a tie counts 0
def test_block_counts_equal_the_scalar_sampler(case, seed):
    """``_Inversion.counts`` on a block's uniforms gives, slot by slot, what
    ``rng.binomial(n, ps)`` gives from an identical generator, which then
    takes its next uniform where the block's would, also with one uniform
    forced to an inversion edge. ``_inversion`` is None, so that the engine
    draws by ``rng.binomial``, exactly when some link needs BTPE or can
    restart."""
    n, ps, slots, forced = case
    low = [min(p, 1.0 - p) for p in ps]
    btpe = any(x * n > 30.0 for x in low)
    restarts = any(p > 0 and _can_restart(_px_steps(n, x)) for p, x in zip(ps, low))
    inversion = _inversion(n, list(enumerate(ps)))
    assert (inversion is None) == (btpe or restarts)
    if inversion is None:
        return
    block, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if forced is not None:
        position, k = forced
        for rng in (block, numpy_rng):
            force_next_uniform(rng, k)
            rng.bit_generator.advance((1 << 128) - position)  # PCG64 steps back
    got = np.zeros((slots, len(ps)), dtype=np.int64)
    got[:, inversion.links] = inversion.counts(block.random((slots, inversion.width)))
    assert got.tolist() == [numpy_rng.binomial(n, ps).tolist() for _ in range(slots)]
    assert block.random() == numpy_rng.random()


def test_bernoulli_rejects_scaled_rate_above_one(reference):
    """A scale from slot 10 on is rejected before slot 1 is simulated."""
    cfg, cm = reference
    regime = RegimeSchedule(changes=((10, 11.0),))
    policy = AlwaysOnMaxWeight(cfg, cm)
    step, steps = policy.step, []
    policy.step = lambda *args: steps.append(args[0]) or step(*args)
    with pytest.raises(ValueError, match="bernoulli .* rate <= 1; got scale 11.0"):
        run(cfg, cm, policy, horizon=20, seed=0, regime=regime)
    assert steps == []


def test_arrival_errors_list_each_scale_the_schedule_applies(reference):
    cfg, _ = reference
    assert arrival_errors(cfg, "bernoulli", None) == []
    regime = RegimeSchedule(changes=((5, 20.0), (9, 1.0), (12, 20.0), (15, 30.0)))
    assert arrival_errors(cfg, "bernoulli", regime) == [
        "bernoulli arrivals need rate <= 1; got scale 20.0",
        "bernoulli arrivals need rate <= 1; got scale 30.0",
    ]
    first = RegimeSchedule(changes=((1, 15.0), (9, 1.0)))
    assert arrival_errors(cfg, "binomial", first) == [
        "binomial arrivals need rate <= 1; got scale 15.0"
    ]
    assert arrival_errors(None, "poisson", regime) == [
        "arrival_law must be one of ('bernoulli', 'binomial')"
    ]


# ---------------------------------------------------------------------------
# Regime schedule
# ---------------------------------------------------------------------------


def test_regime_schedule_validation():
    with pytest.raises(ValueError, match="positive"):
        RegimeSchedule(changes=((10, 0.0),))
    with pytest.raises(ValueError, match="positive"):
        RegimeSchedule(changes=((10, -1.0),))
    for scale in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            RegimeSchedule(changes=((10, scale),))
    with pytest.raises(ValueError, match="strictly increasing"):
        RegimeSchedule(changes=((20, 2.0), (10, 1.0)))
    with pytest.raises(ValueError, match="strictly increasing"):
        RegimeSchedule(changes=((10, 2.0), (10, 3.0)))
    with pytest.raises(ValueError, match="1-based"):
        RegimeSchedule(changes=((0, 2.0),))


@pytest.mark.parametrize("start", [10.0, 10.5, True, "10"], ids=repr)
def test_regime_start_must_be_an_integer(start):
    with pytest.raises(ValueError, match="integers"):
        RegimeSchedule(changes=((start, 2.0),))


@pytest.mark.parametrize("scale", [True, np.True_, "2", None], ids=repr)
def test_regime_scale_must_be_a_real_number(scale):
    """A bool scale is rejected like a bool start slot, and a scale that is
    no number raises ValueError rather than the comparison's TypeError."""
    with pytest.raises(ValueError, match="real numbers"):
        RegimeSchedule(changes=((5, scale),))


def test_regime_start_may_be_a_numpy_integer(reference):
    cfg, cm = reference
    as_int = RegimeSchedule(changes=((5, 2.0),))
    as_numpy = RegimeSchedule(changes=((np.int64(5), 2.0),))
    traces = [
        run(cfg, cm, AlwaysOnMaxWeight(cfg, cm), horizon=20, seed=1, regime=regime)
        for regime in (as_int, as_numpy)
    ]
    assert np.array_equal(traces[0].total_queue, traces[1].total_queue)


def test_regime_scale_at_boundaries():
    regime = RegimeSchedule(changes=((10, 2.0), (20, 0.5)))
    assert scale_at(regime, 1) == 1.0
    assert scale_at(regime, 9) == 1.0
    assert scale_at(regime, 10) == 2.0
    assert scale_at(regime, 19) == 2.0
    assert scale_at(regime, 20) == 0.5
    assert scale_at(regime, 10**6) == 0.5
    assert regime.boundaries() == (10, 20)


def test_regime_switch_lands_on_exact_slot():
    """Deterministic end-to-end check that a change at slot s is inclusive.

    One saturated link (arrival probability 1), a channel that never offers
    service, and a regime that cuts arrivals to nothing from slot 50: the
    pre-arrival queue must read t - 1 up to slot 50 and stay at 49 after.
    """
    cfg = NetworkConfig(
        n_users=1,
        n_stations=1,
        adjacency=((0, 0),),
        arrival_rates=np.array([[1.0]]),
    )
    cm = ChannelModel(
        states=(ChannelState(name="h0", rates=np.array([[0]])),),
        pmf=np.array([1.0]),
    )
    regime = RegimeSchedule(changes=((50, 1e-12),))
    trace = run(cfg, cm, AlwaysOnMaxWeight(cfg, cm), horizon=100, seed=0, regime=regime)
    expected = np.minimum(np.arange(100), 49)
    assert np.array_equal(trace.total_queue, expected)


# ---------------------------------------------------------------------------
# Trace summaries
# ---------------------------------------------------------------------------


def test_running_avg_cost_identity(reference):
    cfg, cm = reference
    trace = run(cfg, cm, AlwaysOnMaxWeight(cfg, cm), horizon=500, seed=5)
    manual = np.cumsum(trace.cost) / np.arange(1, 501)
    assert np.allclose(trace.running_avg_cost(), manual, atol=1e-12)
    assert trace.running_avg_cost()[-1] == pytest.approx(trace.avg_cost)


def test_windowed_cost_matches_direct_average(reference):
    cfg, cm = reference
    policy = StaticSplitMaxWeight(cfg, cm, eps_s=0.2, eps_g=0.05)
    trace = run(cfg, cm, policy, horizon=300, seed=6)
    windowed = trace.windowed_cost(window=37)
    for t in (1, 5, 37, 100, 300):
        lo = max(t - 37, 0)
        assert windowed[t - 1] == pytest.approx(trace.cost[lo:t].mean())


@pytest.mark.parametrize("window", [0, -1])
def test_windowed_cost_rejects_a_window_below_one(reference, window):
    cfg, cm = reference
    trace = run(cfg, cm, AlwaysOnMaxWeight(cfg, cm), horizon=5, seed=0)
    with pytest.raises(ValueError, match="window"):
        trace.windowed_cost(window)


def test_switch_count_counts_activation_changes(reference):
    cfg, cm = reference
    policy = StaticSplitMaxWeight(cfg, cm, eps_s=0.5, eps_g=0.05)
    trace = run(cfg, cm, policy, horizon=1000, seed=8)
    assert trace.switch_count == int(np.count_nonzero(np.diff(trace.j_bits)))
    assert 0 < trace.switch_count < 1000
    assert trace.switch_count <= policy.resample_count


def test_occupancy_sums_to_one(reference):
    cfg, cm = reference
    policy = StaticSplitMaxWeight(cfg, cm, eps_s=0.3, eps_g=0.05)
    trace = run(cfg, cm, policy, horizon=2000, seed=10)
    occ = occupancy(trace)
    assert sum(occ.values()) == pytest.approx(1.0)
    assert all(0 <= bits <= 7 for bits in occ)


def test_always_on_runs_at_sixteen_stations():
    """Nothing in the engine is sized 2**M or 4**M: 16 stations, each with
    three of 32 users, run 500 slots and pay 16 * active in every slot."""
    n_stations, n_users = 16, 32
    adjacency = tuple(
        (m, u % n_users) for m in range(n_stations) for u in (2 * m, 2 * m + 1, 2 * m + 2)
    )
    rates = np.zeros((n_stations, n_users))
    for m, u in adjacency:
        rates[m, u] = 0.1
    cfg = NetworkConfig(
        n_users=n_users,
        n_stations=n_stations,
        adjacency=adjacency,
        arrival_rates=rates,
        max_rate=2,
        active_cost=1.3,
    )
    draw = np.random.default_rng(0)
    states = []
    for h in range(4):
        state_rates = np.zeros((n_stations, n_users), dtype=np.int64)
        for m, u in adjacency:
            state_rates[m, u] = draw.integers(1, 3)
        states.append(ChannelState(name=f"h{h}", rates=state_rates))
    cm = ChannelModel(states=tuple(states), pmf=np.full(4, 0.25))
    trace = run(cfg, cm, AlwaysOnMaxWeight(cfg, cm), horizon=500, seed=0)
    assert np.all(trace.cost == 16 * 1.3)
    assert np.all(trace.j_bits == 2**16 - 1)
    assert trace.served.sum() > 0


# ---------------------------------------------------------------------------
# Drift diagnostic and stability fraction
# ---------------------------------------------------------------------------


def test_drift_diagnostic_window_validation(reference):
    cfg, cm = reference
    trace = run(cfg, cm, AlwaysOnMaxWeight(cfg, cm), horizon=100, seed=0)
    with pytest.raises(ValueError, match="horizon_steps"):
        drift_diagnostic(trace, horizon_steps=0)
    with pytest.raises(ValueError, match="horizon_steps"):
        drift_diagnostic(trace, horizon_steps=100)


def test_drift_nonpositive_while_draining(reference):
    cfg, cm = reference
    silent = dataclasses.replace(cfg, arrival_rates=0.0 * np.asarray(cfg.arrival_rates))
    q0 = adjacency_queues(cfg, 30)
    trace = run(silent, cm, AlwaysOnMaxWeight(silent, cm), horizon=2000, seed=1, q0=q0)
    diag = drift_diagnostic(trace, horizon_steps=50, threshold=0.0)
    assert float(diag.series.max()) <= 0.0
    assert trace.final_queues.sum() == 0


def test_drift_nan_when_no_slot_qualifies(reference):
    cfg, cm = reference
    trace = run(cfg, cm, AlwaysOnMaxWeight(cfg, cm), horizon=200, seed=2)
    diag = drift_diagnostic(trace, horizon_steps=20, threshold=1e6)
    assert diag.slots_above == 0
    assert np.isnan(diag.conditional_mean)


def test_drift_discriminates_stable_from_overloaded(reference):
    """Negative above-threshold drift at base load, positive at 4x load."""
    cfg, cm = reference
    q0 = adjacency_queues(cfg, 30)
    stable = run(cfg, cm, AlwaysOnMaxWeight(cfg, cm), horizon=30_000, seed=4, q0=q0)
    d_stable = drift_diagnostic(stable, horizon_steps=100, threshold=100.0)
    assert d_stable.slots_above > 0
    assert d_stable.conditional_mean < 0.0

    over = dataclasses.replace(cfg, arrival_rates=4.0 * np.asarray(cfg.arrival_rates))
    loaded = run(over, cm, AlwaysOnMaxWeight(over, cm), horizon=30_000, seed=4)
    d_loaded = drift_diagnostic(loaded, horizon_steps=100, threshold=0.0)
    assert d_loaded.conditional_mean > 0.0
    assert loaded.final_queues.sum() > stable.final_queues.sum()


def test_stability_fraction_definition(reference):
    cfg, cm = reference
    trace = run(cfg, cm, AlwaysOnMaxWeight(cfg, cm), horizon=1000, seed=3)
    assert stability_fraction(trace, 1e9) == 1.0
    assert stability_fraction(trace, -1.0) == 0.0
    # threshold is inclusive
    q_bar = float(trace.total_queue[499])
    window = trace.total_queue[400:500]
    expected = float(np.count_nonzero(window <= q_bar)) / 100
    assert stability_fraction(trace, q_bar, start_slot=401, end_slot=500) == expected


def test_stability_fraction_window_validation(reference):
    cfg, cm = reference
    trace = run(cfg, cm, AlwaysOnMaxWeight(cfg, cm), horizon=100, seed=0)
    with pytest.raises(ValueError, match="window"):
        stability_fraction(trace, 10.0, start_slot=0)
    with pytest.raises(ValueError, match="window"):
        stability_fraction(trace, 10.0, start_slot=50, end_slot=40)
    with pytest.raises(ValueError, match="window"):
        stability_fraction(trace, 10.0, end_slot=101)


# ---------------------------------------------------------------------------
# Policy factory integration
# ---------------------------------------------------------------------------


def test_run_with_factory_policies(reference):
    cfg, cm = reference
    for name in ("always_on", "static_split_mw", "algorithm1"):
        rng = np.random.default_rng(4)
        policy = make_policy(name, cfg, cm, rng)
        trace = run(cfg, cm, policy, horizon=200, rng=rng)
        assert trace.policy_name == name
        assert trace.horizon == 200


# ---------------------------------------------------------------------------
# Channel draw
# ---------------------------------------------------------------------------


class _FixedUniform:
    """Stub generator returning one uniform and counting the calls."""

    def __init__(self, u):
        self.u = u
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.u


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    top=st.one_of(st.just(1.0), st.floats(0.25, 1.0)),
    data=st.data(),
)
def test_draw_channel_index_matches_searchsorted(weights, top, data):
    """Bisecting a list CDF gives np.searchsorted(side="right")'s index,
    clamped to the last entry, for uniforms on a CDF entry and for a CDF
    that ends below 1; exactly one uniform is drawn."""
    cdf = np.cumsum(weights)
    if cdf[-1] > 0:
        cdf = cdf / cdf[-1] * top
    on_entry = st.sampled_from(cdf.tolist())
    anywhere = st.floats(0.0, 1.0, exclude_max=True)
    u = data.draw(st.one_of(on_entry, st.just(0.0), anywhere))
    expected = min(int(np.searchsorted(cdf, u, side="right")), cdf.shape[0] - 1)
    stub = _FixedUniform(u)
    assert draw_channel_index(cdf.tolist(), stub) == expected
    assert stub.calls == 1


# ---------------------------------------------------------------------------
# Engine against the region-based reference loop
# ---------------------------------------------------------------------------


def _explicit_reference():
    """``reference`` under explicit interference: each state's members are
    its one-user-per-station region plus matrices serving several users
    per station, in a shuffled order."""
    cfg, cm = reference_scenario()
    rng = np.random.default_rng(7)
    regions = []
    for h in range(cm.n_states):
        members = full_region(cm, cfg, h)
        shape = (6, cfg.n_stations, cfg.n_users)
        wide = (rng.random(shape) < 0.4) * cm.rates_for(h)
        pool = np.concatenate([members, wide])
        regions.append(pool[rng.permutation(len(pool))])
    cm = dataclasses.replace(cm, interference=EXPLICIT, explicit_regions=tuple(regions))
    assert cm.validate_against(cfg) == []
    return cfg, cm


def _wide_binomial(cfg, cm, max_arrivals, factor, rates):
    """``reference`` with channel rates times ``factor`` and binomial
    arrivals at ``rates`` ({(m, u): rate}, 0.2 on the other links)."""
    matrix = np.where(cfg.adjacency_mask(), 0.2, 0.0)
    for link, rate in rates.items():
        matrix[link] = rate
    cfg = dataclasses.replace(
        cfg, max_arrivals=max_arrivals, max_rate=cfg.max_rate * factor,
        arrival_rates=matrix,
    )
    states = tuple(dataclasses.replace(s, rates=s.rates * factor) for s in cm.states)
    cm = dataclasses.replace(cm, states=states)
    assert cm.validate_against(cfg) == []
    return cfg, cm


def _engine_case(case):
    """(cfg, cm, policy params, run keyword arguments) of one engine check."""
    cfg, cm = reference_scenario()
    if case == "reference":
        q0 = np.random.default_rng(1).integers(0, 6, size=(3, 5))  # off-adjacency too
        return cfg, cm, {"eps_s": 0.1}, {"horizon": 1500, "q0": q0, "j0": [0, 1, 0]}
    if case == "binomial":
        cfg = dataclasses.replace(cfg, max_arrivals=2)
        return cfg, cm, {"eps_s": 0.1}, {"horizon": 1500, "arrival_law": "binomial"}
    if case == "binomial_rates":  # p = 0.2 / 3, 2 / 3 (drawn as 3 - X(1/3)), 1 and 0
        rates = {(0, 0): 3.0, (0, 1): 0.0, (1, 2): 2.0}
        cfg, cm = _wide_binomial(cfg, cm, 3, 4, rates)
        return cfg, cm, {"eps_s": 0.1}, {"horizon": 600, "arrival_law": "binomial"}
    if case == "binomial_regime":
        cfg = dataclasses.replace(cfg, max_arrivals=2)
        regime = RegimeSchedule(changes=((151, 0.5), (251, 1.5)))
        kwargs = {"horizon": 400, "regime": regime, "arrival_law": "binomial"}
        return cfg, cm, {"eps_s": 0.1}, kwargs
    if case == "binomial_btpe":  # rate 20 of 80 by inversion, then 40 by BTPE
        cfg, cm = _wide_binomial(cfg, cm, 80, 40, {(0, 0): 20.0})
        regime = RegimeSchedule(changes=((201, 2.0),))
        kwargs = {"horizon": 400, "regime": regime, "arrival_law": "binomial"}
        return cfg, cm, {"eps_s": 0.1}, kwargs
    if case == "reference_regime":
        scenario = load_scenario(bundled_scenario_path("reference_regime"))
        regime = RegimeSchedule(changes=((151, 0.5), (251, 1.5)))
        kwargs = {"horizon": 400, "regime": regime}
        return scenario.cfg, scenario.cm, scenario.policy_params, kwargs
    if case == "extended_costs":  # every cost term priced, activations switching
        costs = {"switch_on_cost": 0.45, "sleep_cost": 0.2, "active_cost": 1.3}
        return dataclasses.replace(cfg, **costs), cm, {"eps_s": 0.3}, {"horizon": 600}
    if case == "switch_gap":
        return cfg, cm, {"eps_s": 0.3, "min_switch_gap": 3}, {"horizon": 600}
    if case in ("block_regime", "block_every_slot", "binomial_every_slot"):
        # one change inside a block, one on a block boundary
        regime = RegimeSchedule(changes=((10, 0.5), (2 * SMALL_BLOCK + 1, 1.5)))
        params = {"eps_s": 0.3, "update_arrivals_every_slot": case != "block_regime"}
        kwargs = {"horizon": 60, "regime": regime}
        if case == "binomial_every_slot":  # a link with p = 0 takes no uniform
            cfg, cm = _wide_binomial(cfg, cm, 2, 1, {(0, 1): 0.0})
            kwargs["arrival_law"] = "binomial"
        return cfg, cm, params, kwargs
    if case.startswith("block_horizon"):
        horizon = SMALL_BLOCK + int(case.rsplit("_", 1)[1])
        q0 = np.full((3, 5), 2)
        return cfg, cm, {"eps_s": 0.3}, {"horizon": horizon, "q0": q0}
    cfg, cm = _explicit_reference()
    return cfg, cm, {"eps_s": 0.1}, {"horizon": 600}


ENGINE_CASES = [
    "reference",
    "binomial",
    "binomial_rates",
    "binomial_regime",
    "binomial_btpe",
    "reference_regime",
    "explicit",
    "switch_gap",
    "extended_costs",
    "block_regime",
    "block_every_slot",
    "binomial_every_slot",
    "block_horizon_-1",
    "block_horizon_0",
    "block_horizon_1",
]
SMALL_BLOCK = 16  # BLOCK_SLOTS in the "block_*" and "binomial_every_slot" cases


@pytest.mark.parametrize("case", ENGINE_CASES)
@pytest.mark.parametrize("name", POLICY_NAMES)
def test_run_equals_the_region_based_reference_engine(name, case, monkeypatch):
    """Per-station service on flat int queues, with the slots' draws made
    in blocks, gives the trace of Max-Weight over R(j, h) on a numpy queue
    matrix, field by field, and leaves the generator where the slot-by-slot
    reference leaves it."""
    cfg, cm, params, kwargs = _engine_case(case)
    if case.startswith("block_") or case == "binomial_every_slot":
        monkeypatch.setattr(sim, "BLOCK_SLOTS", SMALL_BLOCK)
    # slots drawn slot by slot: a regime that needs BTPE, or one that can restart
    slot_by_slot = {"binomial_btpe": 200, "binomial_rates": 600}.get(case, 0)
    fast = _assert_run_equals_reference(cfg, cm, name, params, kwargs, slot_by_slot)
    assert fast.served.any()
    assert name != "algorithm1" or fast.explore.any()


EVENT_POLICIES = ("always_on", "static_split_mw")  # drawn by draw_block in a pre-drawn regime


def _assert_run_equals_reference(cfg, cm, name, params, kwargs, slot_by_slot, start=None):
    """Run ``name`` by ``run`` and by ``reference_run`` from seed 3, after
    ``start(rng)`` once the policy is built; assert every trace field, the
    generator's next uniform and the policy's activation, resample count
    and last resample slot equal, and return ``run``'s trace. ``run`` must
    call ``Policy.step`` once per slot, or, for ``EVENT_POLICIES``, only on
    the ``slot_by_slot`` slots of regimes that are not pre-drawn."""
    traces, next_uniforms, states, steps = [], [], [], []
    for engine in (run, reference_run):
        rng = np.random.default_rng(3)
        policy = make_policy(name, cfg, cm, rng, params)
        if start is not None:
            start(rng)
        if engine is run:
            policy.step = _counted(policy.step, steps)
        traces.append(engine(cfg, cm, policy, rng=rng, **kwargs))
        next_uniforms.append(rng.random())
        states.append((policy._j, policy.resample_count, policy._last_switch))
    assert next_uniforms[0] == next_uniforms[1]
    assert states[0] == states[1]
    assert len(steps) == (slot_by_slot if name in EVENT_POLICIES else kwargs["horizon"])
    fast, slow = traces
    for field in dataclasses.fields(SimTrace):
        expected = getattr(slow, field.name)
        got = getattr(fast, field.name)
        if isinstance(expected, np.ndarray):
            assert got.dtype == expected.dtype, field.name
        np.testing.assert_array_equal(got, expected, err_msg=field.name)
    return fast


def _counted(function, calls):
    """``function``, appending to ``calls`` on each call."""

    def counted(*args):
        calls.append(args)
        return function(*args)

    return counted


RESTART_LINKS = 10  # adjacency links of the reference network, each with p > 0


def _last_uniform_at(position):
    """A start that makes a generator's uniform at ``position`` from now
    1 - 2**-53, the largest ``random()`` gives."""

    def start(rng):
        force_next_uniform(rng, 2**53 - 1)
        rng.bit_generator.advance((1 << 128) - position)  # PCG64 steps back

    return start


@pytest.mark.parametrize("name", POLICY_NAMES)
@settings(max_examples=15, deadline=None)
@given(position=st.integers(0, 3 * SMALL_BLOCK * (RESTART_LINKS + 1) - 1))
@example(position=0)  # the restarting link's uniform in slot 1
def test_a_restart_anywhere_in_the_stream_gives_the_reference_run(name, position):
    """Binomial(100, 0.01) on one link restarts on 1 - 2**-53, so the run
    draws its arrivals by ``rng.binomial`` slot by slot. With that uniform
    forced at ``position`` of a three-block run (in some slot's arrivals,
    channel draw or policy draws), the run equals the reference."""
    cfg, cm = _wide_binomial(*reference_scenario(), 100, 4, {(0, 0): 1.0})
    assert len(cfg.adjacency) == RESTART_LINKS
    kwargs = {"horizon": 3 * SMALL_BLOCK, "arrival_law": "binomial"}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "BLOCK_SLOTS", SMALL_BLOCK)
        _assert_run_equals_reference(
            cfg, cm, name, {"eps_s": 0.1}, kwargs, kwargs["horizon"], _last_uniform_at(position)
        )


@settings(max_examples=30, deadline=None)
@given(
    eps_s=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    gap=st.integers(0, 5),
    horizon=st.integers(1, 3 * SMALL_BLOCK + 2),
    law=st.sampled_from(ARRIVAL_LAWS),
)
@example(eps_s=1.0, gap=5, horizon=3 * SMALL_BLOCK + 2, law="bernoulli")
def test_resample_events_across_blocks_give_the_reference_run(eps_s, gap, horizon, law):
    """``static_split_mw`` drawn by events, with resample events and switch
    gaps anywhere in or across blocks, equals the slot-by-slot reference."""
    cfg, cm = reference_scenario()
    if law == "binomial":
        cfg = dataclasses.replace(cfg, max_arrivals=2)
    kwargs = {"horizon": horizon, "arrival_law": law}
    params = {"eps_s": eps_s, "min_switch_gap": gap}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "BLOCK_SLOTS", SMALL_BLOCK)
        _assert_run_equals_reference(cfg, cm, "static_split_mw", params, kwargs, 0)


def _arrivals_case(cfg, cm, law):
    """(cfg, cm, arrival law) for ``law``: "bernoulli", "binomial" at
    max_arrivals 2, "btpe" (rate 40 of 80) or "restart" (rate 1 of 100,
    where 1 - 2**-53 restarts)."""
    if law == "binomial":
        return dataclasses.replace(cfg, max_arrivals=2), cm, law
    if law == "btpe":
        return (*_wide_binomial(cfg, cm, 80, 40, {(0, 0): 40.0}), "binomial")
    if law == "restart":
        return (*_wide_binomial(cfg, cm, 100, 4, {(0, 0): 1.0}), "binomial")
    return cfg, cm, law


@pytest.mark.parametrize(
    "name, law, blocks",
    [
        ("always_on", "bernoulli", 3),
        ("static_split_mw", "bernoulli", 3),
        ("static_split_static", "bernoulli", 3),
        ("static_split_mw", "binomial", 3),
        ("static_split_mw", "btpe", 0),
        ("static_split_mw", "restart", 0),
        ("algorithm1", "bernoulli", 3),
        ("algorithm1", "binomial", 3),
        ("algorithm1_tracking", "bernoulli", 3),
    ],
)
def test_which_runs_predraw_their_blocks(reference, monkeypatch, name, law, blocks):
    """Every policy under Bernoulli or inversion-law binomial arrivals takes
    each block's uniforms at once; a regime that needs BTPE, or in which
    some link can restart, draws slot by slot."""
    cfg, cm, law = _arrivals_case(*reference, law)
    calls = []
    uniforms = sim._Uniforms

    def counted(values):
        calls.append(len(values))
        return uniforms(values)

    monkeypatch.setattr(sim, "BLOCK_SLOTS", SMALL_BLOCK)
    monkeypatch.setattr(sim, "_Uniforms", counted)
    rng = np.random.default_rng(0)
    policy = make_policy(name, cfg, cm, rng, {"eps_s": 0.3})
    run(cfg, cm, policy, horizon=2 * SMALL_BLOCK + 1, rng=rng, arrival_law=law)
    assert len(calls) == blocks


@pytest.mark.parametrize("law", ["bernoulli", "binomial", "btpe", "restart"])
@pytest.mark.parametrize("every_slot", [False, True])
def test_learning_policy_builds_its_arrivals_only_when_read(
    reference, monkeypatch, law, every_slot
):
    """The engine hands a learning policy its slot's arrivals as a function;
    they are built on explore slots only, or on every slot when the policy
    updates lambda_hat every slot, whichever reader builds them."""
    cfg, cm, law = _arrivals_case(*reference, law)
    built = []
    for name in ("_block_reader", "_count_reader"):

        def counting(*args, reader=getattr(sim, name)):
            arrivals = reader(*args)

            def counted():
                built.append(1)
                return arrivals()

            return counted

        monkeypatch.setattr(sim, name, counting)
    rng = np.random.default_rng(0)
    params = {"update_arrivals_every_slot": every_slot}
    policy = make_policy("algorithm1", cfg, cm, rng, params)
    trace = run(cfg, cm, policy, horizon=300, rng=rng, arrival_law=law)
    assert len(built) == (300 if every_slot else int(trace.explore.sum())) > 0


@pytest.mark.parametrize(
    "bit_generator, name",
    [
        (np.random.MT19937, "static_split_static"),
        (np.random.Philox, "static_split_static"),
        (np.random.MT19937, "algorithm1_tracking"),
        (np.random.Philox, "algorithm1_tracking"),
    ],
    ids=["MT19937", "Philox", "MT19937-algorithm1_tracking", "Philox-algorithm1_tracking"],
)
def test_block_draws_leave_any_bit_generator_where_slots_would(
    reference, monkeypatch, bit_generator, name
):
    """The generator is put back and moved by the uniforms used, whatever its
    bit generator, also for a learning policy whose draws follow its
    estimates."""
    cfg, cm = reference
    monkeypatch.setattr(sim, "BLOCK_SLOTS", SMALL_BLOCK)
    params = {"eps_s": 0.3, "update_arrivals_every_slot": True}  # static ones ignore it
    traces, next_uniforms = [], []
    for engine in (run, reference_run):
        rng = np.random.Generator(bit_generator(5))
        policy = make_policy(name, cfg, cm, rng, params)
        traces.append(engine(cfg, cm, policy, horizon=3 * SMALL_BLOCK, rng=rng))
        next_uniforms.append(rng.random())
    assert next_uniforms[0] == next_uniforms[1]
    np.testing.assert_array_equal(traces[0].j_bits, traces[1].j_bits)
    np.testing.assert_array_equal(traces[0].total_queue, traces[1].total_queue)
    np.testing.assert_array_equal(traces[0].final_queues, traces[1].final_queues)
