"""Slot-by-slot simulation engine.

Event order inside slot t: arrivals are drawn, the policy picks the
activation id and the slot's service from R(j, h) for the observed
channel state, transmissions depart (capped by queue content), and the
slot's arrivals join the queues. The queue recorded for slot t is the
pre-arrival queue the policy weighted, so Q(t+1) = Q(t) - departures +
A(t). Each slot's cost is priced after the loop, from the trace's
activation ids in one ``network_cost`` call.

No draw reads the queues: only ``Policy.max_weight`` does. So ``run``
takes the slots in blocks of ``BLOCK_SLOTS``, split at regime changes, in
two passes. Pass 1 makes each slot's draws: the arrivals, the channel
state and ``Policy.step`` (the activation, the explore flag and any drawn
service). In a block drawn ahead (below), a policy whose draws read
neither the arrivals nor the channel state (``always_on``,
``static_split_mw``) makes them from event to event in
``Policy.draw_block`` instead, without ``step``; each slot's channel
uniform still directly follows its arrivals, so the block's channel
states come from one ``np.searchsorted``, clamped as
``draw_channel_index`` clamps. Pass 2 is the one serve-and-queue loop
for every policy: it serves by ``Policy.max_weight`` unless the service
was drawn, on a flat list of Python ints, one per (station, user) pair
in row-major order, so the queue update, the total queue and its sum of
squares take no numpy call.

All randomness comes from a single generator with a fixed draw order per
slot: the arrivals first, then one uniform for the channel state, then
whatever the policy consumes. Identical configuration and seed give
byte-identical traces, and blocks change no draw. Except in a regime
drawn slot by slot (below), pass 1 draws as many uniforms as the block's
slots could take (no ``step`` takes more than ``Policy.max_step_draws``)
in one call, hands them out in that order, and computes the block's
arrivals after the loop by the regime's block sampler, in one numpy call
on every slot's window of uniforms. A policy with estimates gets its
slot's arrivals as a function that builds them only when the policy
reads them: by the same sampler on the slot's window, or, slot by slot,
from the slot's counts. The generator then moves by exactly the uniforms
used.

The stream is the one ``rng.random((M, n)) < rates`` or
``rng.binomial(max_arrivals, rates / max_arrivals)`` gives, per link in
row-major order. Bernoulli arrivals take all M * n uniforms and test the
adjacency links (``_Bernoulli``). Binomial arrivals follow numpy's
inversion sampler: a link with p = 0 takes no uniform, p > 0.5 draws
n - X(1 - p), and each draw takes one uniform plus one per restart, a
restart being a draw that passes the sampler's bound.
``_Inversion.counts`` computes a block's counts from a (slots x K)
matrix of uniforms by the sampler's own px recursion, subtractions and
tests, bit for bit, which holds while no uniform restarts. ``fl(v - px)``
never decreases as the uniform v grows, so some uniform restarts a link
exactly when 1 - 2**-53 does (``_can_restart``). That depends on the
rate: no bundled scenario's rate can restart, but at max_arrivals 2
about one p in thirteen between 0.13 and 0.86 can. A regime in which
some link can restart, or expects more than 30 arrivals (or misses more
than 30) and so needs numpy's BTPE sampler, has no block sampler: it
calls ``rng.binomial`` on the adjacency links, slot by slot.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from numbers import Integral, Real
from typing import TYPE_CHECKING

import numpy as np

from .model import NetworkConfig, activation_id, all_on, network_cost
from .rateregion import ChannelModel

if TYPE_CHECKING:  # policies imports draw_channel_index from this module
    from .policies import Policy

ARRIVAL_LAWS = ("bernoulli", "binomial")
BLOCK_SLOTS = 1024  # slots per block: pass 1 draws them all, then pass 2 serves


@dataclass(frozen=True)
class RegimeSchedule:
    """Piecewise-constant scaling of the arrival rates.

    ``changes`` holds (start_slot, scale) pairs; a scale applies from its
    start slot (an integer, inclusive, 1-based) until the next change.
    Slots before the first change use scale 1.0.
    """

    changes: tuple[tuple[int, float], ...]

    def __post_init__(self):
        starts = [s for s, _ in self.changes]
        if any(isinstance(s, bool) or not isinstance(s, Integral) or s < 1 for s in starts):
            raise ValueError("regime start slots must be 1-based integers")
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ValueError("regime start slots must be strictly increasing")
        scales = [scale for _, scale in self.changes]
        if any(isinstance(c, bool) or not isinstance(c, Real) for c in scales):
            raise ValueError("regime scales must be real numbers")
        if any(not 0 < scale < np.inf for scale in scales):  # written so that NaN fails
            raise ValueError("regime scales must be positive and finite")

    def boundaries(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.changes)


@dataclass
class SimTrace:
    """Per-slot records of one run plus end-of-run state.

    ``total_queue`` and ``v_quad`` describe the pre-arrival queue of each
    slot (sum and sum of squares); ``cost`` is the activation cost paid in
    the slot; ``j_bits`` is the slot's activation id;
    ``mu_err`` / ``lambda_err`` are L1 estimate errors against the true
    channel pmf and the currently effective arrival rates (NaN for
    policies without estimates).
    """

    policy_name: str
    horizon: int
    total_queue: np.ndarray
    v_quad: np.ndarray
    cost: np.ndarray
    served: np.ndarray
    j_bits: np.ndarray
    explore: np.ndarray
    mu_err: np.ndarray
    lambda_err: np.ndarray
    final_queues: np.ndarray

    @property
    def avg_cost(self) -> float:
        return float(self.cost.mean())

    @property
    def switch_count(self) -> int:
        """Slots whose activation differs from the previous slot's."""
        return int(np.count_nonzero(np.diff(self.j_bits)))

    def running_avg_cost(self) -> np.ndarray:
        return np.cumsum(self.cost) / np.arange(1, self.horizon + 1)

    def windowed_cost(self, window: int = 200) -> np.ndarray:
        """Mean cost over the trailing ``window`` slots (shorter at the start)."""
        if window < 1:
            raise ValueError("window must be >= 1")
        csum = np.concatenate([[0.0], np.cumsum(self.cost)])
        t = np.arange(1, self.horizon + 1)
        lo = np.maximum(t - window, 0)
        return (csum[t] - csum[lo]) / (t - lo)


def draw_channel_index(cum_pmf: list[float], rng: np.random.Generator) -> int:
    """Inverse-CDF draw from a cumulative pmf, consuming exactly one uniform.

    ``cum_pmf`` is a list of Python floats (callers convert once); the
    index is the first entry above the uniform, as with
    ``np.searchsorted(side="right")``, clamped to the last entry for a CDF
    that ends below 1. The package's only categorical draw: channel states
    here, activations and rate members in the policies.
    """
    return min(bisect_right(cum_pmf, rng.random()), len(cum_pmf) - 1)


def _px_steps(n: int, p: float) -> list[float]:
    """The px that numpy's inversion at (n, p), 0 < p <= 0.5, tests for
    counts 0 to its bound. The first must be exp(n * log1p(-p)):
    exp(n * log(1 - p)) is an ulp off at some p."""
    q = 1.0 - p
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    steps = [math.exp(n * math.log1p(-p))]
    for x in range(1, bound + 1):
        steps.append(((n - x + 1) * p * steps[-1]) / (x * q))
    return steps


def _can_restart(steps: list[float]) -> bool:
    """Whether some uniform makes a draw testing ``_px_steps`` pass its bound
    and restart. ``fl(v - px)`` never decreases as v grows, so one does
    exactly when the largest, 1 - 2**-53, does."""
    v = 1.0 - 2.0**-53
    for px in steps:
        if not v > px:
            return False
        v -= px
    return True


class _Bernoulli:
    """A Bernoulli regime's block sampler: each slot takes ``width`` (M * n)
    uniforms, and ``counts`` tests those at ``offsets`` against the rates of
    ``links`` (the adjacency links, row-major)."""

    __slots__ = ("width", "offsets", "links", "rates")

    def __init__(self, width: int, links: np.ndarray, rates: np.ndarray):
        self.width, self.offsets, self.links, self.rates = width, links, links, rates

    def counts(self, u: np.ndarray) -> np.ndarray:
        """Whether each uniform in the last axis of ``u`` is below its link's rate."""
        return u < self.rates


class _Inversion:
    """A binomial(n, p) regime's block sampler by numpy's inversion: each
    slot takes one uniform per link with p > 0 (``links``, row-major), at
    ``offsets`` 0 to ``width`` - 1. ``steps`` holds each link's ``_px_steps``
    as a column (+inf past its bound) at min(p, 1 - p), and ``flip`` marks
    the links with p > 0.5, drawn as n - X(1 - p)."""

    __slots__ = ("n", "width", "offsets", "links", "steps", "flip")

    def __init__(self, n: int, links: list[int], flip: list[bool], columns: list[list[float]]):
        self.n, self.width = n, len(links)
        self.offsets = np.arange(self.width)
        self.links = np.array(links, dtype=np.intp)
        self.steps = np.full((max(map(len, columns), default=1), self.width), np.inf)
        for col, column in enumerate(columns):
            self.steps[: len(column), col] = column
        self.flip = np.array(flip, dtype=bool)

    def counts(self, u: np.ndarray) -> np.ndarray:
        """The draws from uniforms whose last axis runs over ``links``, none
        of which restarts: numpy's subtractions and tests, one count at a
        time over the whole array."""
        count = np.zeros(u.shape, dtype=np.int64)
        alive = np.ones(u.shape, dtype=bool)
        for px in self.steps:
            alive &= u > px
            if not alive.any():
                break
            count += alive
            u = u - px
        count[..., self.flip] = self.n - count[..., self.flip]
        return count


def _inversion(n: int, probs: list[tuple[int, float]]) -> _Inversion | None:
    """The block sampler for binomial(n, p) on each (link, p), or None if
    some link needs numpy's BTPE (min(p, 1 - p) * n > 30) or can restart."""
    links, flip, columns = [], [], []
    for link, p in probs:
        if p == 0:  # numpy takes no uniform
            continue
        flip.append(p > 0.5)
        p = min(p, 1.0 - p)
        if p * n > 30.0:
            return None
        steps = _px_steps(n, p)
        if _can_restart(steps):
            return None
        links.append(link)
        columns.append(steps)
    return _Inversion(n, links, flip, columns)


def _scales(regime: RegimeSchedule | None) -> dict[int, float]:
    """{start slot: scale} for every scale ``regime`` applies, slot 1 first."""
    return dict(((1, 1.0), *(regime.changes if regime is not None else ())))


def arrival_errors(
    cfg: NetworkConfig | None, arrival_law: str, regime: RegimeSchedule | None
) -> list[str]:
    """Problems drawing ``arrival_law`` arrivals at each distinct scale ``regime``
    applies, slot 1's first; without a ``cfg`` only the law is checked."""
    if arrival_law not in ARRIVAL_LAWS:
        return [f"arrival_law must be one of {ARRIVAL_LAWS}"]
    if cfg is None:
        return []
    limit = 1 if arrival_law == "bernoulli" else cfg.max_arrivals
    rates = np.asarray(cfg.arrival_rates, dtype=float)
    return [
        f"{arrival_law} arrivals need rate <= {limit}; got scale {scale}"
        for scale in dict.fromkeys(_scales(regime).values())
        if np.any(rates * scale > limit)
    ]


def _queue_matrix(q0) -> np.ndarray | None:
    """``q0`` as an int64 array, or None if some entry is not a whole number
    that int64 holds."""
    q = np.asarray(q0)
    if q.dtype.kind not in "biuf" or (q.dtype.kind == "f" and not (abs(q) < 2.0**63).all()):
        return None
    whole = q.astype(np.int64)
    return whole if np.array_equal(whole, q) else None


class _Uniforms:
    """A block of uniforms drawn ahead, handed out in stream order by
    ``random()`` as the generator would; ``at`` is the next one's index.
    ``array`` holds the same uniforms for a policy's ``draw_block``."""

    __slots__ = ("array", "values", "at")

    def __init__(self, values: np.ndarray):
        self.array = values
        self.values = memoryview(values)  # indexing gives Python floats
        self.at = 0

    def random(self) -> float:
        at = self.at
        self.at = at + 1
        return self.values[at]


def _block_reader(u: np.ndarray, starts: list[int], sampler, size: int):
    """The current slot's arrival counts, by ``sampler`` on its window of
    ``u`` at the last of ``starts``, as a function that builds them, an
    int64 array of ``size``, when called."""

    def arrivals() -> np.ndarray:
        counts = np.zeros(size, dtype=np.int64)
        counts[sampler.links] = sampler.counts(u[starts[-1] + sampler.offsets])
        return counts

    return arrivals


def _count_reader(arrived: list[tuple], bounds: list[int], size: int):
    """The current slot's arrival counts, the (link, count) pairs after the
    second-last of ``bounds``, as a function that builds them when called."""

    def arrivals() -> list[int]:
        counts = [0] * size
        for link, n_new in arrived[bounds[-2] : bounds[-1]]:
            counts[link] = n_new
        return counts

    return arrivals


def run(
    cfg: NetworkConfig,
    cm: ChannelModel,
    policy: Policy,
    horizon: int,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    regime: RegimeSchedule | None = None,
    j0: np.ndarray | None = None,
    q0: np.ndarray | None = None,
    arrival_law: str = "bernoulli",
) -> SimTrace:
    """Simulate ``horizon`` slots and return the trace.

    Arrivals are i.i.d. per link with mean arrival_rates (times the regime
    scale): Bernoulli by default, or binomial(max_arrivals, rate /
    max_arrivals). ``j0`` is the activation before the first slot (all ON
    by default) and ``q0`` the initial queue matrix of whole numbers (empty
    by default). Pass either a seed or an existing generator; a shared
    generator lets the caller make policy-construction draws part of the
    same stream. Every input, each regime scale included, is checked
    before slot 1.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if rng is None:
        rng = np.random.default_rng(seed)

    shape = (cfg.n_stations, cfg.n_users)
    q = np.zeros(shape, dtype=np.int64) if q0 is None else _queue_matrix(q0)
    if q is None or q.shape != shape or np.any(q < 0):
        raise ValueError("q0 must be a nonnegative integer matrix of shape (M, n)")
    j0 = all_on(cfg.n_stations) if j0 is None else np.asarray(j0)
    if j0.shape != (cfg.n_stations,) or not np.isin(j0, (0, 1)).all():
        raise ValueError("j0 must be a 0/1 vector of length M")
    errors = arrival_errors(cfg, arrival_law, regime)
    if errors:
        raise ValueError(errors[0])
    j0_id = activation_id(j0)
    policy.reset(j0_id)

    size = cfg.n_stations * cfg.n_users
    n_max = cfg.max_arrivals
    bernoulli = arrival_law == "bernoulli"
    # numpy draws in row-major order, so the links are taken in that order
    links = sorted(m * cfg.n_users + u for m, u in cfg.adjacency)
    link_array = np.array(links, dtype=np.intp)
    regimes = {}  # start slot: (rates, block sampler or None, the links' binomial p)
    for start, scale in _scales(regime).items():
        rates = np.asarray(cfg.arrival_rates, dtype=float) * scale
        link_rates = rates.ravel()[link_array]
        if bernoulli:
            regimes[start] = (rates, _Bernoulli(size, link_array, link_rates), None)
        else:
            ps = link_rates / n_max
            regimes[start] = (rates, _inversion(n_max, list(zip(links, ps.tolist()))), ps)
    cum_array = np.cumsum(np.asarray(cm.pmf, dtype=float))
    cum_pmf = cum_array.tolist()
    true_mu = np.asarray(cm.pmf, dtype=float)
    has_estimates = policy.mu_hat is not None

    trace = SimTrace(
        policy_name=policy.name,
        horizon=horizon,
        total_queue=np.zeros(horizon, dtype=np.int64),
        v_quad=np.zeros(horizon, dtype=np.int64),
        cost=np.zeros(horizon),  # priced from j_bits after the loop
        served=np.zeros(horizon, dtype=np.int64),
        j_bits=np.zeros(horizon, dtype=np.int64),
        explore=np.zeros(horizon, dtype=bool),
        mu_err=np.full(horizon, np.nan),
        lambda_err=np.full(horizon, np.nan),
        final_queues=q,
    )
    step, serve = policy.step, policy.max_weight

    q = q.ravel().tolist()  # flat Python ints from here on
    total = sum(q)
    v = sum(x * x for x in q)
    t0 = 1
    while t0 <= horizon:
        # pass 1: the block's draws, none of which reads the queues
        if t0 in regimes:
            rates_now, sampler, ps = regimes[t0]
            predraw = sampler is not None
            seen_version = None  # lambda_err is against the new rates
            end = min([s for s in regimes if s > t0], default=horizon + 1)
        t1 = min(t0 + BLOCK_SLOTS, end, horizon + 1)
        block = slice(t0 - 1, t1 - 1)
        arrived, bounds = [], [0]
        source, drawn = rng, None
        if predraw:  # every uniform the block's slots could take, at once
            saved = rng.bit_generator.state
            width = sampler.width
            u = rng.random((t1 - t0) * (width + 1 + policy.max_step_draws))
            source = _Uniforms(u)
            starts = []
            drawn = policy.draw_block(t0, t1 - t0, source, width)
        if drawn is not None:  # by events: a slot's channel uniform follows its arrivals
            starts, ids = drawn
            states = np.searchsorted(cum_array, u[starts + width], side="right")
            states = np.minimum(states, len(cum_pmf) - 1).tolist()
            slots = zip(states, ids, repeat(False), repeat(None))
        else:
            slots = []
            a = None
            if has_estimates:  # only the learning policies read them, and mostly not
                if predraw:
                    a = _block_reader(u, starts, sampler, size)
                else:
                    a = _count_reader(arrived, bounds, size)
            for t in range(t0, t1):
                if predraw:  # the arrivals are computed in numpy after the loop
                    at = source.at
                    starts.append(at)
                    source.at = at + width
                else:
                    counts = rng.binomial(n_max, ps).tolist()
                    arrived += [(k, x) for k, x in zip(links, counts) if x]
                    bounds.append(len(arrived))
                h = draw_channel_index(cum_pmf, source)
                slots.append((h, *step(t, h, a, source)))
                if has_estimates:  # they change only with the estimates or rates
                    if policy.estimate_version != seen_version:
                        seen_version = policy.estimate_version
                        mu_e = float(np.abs(policy.mu_hat - true_mu).sum())
                        lambda_e = float(np.abs(policy.lambda_hat - rates_now).sum())
                    trace.mu_err[t - 1] = mu_e
                    trace.lambda_err[t - 1] = lambda_e
            ids = [record[1] for record in slots]
            trace.explore[block] = [record[2] for record in slots]
        if predraw:  # put the generator back, moved by the uniforms used
            rng.bit_generator.state = saved
            rng.random(source.at)
            counts = sampler.counts(u[np.add.outer(starts, sampler.offsets)])
            slot, col = np.nonzero(counts)
            n_new = repeat(1) if bernoulli else counts[slot, col].tolist()
            arrived = list(zip(sampler.links[col].tolist(), n_new))
            bounds = np.searchsorted(slot, np.arange(t1 - t0 + 1)).tolist()

        # pass 2: serve and update the queues, slot by slot
        totals, squares, departures = [], [], []
        for (h, j, _, service), lo, hi in zip(slots, bounds, bounds[1:]):
            totals.append(total)
            squares.append(v)
            if service is None:
                service = serve(q, j, h)
            departed = 0
            for link, rate in service:
                x = q[link]
                d = rate if rate < x else x
                q[link] = x - d
                v -= d * (x + x - d)
                departed += d
            departures.append(departed)
            total -= departed
            for link, n_new in arrived[lo:hi]:
                x = q[link]
                q[link] = x + n_new
                v += n_new * (x + x + n_new)
                total += n_new
        trace.total_queue[block] = totals
        trace.v_quad[block] = squares
        trace.served[block] = departures
        trace.j_bits[block] = ids
        t0 = t1

    previous = np.concatenate(([j0_id], trace.j_bits[:-1]))
    trace.cost = network_cost(previous, trace.j_bits, cfg)
    trace.final_queues = np.array(q, dtype=np.int64).reshape(shape)
    return trace


@dataclass
class DriftDiagnostic:
    """T-step quadratic Lyapunov drift, conditioned on large queues.

    ``series[t-1]`` is V(Q(t+T)) - V(Q(t)) with V the sum of squared queue
    lengths. ``conditional_mean`` averages the drift over slots whose total
    pre-arrival queue exceeds the threshold (NaN when no slot qualifies);
    a negative value is the stability signature, a positive one indicates
    queue growth.
    """

    horizon_steps: int
    threshold: float
    series: np.ndarray
    slots_above: int
    conditional_mean: float


def drift_diagnostic(
    trace: SimTrace, horizon_steps: int = 100, threshold: float = 0.0
) -> DriftDiagnostic:
    if not 1 <= horizon_steps < trace.horizon:
        raise ValueError("horizon_steps must lie in [1, horizon)")
    v = trace.v_quad.astype(float)
    series = v[horizon_steps:] - v[: -horizon_steps]
    above = trace.total_queue[: -horizon_steps] > threshold
    count = int(np.count_nonzero(above))
    mean = float(series[above].mean()) if count else float("nan")
    return DriftDiagnostic(horizon_steps, threshold, series, count, mean)


def stability_fraction(
    trace: SimTrace,
    q_bar: float,
    start_slot: int = 1,
    end_slot: int | None = None,
) -> float:
    """Fraction of slots in [start_slot, end_slot] with total queue <= q_bar."""
    end_slot = trace.horizon if end_slot is None else end_slot
    if not 1 <= start_slot <= end_slot <= trace.horizon:
        raise ValueError("invalid slot window")
    window = trace.total_queue[start_slot - 1 : end_slot]
    return float(np.count_nonzero(window <= q_bar)) / window.shape[0]
