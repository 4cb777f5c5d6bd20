"""Scheduling policies: activation control plus Max-Weight rate allocation.

An activation is an integer id, encoded as ``model`` documents (all ON
is 2**M - 1); ``model.on_stations`` decodes an id's ON stations the
first time ``max_weight`` serves it. ``reset(j0)`` takes the id before
the first slot. A slot has two time scales, and a policy one method for
each. ``step(t, h_index, arrivals, rng)`` makes the slot's draws, which
read no queue: it returns the activation id each policy picks in
``_activation``, the explore flag and, for ``static_split_static`` only,
the service drawn from the planned alpha. ``max_weight(q, j, h_index)``
serves the pre-arrival queues otherwise (the engine applies departures
before arrivals). ``q`` is the engine's flat list of queue lengths, one
int per (station, user) pair in row-major order, and ``arrivals`` holds
the slot's arrival counts in the same order (an int array or list), or a
function of no arguments that returns them when called during ``step``
(the engine passes one, since a policy with estimates mostly does not
read them), and None for a policy without estimates, which never reads
it. The engine's function applies the regime's block sampler to the
uniforms the slot's arrivals took, an int64 array under either law, or,
in a regime drawn slot by slot by ``rng.binomial`` (one that needs BTPE
or in which a draw can restart), lists the counts drawn. A service is a
list of (link, rate) pairs into ``q``, at most one per serving station.
No ``step`` draws more than ``Policy.max_step_draws`` uniforms, so the
engine can draw a block of slots ahead. From such a block ``always_on``
and ``static_split_mw`` make a whole block's draws at once, from event to
event, in ``draw_block``, with the uniforms and the end state ``step``
would take and leave; the other policies return None there.

``max_weight(q, j, h)`` is the Max-Weight rule over R(j, h). Under
one_user_per_station it splits by station (Tassiulas & Ephremides 1992):
each ON station serves the first of its ``station_options`` maximizing
q * r, or idles when that maximum is 0, so no region is enumerated. An
``explicit`` region has no such split, and the method runs the module's
``max_weight(q, region)`` over the region's members.

Randomness is consumed from the uniform source passed into ``step`` (the
generator, or the engine's block of uniforms drawn from it) in a fixed
documented order (resample coin, then the optional activation draw, then
the explore coin for the learning policies, then ``static_split_static``'s
rate draw), so runs are reproducible for a given seed. The optional
``min_switch_gap`` hysteresis suppresses the resample coin entirely (no
uniform is consumed) for the L - 1 slots after a resample event.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left

import numpy as np

from .lp import LpSolution, beta_to_alpha, build_lp, perturb_cost, solve_lp
from .model import NetworkConfig, on_stations
from .rateregion import EXPLICIT, ChannelModel, full_region, station_options
from .sim import draw_channel_index

POLICY_NAMES = (
    "always_on",
    "static_split_mw",
    "static_split_static",
    "algorithm1",
    "algorithm1_tracking",
)

# Every policy parameter a scenario may set, with its default; a policy
# ignores the ones it does not use.
POLICY_DEFAULTS = {
    "eps_s": 0.05,
    "eps_g": 0.05,
    "eps_p": 0.01,
    "learning_floor": 0.001,
    "min_switch_gap": 0,
    "update_arrivals_every_slot": False,
}


def policy_errors(params: dict) -> list[str]:
    """Every problem with a policy's name (if given), parameter keys and values.

    Numeric parameters must be finite real numbers (a bool is none),
    ``min_switch_gap`` a whole one, and ``update_arrivals_every_slot`` a
    bool.
    """
    known = {*POLICY_DEFAULTS, "name"}
    errors = [f"unknown key {k!r}" for k in params if k not in known]
    if "name" in params and params["name"] not in POLICY_NAMES:
        name = params["name"]
        errors.append(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    for key, value in params.items():
        if key not in POLICY_DEFAULTS:
            continue
        if key == "update_arrivals_every_slot":
            if not isinstance(value, (bool, np.bool_)):
                errors.append(f"{key} must be a boolean")
        elif isinstance(value, bool) or not isinstance(value, numbers.Real):
            errors.append(f"{key} must be a number")
        elif key in ("eps_s", "learning_floor") and not 0 <= value <= 1:
            errors.append(f"{key} must lie in [0, 1]")
        elif not value >= 0:  # NaN fails too
            errors.append(f"{key} must be nonnegative")
        elif not math.isfinite(value):
            errors.append(f"{key} must be finite")
        elif key == "min_switch_gap" and value != int(value):
            errors.append(f"{key} must be an integer")
    return errors


class PolicyError(Exception):
    """Raised when a policy cannot be constructed for the scenario."""


def max_weight(q: np.ndarray, region: np.ndarray) -> int:
    """Index of the member of ``region`` (K, M, n) maximizing sum(q * r).

    Ties break toward the earliest member in region order, so empty queues
    pick member 0: the zero matrix under one_user_per_station, whatever
    comes first in an explicit region (which then serves nothing anyway).
    """
    weights = region.reshape(region.shape[0], -1) @ q.ravel()
    return int(np.argmax(weights))


def _pairs(member: np.ndarray) -> list[tuple[int, int]]:
    """A rate matrix as the (link, rate) pairs of its nonzero entries."""
    flat = member.ravel()
    links = np.flatnonzero(flat)
    return list(zip(links.tolist(), flat[links].tolist()))


def _clean_pmf(v: np.ndarray) -> np.ndarray:
    v = np.maximum(v, 0.0)
    total = v.sum()
    if total <= 0:
        raise PolicyError("degenerate activation distribution")
    return v / total


class Policy:
    """Common state: the previous activation, the resample coin, estimates.

    ``regions[j][h]`` is R(j, h), held by the policies that plan with the
    LP and, under explicit interference, by every policy. ``solution`` is
    the planning LP solved under the true parameters, for the policies that
    plan with it.
    ``lp_solves``, ``lp_warm_solves``, ``lp_pivots`` and ``lp_eliminations``
    count the policy's own LP solves, those answered from a warm start, and
    their pivots and basis eliminations.
    A policy with estimates sets both ``mu_hat`` and ``lambda_hat`` and
    counts their changes in ``estimate_version``. ``max_step_draws`` is the
    most uniforms any policy's ``step`` consumes in a slot: the resample
    coin, the activation, then the explore coin or the rate member.
    """

    name = "policy"
    max_step_draws = 3
    mu_hat: np.ndarray | None = None
    lambda_hat: np.ndarray | None = None
    solution: LpSolution | None = None
    lp_solves = 0
    lp_warm_solves = 0
    lp_pivots = 0
    lp_eliminations = 0

    def __init__(
        self,
        cfg: NetworkConfig,
        cm: ChannelModel,
        eps_s: float = 0.0,
        min_switch_gap: int = 0,
        **params,
    ):
        """``params`` are the subclass's other parameters, checked with these."""
        errors = policy_errors(dict(params, eps_s=eps_s, min_switch_gap=min_switch_gap))
        if errors:
            raise PolicyError("; ".join(errors))
        self.cfg = cfg
        self.cm = cm
        self.eps_s = float(eps_s)
        self.min_switch_gap = int(min_switch_gap)
        self._all_on = 2**cfg.n_stations - 1
        self._options = None  # per state and station, under one_user_per_station
        if cm.interference != EXPLICIT:
            self._options = [station_options(cm, cfg, h) for h in range(cm.n_states)]
            self._on: dict[int, list[int]] = {}  # ON stations per id served
        self.reset(self._all_on)

    def reset(self, j0: int) -> None:
        """Start a run from activation id ``j0``; also run at construction."""
        self._j = j0
        self._last_switch = -math.inf
        self.resample_count = 0

    def _solve(self, problem, **kwargs) -> LpSolution:
        """``solve_lp(problem, **kwargs)``, counted in the LP telemetry."""
        solution = solve_lp(problem, **kwargs)
        self.lp_solves += 1
        self.lp_warm_solves += int(solution.warm)
        self.lp_pivots += solution.iterations
        self.lp_eliminations += solution.eliminations
        return solution

    def _resample_coin(self, t: int, rng: np.random.Generator) -> bool:
        """True w.p. eps_s, recording a resample event at slot t.

        Within min_switch_gap slots of the last event the coin is not
        tossed at all: it returns False without consuming a uniform.
        """
        if t - self._last_switch < self.min_switch_gap:
            return False
        if rng.random() >= self.eps_s:
            return False
        self._last_switch = t
        self.resample_count += 1
        return True

    def step(
        self, t: int, h_index: int, arrivals: list[int] | None, rng
    ) -> tuple[int, bool, list[tuple[int, int]] | None]:
        """Slot t's draws, none of which reads the queues: (activation id,
        explore flag, service), where the service is None for a policy that
        serves by ``max_weight`` and the drawn (link, rate) pairs otherwise."""
        j, explore = self._activation(t, h_index, arrivals, rng)
        self._j = j
        return j, explore, None

    def _activation(self, t, h_index, arrivals, rng) -> tuple[int, bool]:
        """(activation id, explore flag) for slot t."""
        raise NotImplementedError

    def draw_block(self, t0: int, slots: int, source, width: int):
        """Slots t0 to t0 + slots - 1's draws from a block of uniforms drawn
        ahead, made from event to event instead of by ``step``, or None for
        a policy whose draws must be made by ``step``.

        Each slot takes ``width`` arrival uniforms and its channel uniform
        from ``source``, then the policy's, none of which reads the slot's
        channel state. Returns each slot's first uniform index as an int
        array and the slots' activation ids (no slot explores or draws its
        service), with ``source.at`` past the block's last uniform and the
        policy in the state ``step`` would leave.
        """
        return None

    def max_weight(self, q: list[int], j: int, h_index: int) -> list[tuple[int, int]]:
        """The first member of R(j, h_index) maximizing the weight q * r,
        as the (link, rate) pairs it serves.

        Under one_user_per_station R(j, h) is the product of per-station
        choices, idle first and station 0 slowest, and the weight is a sum
        over stations, so its first maximizer is each ON station's first
        maximizing option, or idling when that maximum is 0.
        """
        if self._options is None:
            region = self.regions[j][h_index]
            queues = np.reshape(np.asarray(q, dtype=np.int64), region.shape[1:])
            return _pairs(region[max_weight(queues, region)])
        options = self._options[h_index]
        try:
            on = self._on[j]
        except KeyError:
            on = self._on[j] = on_stations(j, self.cfg.n_stations)
        service = []
        for m in on:
            best, weight = None, 0
            for option in options[m]:
                w = q[option[0]] * option[1]
                if w > weight:
                    best, weight = option, w
            if best is not None:
                service.append(best)
        return service


class AlwaysOnMaxWeight(Policy):
    """Keep every station active and serve by Max-Weight."""

    name = "always_on"

    def __init__(self, cfg, cm):
        super().__init__(cfg, cm)
        if cm.interference == EXPLICIT:
            full = [full_region(cm, cfg, h) for h in range(cm.n_states)]
            self.regions = {self._all_on: full}

    def _activation(self, t, h_index, arrivals, rng):
        return self._all_on, False

    def draw_block(self, t0, slots, source, width):
        self._j = self._all_on
        source.at = slots * (width + 1)
        return np.arange(0, source.at, width + 1), [self._all_on] * slots


class StaticSplitMaxWeight(Policy):
    """Resample the activation from the planned sigma, serve by Max-Weight.

    The induced activation chain is exactly the resample-or-hold kernel
    eps_s * 1 sigma^T + (1 - eps_s) * I over the activations.
    """

    name = "static_split_mw"

    def __init__(self, cfg, cm, eps_s: float, eps_g: float, min_switch_gap: int = 0):
        super().__init__(cfg, cm, eps_s, min_switch_gap, eps_g=eps_g)
        self.eps_g = float(eps_g)
        self.problem = build_lp(cfg, cm, eps_g=eps_g)
        self.regions = self.problem.regions
        solution = self._solve(self.problem)
        if solution.status != "optimal":
            raise PolicyError(
                "planning LP is infeasible: the scenario cannot be stabilized "
                f"with slack eps_g={eps_g}"
            )
        self.solution = solution
        self.sigma_star = _clean_pmf(solution.sigma)
        self._sigma_cdf = np.cumsum(self.sigma_star).tolist()
        self.planned_cost = float(solution.objective)

    def _activation(self, t, h_index, arrivals, rng):
        if self._resample_coin(t, rng):
            return draw_channel_index(self._sigma_cdf, rng), False
        return self._j, False

    def draw_block(self, t0, slots, source, width):
        """A slot takes a resample coin after its channel uniform, except
        inside ``min_switch_gap``, and one activation uniform after a coin
        below eps_s. Between two such events the coins sit a fixed stride
        apart, so the next one below eps_s is one search among the block's
        uniforms below eps_s."""
        stride = width + 2  # a slot's uniforms with a coin
        # Each uniform below eps_s as a key: its column, then its row, in rows
        # of ``stride`` uniforms. The coins from slot t on sit in one column,
        # so the next hit among them is the next key; a key in a later column
        # lies past the block's last coin, which is in ``source``.
        span = -(-source.array.size // stride)
        below = np.zeros(span * stride, dtype=bool)
        below[: source.array.size] = source.array < self.eps_s
        keys = np.flatnonzero(below.reshape(span, stride).T).tolist() + [stride * span]
        sizes = np.full(slots, stride)
        ids, events = [], []
        j, last, gap = self._j, self._last_switch, self.min_switch_gap
        t, end, at = t0, t0 + slots, 0  # slot t's first uniform is u[at]
        while t < end:
            held = min(end, last + gap) - t
            if held > 0:  # no coin is tossed inside the gap
                sizes[t - t0 : t - t0 + held] = stride - 1
                ids += [j] * held
                t, at = t + held, at + held * (stride - 1)
                continue
            row, col = divmod(at + stride - 1, stride)  # slot t's coin
            key = col * span + row
            held = min(keys[bisect_left(keys, key)] - key, end - t)  # slots before the event
            ids += [j] * held
            t, at = t + held, at + held * stride
            if t < end:  # a resample event at slot t
                events.append(t - t0)
                source.at = at + stride
                j = draw_channel_index(self._sigma_cdf, source)
                ids.append(j)
                last, t, at = t, t + 1, at + stride + 1
        self._j, self._last_switch = j, last
        self.resample_count += len(events)
        sizes[events] += 1  # the activation uniform
        ends = np.cumsum(sizes)
        source.at = int(ends[-1])
        return ends - sizes, ids


class StaticSplitStatic(StaticSplitMaxWeight):
    """Resample the activation and also draw rates from the planned alpha.

    Ignores the queues entirely; only useful to validate that the planning
    LP's offered rates are what the simulation actually delivers.
    """

    name = "static_split_static"
    draw_block = Policy.draw_block  # the rate draw reads the slot's channel state

    def __init__(self, cfg, cm, eps_s: float, eps_g: float, min_switch_gap: int = 0):
        super().__init__(cfg, cm, eps_s, eps_g, min_switch_gap)
        alpha = beta_to_alpha(self.problem, self.solution)
        self._alpha_cdf = {key: np.cumsum(pmf).tolist() for key, pmf in alpha.items()}

    def step(self, t, h_index, arrivals, rng):
        j, explore = self._activation(t, h_index, arrivals, rng)
        self._j = j
        member = draw_channel_index(self._alpha_cdf[(j, h_index)], rng)
        return j, explore, _pairs(self.regions[j][h_index][member])


class LearningMaxWeight(Policy):
    """Explore-exploit scheduling without prior channel or traffic knowledge.

    Holds a baseline activation j_tilde that is resampled at rate eps_s from
    the solution of the planning LP under current estimates (mu_hat,
    lambda_hat), with the cost vector perturbed once at construction so the
    LP optimum is unique. Independently, each slot t is an explore slot with
    probability 2 ln(t) / t: all stations turn on (so the actual activation
    always dominates j_tilde), the full channel state is observed, and the
    estimates are updated from this slot's channel state and arrivals.
    Exploit slots use j_tilde as is. Rates always come from Max-Weight on
    the restricted region.

    Until the first explore slot there are no estimates; resample events
    then leave j_tilde unchanged, as they also do whenever the estimated LP
    is infeasible.

    Each re-solve warm starts the simplex from the optimal basis of the
    last optimal re-solve, which stays optimal or nearly so while the
    estimates move little, and with the elimination of that basis which the
    re-solve's certificate made, which the next one reuses while the
    basis's columns of the estimated A and their costs have not moved;
    ``reset`` drops both, so every run starts cold and its solves
    depend on nothing but its own history. With eps_p > 0 the re-solves
    pivot by Dantzig's rule, which takes fewer pivots than Bland's and,
    the optimum being unique, ends at the same vertex; with eps_p = 0 the
    optimum may not be unique, and they keep Bland's rule.

    The tracking variant keeps both the explore probability and the
    estimate learning rate from decaying below ``learning_floor`` so the
    policy follows slow changes in the arrival process.
    """

    name = "algorithm1"

    def __init__(
        self,
        cfg,
        cm,
        eps_s: float,
        eps_p: float,
        eps_g: float,
        rng: np.random.Generator,
        tracking: bool = False,
        learning_floor: float = POLICY_DEFAULTS["learning_floor"],
        update_arrivals_every_slot: bool = False,
        min_switch_gap: int = 0,
    ):
        checked = {"eps_p": eps_p, "eps_g": eps_g, "learning_floor": learning_floor}
        super().__init__(cfg, cm, eps_s, min_switch_gap, **checked)
        self.eps_p = float(eps_p)
        self.eps_g = float(eps_g)
        self.tracking = bool(tracking)
        self.learning_floor = float(learning_floor)
        self.update_arrivals_every_slot = bool(update_arrivals_every_slot)
        if self.tracking:
            self.name = "algorithm1_tracking"

        self.problem = build_lp(cfg, cm, eps_g=eps_g)
        self.regions = self.problem.regions
        self.cost = perturb_cost(self.problem, eps_p, rng)

    def reset(self, j0: int) -> None:
        super().reset(j0)
        self._j_tilde = j0
        self.mu_hat = np.zeros(self.cm.n_states)
        self.lambda_hat = np.zeros((self.cfg.n_stations, self.cfg.n_users))
        self.explore_count = 0
        self._lambda_count = 0
        self._estimate_version = 0
        self._solved_version = -1
        self._sigma_hat: np.ndarray | None = None
        self._sigma_hat_cdf: list[float] = []
        self._basis: np.ndarray | None = None
        self._elimination = None
        self.lp_solves = self.lp_warm_solves = self.lp_pivots = 0
        self.lp_eliminations = 0

    def explore_probability(self, t: int) -> float:
        base = 2.0 * math.log(t) / t if t >= 1 else 0.0
        if self.tracking:
            base = max(base, self.learning_floor)
        return min(base, 1.0)

    def _learning_rate(self, count: int) -> float:
        """Step size 1/count of a running-mean estimate, floored if tracking."""
        rate = 1.0 / count
        if self.tracking:
            rate = max(rate, self.learning_floor)
        return rate

    def _resample_j_tilde(self, rng: np.random.Generator) -> None:
        """Resample event: refresh sigma_hat if estimates moved, then draw.

        The LP depends only on the estimates, and the solver is
        deterministic, so re-solving with unchanged estimates would return
        the identical sigma_hat; the solution is cached per estimate
        version. A re-solve starts from the basis of the last optimal one.
        With eps_p > 0 the perturbed cost makes the optimum unique, so it
        pivots by Dantzig's rule: a warm or cold start, by either rule,
        returns the same vertex, whose sigma_hat may differ only in its last
        bits. Without estimates, or when the estimated LP is infeasible,
        j_tilde stays as it is, and an infeasible re-solve keeps the
        previous basis.
        """
        if self.explore_count == 0 and self._lambda_count == 0:
            return
        if self._solved_version != self._estimate_version:
            solution = self._solve(
                self.problem,
                cost=self.cost,
                mu=self.mu_hat,
                lam=self.lambda_hat,
                basis=self._basis,
                elimination=self._elimination,
                dantzig=self.eps_p > 0,
            )
            self._sigma_hat = None
            if solution.status == "optimal":
                self._sigma_hat = _clean_pmf(solution.sigma)
                self._sigma_hat_cdf = np.cumsum(self._sigma_hat).tolist()
                self._basis = solution.basis
                self._elimination = solution.elimination
            self._solved_version = self._estimate_version
        if self._sigma_hat is not None:
            self._j_tilde = draw_channel_index(self._sigma_hat_cdf, rng)

    def _update_estimates(self, h_index: int, arrivals: np.ndarray) -> None:
        self.explore_count += 1
        rate = self._learning_rate(self.explore_count)
        onehot = np.zeros(self.cm.n_states)
        onehot[h_index] = 1.0
        self.mu_hat += rate * (onehot - self.mu_hat)
        if not self.update_arrivals_every_slot:
            self.lambda_hat += rate * (arrivals - self.lambda_hat)
        self._estimate_version += 1

    def _activation(self, t, h_index, arrivals, rng):
        if self._resample_coin(t, rng):
            self._resample_j_tilde(rng)
        explore = rng.random() < self.explore_probability(t)
        if explore or self.update_arrivals_every_slot:
            if callable(arrivals):
                arrivals = arrivals()
            arrivals = np.reshape(arrivals, self.lambda_hat.shape)
        if explore:
            self._update_estimates(h_index, arrivals)
        if self.update_arrivals_every_slot:
            self._lambda_count += 1
            rate = self._learning_rate(self._lambda_count)
            self.lambda_hat += rate * (arrivals - self.lambda_hat)
            self._estimate_version += 1
        return (self._all_on if explore else self._j_tilde), explore

    @property
    def j_tilde(self) -> int:
        """The baseline activation id."""
        return self._j_tilde

    @property
    def estimate_version(self) -> int:
        """Number of estimate updates since ``reset``."""
        return self._estimate_version


def make_policy(
    name: str,
    cfg: NetworkConfig,
    cm: ChannelModel,
    rng: np.random.Generator,
    params: dict | None = None,
) -> Policy:
    """Build a policy by its configuration name.

    ``params`` overrides ``POLICY_DEFAULTS``. ``rng`` is only consumed by
    policies that randomize their construction (the learning policies draw
    their cost perturbation direction).
    """
    errors = policy_errors({**(params or {}), "name": name})
    if errors:
        raise PolicyError("; ".join(errors))
    p = {key: (params or {}).get(key, value) for key, value in POLICY_DEFAULTS.items()}
    if name == "always_on":
        return AlwaysOnMaxWeight(cfg, cm)
    if name in ("algorithm1", "algorithm1_tracking"):
        tracking = name == "algorithm1_tracking"
        return LearningMaxWeight(cfg, cm, rng=rng, tracking=tracking, **p)
    shared = {key: p[key] for key in ("eps_s", "eps_g", "min_switch_gap")}
    cls = StaticSplitMaxWeight if name == "static_split_mw" else StaticSplitStatic
    return cls(cfg, cm, **shared)
