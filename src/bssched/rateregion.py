"""Channel model and feasible service-rate regions.

A channel state fixes the per-link rate matrix available in a slot. The
feasible region R(j, h) is the finite set of rate matrices the scheduler may
pick from when the activation vector is j and the channel state is h. With
every station active the region is R(1, h); switching stations off only
removes choices: R(j, h) = {r * j : r in R(1, h)}, so regions are nested
along the activation partial order.

Two interference models are supported. "one_user_per_station" builds the
region combinatorially: each active station either idles or serves exactly
one adjacent user at that link's current rate (its ``station_options``,
which the per-station Max-Weight in the policies reads too), and R(j, h) is
the members of R(1, h) whose OFF stations already idle. "explicit" takes
each state's member list straight from the configuration; its R(j, h)
masks the members and drops repeats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NetworkConfig, enumerate_activations

ONE_USER_PER_STATION = "one_user_per_station"
EXPLICIT = "explicit"


@dataclass(frozen=True)
class ChannelState:
    """One channel state: a name plus the per-link rate matrix."""

    name: str
    rates: np.ndarray  # (n_stations, n_users), integer, zero off-adjacency


@dataclass(frozen=True)
class ChannelModel:
    """I.i.d. channel: states with probabilities, plus the interference rule.

    ``explicit_regions`` is only used when ``interference == "explicit"``;
    it lists, per channel state, every member of R(1, h) as an array of
    shape (K, n_stations, n_users).
    """

    states: tuple[ChannelState, ...]
    pmf: np.ndarray
    interference: str = ONE_USER_PER_STATION
    explicit_regions: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.shape != (len(self.states),):
            raise ValueError("pmf length must match number of states")
        # written so that NaN entries fail
        if not (np.all(pmf >= 0) and abs(pmf.sum() - 1.0) <= 1e-9):
            raise ValueError("pmf must be a probability vector")
        if self.interference not in (ONE_USER_PER_STATION, EXPLICIT):
            raise ValueError(f"unknown interference model {self.interference!r}")
        n_regions = len(self.explicit_regions or ())
        if self.interference == EXPLICIT and n_regions != len(self.states):
            raise ValueError("explicit interference needs explicit_regions per state")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def rates_for(self, h_index: int) -> np.ndarray:
        return self.states[h_index].rates

    def validate_against(self, cfg: NetworkConfig) -> list[str]:
        """All consistency problems between this channel model and ``cfg``."""
        errors = []
        mask = cfg.adjacency_mask()
        for i, st in enumerate(self.states):
            r = np.asarray(st.rates)
            if r.shape != (cfg.n_stations, cfg.n_users):
                errors.append(f"state {st.name!r}: rates shape {r.shape} is wrong")
                continue
            if np.any(r < 0) or np.any(r > cfg.max_rate):
                errors.append(f"state {st.name!r}: rates outside [0, max_rate]")
            if np.any(r[~mask] != 0):
                errors.append(f"state {st.name!r}: nonzero rate off the adjacency")
        if self.interference == EXPLICIT:
            for i, members in enumerate(self.explicit_regions or ()):
                arr = np.asarray(members)
                if arr.ndim != 3 or arr.shape[1:] != (cfg.n_stations, cfg.n_users):
                    errors.append(f"state {i}: region members have wrong shape")
                    continue
                if not np.any(np.all(arr == 0, axis=(1, 2))):
                    errors.append(f"state {i}: region must contain the zero matrix")
                if np.any(arr < 0) or np.any(arr > cfg.max_rate):
                    errors.append(f"state {i}: region rates outside [0, max_rate]")
                if np.any(arr[:, ~mask] != 0):
                    errors.append(f"state {i}: region rate off the adjacency")
        return errors


def station_options(
    cm: ChannelModel, cfg: NetworkConfig, h_index: int
) -> list[list[tuple[int, int]]]:
    """Per station, what it may serve in state h under one_user_per_station.

    Station m's options are (link, rate) pairs, one per adjacent user with a
    positive current rate, in ascending user order; a link is the row-major
    position m * n_users + u of (m, u). Idling is the implicit first option.
    """
    rates = cm.rates_for(h_index)
    mask = cfg.adjacency_mask()
    return [
        [(m * cfg.n_users + u, int(rates[m, u])) for u in np.flatnonzero(on).tolist()]
        for m, on in enumerate(mask & (rates > 0))
    ]


def full_region(cm: ChannelModel, cfg: NetworkConfig, h_index: int) -> np.ndarray:
    """R(1, h): every feasible rate matrix with all stations active, (K, M, n).

    For one_user_per_station the members are all combinations of per-station
    choices from ``station_options``, each station idling or serving one of
    its options, station 0's choice varying slowest; the all-zero matrix is
    member 0. An explicit region keeps the member order of its configuration.
    """
    if cm.interference == EXPLICIT:
        assert cm.explicit_regions is not None
        return np.asarray(cm.explicit_regions[h_index], dtype=np.int64)

    options = []  # per station: (1 + degree, n) rows, idle first
    for pairs in station_options(cm, cfg, h_index):
        rows = np.zeros((1 + len(pairs), cfg.n_users), dtype=np.int64)
        for i, (link, rate) in enumerate(pairs, start=1):
            rows[i, link % cfg.n_users] = rate
        options.append(rows)
    choice = np.indices([len(rows) for rows in options]).reshape(cfg.n_stations, -1)
    return np.stack([rows[c] for rows, c in zip(options, choice)], axis=1)


def restricted_region(region: np.ndarray, j: np.ndarray) -> np.ndarray:
    """R(j, h) from a one-user-per-station R(1, h): its members whose OFF
    stations idle. Each r * j is the first member in ``full_region``'s order
    to mask to r * j, so this equals mask-and-dedupe, in the same order."""
    off = np.asarray(j) == 0
    return region[~region[:, off].any(axis=(1, 2))]


def _restricted_explicit(region: np.ndarray, j: np.ndarray) -> np.ndarray:
    """R(j, h) from an explicit R(1, h): zero the OFF rows and drop repeats,
    keeping each matrix's first occurrence in file order."""
    masked = region * np.asarray(j).reshape(1, -1, 1)
    first: dict[bytes, int] = {}
    for i, member in enumerate(masked):
        first.setdefault(member.tobytes(), i)
    return masked[list(first.values())]


def region_index(cfg: NetworkConfig, cm: ChannelModel) -> list[list[np.ndarray]]:
    """Every region R(j, h) of a scenario, indexed [j_index][h_index].

    Rows follow ``enumerate_activations`` order, so ``activation_id(j)``
    selects the row of j. Each R(1, h) is built once and restricted per j
    by the rule of the scenario's interference model.
    """
    restrict = _restricted_explicit if cm.interference == EXPLICIT else restricted_region
    full = [full_region(cm, cfg, h) for h in range(cm.n_states)]
    return [
        [restrict(region, j) for region in full]
        for j in enumerate_activations(cfg.n_stations)
    ]
