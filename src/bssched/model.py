"""Core network model: configuration, activations and their cost.

The system is a discrete-time downlink with ``n_stations`` base stations and
``n_users`` mobiles. A station-user pair (m, u) is a link only if it appears
in the adjacency list; every link keeps its own packet queue at the station.
Per slot the order of events is: packet arrivals, station activation or
deactivation, channel observation, rate allocation, transmissions.

An activation is an integer id whose bits are the stations' ON flags,
station 0 the most significant: station m is ON in id j iff bit
M - 1 - m of j is set, so all ON is 2**M - 1. This module is the only one
that writes or reads those bits (``activation_id``, ``on_stations``,
``network_cost``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of the network and its cost coefficients.

    Parameters
    ----------
    n_users, n_stations : int
        Number of mobiles and base stations.
    adjacency : tuple of (station, user) pairs, 0-based
        Links that exist; arrival rates and service are zero elsewhere.
    arrival_rates : ndarray, shape (n_stations, n_users)
        Mean arrivals per slot on each link. Zero off-adjacency.
    max_arrivals : int
        Hard bound on per-link arrivals in one slot.
    max_rate : int
        Hard bound on any single-link service rate.
    switch_off_cost : float
        Cost per station switched OFF in a slot (paid on 1 -> 0 edges).
    active_cost : float
        Cost per station that is ON during a slot.
    switch_on_cost, sleep_cost : float
        Optional extended costs for 0 -> 1 edges and for stations that are
        OFF during a slot. Both default to zero.
    """

    n_users: int
    n_stations: int
    adjacency: tuple[tuple[int, int], ...]
    arrival_rates: np.ndarray
    max_arrivals: int = 1
    max_rate: int = 1
    switch_off_cost: float = 1.0
    active_cost: float = 1.0
    switch_on_cost: float = 0.0
    sleep_cost: float = 0.0

    def __post_init__(self):
        errors = self.validate()
        if errors:
            raise ValueError("invalid NetworkConfig: " + "; ".join(errors))

    def validate(self) -> list[str]:
        """Return a list of all problems found (empty when valid)."""
        errors = []
        if self.n_users < 1:
            errors.append("n_users must be >= 1")
        if self.n_stations < 1:
            errors.append("n_stations must be >= 1")
        if self.max_arrivals < 1:
            errors.append("max_arrivals must be >= 1")
        if self.max_rate < 1:
            errors.append("max_rate must be >= 1")
        seen = set()
        for m, u in self.adjacency:
            if not (0 <= m < self.n_stations and 0 <= u < self.n_users):
                errors.append(f"adjacency pair ({m}, {u}) out of range")
            elif (m, u) in seen:
                errors.append(f"duplicate adjacency pair ({m}, {u})")
            seen.add((m, u))
        if not self.adjacency:
            errors.append("adjacency must contain at least one link")
        rates = np.asarray(self.arrival_rates, dtype=float)
        if rates.shape != (self.n_stations, self.n_users):
            errors.append(
                f"arrival_rates shape {rates.shape} != "
                f"({self.n_stations}, {self.n_users})"
            )
        else:
            if not np.all(rates >= 0):  # NaN fails too
                errors.append("arrival_rates must be nonnegative numbers")
            if np.any(rates > self.max_arrivals):
                errors.append("arrival_rates must not exceed max_arrivals")
            off = ~self.adjacency_mask()
            if np.any(rates[off] != 0):
                errors.append("arrival_rates must be zero off the adjacency")
        for name in ("switch_off_cost", "active_cost", "switch_on_cost", "sleep_cost"):
            if not 0 <= getattr(self, name) < np.inf:  # NaN fails too
                errors.append(f"{name} must be nonnegative and finite")
        return errors

    def adjacency_mask(self) -> np.ndarray:
        """Boolean (n_stations, n_users) mask of existing links."""
        mask = np.zeros((self.n_stations, self.n_users), dtype=bool)
        for m, u in self.adjacency:
            if 0 <= m < self.n_stations and 0 <= u < self.n_users:
                mask[m, u] = True
        return mask


def all_on(n_stations: int) -> np.ndarray:
    return np.ones(n_stations, dtype=np.int64)


def enumerate_activations(n_stations: int) -> np.ndarray:
    """All 2**M activation vectors, shape (2**M, M).

    Canonical order is binary counting with station 0 as the most
    significant bit, so row k equals the bits of k and ``activation_id``
    is the inverse map.
    """
    rows = list(itertools.product((0, 1), repeat=n_stations))
    return np.array(rows, dtype=np.int64)


def activation_id(j: np.ndarray) -> int:
    """Index of activation vector ``j`` in ``enumerate_activations`` order."""
    out = 0
    for bit in np.asarray(j).ravel():
        out = (out << 1) | int(bit)
    return out


def on_stations(j: int, n_stations: int) -> list[int]:
    """The ON stations of activation id ``j``, in ascending order."""
    return [m for m in range(n_stations) if j >> (n_stations - 1 - m) & 1]


def _ones(ids: np.ndarray) -> np.ndarray:
    """Set bits per id, as int64: numpy's uint8 counts would wrap under an
    int cost coefficient."""
    return np.bitwise_count(ids).astype(np.int64)


def network_cost(j_prev, j, cfg: NetworkConfig):
    """Per-slot activation cost for moving from id ``j_prev`` to id ``j``.

    Takes ints or int arrays of ids, elementwise, and prices from the
    popcounts of the ids' masks:

    Cost = switch_off_cost * |j_prev & ~j| + active_cost * |j|
         + switch_on_cost * |j & ~j_prev| + sleep_cost * (M - |j|).
    """
    j_prev = np.asarray(j_prev, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    on = _ones(j)
    return (
        cfg.switch_off_cost * _ones(j_prev & ~j)
        + cfg.active_cost * on
        + cfg.switch_on_cost * _ones(j & ~j_prev)
        + cfg.sleep_cost * (cfg.n_stations - on)
    )
