"""Stationary activation/rate planning as a linear program.

Decision variables describe a stationary randomized policy: sigma_j is the
probability of using activation vector j, and beta_{j,h,r} is the joint
probability of using j and picking member r of R(j, h) when the channel is
in state h. Minimizing the expected per-slot activity cost subject to the
offered service rate covering the arrival rate (plus a slack eps_g on every
link) gives a lower bound on the activity cost of any policy that keeps the
queues stable, and its sigma marginal is the target distribution the
randomized scheduling policies draw activations from.

Constraints, with mu the channel pmf and lam the arrival-rate matrix:

    sum_j sigma_j = 1
    sigma_j = sum_r beta_{j,h,r}                 for every j, h
    sum_{j,h} mu_h sum_r beta_{j,h,r} r_{m,u} >= lam_{m,u} + eps_g
                                                 for every link (m, u)
    sigma, beta >= 0

``build_lp`` writes them once in the standard form the simplex solves
(A x = b, x >= 0, the coverage rows closed by surplus columns). A re-solve
under estimated (mu, lam) rewrites only the coverage rows of a copy.

The base objective prices each activation j at its steady-state cost
``network_cost(j, j)``, active_cost per ON station plus sleep_cost per OFF
one; switching costs vanish in steady state for a fixed activation
distribution and are paid through the policies' resampling rate instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NetworkConfig, enumerate_activations, network_cost
from .rateregion import ChannelModel, region_index
from .simplex import Elimination, SimplexError, solve_standard_form

DEFAULT_TOL = 1e-9


@dataclass
class LpProblem:
    """The planning LP of one (network, channel) pair, in standard form.

    ``a`` and ``b`` (read-only) hold the sigma-sum row, one sigma/beta row
    per (j, h) and one coverage row per link at the true pmf and arrival
    target; the columns past ``dim`` are the coverage surplus variables.
    Under a pmf ``mu`` the coverage rows are ``rates * mu[col_state]``.
    """

    cfg: NetworkConfig
    cm: ChannelModel
    eps_g: float
    activations: np.ndarray  # (n_act, n_stations)
    regions: list[list[np.ndarray]]  # [j_index][h_index], each (K, M, n)
    beta_offsets: dict[tuple[int, int], tuple[int, int]]  # (j,h) -> (start, size)
    dim: int  # sigma and beta columns, without the surplus columns
    n_act: int
    a: np.ndarray  # (1 + n_act * n_states + n_links, dim + n_links)
    b: np.ndarray
    rates: np.ndarray  # (n_links, dim)
    col_state: np.ndarray  # (dim,)
    base_cost: np.ndarray


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible"
    objective: float | None
    sigma: np.ndarray | None  # (n_act,)
    x: np.ndarray | None  # sigma and beta columns, as in LpProblem.beta_offsets
    iterations: int
    basis: np.ndarray | None = None  # optimal basis of the standard form
    warm: bool = False  # the answer came from a warm start
    eliminations: int = 0  # basis eliminations the solve ran
    elimination: Elimination | None = None  # its certificate's, for a re-solve


def build_lp(
    cfg: NetworkConfig,
    cm: ChannelModel,
    lam: np.ndarray | None = None,
    eps_g: float = 0.0,
) -> LpProblem:
    """Assemble the activation-planning LP for a scenario.

    ``lam`` defaults to the configured arrival rates. The variable order is
    the sigma block (activation enumeration order) followed by one beta
    block per (activation, channel state), region members in enumeration
    order, so dim = 2**M + sum_{j,h} |R(j, h)|; one surplus column per link
    follows.
    """
    lam = cfg.arrival_rates if lam is None else lam
    activations = enumerate_activations(cfg.n_stations)
    n_act = activations.shape[0]
    stations, users = np.transpose(cfg.adjacency)
    n_links = len(cfg.adjacency)

    regions = region_index(cfg, cm)
    beta_offsets: dict[tuple[int, int], tuple[int, int]] = {}
    offset = n_act
    for j_idx, row in enumerate(regions):
        for h, reg in enumerate(row):
            beta_offsets[(j_idx, h)] = (offset, reg.shape[0])
            offset += reg.shape[0]
    dim = offset

    n_eq = 1 + n_act * cm.n_states
    a = np.zeros((n_eq + n_links, dim + n_links))
    b = np.zeros(n_eq + n_links)
    rates = np.zeros((n_links, dim))
    col_state = np.zeros(dim, dtype=np.intp)
    a[0, :n_act] = 1.0
    b[0] = 1.0
    for row, ((j_idx, h), (start, size)) in enumerate(beta_offsets.items(), 1):
        a[row, j_idx] = 1.0
        a[row, start : start + size] = -1.0
        rates[:, start : start + size] = regions[j_idx][h][:, stations, users].T
        col_state[start : start + size] = h
    a[n_eq:, :dim] = rates * np.asarray(cm.pmf, dtype=float)[col_state]
    a[n_eq:, dim:] = -np.eye(n_links)
    b[n_eq:] = _link_targets(cfg, lam, eps_g)
    a.flags.writeable = b.flags.writeable = False

    base_cost = np.zeros(dim)
    ids = np.arange(n_act)
    base_cost[:n_act] = network_cost(ids, ids, cfg)

    return LpProblem(
        cfg=cfg,
        cm=cm,
        eps_g=float(eps_g),
        activations=activations,
        regions=regions,
        beta_offsets=beta_offsets,
        dim=dim,
        n_act=n_act,
        a=a,
        b=b,
        rates=rates,
        col_state=col_state,
        base_cost=base_cost,
    )


def _link_targets(cfg: NetworkConfig, lam: np.ndarray, eps_g: float) -> np.ndarray:
    stations, users = np.transpose(cfg.adjacency)
    return np.asarray(lam, dtype=float)[stations, users] + float(eps_g)


def solve_lp(
    problem: LpProblem,
    cost: np.ndarray | None = None,
    mu: np.ndarray | None = None,
    lam: np.ndarray | None = None,
    basis: np.ndarray | None = None,
    elimination: Elimination | None = None,
    dantzig: bool = False,
) -> LpSolution:
    """Solve the planning LP; optionally override cost, pmf or arrival target.

    Without ``mu`` and ``lam`` the simplex gets ``problem.a`` and
    ``problem.b`` themselves; with them, copies whose coverage rows (and
    right-hand sides) are rewritten for the estimates. The simplex is
    deterministic, so equal inputs always return the identical basic
    optimal solution. ``basis``, the ``basis`` of an earlier solution of
    the same problem, warm starts the simplex; a re-solve under moved
    estimates then pivots only where they differ. ``elimination``, that
    solution's ``elimination``, spares the warm start refactoring the
    basis when its columns of A and their costs have not moved since.
    ``dantzig`` pivots by Dantzig's rule (see ``bssched.simplex``), for a
    cost whose optimum is unique, so that the rule cannot change the vertex.
    """
    cost = problem.base_cost if cost is None else np.asarray(cost, dtype=float)
    a, b = problem.a, problem.b
    n_links = problem.rates.shape[0]
    if mu is not None:
        a = a.copy()
        mu = np.asarray(mu, dtype=float)
        a[-n_links:, : problem.dim] = problem.rates * mu[problem.col_state]
    if lam is not None:
        b = b.copy()
        b[-n_links:] = _link_targets(problem.cfg, lam, problem.eps_g)
    c = np.concatenate([cost, np.zeros(n_links)])

    result = solve_standard_form(
        c, a, b, basis=basis, elimination=elimination, dantzig=dantzig
    )
    if result.status == "infeasible":
        return LpSolution(
            "infeasible",
            None,
            None,
            None,
            result.iterations,
            warm=result.warm,
            eliminations=result.eliminations,
        )
    if result.status != "optimal":
        raise SimplexError(f"unexpected solver status {result.status!r}")

    assert result.x is not None
    x = result.x[: problem.dim]
    return LpSolution(
        status="optimal",
        objective=float(cost @ x),
        sigma=x[: problem.n_act].copy(),
        x=x,
        iterations=result.iterations,
        basis=result.basis,
        warm=result.warm,
        eliminations=result.eliminations,
        elimination=result.elimination,
    )


def perturb_cost(
    problem: LpProblem, eps_p: float, rng: np.random.Generator
) -> np.ndarray:
    """Base cost plus eps_p times a uniform random unit direction.

    The direction is an isotropic unit vector (normalized Gaussian draw),
    which makes the perturbed LP have a unique optimum with probability 1,
    so ties between equally cheap activation mixes are broken once and for
    all at policy construction.
    """
    direction = rng.standard_normal(problem.dim)
    norm = float(np.linalg.norm(direction))
    while norm == 0.0:  # pragma: no cover - probability zero
        direction = rng.standard_normal(problem.dim)
        norm = float(np.linalg.norm(direction))
    return problem.base_cost + eps_p * direction / norm


def beta_to_alpha(
    problem: LpProblem, solution: LpSolution
) -> dict[tuple[int, int], np.ndarray]:
    """Conditional rate distributions alpha(j, h) from the joint beta in x.

    alpha_{j,h} = beta_{j,h} / sigma_j when sigma_j is positive. For unused
    activations the conditional is arbitrary; it is pinned to a point mass
    on the zero rate matrix so the policies stay well defined.
    """
    if solution.status != "optimal":
        raise ValueError("alpha requires an optimal solution")
    assert solution.sigma is not None and solution.x is not None
    alpha: dict[tuple[int, int], np.ndarray] = {}
    for (j_idx, h), (start, size) in problem.beta_offsets.items():
        beta = solution.x[start : start + size]
        members = problem.regions[j_idx][h]
        sigma_j = solution.sigma[j_idx]
        if sigma_j > DEFAULT_TOL:
            pmf = np.maximum(beta, 0.0) / sigma_j
            total = pmf.sum()
            pmf = pmf / total if total > 0 else _zero_point_mass(members)
        else:
            pmf = _zero_point_mass(members)
        alpha[(j_idx, h)] = pmf
    return alpha


def _zero_point_mass(members: np.ndarray) -> np.ndarray:
    zero_idx = np.nonzero(np.all(members == 0, axis=(1, 2)))[0]
    if zero_idx.size == 0:
        raise ValueError("region has no zero matrix member")
    pmf = np.zeros(members.shape[0])
    pmf[int(zero_idx[0])] = 1.0
    return pmf


def expected_offered_rates(problem: LpProblem, solution: LpSolution) -> np.ndarray:
    """Expected per-link service rate of the planned policy, shape (M, n)."""
    if solution.x is None:
        raise ValueError("offered rates require an optimal solution")
    offered = np.zeros((problem.cfg.n_stations, problem.cfg.n_users))
    for (j_idx, h), (start, size) in problem.beta_offsets.items():
        beta = solution.x[start : start + size]
        members = problem.regions[j_idx][h]
        offered += problem.cm.pmf[h] * np.einsum("k,kmu->mu", beta, members)
    return offered
