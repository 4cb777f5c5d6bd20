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

The base objective prices steady-state activity only (active_cost times the
expected number of ON stations); switching costs vanish in steady state for
a fixed activation distribution and are accounted for by the policies'
resampling rate instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NetworkConfig, enumerate_activations
from .rateregion import ChannelModel, RateRegion, region_index

DEFAULT_TOL = 1e-9


@dataclass
class LpProblem:
    """Indexed LP data for one (network, channel) pair.

    The equality block is fixed by the scenario structure. The coverage
    inequalities depend on the channel pmf and the arrival target, so they
    are kept factored: ineq matrix = sum_h mu[h] * coverage_blocks[h],
    rhs = lam[link] + eps_g. ``solve_lp`` can therefore be re-run cheaply
    under estimated (mu, lam) without rebuilding the problem.
    """

    cfg: NetworkConfig
    cm: ChannelModel
    lam: np.ndarray
    eps_g: float
    activations: np.ndarray  # (n_act, n_stations)
    regions: list[list[RateRegion]]  # [j_index][h_index]
    beta_offsets: dict[tuple[int, int], tuple[int, int]]  # (j,h) -> (start, size)
    dim: int
    n_act: int
    a_eq: np.ndarray
    b_eq: np.ndarray
    coverage_blocks: np.ndarray  # (n_states, n_links, dim)
    base_cost: np.ndarray

    @property
    def links(self) -> tuple[tuple[int, int], ...]:
        return self.cfg.adjacency

    def coverage_matrix(self, mu: np.ndarray | None = None) -> np.ndarray:
        mu = self.cm.pmf if mu is None else np.asarray(mu, dtype=float)
        return np.einsum("h,hld->ld", mu, self.coverage_blocks)

    def coverage_rhs(
        self, lam: np.ndarray | None = None, eps_g: float | None = None
    ) -> np.ndarray:
        lam = self.lam if lam is None else np.asarray(lam, dtype=float)
        eps_g = self.eps_g if eps_g is None else float(eps_g)
        return np.array([lam[m, u] + eps_g for m, u in self.links])


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible"
    objective: float | None
    sigma: np.ndarray | None  # (n_act,)
    beta: dict[tuple[int, int], np.ndarray] | None
    x: np.ndarray | None
    iterations: int
    basis: np.ndarray | None = None  # optimal basis of the standard form
    warm: bool = False  # the answer came from a warm start


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
    order, so dim = 2**M + sum_{j,h} |R(j, h)|.
    """
    lam = cfg.arrival_rates if lam is None else np.asarray(lam, dtype=float)
    activations = enumerate_activations(cfg.n_stations)
    n_act = activations.shape[0]
    n_states = cm.n_states

    regions = region_index(cfg, cm)
    beta_offsets: dict[tuple[int, int], tuple[int, int]] = {}
    offset = n_act
    for j_idx, row in enumerate(regions):
        for h, reg in enumerate(row):
            beta_offsets[(j_idx, h)] = (offset, len(reg))
            offset += len(reg)
    dim = offset

    n_eq = 1 + n_act * n_states
    a_eq = np.zeros((n_eq, dim))
    b_eq = np.zeros(n_eq)
    a_eq[0, :n_act] = 1.0
    b_eq[0] = 1.0
    row_idx = 1
    for j_idx in range(n_act):
        for h in range(n_states):
            start, size = beta_offsets[(j_idx, h)]
            a_eq[row_idx, j_idx] = 1.0
            a_eq[row_idx, start : start + size] = -1.0
            row_idx += 1

    links = cfg.adjacency
    coverage_blocks = np.zeros((n_states, len(links), dim))
    for j_idx in range(n_act):
        for h in range(n_states):
            start, size = beta_offsets[(j_idx, h)]
            members = regions[j_idx][h].members
            for l_idx, (m, u) in enumerate(links):
                coverage_blocks[h, l_idx, start : start + size] = members[:, m, u]

    base_cost = np.zeros(dim)
    base_cost[:n_act] = cfg.active_cost * activations.sum(axis=1)

    return LpProblem(
        cfg=cfg,
        cm=cm,
        lam=lam,
        eps_g=float(eps_g),
        activations=activations,
        regions=regions,
        beta_offsets=beta_offsets,
        dim=dim,
        n_act=n_act,
        a_eq=a_eq,
        b_eq=b_eq,
        coverage_blocks=coverage_blocks,
        base_cost=base_cost,
    )


def solve_lp(
    problem: LpProblem,
    cost: np.ndarray | None = None,
    mu: np.ndarray | None = None,
    lam: np.ndarray | None = None,
    eps_g: float | None = None,
    tol: float = DEFAULT_TOL,
    basis: np.ndarray | None = None,
) -> LpSolution:
    """Solve the planning LP; optionally override cost, pmf or arrival target.

    The coverage inequalities get surplus variables and everything is handed
    to the deterministic two-phase simplex, so equal inputs always return
    the identical basic optimal solution. ``basis``, the ``basis`` of an
    earlier solution of the same problem, warm starts the simplex; a
    re-solve under moved estimates then pivots only where they differ.
    """
    from .simplex import SimplexError, solve_standard_form

    cost = problem.base_cost if cost is None else np.asarray(cost, dtype=float)
    a_ub = problem.coverage_matrix(mu)
    b_ub = problem.coverage_rhs(lam, eps_g)
    n_ub = a_ub.shape[0]

    n_eq = problem.a_eq.shape[0]
    a = np.zeros((n_eq + n_ub, problem.dim + n_ub))
    a[:n_eq, : problem.dim] = problem.a_eq
    a[n_eq:, : problem.dim] = a_ub
    a[n_eq:, problem.dim :] = -np.eye(n_ub)
    b = np.concatenate([problem.b_eq, b_ub])
    c = np.concatenate([cost, np.zeros(n_ub)])

    result = solve_standard_form(c, a, b, tol=tol, basis=basis)
    if result.status == "infeasible":
        return LpSolution(
            "infeasible", None, None, None, None, result.iterations, warm=result.warm
        )
    if result.status != "optimal":
        raise SimplexError(f"unexpected solver status {result.status!r}")

    assert result.x is not None
    x = result.x[: problem.dim]
    sigma = x[: problem.n_act].copy()
    beta = {
        key: x[start : start + size].copy()
        for key, (start, size) in problem.beta_offsets.items()
    }
    return LpSolution(
        status="optimal",
        objective=float(cost @ x),
        sigma=sigma,
        beta=beta,
        x=x,
        iterations=result.iterations,
        basis=result.basis,
        warm=result.warm,
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
    problem: LpProblem, solution: LpSolution, tol: float = DEFAULT_TOL
) -> dict[tuple[int, int], np.ndarray]:
    """Conditional rate distributions alpha(j, h) from the joint beta.

    alpha_{j,h} = beta_{j,h} / sigma_j when sigma_j is positive. For unused
    activations the conditional is arbitrary; it is pinned to a point mass
    on the zero rate matrix so the policies stay well defined.
    """
    if solution.status != "optimal":
        raise ValueError("alpha requires an optimal solution")
    assert solution.sigma is not None and solution.beta is not None
    alpha: dict[tuple[int, int], np.ndarray] = {}
    for (j_idx, h), beta in solution.beta.items():
        members = problem.regions[j_idx][h].members
        sigma_j = solution.sigma[j_idx]
        if sigma_j > tol:
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


def expected_offered_rates(
    problem: LpProblem,
    solution: LpSolution,
    mu: np.ndarray | None = None,
) -> np.ndarray:
    """Expected per-link service rate of the planned policy, shape (M, n)."""
    if solution.x is None:
        raise ValueError("offered rates require an optimal solution")
    mu_vec = problem.cm.pmf if mu is None else np.asarray(mu, dtype=float)
    offered = np.zeros((problem.cfg.n_stations, problem.cfg.n_users))
    for (j_idx, h), beta in solution.beta.items():
        members = problem.regions[j_idx][h].members
        offered += mu_vec[h] * np.einsum("k,kmu->mu", beta, members)
    return offered
