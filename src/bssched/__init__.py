"""Scheduling with base-station activation and switching costs.

Discrete-time queueing model, feasible rate regions, a planning LP for
stationary activation distributions, Max-Weight based scheduling policies
(including an explore-exploit variant that learns the channel and traffic
statistics), mixing-rate analysis of the induced activation chains, and a
reproducible simulation engine with a CLI.
"""

from .lp import (
    LpProblem,
    LpSolution,
    beta_to_alpha,
    build_lp,
    expected_offered_rates,
    perturb_cost,
    solve_lp,
)
from .markov import (
    PerturbedChain,
    find_scrambling_power,
    is_scrambling,
    marginal_deviation_bound,
    p_sigma_eps,
    stationary_distribution,
    tau1,
    tau1_series_bound,
    tau1_series_sum,
)
from .model import (
    NetworkConfig,
    activation_id,
    all_on,
    enumerate_activations,
    network_cost,
    on_stations,
)
from .policies import (
    POLICY_DEFAULTS,
    POLICY_NAMES,
    AlwaysOnMaxWeight,
    LearningMaxWeight,
    Policy,
    PolicyError,
    StaticSplitMaxWeight,
    StaticSplitStatic,
    make_policy,
    max_weight,
)
from .rateregion import (
    ChannelModel,
    ChannelState,
    full_region,
    region_index,
    restricted_region,
    station_options,
)
from .sim import (
    DriftDiagnostic,
    RegimeSchedule,
    SimTrace,
    drift_diagnostic,
    run,
    stability_fraction,
)
from .simplex import SimplexError, SimplexResult, solve_standard_form

__version__ = "0.1.0"

__all__ = [
    "AlwaysOnMaxWeight",
    "ChannelModel",
    "ChannelState",
    "DriftDiagnostic",
    "LearningMaxWeight",
    "LpProblem",
    "LpSolution",
    "NetworkConfig",
    "POLICY_DEFAULTS",
    "POLICY_NAMES",
    "PerturbedChain",
    "Policy",
    "PolicyError",
    "RegimeSchedule",
    "SimTrace",
    "SimplexError",
    "SimplexResult",
    "StaticSplitMaxWeight",
    "StaticSplitStatic",
    "activation_id",
    "all_on",
    "beta_to_alpha",
    "build_lp",
    "drift_diagnostic",
    "enumerate_activations",
    "expected_offered_rates",
    "find_scrambling_power",
    "full_region",
    "is_scrambling",
    "make_policy",
    "marginal_deviation_bound",
    "max_weight",
    "network_cost",
    "on_stations",
    "p_sigma_eps",
    "perturb_cost",
    "region_index",
    "restricted_region",
    "run",
    "solve_lp",
    "solve_standard_form",
    "stability_fraction",
    "station_options",
    "stationary_distribution",
    "tau1",
    "tau1_series_bound",
    "tau1_series_sum",
]
