"""Command line interface: validate scenarios, solve the planning LP, run batches.

Scenario files are JSON with four blocks:

    network   n_users, n_stations, adjacency (0-based [station, user]
              pairs), arrival_rate (uniform on links) or arrival_rates
              (full matrix), max_arrivals, max_rate, costs
    channel   interference model, states (name + rate matrix), pmf,
              optional explicit regions per state
    arrivals  law ("bernoulli" | "binomial"), optional regimes as
              [start_slot, scale] pairs
    policy    name plus any of the parameters in policies.POLICY_DEFAULTS
              (eps_s, eps_g, eps_p, learning_floor, min_switch_gap,
              update_arrivals_every_slot); other keys are rejected
    run       horizon, seeds, window, q_bar, drift_window defaults

Exit codes: 0 success, 1 invalid configuration, 2 runtime or solver
failure, 3 infeasible planning LP.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import metadata, resources
from pathlib import Path

import numpy as np

from .lp import beta_to_alpha, build_lp, expected_offered_rates, perturb_cost, solve_lp
from .model import NetworkConfig
from .policies import POLICY_DEFAULTS, POLICY_NAMES, PolicyError, make_policy
from .rateregion import EXPLICIT, ONE_USER_PER_STATION, ChannelModel, ChannelState
from .sim import ARRIVAL_LAWS, RegimeSchedule, run, stability_fraction

EXIT_OK = 0
EXIT_INVALID_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_INFEASIBLE = 3

CSV_COLUMNS = (
    "t",
    "total_queue",
    "cost_t",
    "avg_cost",
    "windowed_cost",
    "j_state_id",
    "explore_flag",
    "mu_hat_err",
    "lambda_hat_err",
)


class ScenarioError(Exception):
    """Invalid scenario file; ``errors`` lists every problem found."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class Scenario:
    name: str
    cfg: NetworkConfig
    cm: ChannelModel
    arrival_law: str
    regime: RegimeSchedule | None
    policy_name: str
    policy_params: dict
    horizon: int
    seeds: list[int]
    window: int
    q_bar: float
    drift_window: int
    raw: dict

    @property
    def eps_g(self) -> float:
        """The coverage slack the scenario's policy plans with."""
        return self.policy_params.get("eps_g", POLICY_DEFAULTS["eps_g"])


def _get(data: dict, key: str, kind, errors: list[str], where: str, default=None):
    if key not in data:
        if default is not None:
            return default
        errors.append(f"{where}: missing required key {key!r}")
        return None
    value = data[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        errors.append(f"{where}: {key!r} must be {kind.__name__}")
        return None
    return value


def parse_scenario(data: dict, name: str = "scenario") -> Scenario:
    """Build a Scenario from parsed JSON, collecting every validation error."""
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ScenarioError(["top level must be a JSON object"])

    net = data.get("network")
    chan = data.get("channel")
    for key, blk in (("network", net), ("channel", chan)):
        if not isinstance(blk, dict):
            errors.append(f"missing or invalid {key!r} block")
    if errors:
        raise ScenarioError(errors)

    n_users = _get(net, "n_users", int, errors, "network")
    n_stations = _get(net, "n_stations", int, errors, "network")
    adjacency_raw = _get(net, "adjacency", list, errors, "network")
    adjacency: tuple[tuple[int, int], ...] = ()
    if adjacency_raw is not None:
        pairs = []
        for item in adjacency_raw:
            if (
                isinstance(item, list)
                and len(item) == 2
                and all(isinstance(v, int) for v in item)
            ):
                pairs.append((item[0], item[1]))
            else:
                errors.append(f"network: adjacency entry {item!r} is not [m, u]")
        adjacency = tuple(pairs)

    cfg = None
    if not errors and n_users and n_stations:
        rates = np.zeros((n_stations, n_users))
        if "arrival_rates" in net:
            try:
                rates = np.asarray(net["arrival_rates"], dtype=float)
            except (TypeError, ValueError):
                errors.append("network: arrival_rates is not a numeric matrix")
        else:
            rate = _get(net, "arrival_rate", float, errors, "network", default=0.0)
            for m, u in adjacency:
                if 0 <= m < n_stations and 0 <= u < n_users:
                    rates[m, u] = rate
        costs = net.get("costs", {})
        if not isinstance(costs, dict):
            errors.append("network: costs must be an object")
            costs = {}
        try:
            cfg = NetworkConfig(
                n_users=n_users,
                n_stations=n_stations,
                adjacency=adjacency,
                arrival_rates=rates,
                max_arrivals=net.get("max_arrivals", 1),
                max_rate=net.get("max_rate", 1),
                switch_off_cost=costs.get("switch_off", 1.0),
                active_cost=costs.get("active", 1.0),
                switch_on_cost=costs.get("switch_on", 0.0),
                sleep_cost=costs.get("sleep", 0.0),
            )
        except ValueError as exc:
            errors.append(str(exc))

    cm = None
    interference = chan.get("interference", ONE_USER_PER_STATION)
    states_raw = _get(chan, "states", list, errors, "channel")
    pmf_raw = _get(chan, "pmf", list, errors, "channel")
    if cfg is not None and states_raw and pmf_raw:
        states = []
        for i, st in enumerate(states_raw):
            if not isinstance(st, dict) or "rates" not in st:
                errors.append(f"channel: state {i} needs a 'rates' matrix")
                continue
            try:
                r = np.asarray(st["rates"], dtype=np.int64)
            except (TypeError, ValueError):
                errors.append(f"channel: state {i} rates are not integers")
                continue
            states.append(ChannelState(name=st.get("name", f"state_{i}"), rates=r))
        explicit_regions = None
        if interference == EXPLICIT:
            regions_raw = chan.get("regions")
            if not isinstance(regions_raw, list) or len(regions_raw) != len(states):
                errors.append("channel: explicit interference needs one region per state")
            else:
                explicit_regions = tuple(
                    np.asarray(r, dtype=np.int64) for r in regions_raw
                )
        if not errors:
            try:
                cm = ChannelModel(
                    states=tuple(states),
                    pmf=np.asarray(pmf_raw, dtype=float),
                    interference=interference,
                    explicit_regions=explicit_regions,
                )
            except ValueError as exc:
                errors.append(f"channel: {exc}")
        if cm is not None:
            errors.extend(cm.validate_against(cfg))

    arrivals = data.get("arrivals", {})
    arrival_law = arrivals.get("law", "bernoulli")
    if arrival_law not in ARRIVAL_LAWS:
        errors.append(f"arrivals: law must be one of {ARRIVAL_LAWS}")
    regime = None
    if "regimes" in arrivals:
        try:
            regime = RegimeSchedule(
                changes=tuple((int(s), float(x)) for s, x in arrivals["regimes"])
            )
        except (TypeError, ValueError) as exc:
            errors.append(f"arrivals: bad regimes: {exc}")

    policy = data.get("policy", {})
    policy_name = policy.get("name", "always_on")
    if policy_name not in POLICY_NAMES:
        errors.append(f"policy: name must be one of {POLICY_NAMES}")
    policy_params = {k: v for k, v in policy.items() if k != "name"}
    for key in sorted(set(policy_params) - set(POLICY_DEFAULTS)):
        errors.append(f"policy: unknown key {key!r}")
    for key in ("eps_s", "learning_floor"):
        if key in policy_params and not (
            isinstance(policy_params[key], (int, float))
            and 0.0 <= policy_params[key] <= 1.0
        ):
            errors.append(f"policy: {key} must lie in [0, 1]")
    for key in ("eps_p", "eps_g"):
        if key in policy_params and not (
            isinstance(policy_params[key], (int, float)) and policy_params[key] >= 0.0
        ):
            errors.append(f"policy: {key} must be nonnegative")
    if "min_switch_gap" in policy_params and not (
        isinstance(policy_params["min_switch_gap"], int)
        and policy_params["min_switch_gap"] >= 0
    ):
        errors.append("policy: min_switch_gap must be a nonnegative integer")

    run_blk = data.get("run", {})
    horizon = run_blk.get("horizon", 10000)
    seeds = run_blk.get("seeds", [0])
    window = run_blk.get("window", 200)
    q_bar = run_blk.get("q_bar", 200)
    drift_window = run_blk.get("drift_window", 100)
    if not (isinstance(drift_window, int) and drift_window >= 1):
        errors.append("run: drift_window must be a positive integer")
    if not (isinstance(horizon, int) and horizon >= 1):
        errors.append("run: horizon must be a positive integer")
    if not (
        isinstance(seeds, list)
        and seeds
        and all(isinstance(s, int) and s >= 0 for s in seeds)
    ):
        errors.append("run: seeds must be a nonempty list of nonnegative integers")
    if regime is not None and isinstance(horizon, int):
        if any(s > horizon for s in regime.boundaries()):
            errors.append("arrivals: regime change beyond the run horizon")

    if errors:
        raise ScenarioError(errors)
    assert cfg is not None and cm is not None
    return Scenario(
        name=data.get("name", name),
        cfg=cfg,
        cm=cm,
        arrival_law=arrival_law,
        regime=regime,
        policy_name=policy_name,
        policy_params=policy_params,
        horizon=horizon,
        seeds=list(seeds),
        window=window,
        q_bar=float(q_bar),
        drift_window=drift_window,
        raw=data,
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError([f"cannot read scenario {path}: {exc}"]) from exc
    return parse_scenario(data, name=path.stem)


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    return Path(str(resources.files("bssched").joinpath("scenarios", f"{name}.json")))


def _package_version() -> str:
    try:
        return metadata.version("bssched")
    except metadata.PackageNotFoundError:  # pragma: no cover
        return "unknown"


def _write_csv(path: Path, trace, window: int) -> None:
    avg = trace.running_avg_cost()
    windowed = trace.windowed_cost(window)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for i in range(trace.horizon):
            writer.writerow(
                [
                    i + 1,
                    int(trace.total_queue[i]),
                    f"{trace.cost[i]:.10g}",
                    f"{avg[i]:.10g}",
                    f"{windowed[i]:.10g}",
                    int(trace.j_bits[i]),
                    int(trace.explore[i]),
                    f"{trace.mu_err[i]:.10g}",
                    f"{trace.lambda_err[i]:.10g}",
                ]
            )


def _run_one_seed(raw_config: dict, name: str, seed: int, horizon: int, out_dir: str):
    """Worker for one (scenario, seed) run; safe to call in a subprocess."""
    scenario = parse_scenario(raw_config, name=name)
    rng = np.random.default_rng(seed)
    policy = make_policy(
        scenario.policy_name, scenario.cfg, scenario.cm, rng, scenario.policy_params
    )
    trace = run(
        scenario.cfg,
        scenario.cm,
        policy,
        horizon=horizon,
        seed=seed,
        rng=rng,
        regime=scenario.regime,
        arrival_law=scenario.arrival_law,
    )
    csv_path = Path(out_dir) / f"{scenario.name}_seed{seed}.csv"
    _write_csv(csv_path, trace, scenario.window)
    half = trace.horizon // 2 + 1
    return seed, {
        "csv": csv_path.name,
        "avg_cost": trace.avg_cost,
        "mean_total_queue": float(trace.total_queue.mean()),
        "final_total_queue": int(trace.total_queue[-1]),
        "stability_fraction": stability_fraction(trace, scenario.q_bar),
        "stability_fraction_last_half": stability_fraction(
            trace, scenario.q_bar, start_slot=half
        ),
        "switch_count": trace.switch_count,
        "explore_slots": int(trace.explore.sum()),
        "mu_err_final": _nan_to_none(trace.mu_err[-1]),
        "lambda_err_final": _nan_to_none(trace.lambda_err[-1]),
    }


def _nan_to_none(x: float):
    return None if np.isnan(x) else float(x)


def _lp_report(scenario: Scenario, eps_g: float, eps_p: float, seed: int) -> dict:
    problem = build_lp(scenario.cfg, scenario.cm, eps_g=eps_g)
    cost = problem.base_cost
    if eps_p > 0:
        cost = perturb_cost(problem, eps_p, np.random.default_rng(seed))
    solution = solve_lp(problem, cost=cost)
    report = {
        "scenario": scenario.name,
        "eps_g": eps_g,
        "eps_p": eps_p,
        "status": solution.status,
        "dimension": problem.dim,
        "n_equalities": problem.a_eq.shape[0],
        "n_coverage_rows": len(problem.links),
    }
    if solution.status != "optimal":
        return report
    sigma = solution.sigma
    alpha = beta_to_alpha(problem, solution)
    offered = expected_offered_rates(problem, solution)
    active = problem.activations.sum(axis=1)
    report.update(
        {
            "objective": solution.objective,
            "expected_active_stations": float(sigma @ active),
            "activity_cost": float(
                (scenario.cfg.active_cost * active) @ sigma
            ),
            "sigma": [
                {
                    "id": j_idx,
                    "activation": problem.activations[j_idx].tolist(),
                    "probability": float(sigma[j_idx]),
                }
                for j_idx in range(problem.n_act)
                if sigma[j_idx] > 1e-12
            ],
            "offered_rates": offered.tolist(),
            "required_rates": [
                [m, u, float(scenario.cfg.arrival_rates[m, u] + eps_g)]
                for m, u in scenario.cfg.adjacency
            ],
            "alpha": {
                f"{j_idx},{h}": alpha[(j_idx, h)].tolist()
                for (j_idx, h) in sorted(alpha)
                if sigma[j_idx] > 1e-12
            },
        }
    )
    return report


def cmd_validate(args) -> int:
    try:
        scenario = load_scenario(args.config)
    except ScenarioError as exc:
        print(f"INVALID: {len(exc.errors)} problem(s)")
        for err in exc.errors:
            print(f"  - {err}")
        return EXIT_INVALID_CONFIG
    print(
        f"OK: scenario {scenario.name!r} "
        f"({scenario.cfg.n_stations} stations, {scenario.cfg.n_users} users, "
        f"{len(scenario.cfg.adjacency)} links, policy {scenario.policy_name})"
    )
    return EXIT_OK


def cmd_lp(args) -> int:
    try:
        scenario = load_scenario(args.config)
    except ScenarioError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    eps_g = scenario.eps_g if args.eps_g is None else args.eps_g
    report = _lp_report(scenario, eps_g, args.perturb, args.seed)
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK if report["status"] == "optimal" else EXIT_INFEASIBLE


def cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.config)
    except ScenarioError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_INVALID_CONFIG

    seeds = scenario.seeds if args.seeds is None else args.seeds
    horizon = scenario.horizon if args.horizon is None else args.horizon
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    raw = scenario.raw
    config_hash = hashlib.sha256(
        json.dumps(raw, sort_keys=True).encode()
    ).hexdigest()

    try:
        per_seed = {}
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                futures = [
                    pool.submit(
                        _run_one_seed, raw, scenario.name, s, horizon, str(out_dir)
                    )
                    for s in seeds
                ]
                for fut in futures:
                    seed, summary = fut.result()
                    per_seed[str(seed)] = summary
        else:
            for s in seeds:
                seed, summary = _run_one_seed(
                    raw, scenario.name, s, horizon, str(out_dir)
                )
                per_seed[str(seed)] = summary
    except PolicyError as exc:
        print(f"policy error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE

    problem = build_lp(scenario.cfg, scenario.cm, eps_g=scenario.eps_g)
    solution = solve_lp(problem)
    lp_block = {"status": solution.status, "eps_g": scenario.eps_g}
    if solution.status == "optimal":
        lp_block["objective"] = solution.objective

    costs = [per_seed[str(s)]["avg_cost"] for s in seeds]
    fractions = [per_seed[str(s)]["stability_fraction"] for s in seeds]
    summary = {
        "scenario": scenario.name,
        "policy": scenario.policy_name,
        "policy_params": scenario.policy_params,
        "horizon": horizon,
        "window": scenario.window,
        "q_bar": scenario.q_bar,
        "arrival_law": scenario.arrival_law,
        "regimes": list(scenario.regime.changes) if scenario.regime else None,
        "lp": lp_block,
        "seeds": per_seed,
        "aggregate": {
            "avg_cost_mean": float(np.mean(costs)),
            "avg_cost_min": float(np.min(costs)),
            "avg_cost_max": float(np.max(costs)),
            "stability_fraction_min": float(np.min(fractions)),
        },
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")

    manifest = {
        "package_version": _package_version(),
        "scenario_file": str(Path(args.config).resolve()),
        "config_sha256": config_hash,
        "config": raw,
        "seeds": list(seeds),
        "horizon": horizon,
        "jobs": args.jobs,
        "outputs": sorted(p["csv"] for p in per_seed.values()),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    print(
        f"ran {len(seeds)} seed(s) x {horizon} slots "
        f"({scenario.policy_name} on {scenario.name}); "
        f"avg cost {summary['aggregate']['avg_cost_mean']:.4f}, "
        f"outputs in {out_dir}"
    )
    return EXIT_OK


def _parse_seed_list(text: str) -> list[int]:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated nonnegative integers, got {text!r}"
        ) from None
    if not seeds or any(s < 0 for s in seeds):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated nonnegative integers, got {text!r}"
        )
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bssched",
        description="Base-station scheduling with activation and switching costs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario over one or more seeds")
    p_run.add_argument("--config", required=True, help="scenario JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument(
        "--seeds", type=_parse_seed_list, default=None, help="comma-separated seeds"
    )
    p_run.add_argument("--horizon", type=int, default=None, help="override slots")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_run.set_defaults(func=cmd_run)

    p_lp = sub.add_parser("lp", help="solve the planning LP and print the report")
    p_lp.add_argument("--config", required=True, help="scenario JSON file")
    p_lp.add_argument("--eps-g", type=float, default=None, help="coverage slack")
    p_lp.add_argument(
        "--perturb", type=float, default=0.0, help="cost perturbation radius"
    )
    p_lp.add_argument("--seed", type=int, default=0, help="perturbation seed")
    p_lp.add_argument("--out", default=None, help="write report JSON here")
    p_lp.set_defaults(func=cmd_lp)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--config", required=True, help="scenario JSON file")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PolicyError as exc:
        print(f"policy error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
