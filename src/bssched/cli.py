"""Command line interface: validate scenarios, solve the planning LP, run batches.

A scenario file is a JSON object with the blocks network, channel,
arrivals, policy and run; ``SCHEMA`` lists every key with its type and
default. Types are strict (a bool is not a number, numbers are finite),
unknown keys are rejected in every block, and every problem is reported.

Exit codes: 0 success, 1 invalid configuration, 2 runtime or solver
failure, 3 infeasible planning LP.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .lp import beta_to_alpha, build_lp, expected_offered_rates, perturb_cost, solve_lp
from .model import NetworkConfig
from .policies import POLICY_DEFAULTS, PolicyError, make_policy, policy_errors
from .rateregion import EXPLICIT, ONE_USER_PER_STATION, ChannelModel, ChannelState
from .sim import RegimeSchedule, arrival_errors, run, stability_fraction

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
CSV_FORMATS = ("%d", "%d", "%.10g", "%.10g", "%.10g", "%d", "%d", "%.10g", "%.10g")  # per column
CSV_BLOCK = 128  # rows formatted at a time


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
    raw: dict

    @property
    def eps_g(self) -> float:
        """The coverage slack the scenario's policy plans with."""
        return self.policy_params.get("eps_g", POLICY_DEFAULTS["eps_g"])


@dataclass(frozen=True)
class Default:
    """An optional key: a present value follows ``spec``; an absent one is ``value``."""

    spec: object
    value: object = None


# The one table of scenario keys. A dict is a block, [spec] a list, (spec,
# ...) a list of fixed length, a type a JSON scalar; those keys are required.
# Default marks an optional key; a plain value v stands for
# Default(type(v), v). parse_scenario unpacks the blocks in this order.
SCHEMA = {
    "name": Default(str),
    "network": {
        "n_users": int,
        "n_stations": int,
        "adjacency": [(int, int)],
        "arrival_rate": 0.0,
        "arrival_rates": Default([[float]]),
        "max_arrivals": 1,
        "max_rate": 1,
        "costs": {"switch_off": 1.0, "active": 1.0, "switch_on": 0.0, "sleep": 0.0},
    },
    "channel": {
        "interference": ONE_USER_PER_STATION,
        "states": [{"name": Default(str), "rates": [[int]]}],
        "pmf": [float],
        "regions": Default([[[[int]]]]),
    },
    "arrivals": {"law": "bernoulli", "regimes": Default([(int, float)])},
    "policy": {"name": "always_on", **POLICY_DEFAULTS},
    "run": {
        "horizon": 10000,
        "seeds": Default([int], (0,)),
        "window": 200,
        "q_bar": 200.0,
    },
}

_MISSING = object()
_KINDS = {
    int: "an integer",
    float: "a finite number",
    str: "a string",
    bool: "a boolean",
    list: "a list",
    dict: "an object",
}


def _is(kind: type, value) -> bool:
    """True if ``value`` is a JSON ``kind``; a bool is no number, a float is finite."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is float:  # also false for NaN, infinities and ints beyond float range
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _check(spec, value, where: str, errors: list[str]):
    """``value`` checked against ``spec`` and defaults filled in, or None on error."""
    if isinstance(spec, (bool, int, float, str)):
        spec = Default(type(spec), spec)
    if isinstance(spec, Default):
        if value is _MISSING:
            return spec.value
        spec = spec.spec
    kind = {dict: dict, list: list, tuple: list}.get(type(spec), spec)
    value = {} if kind is dict and value is _MISSING else value
    if value is _MISSING:
        errors.append(f"{where}: missing required key")
        return None
    if not _is(kind, value):
        errors.append(f"{where}: must be {_KINDS[kind]}")
        return None
    n_errors = len(errors)
    if kind is dict:
        errors.extend(f"{where}: unknown key {k!r}" for k in value if k not in spec)
        out = {
            key: _check(sub, value.get(key, _MISSING), f"{where}.{key}", errors)
            for key, sub in spec.items()
        }
    elif kind is list:
        subs = spec if isinstance(spec, tuple) else spec * len(value)
        if len(subs) != len(value):
            errors.append(f"{where}: must be a list of {len(subs)} items")
            return None
        out = tuple(
            _check(sub, v, f"{where}[{i}]", errors)
            for i, (sub, v) in enumerate(zip(subs, value))
        )
    else:
        out = spec(value)
    return out if len(errors) == n_errors else None


def _array(value, key: str, dtype=None) -> np.ndarray:
    """``value`` as an array; a ragged one raises a ValueError naming ``key``."""
    try:
        return np.asarray(value, dtype=dtype)
    except ValueError:
        raise ValueError(f"{key} must be rectangular, all rows of one length") from None


def parse_scenario(data: dict, name: str = "scenario") -> Scenario:
    """Build a Scenario from parsed JSON, collecting every problem found.

    ``SCHEMA`` checks the keys and types of every block; each block that
    passes is then checked by the model, channel, arrival and policy rules.
    """
    if not isinstance(data, dict):
        raise ScenarioError(["top level must be a JSON object"])
    errors = [f"unknown top-level key {k!r}" for k in data if k not in SCHEMA]
    title, net, chan, arrivals, policy, run_blk = (
        _check(sub, data.get(key, _MISSING), key, errors) for key, sub in SCHEMA.items()
    )

    cfg = None
    if net is not None:
        rates = net["arrival_rates"]
        if rates is not None and "arrival_rate" in data["network"]:
            errors.append("network.arrival_rate: not read when arrival_rates is given")
        if rates is None:
            shape = (max(net["n_stations"], 0), max(net["n_users"], 0))
            rates = np.zeros(shape)
            for m, u in net["adjacency"]:
                if 0 <= m < shape[0] and 0 <= u < shape[1]:
                    rates[m, u] = net["arrival_rate"]
        try:
            cfg = NetworkConfig(
                n_users=net["n_users"],
                n_stations=net["n_stations"],
                adjacency=net["adjacency"],
                arrival_rates=_array(rates, "arrival_rates", float),
                max_arrivals=net["max_arrivals"],
                max_rate=net["max_rate"],
                **{f"{key}_cost": cost for key, cost in net["costs"].items()},
            )
        except ValueError as exc:
            errors.append(f"network: {exc}")

    cm = None
    if chan is not None:
        regions = chan["regions"]
        if regions is not None and chan["interference"] != EXPLICIT:
            errors.append("channel.regions: read only under explicit interference")
        try:
            cm = ChannelModel(
                states=tuple(
                    ChannelState(
                        st["name"] or f"state_{i}",
                        _array(st["rates"], f"states[{i}].rates"),
                    )
                    for i, st in enumerate(chan["states"])
                ),
                pmf=np.asarray(chan["pmf"], dtype=float),
                interference=chan["interference"],
                explicit_regions=regions and tuple(
                    _array(r, f"regions[{h}]") for h, r in enumerate(regions)
                ),
            )
        except ValueError as exc:
            errors.append(f"channel: {exc}")
    if cm is not None and cfg is not None:
        errors.extend(f"channel: {err}" for err in cm.validate_against(cfg))

    regime = None
    if arrivals is not None:
        if arrivals["regimes"] is not None:
            try:
                regime = RegimeSchedule(changes=arrivals["regimes"])
            except ValueError as exc:
                errors.append(f"arrivals: bad regimes: {exc}")
        where = "arrivals.regimes" if regime is not None else "arrivals"
        problems = arrival_errors(cfg, arrivals["law"], regime)
        errors.extend(f"{where}: {err}" for err in problems)
    if regime is not None and run_blk is not None:
        if any(s > run_blk["horizon"] for s in regime.boundaries()):
            errors.append("arrivals: regime change beyond the run horizon")

    if policy is not None:
        errors.extend(f"policy: {err}" for err in policy_errors(policy))

    if run_blk is not None:
        for key in ("horizon", "window"):
            if run_blk[key] < 1:
                errors.append(f"run.{key}: must be a positive integer")
        if run_blk["q_bar"] < 0:
            errors.append("run.q_bar: must be nonnegative")
        seeds = run_blk["seeds"]
        if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
            errors.append("run.seeds: must be a nonempty list of distinct seeds >= 0")

    if errors:
        raise ScenarioError(errors)
    return Scenario(
        name=title or name,
        cfg=cfg,
        cm=cm,
        arrival_law=arrivals["law"],
        regime=regime,
        policy_name=policy["name"],
        policy_params={k: v for k, v in data.get("policy", {}).items() if k != "name"},
        horizon=run_blk["horizon"],
        seeds=list(run_blk["seeds"]),
        window=run_blk["window"],
        q_bar=run_blk["q_bar"],
        raw=data,
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScenarioError([f"cannot read scenario {path}: {exc}"]) from exc
    return parse_scenario(data, name=path.stem)


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    return Path(str(resources.files("bssched").joinpath("scenarios", f"{name}.json")))


def reference_scenario() -> tuple[NetworkConfig, ChannelModel]:
    """The network and channel of the bundled ``reference`` scenario."""
    scenario = load_scenario(bundled_scenario_path("reference"))
    return scenario.cfg, scenario.cm


def _write_csv(path: Path, trace, window: int) -> None:
    """One row per slot under a ``CSV_COLUMNS`` header, CRLF line ends, each
    column in its ``CSV_FORMATS`` entry: ints as ``%d`` (the explore flag as
    0/1), floats as ``%.10g`` (NaN as ``nan``). A value column that is
    bitwise constant over the run is formatted once, into the row template,
    so ``-0.0`` and ``0.0`` stay apart. Rows go out ``CSV_BLOCK`` at a time,
    each varying column of a block converted once with ``tolist()``, so
    memory stays flat at any horizon."""
    columns = (
        trace.total_queue, trace.cost, trace.running_avg_cost(), trace.windowed_cost(window),
        trace.j_bits, trace.explore, trace.mu_err, trace.lambda_err,
    )
    fields, varying = [CSV_FORMATS[0]], []
    for fmt, column in zip(CSV_FORMATS[1:], columns):
        bits = column.view(f"u{column.itemsize}")
        if (bits == bits[0]).all():
            fields.append(fmt % column[0].item())  # no format writes a %
        else:
            fields.append(fmt)
            varying.append(column)
    row = ",".join(fields) + "\r\n"
    with path.open("w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for lo in range(0, trace.horizon, CSV_BLOCK):
            block = [column[lo : lo + CSV_BLOCK].tolist() for column in varying]
            slots = range(lo + 1, min(lo + CSV_BLOCK, trace.horizon) + 1)
            fh.write("".join(row % values for values in zip(slots, *block)))


def _run_one_seed(scenario: Scenario, seed: int, horizon: int, out_dir: str):
    """Worker for one (scenario, seed) run; safe to call in a subprocess.

    Returns the seed, its summary, and the ``lp`` block of the policy's
    own planning solution (None when the policy holds none).
    """
    rng = np.random.default_rng(seed)
    policy = make_policy(
        scenario.policy_name, scenario.cfg, scenario.cm, rng, scenario.policy_params
    )
    trace = run(
        scenario.cfg,
        scenario.cm,
        policy,
        horizon=horizon,
        rng=rng,
        regime=scenario.regime,
        arrival_law=scenario.arrival_law,
    )
    csv_path = Path(out_dir) / f"{scenario.name}_seed{seed}.csv"
    _write_csv(csv_path, trace, scenario.window)
    half = trace.horizon // 2 + 1
    plan = policy.solution
    if plan is not None:
        plan = _lp_block(plan, scenario.eps_g)
    return seed, plan, {
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
        "lp_solves": policy.lp_solves,
        "lp_warm_solves": policy.lp_warm_solves,
        "lp_pivots": policy.lp_pivots,
        "lp_eliminations": policy.lp_eliminations,
    }


def _nan_to_none(x: float):
    return None if np.isnan(x) else float(x)


def _lp_block(solution, eps_g: float) -> dict:
    """The ``lp`` block of summary.json for a planning LP solution."""
    block = {"status": solution.status, "eps_g": eps_g}
    if solution.status == "optimal":
        block["objective"] = solution.objective
    return block


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
        "n_equalities": problem.a.shape[0] - problem.rates.shape[0],
        "n_coverage_rows": problem.rates.shape[0],
        "pivots": solution.iterations,
        "eliminations": solution.eliminations,
    }
    if solution.status != "optimal":
        return report
    sigma = solution.sigma
    alpha = beta_to_alpha(problem, solution)
    offered = expected_offered_rates(problem, solution)
    required = problem.b[-problem.rates.shape[0] :]
    report.update(
        {
            "objective": solution.objective,
            "expected_active_stations": float(
                sigma @ problem.activations.sum(axis=1)
            ),
            "activity_cost": float(problem.base_cost[: problem.n_act] @ sigma),
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
                [m, u, float(rate)]
                for (m, u), rate in zip(scenario.cfg.adjacency, required)
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
    scenario = load_scenario(args.config)
    eps_g = scenario.eps_g if args.eps_g is None else args.eps_g
    report = _lp_report(scenario, eps_g, args.perturb, args.seed)
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK if report["status"] == "optimal" else EXIT_INFEASIBLE


def cmd_run(args) -> int:
    scenario = load_scenario(args.config)
    seeds = scenario.seeds if args.seeds is None else args.seeds
    horizon = scenario.horizon if args.horizon is None else args.horizon
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    config_hash = hashlib.sha256(
        json.dumps(scenario.raw, sort_keys=True).encode()
    ).hexdigest()

    seed_args = [(scenario, s, horizon, str(out_dir)) for s in seeds]
    # a forked pool starts all its workers at the first submit
    jobs = min(args.jobs, len(seeds))
    if jobs > 1:
        # imported here: concurrent.futures and multiprocessing cost a serial
        # run tens of milliseconds of start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one_seed, *zip(*seed_args)))
    else:
        results = [_run_one_seed(*a) for a in seed_args]
    per_seed = {str(seed): summary for seed, _, summary in results}

    # A policy that plans under the true parameters already solved this LP.
    lp_block = results[0][1]
    if lp_block is None:
        problem = build_lp(scenario.cfg, scenario.cm, eps_g=scenario.eps_g)
        lp_block = _lp_block(solve_lp(problem), scenario.eps_g)

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
        "package_version": __version__,
        "scenario_file": str(Path(args.config).resolve()),
        "config_sha256": config_hash,
        "config": scenario.raw,
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
    parts = [part.strip() for part in text.split(",")]
    seeds = [int(part) for part in parts if part.isdecimal()]
    if len(seeds) < len(parts) or len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated distinct nonnegative integers, got {text!r}"
        )
    return seeds


def _nonneg_int(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}"
        )
    return int(text)


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _nonneg_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not 0 <= value <= sys.float_info.max:  # NaN fails too
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


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
    p_run.add_argument("--horizon", type=_positive_int, help="override slots")
    p_run.add_argument(
        "--jobs", type=_positive_int, default=1, help="parallel worker processes"
    )
    p_run.set_defaults(func=cmd_run)

    p_lp = sub.add_parser("lp", help="solve the planning LP and print the report")
    p_lp.add_argument("--config", required=True, help="scenario JSON file")
    p_lp.add_argument("--eps-g", type=_nonneg_float, help="coverage slack")
    p_lp.add_argument(
        "--perturb", type=_nonneg_float, default=0.0, help="cost perturbation radius"
    )
    p_lp.add_argument("--seed", type=_nonneg_int, default=0, help="perturbation seed")
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
    except ScenarioError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except PolicyError as exc:
        print(f"policy error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
