"""CLI tests: scenario validation, LP reports, batch runs, frozen outputs."""

import argparse
import copy
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bssched
import bssched.cli as cli_module
import bssched.policies as policies_module
from bssched.cli import (
    CSV_COLUMNS,
    EXIT_INFEASIBLE,
    EXIT_INVALID_CONFIG,
    EXIT_OK,
    ScenarioError,
    _nonneg_float,
    _parse_seed_list,
    _positive_int,
    bundled_scenario_path,
    load_scenario,
    main,
    parse_scenario,
    reference_scenario,
)
from bssched.lp import build_lp, solve_lp
from bssched.policies import POLICY_DEFAULTS, make_policy
from bssched.sim import run

from oracles import csv_module_write

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture()
def reference_config():
    return json.loads(bundled_scenario_path("reference").read_text())


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return path


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_bundled_scenarios(capsys):
    for name in ("reference", "reference_regime"):
        code = main(["validate", "--config", str(bundled_scenario_path(name))])
        assert code == EXIT_OK
        assert "OK" in capsys.readouterr().out


def test_bundled_scenario_matches_library_reference():
    """The bundled file has the reference network the README documents."""
    scenario = load_scenario(bundled_scenario_path("reference"))
    cfg, cm = scenario.cfg, scenario.cm
    mask = cfg.adjacency_mask()
    assert mask.sum(axis=1).tolist() == [3, 4, 3]  # station degrees
    assert mask.sum(axis=0).tolist() == [2] * 5  # every user covered twice
    assert [st.name for st in cm.states] == [
        "all_bad", "good_station_0", "good_station_1", "good_station_2"
    ]
    assert cm.pmf.tolist() == [0.25] * 4
    assert scenario.arrival_law == "bernoulli" and scenario.regime is None
    assert np.array_equal(cfg.arrival_rates, np.where(mask, 0.1, 0.0))
    assert (cfg.switch_off_cost, cfg.active_cost) == (1.0, 1.0)
    assert (cfg.switch_on_cost, cfg.sleep_cost) == (0.0, 0.0)
    assert scenario.policy_name == "algorithm1"
    assert scenario.horizon == 200_000
    assert scenario.seeds == [0, 1, 2, 3, 4]


def test_validate_collects_every_error(tmp_path, capsys, reference_config):
    bad = copy.deepcopy(reference_config)
    bad["channel"]["pmf"] = [0.5, 0.5, 0.5, 0.25]
    bad["policy"]["eps_s"] = 1.5
    bad["run"]["seeds"] = []
    path = write_config(tmp_path, bad)
    code = main(["validate", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_INVALID_CONFIG
    assert "INVALID: 3 problem(s)" in out
    assert "channel" in out
    assert "eps_s" in out
    assert "seeds" in out


def test_validate_rejects_regime_beyond_horizon(tmp_path, capsys, reference_config):
    bad = copy.deepcopy(reference_config)
    bad["arrivals"]["regimes"] = [[300_000, 0.5]]
    path = write_config(tmp_path, bad)
    assert main(["validate", "--config", str(path)]) == EXIT_INVALID_CONFIG
    assert "regime change beyond the run horizon" in capsys.readouterr().out


def test_validate_rejects_negative_switch_gap(tmp_path, capsys, reference_config):
    bad = copy.deepcopy(reference_config)
    bad["policy"]["min_switch_gap"] = -1
    path = write_config(tmp_path, bad)
    assert main(["validate", "--config", str(path)]) == EXIT_INVALID_CONFIG
    assert "min_switch_gap" in capsys.readouterr().out


def test_validate_rejects_unknown_policy_key(tmp_path, capsys, reference_config):
    """Every POLICY_DEFAULTS key is accepted; the misspelt one is the only error."""
    bad = copy.deepcopy(reference_config)
    bad["policy"] = {"name": "algorithm1_tracking", **POLICY_DEFAULTS, "eps_ss": 0.9}
    path = write_config(tmp_path, bad)
    assert main(["validate", "--config", str(path)]) == EXIT_INVALID_CONFIG
    out = capsys.readouterr().out
    assert "INVALID: 1 problem(s)" in out
    assert "unknown key 'eps_ss'" in out


def _set(*path_and_value):
    """Edit that sets data[k1][k2]...[kn] = value on a scenario dict."""
    *path, key, value = path_and_value

    def edit(data):
        for step in path:
            data = data[step]
        data[key] = value

    return edit


def _both_arrival_keys(data):
    """Give the matrix beside the uniform rate, at a value that differs."""
    net = data["network"]
    rates = [[0.0] * net["n_users"] for _ in range(net["n_stations"])]
    for m, u in net["adjacency"]:
        rates[m][u] = 0.2
    net["arrival_rates"] = rates


def _arrival_rates(rates):
    """Edit that gives ``rates`` as the only arrival key."""

    def edit(data):
        del data["network"]["arrival_rate"]
        data["network"]["arrival_rates"] = rates

    return edit


MALFORMED = {
    "nan_pmf": (_set("channel", "pmf", [float("nan"), 0.5, 0.25, 0.25]), "pmf"),
    "nan_arrival_rate": (_set("network", "arrival_rate", float("nan")), "arrival_rate"),
    "string_max_rate": (_set("network", "max_rate", "2"), "max_rate"),
    "string_cost": (_set("network", "costs", "active", "1.0"), "active"),
    "cost_beyond_float_range": (_set("network", "costs", "sleep", 10**400), "sleep"),
    "policy_not_object": (_set("policy", 5), "policy"),
    "arrivals_not_object": (_set("arrivals", []), "arrivals"),
    "run_not_object": (_set("run", []), "run"),
    "fractional_max_arrivals": (_set("network", "max_arrivals", 1.5), "max_arrivals"),
    "bool_horizon": (_set("run", "horizon", True), "horizon"),
    "bool_eps_s": (_set("policy", "eps_s", True), "eps_s"),
    "string_flag": (
        _set("policy", "update_arrivals_every_slot", "yes"),
        "update_arrivals_every_slot",
    ),
    "zero_window": (_set("run", "window", 0), "window"),
    "repeated_seed": (_set("run", "seeds", [0, 0, 1]), "run.seeds"),
    "bernoulli_regime_scale_20": (_set("arrivals", "regimes", [[10, 20.0]]), "regimes"),
    "numeric_name": (_set("name", 7), "name"),
    "numeric_state_name": (_set("channel", "states", 0, "name", 3), "states[0].name"),
    "misspelt_network_key": (_set("network", "max_arivals", 1), "max_arivals"),
    "dropped_drift_window": (_set("run", "drift_window", 100), "drift_window"),
    "regions_without_explicit": (_set("channel", "regions", [[[[9]]]]), "channel.regions"),
    "arrival_rate_beside_matrix": (_both_arrival_keys, "network.arrival_rate:"),
    "negative_q_bar": (_set("run", "q_bar", -1.0), "run.q_bar"),
    "adjacency_triple": (_set("network", "adjacency", 0, [0, 0, 1]), "adjacency[0]"),
    "zero_max_arrivals": (_set("network", "max_arrivals", 0), "max_arrivals must be"),
    "zero_max_rate": (_set("network", "max_rate", 0), "max_rate must be"),
    "arrival_rates_shape": (_arrival_rates([[0.1] * 5] * 2), "arrival_rates shape"),
    "ragged_arrival_rates": (
        _arrival_rates([[0.1] * 5, [0.1] * 4, [0.1] * 5]),
        "network: arrival_rates must be rectangular",
    ),
    "decreasing_regimes": (
        _set("arrivals", "regimes", [[20, 0.5], [10, 2.0]]),
        "strictly increasing",
    ),
    "short_pmf": (_set("channel", "pmf", [0.5, 0.5]), "pmf length"),
    "unknown_interference": (_set("channel", "interference", "sinr"), "'sinr'"),
    "state_rates_shape": (_set("channel", "states", 1, "rates", [[1]]), "rates shape"),
    "ragged_state_rates": (
        _set("channel", "states", 2, "rates", [[1, 1], [1]]),
        "channel: states[2].rates must be rectangular",
    ),
    "unknown_policy_name": (_set("policy", "name", "round_robin"), "unknown policy"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_validate_rejects_malformed_input(case, tmp_path, capsys, reference_config):
    """Each defect alone is exactly one problem, exit 1, and names its key."""
    edit, key = MALFORMED[case]
    bad = copy.deepcopy(reference_config)
    edit(bad)
    path = write_config(tmp_path, bad)
    assert main(["validate", "--config", str(path)]) == EXIT_INVALID_CONFIG
    out = capsys.readouterr().out
    assert "INVALID: 1 problem(s)" in out
    assert key in out


def test_validate_accepts_zero_q_bar(tmp_path, capsys, reference_config):
    edited = copy.deepcopy(reference_config)
    edited["run"]["q_bar"] = 0
    path = write_config(tmp_path, edited)
    assert main(["validate", "--config", str(path)]) == EXIT_OK


def test_arrival_rates_matrix_alone_is_read(reference_config):
    edited = copy.deepcopy(reference_config)
    _both_arrival_keys(edited)
    del edited["network"]["arrival_rate"]
    cfg = parse_scenario(edited).cfg
    assert np.array_equal(cfg.arrival_rates, np.where(cfg.adjacency_mask(), 0.2, 0.0))


def test_validate_collects_problems_across_blocks(tmp_path, capsys, reference_config):
    bad = copy.deepcopy(reference_config)
    for case in ("string_max_rate", "nan_pmf", "bool_eps_s", "zero_window"):
        MALFORMED[case][0](bad)
    path = write_config(tmp_path, bad)
    assert main(["validate", "--config", str(path)]) == EXIT_INVALID_CONFIG
    out = capsys.readouterr().out
    assert "INVALID: 4 problem(s)" in out
    for key in ("max_rate", "pmf", "eps_s", "window"):
        assert key in out


def test_unknown_law_is_reported_beside_network_problems(reference_config):
    bad = copy.deepcopy(reference_config)
    bad["arrivals"] = {"law": "poisson"}
    MALFORMED["string_max_rate"][0](bad)
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(bad)
    assert len(caught.value.errors) == 2
    assert any("network.max_rate" in err for err in caught.value.errors)
    assert any("arrival_law must be one of" in err for err in caught.value.errors)


def test_run_rejects_unreachable_regime_scale_before_writing(
    tmp_path, capsys, reference_config
):
    bad = copy.deepcopy(reference_config)
    MALFORMED["bernoulli_regime_scale_20"][0](bad)
    path = write_config(tmp_path, bad)
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out), "--horizon", "20"])
    assert code == EXIT_INVALID_CONFIG
    assert "config error: arrivals.regimes" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def _explicit_scenario(regions):
    """One station, users 0 and 1, only link (0, 0), rates up to 1."""
    return {
        "network": {
            "n_users": 2, "n_stations": 1, "adjacency": [[0, 0]], "arrival_rate": 0.3
        },
        "channel": {
            "interference": "explicit",
            "states": [{"rates": [[1, 0]]}],
            "pmf": [1.0],
            "regions": [regions],
        },
    }


@pytest.mark.parametrize(
    "regions, problem",
    [
        ([[[0, 0]], [[1, 0]]], None),
        ([[[0, 0, 0]], [[1, 0, 0]]], "state 0: region members have wrong shape"),
        ([[[1, 0]]], "state 0: region must contain the zero matrix"),
        ([[[0, 0]], [[2, 0]]], "state 0: region rates outside [0, max_rate]"),
        ([[[0, 0]], [[0, 1]]], "state 0: region rate off the adjacency"),
        ([[[0, 0]], [[1, 0], [0, 0]]], "regions[0] must be rectangular"),
    ],
)
def test_validate_checks_explicit_regions(regions, problem, tmp_path, capsys):
    path = write_config(tmp_path, _explicit_scenario(regions))
    code = main(["validate", "--config", str(path)])
    out = capsys.readouterr().out
    if problem is None:
        assert code == EXIT_OK
        return
    assert code == EXIT_INVALID_CONFIG
    assert "INVALID: 1 problem(s)" in out
    assert f"channel: {problem}" in out


def test_validate_rejects_a_top_level_that_is_not_an_object(tmp_path, capsys):
    path = write_config(tmp_path, [1, 2])
    assert main(["validate", "--config", str(path)]) == EXIT_INVALID_CONFIG
    out = capsys.readouterr().out
    assert "INVALID: 1 problem(s)" in out
    assert "top level must be a JSON object" in out


def test_validate_missing_file(tmp_path, capsys):
    code = main(["validate", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_INVALID_CONFIG
    assert "cannot read" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["validate", "lp", "run"])
def test_a_scenario_that_is_not_utf8_is_an_invalid_config(tmp_path, capsys, command):
    path = tmp_path / "scenario.json"
    path.write_bytes(b"\xff\xfe{}")
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_INVALID_CONFIG
    captured = capsys.readouterr()
    assert f"cannot read scenario {path}: 'utf-8' codec can't decode" in captured.out + captured.err


def test_parse_scenario_requires_blocks():
    with pytest.raises(ScenarioError, match="network"):
        parse_scenario({"channel": {}})
    with pytest.raises(ScenarioError, match="channel"):
        parse_scenario({"network": {}})


def test_explicit_interference_scenario(tmp_path):
    data = {
        "name": "tiny_explicit",
        "network": {
            "n_users": 1,
            "n_stations": 1,
            "adjacency": [[0, 0]],
            "arrival_rate": 0.3,
        },
        "channel": {
            "interference": "explicit",
            "states": [{"name": "h0", "rates": [[1]]}],
            "pmf": [1.0],
            "regions": [[[[0]], [[1]]]],
        },
        "policy": {"name": "static_split_mw", "eps_s": 0.1, "eps_g": 0.1},
        "run": {"horizon": 50, "seeds": [0]},
    }
    path = write_config(tmp_path, data)
    assert main(["validate", "--config", str(path)]) == EXIT_OK
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK


def test_parse_seed_list():
    assert _parse_seed_list("1,2,3") == [1, 2, 3]
    assert _parse_seed_list("7") == [7]
    assert _parse_seed_list("0,5") == [0, 5]


@pytest.mark.parametrize("text", ["", ",", "1,,2", ",3", "4,", "1,a", "-1", "2,-3"])
def test_parse_seed_list_rejects_bad_input(text):
    with pytest.raises(argparse.ArgumentTypeError, match="nonnegative integers"):
        _parse_seed_list(text)


def test_run_rejects_repeated_seeds(tmp_path, capsys):
    """A repeated seed would count twice in the aggregate and race two workers."""
    config = str(bundled_scenario_path("reference"))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", config, "--out", str(tmp_path), "--seeds", "0,0,1"])
    assert exc.value.code == 2
    assert "distinct nonnegative integers, got '0,0,1'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_positive_int():
    assert _positive_int("1") == 1
    assert _positive_int("12") == 12


@pytest.mark.parametrize("text", ["0", "-2", "a", "", "1.5"])
def test_positive_int_rejects_bad_input(text):
    with pytest.raises(argparse.ArgumentTypeError, match="positive integer"):
        _positive_int(text)


def test_nonneg_float():
    assert _nonneg_float("0") == 0.0
    assert _nonneg_float("0.05") == 0.05
    assert _nonneg_float("1e-3") == 0.001


@pytest.mark.parametrize("text", ["-0.5", "nan", "inf", "a", ""])
def test_nonneg_float_rejects_bad_input(text):
    with pytest.raises(argparse.ArgumentTypeError, match="finite number >= 0"):
        _nonneg_float(text)


def test_run_rejects_nonpositive_jobs(tmp_path, capsys):
    config = str(bundled_scenario_path("reference"))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", config, "--out", str(tmp_path), "--jobs", "0"])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# lp
# ---------------------------------------------------------------------------


def test_lp_report_on_reference(capsys):
    code = main(["lp", "--config", str(bundled_scenario_path("reference"))])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "optimal"
    # eps_g defaults to the policy block's value
    assert report["eps_g"] == 0.05
    assert report["dimension"] == 608
    assert report["n_equalities"] == 33
    assert report["n_coverage_rows"] == 10
    assert report["objective"] == pytest.approx(1.2, abs=1e-9)
    assert report["expected_active_stations"] == pytest.approx(1.2, abs=1e-9)
    probs = [entry["probability"] for entry in report["sigma"]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    offered = {(m, u): r for m, u, r in
               [(int(x[0]), int(x[1]), float(x[2])) for x in report["required_rates"]]}
    assert all(rate == pytest.approx(0.15) for rate in offered.values())
    kept = {entry["id"] for entry in report["sigma"]}
    for key in report["alpha"]:
        j_idx = int(key.split(",")[0])
        assert j_idx in kept


def test_lp_report_counts_the_solves_pivots(capsys, tmp_path, reference_config):
    cfg, cm = reference_scenario()
    solved = solve_lp(build_lp(cfg, cm, eps_g=0.05))
    assert main(["lp", "--config", str(bundled_scenario_path("reference"))]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["pivots"] == solved.iterations > 0
    assert report["eliminations"] == solved.eliminations == 1  # the certificate's

    heavy = copy.deepcopy(reference_config)
    heavy["network"]["arrival_rate"] = 0.5
    code = main(["lp", "--config", str(write_config(tmp_path, heavy))])
    assert code == EXIT_INFEASIBLE
    assert json.loads(capsys.readouterr().out)["pivots"] > 0


def test_lp_zero_slack_objective(capsys):
    code = main(
        ["lp", "--config", str(bundled_scenario_path("reference")), "--eps-g", "0"]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["objective"] == pytest.approx(0.8, abs=1e-9)


def test_lp_and_summary_plan_at_the_policy_default_slack(
    tmp_path, capsys, reference_config
):
    """Without an eps_g key, the reported LP is the one the policy plans with."""
    split = copy.deepcopy(reference_config)
    split["policy"] = {"name": "static_split_mw"}
    path = write_config(tmp_path, split)
    cfg, cm = reference_scenario()
    planned = make_policy("static_split_mw", cfg, cm, np.random.default_rng(0))
    assert planned.eps_g == POLICY_DEFAULTS["eps_g"] == 0.05
    assert planned.planned_cost == pytest.approx(1.2, abs=1e-9)

    assert main(["lp", "--config", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["eps_g"] == 0.05
    assert report["objective"] == pytest.approx(planned.planned_cost, abs=1e-9)

    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(path), "--out", str(out), "--horizon", "20",
         "--seeds", "0"]
    )
    assert code == EXIT_OK
    lp_block = json.loads((out / "summary.json").read_text())["lp"]
    assert lp_block["eps_g"] == 0.05
    assert lp_block["objective"] == pytest.approx(planned.planned_cost, abs=1e-9)


def test_lp_infeasible_load_exits_3(tmp_path, capsys, reference_config):
    heavy = copy.deepcopy(reference_config)
    heavy["network"]["arrival_rate"] = 0.5
    path = write_config(tmp_path, heavy)
    code = main(["lp", "--config", str(path)])
    assert code == EXIT_INFEASIBLE
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "infeasible"
    assert "objective" not in report


def test_lp_zero_load_turns_everything_off(tmp_path, capsys, reference_config):
    idle = copy.deepcopy(reference_config)
    idle["network"]["arrival_rate"] = 0.0
    path = write_config(tmp_path, idle)
    code = main(["lp", "--config", str(path), "--eps-g", "0"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["objective"] == pytest.approx(0.0, abs=1e-9)
    assert len(report["sigma"]) == 1
    assert report["sigma"][0]["activation"] == [0, 0, 0]
    assert report["sigma"][0]["probability"] == pytest.approx(1.0)


def sleepy_reference(reference_config):
    """The reference scenario with an OFF station costing 2, an ON one 1."""
    sleepy = copy.deepcopy(reference_config)
    sleepy["network"]["costs"]["sleep"] = 2.0
    return sleepy


def test_lp_prices_the_sleep_cost(tmp_path, capsys, reference_config):
    """Activation j costs |j| + 2 (3 - |j|), so the plan keeps all three ON."""
    path = write_config(tmp_path, sleepy_reference(reference_config))
    assert main(["lp", "--config", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["objective"] == pytest.approx(3.0, abs=1e-9)
    assert report["activity_cost"] == pytest.approx(3.0, abs=1e-9)
    assert [(e["id"], e["activation"]) for e in report["sigma"]] == [(7, [1, 1, 1])]
    assert report["sigma"][0]["probability"] == pytest.approx(1.0, abs=1e-9)


def test_static_split_pays_the_planned_sleep_cost(tmp_path, reference_config):
    sleepy = sleepy_reference(reference_config)
    sleepy["policy"] = {"name": "static_split_mw"}
    path = write_config(tmp_path, sleepy)
    out = tmp_path / "out"
    argv = ["run", "--config", str(path), "--out", str(out),
            "--horizon", "2000", "--seeds", "0"]
    assert main(argv) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"]["0"]["avg_cost"] == pytest.approx(3.0, abs=1e-9)
    assert summary["lp"]["objective"] == pytest.approx(3.0, abs=1e-9)


def test_lp_report_written_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "lp",
            "--config",
            str(bundled_scenario_path("reference")),
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["objective"] == pytest.approx(1.2, abs=1e-9)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--eps-g", "nan"),  # would put NaN in the report: invalid JSON
        ("--eps-g", "inf"),  # likewise Infinity
        ("--eps-g", "-0.5"),  # a negative slack
        ("--perturb", "inf"),  # fails the LP certificate
        ("--perturb", "nan"),
        ("--perturb", "-0.01"),
    ],
)
def test_lp_rejects_bad_slack_and_perturbation(flag, value, tmp_path, capsys):
    out = tmp_path / "report.json"
    config = str(bundled_scenario_path("reference"))
    with pytest.raises(SystemExit) as exc:
        main(["lp", "--config", config, flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert "finite number >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_lp_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "report.json"
    config = str(bundled_scenario_path("reference"))
    with pytest.raises(SystemExit) as exc:
        main(["lp", "--config", config, "--seed", "-1", "--perturb", "0.01",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "--seed: expected a nonnegative integer, got '-1'" in capsys.readouterr().err
    assert not out.exists()
    assert main(["lp", "--config", config, "--seed", "0", "--perturb", "0.01",
                 "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["status"] == "optimal"


def test_lp_perturbed_objective_close_to_base(capsys):
    code = main(
        [
            "lp",
            "--config",
            str(bundled_scenario_path("reference")),
            "--perturb",
            "0.01",
            "--seed",
            "3",
        ]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["eps_p"] == 0.01
    assert abs(report["objective"] - 1.2) <= 0.05


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_writes_csv_summary_manifest(tmp_path, reference_config):
    out = tmp_path / "out"
    path = write_config(tmp_path, reference_config)
    code = main(
        [
            "run",
            "--config",
            str(path),
            "--out",
            str(out),
            "--horizon",
            "100",
            "--seeds",
            "1,2",
        ]
    )
    assert code == EXIT_OK
    for seed in (1, 2):
        csv_path = out / f"reference_seed{seed}.csv"
        with csv_path.open() as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 101
        assert [r[0] for r in rows[1:3]] == ["1", "2"]

    summary = json.loads((out / "summary.json").read_text())
    assert summary["policy"] == "algorithm1"
    assert summary["horizon"] == 100
    assert summary["lp"]["status"] == "optimal"
    assert summary["lp"]["objective"] == pytest.approx(1.2, abs=1e-9)
    assert set(summary["seeds"]) == {"1", "2"}
    for seed_summary in summary["seeds"].values():
        for key in (
            "avg_cost",
            "mean_total_queue",
            "final_total_queue",
            "stability_fraction",
            "stability_fraction_last_half",
            "switch_count",
            "explore_slots",
        ):
            assert key in seed_summary
    agg = summary["aggregate"]
    assert agg["avg_cost_min"] <= agg["avg_cost_mean"] <= agg["avg_cost_max"]

    manifest = json.loads((out / "manifest.json").read_text())
    expected_hash = hashlib.sha256(
        json.dumps(reference_config, sort_keys=True).encode()
    ).hexdigest()
    assert manifest["config_sha256"] == expected_hash
    assert manifest["seeds"] == [1, 2]
    assert manifest["horizon"] == 100
    assert manifest["outputs"] == ["reference_seed1.csv", "reference_seed2.csv"]
    assert manifest["package_version"] == bssched.__version__


def test_run_reports_nan_estimates_as_null(tmp_path, reference_config):
    quiet = copy.deepcopy(reference_config)
    quiet["policy"] = {"name": "static_split_mw", "eps_s": 0.05, "eps_g": 0.05}
    out = tmp_path / "out"
    path = write_config(tmp_path, quiet)
    code = main(
        ["run", "--config", str(path), "--out", str(out), "--horizon", "50",
         "--seeds", "3"]
    )
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    seed_summary = summary["seeds"]["3"]
    assert seed_summary["mu_err_final"] is None
    assert seed_summary["lambda_err_final"] is None
    assert summary["policy"] == "static_split_mw"


def test_run_parallel_matches_serial(tmp_path, reference_config):
    path = write_config(tmp_path, reference_config)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    for out, jobs in ((serial, "1"), (parallel, "2")):
        code = main(
            [
                "run",
                "--config",
                str(path),
                "--out",
                str(out),
                "--horizon",
                "60",
                "--seeds",
                "4,5",
                "--jobs",
                jobs,
            ]
        )
        assert code == EXIT_OK
    for name in ("reference_seed4.csv", "reference_seed5.csv", "summary.json"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


@pytest.mark.parametrize("seeds, workers", [("0,1", [2]), ("0", [])])
def test_run_starts_no_more_workers_than_seeds(tmp_path, monkeypatch, seeds, workers):
    """``--jobs 64`` on two seeds asks for a pool of two, and on one seed
    runs serially."""
    import concurrent.futures

    started = []

    class RecordingExecutor:
        """Records ``max_workers`` and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    config = str(bundled_scenario_path("reference"))
    args = ["--horizon", "20", "--seeds", seeds, "--jobs", "64"]
    assert main(["run", "--config", config, "--out", str(tmp_path), *args]) == EXIT_OK
    assert started == workers
    assert json.loads((tmp_path / "manifest.json").read_text())["jobs"] == 64


def test_run_parses_the_scenario_once(tmp_path, monkeypatch):
    """The seeds run from the parent's parsed Scenario, not from its JSON."""
    parse = cli_module.parse_scenario
    calls = []

    def counting_parse(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(cli_module, "parse_scenario", counting_parse)
    config = str(bundled_scenario_path("reference"))
    args = ["--horizon", "20", "--seeds", "0,1,2"]
    assert main(["run", "--config", config, "--out", str(tmp_path), *args]) == EXIT_OK
    assert len(calls) == 1


def test_run_overloaded_scenario_exits_3(tmp_path, capsys, reference_config):
    heavy = copy.deepcopy(reference_config)
    heavy["network"]["arrival_rate"] = 0.5
    heavy["policy"] = {"name": "static_split_mw", "eps_s": 0.05, "eps_g": 0.05}
    path = write_config(tmp_path, heavy)
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out), "--horizon", "10"])
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


def test_run_bad_horizon_override_exits_2(tmp_path, capsys, reference_config):
    """Rejected while parsing the arguments, before anything is solved or written."""
    path = write_config(tmp_path, reference_config)
    out = tmp_path / "out"
    for horizon in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            main(
                ["run", "--config", str(path), "--out", str(out),
                 "--horizon", horizon, "--seeds", "1"]
            )
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err
        assert not out.exists()


def test_run_regime_scenario(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--config",
            str(bundled_scenario_path("reference_regime")),
            "--out",
            str(out),
            "--horizon",
            "200",
            "--seeds",
            "0",
        ]
    )
    # the bundled regime switch at slot 50001 exceeds a 200-slot override,
    # which the scenario file itself allows; the run must still work because
    # the run ends before the slot of the change
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["regimes"] == [[50001, 0.5]]
    assert summary["policy"] == "algorithm1_tracking"


def test_summary_reports_the_policys_own_lp_solves(
    tmp_path, monkeypatch, reference_config
):
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(cli_module, "solve_lp", counting_solve)
    monkeypatch.setattr(policies_module, "solve_lp", counting_solve)
    cfg, cm = reference_scenario()
    planned = solve_lp(build_lp(cfg, cm, eps_g=0.05))

    def summary_of(data, horizon, seeds):
        calls.clear()
        out = tmp_path / data["policy"]["name"]
        path = write_config(tmp_path, data)
        argv = ["run", "--config", str(path), "--out", str(out),
                "--horizon", str(horizon), "--seeds", seeds]
        assert main(argv) == EXIT_OK
        return json.loads((out / "summary.json").read_text())

    split = copy.deepcopy(reference_config)
    split["policy"] = {"name": "static_split_mw"}
    summary = summary_of(split, 20, "0,1")
    assert len(calls) == 2  # one per seed, none for the summary's lp block
    assert summary["lp"] == {
        "status": "optimal", "eps_g": 0.05, "objective": planned.objective
    }
    for seed in ("0", "1"):
        seed_summary = summary["seeds"][seed]
        assert seed_summary["lp_solves"] == 1
        assert seed_summary["lp_warm_solves"] == 0
        assert seed_summary["lp_pivots"] == planned.iterations > 0
        assert seed_summary["lp_eliminations"] == planned.eliminations == 1

    always = copy.deepcopy(reference_config)
    always["policy"] = {"name": "always_on"}
    summary = summary_of(always, 20, "0,1")
    assert len(calls) == 1  # the summary's lp block
    assert summary["lp"]["objective"] == planned.objective
    for seed_summary in summary["seeds"].values():
        assert seed_summary["lp_solves"] == seed_summary["lp_pivots"] == 0
        assert seed_summary["lp_eliminations"] == 0

    regime = json.loads(bundled_scenario_path("reference_regime").read_text())
    seed_summary = summary_of(regime, 250, "0")["seeds"]["0"]
    scenario = parse_scenario(regime)
    rng = np.random.default_rng(0)
    policy = make_policy(
        scenario.policy_name, scenario.cfg, scenario.cm, rng, scenario.policy_params
    )
    run(scenario.cfg, scenario.cm, policy, 250, seed=0, rng=rng, regime=scenario.regime)
    assert seed_summary["lp_solves"] == policy.lp_solves > 1
    assert 0 < seed_summary["lp_warm_solves"] == policy.lp_warm_solves
    assert seed_summary["lp_pivots"] == policy.lp_pivots
    assert seed_summary["lp_eliminations"] == policy.lp_eliminations
    # fewer than the two a warm solve would run without reuse
    assert policy.lp_eliminations < 2 * policy.lp_solves


def test_csv_columns_frozen():
    assert CSV_COLUMNS == (
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


# ---------------------------------------------------------------------------
# CSV number formats and writer
# ---------------------------------------------------------------------------

EDGE_NUMBERS = (
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
    sys.float_info.max, 1.2345678905, 7, 12_345_678_901,
)


@pytest.mark.parametrize("x", EDGE_NUMBERS, ids=repr)
def test_percent_g_matches_format_g(x):
    assert "%.10g" % x == "{:.10g}".format(x)


@given(st.floats())
def test_percent_g_matches_format_g_on_every_float(x):
    assert "%.10g" % x == "{:.10g}".format(x)


@given(st.integers())
def test_percent_d_matches_str(n):
    assert "%d" % n == str(n)


def test_percent_d_writes_a_bool_as_0_or_1():
    assert ("%d" % True, "%d" % False) == ("1", "0")


CSV_HORIZONS = [1, 127, 128, 129, 300]  # one row; around and past a CSV_BLOCK


def _trace(name, horizon):
    cfg, cm = reference_scenario()
    rng = np.random.default_rng(11)
    return run(cfg, cm, make_policy(name, cfg, cm, rng), horizon, rng=rng)


def _assert_written_as_by_the_csv_module(tmp_path, trace) -> list[list[str]]:
    """``_write_csv``'s bytes equal ``csv_module_write``'s; returns the rows."""
    cli_module._write_csv(tmp_path / "written.csv", trace, 50)
    csv_module_write(tmp_path / "reference.csv", trace, 50)
    written = (tmp_path / "written.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.count(b"\r\n") == trace.horizon + 1
    return list(csv.reader(written.decode().splitlines()))[1:]


@pytest.mark.parametrize("horizon", CSV_HORIZONS)
def test_write_csv_matches_the_csv_module_writer(tmp_path, horizon):
    trace = _trace("algorithm1", horizon)
    # algorithm1 estimates from slot 1: blank the first half's errors so that
    # the columns go from NaN to finite (across the first block at 300 slots)
    trace.mu_err[: horizon // 2] = np.nan
    trace.lambda_err[: horizon // 2] = np.nan
    _assert_written_as_by_the_csv_module(tmp_path, trace)


@pytest.mark.parametrize("horizon", CSV_HORIZONS)
@pytest.mark.parametrize("name", ["always_on", "static_split_mw"])
def test_write_csv_matches_the_csv_module_writer_on_constant_columns(tmp_path, name, horizon):
    """The columns these runs hold constant (always_on's cost, activation,
    explore flag and NaN errors; a static split's flag and errors) are
    written as the csv module writes them."""
    _assert_written_as_by_the_csv_module(tmp_path, _trace(name, horizon))


@pytest.mark.parametrize("horizon", CSV_HORIZONS)
def test_write_csv_keeps_the_sign_of_a_zero(tmp_path, horizon):
    """A column that is -0.0 throughout reads -0 on every row, and one that
    mixes 0.0 with -0.0, equal as floats, is not written as constant."""
    trace = _trace("always_on", horizon)
    trace.mu_err[:] = -0.0
    trace.lambda_err[:] = 0.0
    trace.lambda_err[::2] = -0.0
    rows = _assert_written_as_by_the_csv_module(tmp_path, trace)
    assert [row[7] for row in rows] == ["-0"] * horizon
    assert [row[8] for row in rows] == ["-0", "0"] * (horizon // 2) + ["-0"] * (horizon % 2)


# ---------------------------------------------------------------------------
# golden trace
# ---------------------------------------------------------------------------


def test_golden_run_is_reproduced_byte_for_byte(tmp_path):
    config = DATA_DIR / "golden_config.json"
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out", str(out)])
    assert code == EXIT_OK
    produced = (out / "golden_seed1.csv").read_bytes()
    frozen = (DATA_DIR / "golden_seed1.csv").read_bytes()
    assert produced == frozen
