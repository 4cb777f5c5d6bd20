"""The benchmark's traced run still finds the functions its metrics read.

``perfbench/tracing.py`` wraps functions by module and name, and a metric
whose function was renamed or moved reads 0 instead of failing. One traced
1-slot ``static_split_mw`` run must record a span for each name below,
count a positive number of region members, and show the simplex called
from ``lp.solve_lp``. That policy's channel states are drawn by events,
without ``draw_channel_index``, so the run sets ``eps_s`` to 1: slot 1
then resamples, and its activation is drawn by ``draw_channel_index``. A
``static_split_static`` slot is one ``policies.step`` span.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from bssched.cli import bundled_scenario_path

ROOT = Path(__file__).resolve().parents[1]
TRACED_NAMES = (
    "sim.draw_channel_index",
    "model.activation_id",
    "model.network_cost",
    "policies.max_weight",
    "rateregion.full_region",
    "rateregion.restricted_region",
    "lp.build_lp",
    "lp.solve_lp",
    "simplex.solve_standard_form",
)


def traced_run(tmp_path, policy: dict, horizon: int) -> tuple[dict, dict]:
    """Span file of a traced ``bssched run`` of the ``policy`` block on
    ``reference``, and the number of spans per name."""
    scenario = json.loads(bundled_scenario_path("reference").read_text())
    scenario["policy"] = policy
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario))
    spans = tmp_path / "spans.json"
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        ),
    )
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(spans),
        "run", "--config", str(config), "--out", str(tmp_path / "out"),
        "--horizon", str(horizon), "--seeds", "0", "--jobs", "1",
    ]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

    doc = json.loads(spans.read_text())
    counts = {name: 0 for name in doc["names"]}
    for name_id, *_ in doc["spans"]:
        counts[doc["names"][name_id]] += 1
    return doc, counts


def test_traced_run_records_every_metric_span(tmp_path):
    doc, counts = traced_run(tmp_path, {"name": "static_split_mw", "eps_s": 1.0}, 1)
    for name in TRACED_NAMES:
        assert counts.get(name, 0) >= 1, f"no span recorded for {name}"
    assert doc["counters"].get("members", 0) > 0
    names = doc["names"]
    callers = {
        names[doc["spans"][parent][0]]
        for name_id, _, _, parent in doc["spans"]
        if names[name_id] == "simplex.solve_standard_form"
    }
    assert callers == {"lp.solve_lp"}


def test_static_split_static_records_one_step_span_per_slot(tmp_path):
    _, counts = traced_run(tmp_path, {"name": "static_split_static"}, 3)
    assert counts["policies.step"] == 3
