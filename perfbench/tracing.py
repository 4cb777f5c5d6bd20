"""Traced run of the bssched CLI: span recording from outside the package.

``install`` wraps, in place, the public functions and the public methods of
the public classes of each module on the run path (plus the private CLI
boundaries named in ``PRIVATE_BOUNDARIES``). Every call becomes a span
(name, start, end, parent) kept in memory; a few wrappers also read counts
off the call's arguments or result (pivots, columns, region members, slots,
resamples). Nothing in ``src/`` changes: the wrappers replace the module
and class attributes, and every module namespace that imported the same
function by name.

Run as a script it executes one ``bssched`` command traced and writes the
spans to a JSON file when the command returns:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json run --config ...

``layer_metrics`` turns a span file into the per-layer metrics; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("sim", "model", "policies", "rateregion", "lp", "simplex", "cli")
PRIVATE_BOUNDARIES = {"cli": ("_write_csv",)}


class Tracer:
    """In-memory span store: parallel lists indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, after=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter_ns
        stack, name_id, start, end, parent = (
            self._stack, self.name_id, self.start, self.end, self.parent,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        doc = {
            "names": self.names,
            "counters": self.counters,
            "spans": list(zip(self.name_id, self.start, self.end, self.parent)),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _after_solve_standard_form(tracer, args, kwargs, result):
    tracer.counters["pivots"] += result.iterations
    m, n = _arg(args, kwargs, 1, "a").shape
    tableau = (m + 1) * (n + m + 1) * 8
    tracer.counters["tableau_bytes"] = max(tracer.counters["tableau_bytes"], tableau)


def _after_solve_lp(tracer, args, kwargs, result):
    if result.status == "infeasible":
        tracer.counters["lp_infeasible"] += 1


def _after_build_lp(tracer, args, kwargs, result):
    tracer.counters["columns"] = max(tracer.counters["columns"], result.dim)


def _after_region(tracer, args, kwargs, result):
    tracer.counters["members"] += len(result)


def _after_run(tracer, args, kwargs, result):
    tracer.counters["slots"] += result.horizon
    tracer.counters["explore_slots"] += int(result.explore.sum())
    tracer.counters["resamples"] += _arg(args, kwargs, 2, "policy").resample_count


def _after_write_csv(tracer, args, kwargs, result):
    tracer.counters["csv_rows"] += _arg(args, kwargs, 1, "trace").horizon


AFTER = {
    "simplex.solve_standard_form": _after_solve_standard_form,
    "lp.solve_lp": _after_solve_lp,
    "lp.build_lp": _after_build_lp,
    "rateregion.full_region": _after_region,
    "rateregion.restricted_region": _after_region,
    "sim.run": _after_run,
    "cli._write_csv": _after_write_csv,
}


def install(tracer: Tracer) -> None:
    """Wrap the run-path modules of the imported ``bssched`` package."""
    modules = {layer: importlib.import_module(f"bssched.{layer}") for layer in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        extra = PRIVATE_BOUNDARIES.get(layer, ())
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and (not attr.startswith("_") or attr in extra):
                name = f"{layer}.{attr}"
                replaced[obj] = tracer.wrap(name, obj, AFTER.get(name))
            elif inspect.isclass(obj) and not attr.startswith("_"):
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and not meth.startswith("_"):
                        setattr(obj, meth, tracer.wrap(f"{layer}.{meth}", fn))
    import bssched

    for mod in (bssched, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a nonempty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command, keyed as in BENCHMARK.json.

    Metrics whose layer the command never entered read 0.
    """
    names = doc["names"]
    spans = doc["spans"]
    c = defaultdict(float, doc["counters"])
    child_ns = [0] * len(spans)
    for nid, t0, t1, par in spans:
        if par >= 0:
            child_ns[par] += t1 - t0
    calls = defaultdict(int)
    total = defaultdict(int)
    self_ns = defaultdict(int)
    layer_self = defaultdict(int)
    solves = []
    under_step = 0
    step_ids = {i for i, n in enumerate(names) if n == "policies.step"}
    solve_id = names.index("lp.solve_lp") if "lp.solve_lp" in names else -1
    for idx, (nid, t0, t1, par) in enumerate(spans):
        name = names[nid]
        dur = t1 - t0
        calls[name] += 1
        total[name] += dur
        own = dur - child_ns[idx]
        self_ns[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if nid == solve_id:
            solves.append(dur)
        if nid == solve_id and par >= 0 and spans[par][0] in step_ids:
            under_step += 1

    def mean_us(name):
        return total[name] / calls[name] / 1e3 if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    sf = "simplex.solve_standard_form"
    return {
        "sim.run.self_us_per_slot": ratio(self_ns["sim.run"] / 1e3, c["slots"]),
        "sim.draw_channel_index.us": mean_us("sim.draw_channel_index"),
        "model.network_cost.us": mean_us("model.network_cost"),
        "model.step_queues.us": mean_us("model.step_queues"),
        "model.activation_id.us": mean_us("model.activation_id"),
        "policies.step.self_us": ratio(self_ns["policies.step"] / 1e3, calls["policies.step"]),
        "policies.max_weight.us": mean_us("policies.max_weight"),
        "policies.make_policy.ms": mean_us("policies.make_policy") / 1e3,
        "policies.resamples": c["resamples"],
        "policies.explore_slots": c["explore_slots"],
        "rateregion.full_region.calls": calls["rateregion.full_region"],
        "rateregion.restricted_region.calls": calls["rateregion.restricted_region"],
        "rateregion.build.ms": (
            total["rateregion.full_region"] + total["rateregion.restricted_region"]
        ) / 1e6,
        "rateregion.members": c["members"],
        "lp.build_lp.ms": mean_us("lp.build_lp") / 1e3,
        "lp.columns": c["columns"],
        "lp.solve_lp.calls": len(solves),
        "lp.solve_lp.ms_p50": _percentile(solves, 50) / 1e6 if solves else 0.0,
        "lp.solve_lp.ms_p95": _percentile(solves, 95) / 1e6 if solves else 0.0,
        "lp.solve_lp.infeasible": c["lp_infeasible"],
        "lp.solves_per_resample": ratio(under_step, c["resamples"]),
        "lp.report.ms": (
            total["lp.beta_to_alpha"] + total["lp.expected_offered_rates"]
        ) / 1e6,
        "simplex.pivots": c["pivots"],
        "simplex.pivots_per_solve": ratio(c["pivots"], calls[sf]),
        "simplex.us_per_pivot": ratio(total[sf] / 1e3, c["pivots"]),
        "simplex.tableau_mb": c["tableau_bytes"] / 2**20,
        "cli.load_scenario.ms": mean_us("cli.load_scenario") / 1e3,
        "cli.self_ms": layer_self["cli"] / 1e6,
        "cli.us_per_csv_row": ratio(total["cli._write_csv"] / 1e3, c["csv_rows"]),
    }


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    from bssched import cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
