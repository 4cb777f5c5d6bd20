"""Alternating before/after runs of ``perfbench/run.py``, written as a BENCH file.

Run from the repository root, for example:

    python3 scripts/bench_pairs.py --before 606b2c3 --after HEAD \\
        --pairs plan_m5=10 slots_static=3 replan_tracking=3 slots_binomial=3 \\
        --seconds 20 --out BENCH_7.json

``--before`` and ``--after`` are git revisions, exported with ``git archive``
into temporary directories so that only committed files are measured, or
existing directories; the record keeps each revision's commit id (null for
a directory). For each workload the two sides run one after the
other for the given number of pairs, ``before`` first in even pairs and
``after`` first in odd ones. Both sides of pair i run with ``--seed i``, so
the pairs span benchmark seeds. Every run's final JSON line is kept as
printed. A run that reports ``"correct": false`` or a failed command, exits
non-zero or ends on a line that is not JSON stops the script with exit
status 1, naming the workload, pair and side; a run that did not report
also shows its exit code and last output lines. The summary
gives, per end-to-end metric, the median and quartile spread of each side,
the number of pairs the ``after`` side won (lower is better for every
metric) and a verdict, the first of these that holds:

- ``gain``: ``after`` won at least nine tenths of the pairs, and its median
  is lower than ``before``'s by more than ``before``'s quartile spread;
- ``worse``: ``after``'s median exceeds ``before``'s by more than the
  metric's bound in ``BENCHMARK.json``, a share of ``before``'s median;
- ``unresolved``: either side's quartile spread is wider than that bound,
  unless every ``after`` run is lower than every ``before`` run;
- ``no change``.
"""

from __future__ import annotations

import argparse
import json
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("command_s", "setup_s", "work_s", "peak_rss_mb")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def commit(spec: str) -> str | None:
    """The id of the commit a git revision names; None for a directory."""
    if Path(spec).is_dir():
        return None
    return subprocess.run(
        ["git", "rev-parse", "--verify", f"{spec}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()


def checkout(spec: str, scratch: Path) -> Path:
    if Path(spec).is_dir():
        return Path(spec).resolve()
    target = scratch / spec.replace("/", "_")
    target.mkdir()
    archive = subprocess.run(["git", "archive", spec], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive.stdout, check=True)
    return target


def run_once(root: Path, workload: str, seed: int, seconds: float):
    """The run's final JSON line as a dict, or None if it exited non-zero or
    ended on anything else, with the finished process."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    return (result if isinstance(result, dict) else None), proc


def last_lines(proc: subprocess.CompletedProcess, count: int = 10) -> list[str]:
    """The last ``count`` lines of each of the run's output streams."""
    out = []
    for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
        tail = text.strip().splitlines()[-count:]
        out += [f"{stream}: {line}" for line in tail]
    return out


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(
    before: dict, after: dict, wins: int, count: int, bound: float, separated: bool
) -> str:
    """The verdict on one metric from each side's ``spread``, the pairs
    ``after`` won of ``count``, the metric's bound and whether every
    ``after`` run was lower than every ``before`` run."""
    if wins >= 0.9 * count and before["median"] - after["median"] > before["iqr"]:
        return "gain"
    allowed = bound * before["median"]
    if after["median"] - before["median"] > allowed:
        return "worse"
    if max(before["iqr"], after["iqr"]) > allowed and not separated:
        return "unresolved"
    return "no change"


def summarize(pairs: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name in METRICS:
        before = [p["before"]["metrics"][name]["value"] for p in pairs]
        after = [p["after"]["metrics"][name]["value"] for p in pairs]
        wins = sum(a < b for a, b in zip(after, before))
        separated = max(after) < min(before)
        before, after = spread(before), spread(after)
        out[name] = {
            "before": before,
            "after": after,
            "after_wins": wins,
            "verdict": verdict(
                before, after, wins, len(pairs), bounds[name], separated
            ),
        }
    return out


def progress(workload: str, i: int, count: int, pair: dict) -> str:
    """The progress line of pair ``i`` (from 0) of ``count``: each end-to-end
    metric, before -> after."""
    readings = ", ".join(
        f"{name} {pair['before']['metrics'][name]['value']:.4f} -> "
        f"{pair['after']['metrics'][name]['value']:.4f}"
        for name in METRICS
    )
    return f"{workload} pair {i + 1}/{count}: {readings}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, help="git revision or directory")
    parser.add_argument("--after", required=True, help="git revision or directory")
    parser.add_argument("--pairs", nargs="+", required=True, help="workload=count")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"]
              for m in json.loads(BENCHMARK.read_text())["end_to_end"]}

    record = {
        "command": shlex.join(["python3", "scripts/bench_pairs.py", *sys.argv[1:]]),
        "before": args.before,
        "before_commit": commit(args.before),
        "after": args.after,
        "after_commit": commit(args.after),
        "seconds": args.seconds,
        "machine": f"{platform.machine()}, {platform.python_implementation()} "
                   f"{platform.python_version()}",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        roots = {side: checkout(getattr(args, side), Path(scratch))
                 for side in ("before", "after")}
        for item in args.pairs:
            workload, count = item.split("=")
            pairs = []
            for i in range(int(count)):
                order = ("before", "after") if i % 2 == 0 else ("after", "before")
                pair = {}
                for side in order:
                    result, proc = run_once(roots[side], workload, i, args.seconds)
                    label = f"{workload} pair {i + 1}, {side} side ({getattr(args, side)})"
                    if result is None:
                        print(f"{label}: exit code {proc.returncode}, no JSON result; "
                              "last output lines:", *last_lines(proc),
                              sep="\n  ", file=sys.stderr)
                        return 1
                    if not result["correct"] or result["failed"] > 0:
                        print(f"{label}: correct {result['correct']}, "
                              f"{result['failed']} of {result['attempted']} commands "
                              "failed", file=sys.stderr)
                        return 1
                    pair[side] = result
                pairs.append({"first": order[0], "seed": i, **pair})
                print(progress(workload, i, int(count), pair), file=sys.stderr)
            record["workloads"][workload] = {"summary": summarize(pairs, bounds),
                                             "pairs": pairs}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
