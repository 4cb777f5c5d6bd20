"""bssched benchmark: one workload per invocation, run as a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload slots_static --seed 0 --seconds 20 --trace 0

Each workload repeats its commands one at a time, each in one fresh
``python3 -m bssched.cli`` process with ``--jobs 1``, until ``--seconds``
have passed (at least ``MIN_REPS`` times), alternating the set-up command
with the main command. Every output is checked: CSVs against the sha256
digests in ``digests.json``, the ``bssched lp`` objective against HiGHS.
With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced main commands alternate and the per-layer metrics come
from the traced ones (see ``tracing.py``). The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; metric names and units are read from ``BENCHMARK.json``.

    python3 perfbench/run.py --record-digests

rewrites ``digests.json`` from the current program for every recorded
simulation seed, so only run it when the CSV bytes are meant to change.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from scenario_gen import generate  # noqa: E402
from tracing import layer_metrics  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
MIN_REPS = 3
MIN_TRACED_REPS = 2
COMMAND_TIMEOUT_S = 120.0
OBJECTIVE_TOL = 1e-7
FROZEN_COLUMNS = (
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


@dataclass(frozen=True)
class RunWorkload:
    """``bssched run`` on a bundled scenario with some blocks replaced.

    Each command simulates ``per_run`` of the simulation seeds
    0..pool-1 (chosen by the benchmark seed) for ``horizon`` slots; the CSV
    digests of every pool seed are recorded at this horizon and at 1 slot.
    """

    base: str
    horizon: int
    pool: int
    per_run: int
    overrides: dict = field(default_factory=dict)

    def scenario(self) -> dict:
        data = json.loads((SRC / "bssched" / "scenarios" / f"{self.base}.json").read_text())
        for block, values in self.overrides.items():
            data[block] = {**data[block], **values} if block == "network" else values
        return data


@dataclass(frozen=True)
class PlanWorkload:
    """``bssched lp`` on the network ``scenario_gen`` builds from a fixed seed."""

    generator_seed: int
    eps_g: float


RUN_WORKLOADS = {
    "slots_static": RunWorkload(
        "reference",
        horizon=10000,
        pool=8,
        per_run=1,
        overrides={"policy": {"name": "static_split_mw", "eps_s": 0.05, "eps_g": 0.05}},
    ),
    "replan_tracking": RunWorkload("reference_regime", horizon=250, pool=4, per_run=4),
    "slots_binomial": RunWorkload(
        "reference",
        horizon=10000,
        pool=8,
        per_run=1,
        overrides={
            "network": {"max_arrivals": 2},
            "arrivals": {"law": "binomial"},
            "policy": {"name": "always_on"},
        },
    ),
}
PLAN_WORKLOADS = {"plan_m5": PlanWorkload(generator_seed=1, eps_g=0.05)}


@dataclass
class Result:
    wall_s: float
    rss_mb: float
    ok: bool


class Bench:
    """Runs commands, times them and counts attempted and failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def command(self, argv: list[str], check) -> Result:
        """Run ``argv`` to completion; ``check()`` says whether its outputs are right."""
        log = WORK / "command.log"
        with log.open("wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=self.env)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            ok = proc.returncode == 0 and check()
        except (OSError, ValueError, KeyError) as exc:  # missing or unreadable output
            print(f"output check error: {exc!r}", file=sys.stderr)
            ok = False
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {' '.join(argv)}\n{log.read_text()[-2000:]}", file=sys.stderr)
        return Result(wall, usage.ru_maxrss / 1024.0, ok)


def cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "bssched.cli", *args]


def traced(spans: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "tracing.py"), str(spans), *args]


def csv_digest(path: Path) -> str:
    """sha256 of the frozen CSV columns, in the order the program writes them."""
    data = path.read_bytes()
    header = next(csv.reader(io.StringIO(data[:4096].decode())))
    if tuple(header) != FROZEN_COLUMNS:
        keep = [header.index(c) for c in FROZEN_COLUMNS]
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        for row in csv.reader(io.StringIO(data.decode())):
            writer.writerow([row[i] for i in keep])
        data = buf.getvalue().encode()
    return hashlib.sha256(data).hexdigest()


class RunBench:
    """Set-up and main commands of one ``RunWorkload``."""

    def __init__(self, name: str, w: RunWorkload, sim_seeds: list[int]):
        self.name, self.w, self.sim_seeds = name, w, sim_seeds
        self.config = WORK / f"{name}.json"
        scenario = w.scenario()
        self.scenario_name = scenario["name"]
        self.config.write_text(json.dumps(scenario, indent=1))
        self.out = WORK / "out"
        self.slots = w.horizon * len(sim_seeds)

    def args(self, horizon: int) -> list[str]:
        seeds = ",".join(map(str, self.sim_seeds))
        return ["run", "--config", str(self.config), "--out", str(self.out),
                "--horizon", str(horizon), "--seeds", seeds, "--jobs", "1"]

    def csv_path(self, seed: int) -> Path:
        return self.out / f"{self.scenario_name}_seed{seed}.csv"

    def check(self, horizon: int):
        def outputs_match() -> bool:
            expected = json.loads(DIGESTS.read_text())[self.name][str(horizon)]
            return all(
                csv_digest(self.csv_path(s)) == expected[str(s)] for s in self.sim_seeds
            )
        return outputs_match

    def setup(self, bench: Bench) -> Result:
        shutil.rmtree(self.out, ignore_errors=True)
        return bench.command(cli(self.args(1)), self.check(1))

    def main_args(self) -> list[str]:
        shutil.rmtree(self.out, ignore_errors=True)
        return self.args(self.w.horizon)

    def main_check(self):
        return self.check(self.w.horizon)

    def report(self, command_s: float, setup_s: float) -> dict:
        return {"run_s": command_s, "slots_per_s": self.slots / (command_s - setup_s)}


class PlanBench:
    """``bssched validate`` as set-up and ``bssched lp`` as main command."""

    def __init__(self, name: str, w: PlanWorkload):
        from highs_oracle import highs_objective

        scenario = generate(w.generator_seed)
        self.config = WORK / f"{name}.json"
        self.config.write_text(json.dumps(scenario, indent=1))
        self.report_path = WORK / "lp_report.json"
        self.eps_g = w.eps_g
        self.expected = highs_objective(scenario, w.eps_g)

    def setup(self, bench: Bench) -> Result:
        return bench.command(cli(["validate", "--config", str(self.config)]), lambda: True)

    def main_args(self) -> list[str]:
        self.report_path.unlink(missing_ok=True)
        return ["lp", "--config", str(self.config), "--eps-g", str(self.eps_g),
                "--out", str(self.report_path)]

    def main_check(self):
        def objective_matches() -> bool:
            report = json.loads(self.report_path.read_text())
            return (
                report["status"] == "optimal"
                and abs(report["objective"] - self.expected) <= OBJECTIVE_TOL
            )
        return objective_matches

    def report(self, command_s: float, setup_s: float) -> dict:
        return {"plan_s": command_s}


def measure(work, bench: Bench, seconds: float) -> dict:
    """End-to-end metrics: alternate set-up and main commands for ``seconds``."""
    work.setup(bench)  # warm-up, checked but not timed
    setups, mains = [], []
    deadline = time.perf_counter() + seconds
    while len(mains) < MIN_REPS or time.perf_counter() < deadline:
        setups.append(work.setup(bench))
        mains.append(bench.command(cli(work.main_args()), work.main_check()))
    command_s = statistics.median(r.wall_s for r in mains)
    setup_s = statistics.median(r.wall_s for r in setups)
    print("main command walls (s):", " ".join(f"{r.wall_s:.3f}" for r in mains))
    print("set-up command walls (s):", " ".join(f"{r.wall_s:.3f}" for r in setups))
    for key, value in work.report(command_s, setup_s).items():
        print(f"{key} = {value:.6g}")
    return {
        "command_s": command_s,
        "setup_s": setup_s,
        "work_s": command_s - setup_s,
        "peak_rss_mb": statistics.median(r.rss_mb for r in mains),
    }


def measure_traced(work, bench: Bench, seconds: float) -> dict:
    """Per-layer metrics: alternate untraced and traced main commands."""
    plain, spanned, per_layer = [], [], []
    deadline = time.perf_counter() + seconds
    while len(spanned) < MIN_TRACED_REPS or time.perf_counter() < deadline:
        plain.append(bench.command(cli(work.main_args()), work.main_check()))
        spans = WORK / f"spans_{len(spanned)}.json"
        spanned.append(bench.command(traced(spans, work.main_args()), work.main_check()))
        if spans.is_file():  # written even when the command fails its check
            per_layer.append(layer_metrics(json.loads(spans.read_text())))
    metrics = {key: statistics.median(m[key] for m in per_layer) for key in per_layer[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(r.wall_s for r in spanned)
        / statistics.median(r.wall_s for r in plain)
        - 1.0
    )
    print(f"{len(plain)} untraced and {len(spanned)} traced main commands")
    return metrics


def record_digests(bench: Bench) -> None:
    digests = {}
    for name, w in RUN_WORKLOADS.items():
        work = RunBench(name, w, list(range(w.pool)))
        digests[name] = {}
        for horizon in (1, w.horizon):
            shutil.rmtree(work.out, ignore_errors=True)
            result = bench.command(cli(work.args(horizon)), lambda: True)
            if not result.ok:
                raise SystemExit(f"recording {name} failed")
            digests[name][str(horizon)] = {
                str(s): csv_digest(work.csv_path(s)) for s in work.sim_seeds
            }
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main() -> int:
    names = sorted([*RUN_WORKLOADS, *PLAN_WORKLOADS])
    parser = argparse.ArgumentParser(description="bssched benchmark")
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (SRC / "bssched" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("run from the root of a bssched checkout: src/bssched/cli.py and "
              "BENCHMARK.json are needed", file=sys.stderr)
        return 2
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    compileall.compile_dir(str(SRC / "bssched"), quiet=1)
    bench = Bench()
    if args.record_digests:
        record_digests(bench)
        return 0

    if args.workload in RUN_WORKLOADS:
        w = RUN_WORKLOADS[args.workload]
        sim_seeds = sorted(random.Random(args.seed).sample(range(w.pool), w.per_run))
        work = RunBench(args.workload, w, sim_seeds)
        print(f"workload {args.workload}: simulation seeds {sim_seeds}, {w.horizon} slots each")
    else:
        work = PlanBench(args.workload, PLAN_WORKLOADS[args.workload])
        print(f"workload {args.workload}: HiGHS objective {work.expected!r}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = measure_traced(work, bench, args.seconds)
        wanted = spec["per_layer"]
    else:
        values = measure(work, bench, args.seconds)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"failed_frac = {bench.failed / bench.attempted:.6g}")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
