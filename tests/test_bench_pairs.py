"""The verdicts ``scripts/bench_pairs.py`` gives synthetic before/after pairs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BOUNDS = {"command_s": 0.25, "setup_s": 0.25, "work_s": 0.25, "peak_rss_mb": 0.05}


def pairs_of(before, after):
    """Pairs whose every metric reads ``before[i]`` and ``after[i]``."""

    def result(value):
        return {"metrics": {name: {"value": value} for name in bench_pairs.METRICS}}

    return [{"before": result(b), "after": result(a)} for b, a in zip(before, after)]


def verdicts(before, after, bounds=BOUNDS):
    summary = bench_pairs.summarize(pairs_of(before, after), bounds)
    return {name: entry["verdict"] for name, entry in summary.items()}


def test_bounds_are_the_benchmarks():
    declared = json.loads(bench_pairs.BENCHMARK.read_text())["end_to_end"]
    assert {m["name"]: m["bound"] for m in declared} == BOUNDS


def test_gain_needs_nine_tenths_of_the_pairs_and_a_median_beyond_the_spread():
    before = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    faster = [0.70, 0.72, 0.69, 0.71, 0.70, 0.68, 0.73, 0.70, 0.71, 1.05]
    assert set(verdicts(before, faster).values()) == {"gain"}  # won 9 of 10

    two_losses = faster[:8] + [1.05, 1.05]
    summary = bench_pairs.summarize(pairs_of(before, two_losses), BOUNDS)
    assert summary["work_s"]["after_wins"] == 8
    assert summary["work_s"]["verdict"] == "no change"

    ties = before[:]  # a tie counts for neither side
    ties[0] = 0.5
    assert bench_pairs.summarize(pairs_of(before, ties), BOUNDS)["work_s"][
        "after_wins"
    ] == 1


def test_winning_every_pair_within_the_spread_is_no_gain():
    before = [1.00, 1.10, 0.90, 1.05, 0.95, 1.00, 1.08, 0.92, 1.02, 0.98]
    after = [b - 0.01 for b in before]
    summary = bench_pairs.summarize(pairs_of(before, after), BOUNDS)["work_s"]
    assert summary["after_wins"] == 10
    assert summary["before"]["median"] - summary["after"]["median"] < summary[
        "before"
    ]["iqr"]
    assert summary["verdict"] == "no change"


def test_worse_beyond_the_bound_as_a_share_of_the_before_median():
    before = [100.0] * 6
    assert verdicts(before, [104.0] * 6)["peak_rss_mb"] == "no change"
    assert verdicts(before, [106.0] * 6)["peak_rss_mb"] == "worse"
    assert verdicts(before, [106.0] * 6)["work_s"] == "no change"  # bound 0.25
    assert verdicts(before, [130.0] * 6)["work_s"] == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved():
    steady = [1.00, 1.01, 0.99, 1.00, 1.01, 0.99]
    noisy = [0.60, 1.40, 0.70, 1.30, 0.65, 1.35]
    assert verdicts(steady, noisy)["work_s"] == "unresolved"
    assert verdicts(noisy, steady)["work_s"] == "unresolved"
    assert verdicts(steady, steady)["work_s"] == "no change"


def test_a_wide_spread_is_no_change_when_every_after_run_reads_lower():
    before = [1.00, 1.40, 1.02, 1.38, 1.01, 1.39]
    after = [0.95, 0.96, 0.97, 0.95, 0.96, 0.97]
    assert set(verdicts(before, after).values()) == {"no change"}
    assert set(verdicts(before, after[:5] + [1.005]).values()) == {"unresolved"}


@pytest.mark.parametrize("bound, expected", [(0.5, "no change"), (0.1, "worse")])
def test_the_bound_is_read_per_metric(bound, expected):
    before, after = [1.0] * 4, [1.2] * 4
    assert verdicts(before, after, {**BOUNDS, "setup_s": bound})["setup_s"] == expected


def test_revisions_are_recorded_by_commit_id(tmp_path, monkeypatch):
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            check=True, capture_output=True, text=True,
        ).stdout.strip()

    monkeypatch.chdir(tmp_path)
    git("init", "-q")
    for message in ("first", "second"):
        git("commit", "-q", "--allow-empty", "-m", message)
    git("tag", "v1", "HEAD~1")
    first, second = git("rev-parse", "HEAD~1"), git("rev-parse", "HEAD")
    assert first != second
    assert bench_pairs.commit("HEAD") == second
    assert bench_pairs.commit("v1") == bench_pairs.commit(first[:7]) == first
    assert bench_pairs.commit(str(tmp_path)) is None  # a directory, not a revision
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.commit("no-such-revision")


def test_each_pairs_progress_line_reads_every_end_to_end_metric():
    values = {"command_s": (0.1943, 0.197), "setup_s": (0.173, 0.1731),
              "work_s": (0.02334, 0.0235), "peak_rss_mb": (37.004, 37.023)}
    pair = {side: {"metrics": {name: {"value": v[k]} for name, v in values.items()}}
            for k, side in enumerate(("before", "after"))}
    assert bench_pairs.progress("slots_binomial", 2, 10, pair) == (
        "slots_binomial pair 3/10: command_s 0.1943 -> 0.1970, "
        "setup_s 0.1730 -> 0.1731, work_s 0.0233 -> 0.0235, "
        "peak_rss_mb 37.0040 -> 37.0230"
    )
