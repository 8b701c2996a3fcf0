"""Self-tests of the benchmark at smoke size.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

LAYER_SELF = ("graphs.canonical_form", "graphs.components", "graphs.induced",
              "rules.variant_moves", "rules.component_value", "rules.load_cache",
              "rules.save_cache", "cgt.make_game", "cgt.leq", "cgt.add",
              "atomic.atomic_weight", "atomic.remote_star_order")


@pytest.fixture(scope="module")
def env():
    return run.child_env()


def child(env, tmp_path, workload, *extra):
    """Prep (for wheel workloads) and one smoke repetition; its JSON result."""
    base = [f"--workload={workload}", "--seed=3", "--smoke"]
    if workload != "sums":
        base += [f"--expect={tmp_path / 'expect.json'}", f"--cache={tmp_path / 'v.cache'}"]
        if not (tmp_path / "expect.json").exists():
            run.spawn(base + ["--prep"], env, 120)
    return run.spawn(base + list(extra), env, 120)[1]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_answers_pass_and_a_planted_wrong_one_is_counted(env, tmp_path, workload):
    good = child(env, tmp_path, workload)
    assert good["failed"] == 0, good["errors"]
    assert good["attempted"] > 0
    bad = child(env, tmp_path, workload, "--plant-wrong")
    assert bad["failed"] == 1
    assert bad["attempted"] == good["attempted"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_self_times_and_remainder_add_up_to_traced_wall(env, tmp_path, workload):
    spans = tmp_path / "spans.json"
    res = child(env, tmp_path, workload, "--trace", f"--spans={spans}")
    t = res["trace"]
    total = sum(t[f"{name}.self_s"] for name in LAYER_SELF) + t["outside.self_s"]
    assert abs(total - res["wall_s"]) < 1e-6
    assert all(t[f"{name}.self_s"] >= 0 for name in LAYER_SELF)
    edges = json.loads(spans.read_text())["edges"]
    calls = {}
    for e in edges:
        calls[e["name"]] = calls.get(e["name"], 0) + e["calls"]
    assert calls == {name: t[f"{name}.calls"] for name in LAYER_SELF if t[f"{name}.calls"]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_for_a_seed(env, tmp_path, workload):
    a = child(env, tmp_path, workload, "--trace")["trace"]
    b = child(env, tmp_path, workload, "--trace")["trace"]
    counts = [k for k in a if k.endswith((".calls", ".unique", ".results",
                                          ".misses", ".games", "cache_bytes"))]
    assert counts
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}


def test_run_prints_end_to_end_metrics_last(tmp_path):
    proc = subprocess.run([sys.executable, run.__file__, "--workload=reload", "--seed=1",
                           "--seconds=0.1", "--trace=0"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload=wheels", "--seed=1",
                           "--seconds=1", "--trace=0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
