"""mdgame benchmark: closed-loop, single-client workloads with checked answers.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {wheels,sums,reload} --seed N \\
                         --seconds S --trace {0,1}

Every repetition is a fresh ``python3 bench/child.py`` process, started
only after the previous one has exited (one client, closed loop, one
process at a time).  A fresh process per repetition matters: the graph
caches in ``mdgame.graphs`` are module globals and would otherwise carry
work from one repetition into the next.  Repetitions run for ``--seconds``
and the medians are reported.

With ``--trace 0`` the last line of output is one JSON object with the
end-to-end metrics ``wall_s``, ``setup_s`` and ``peak_rss_mb``; with
``--trace 1`` it carries the per-layer metrics of a traced repetition
instead (see ``tracer.py``).  Answers are checked in every repetition; a
wrong answer or an ``EngineError`` counts as failed, and ``failed_frac``
is printed on the summary line above the JSON.

The program is imported from ``src`` beside this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

from tracer import layer_shares

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build")
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("wheels", "sums", "reload")
MIN_REPS = 3
LIMIT_S = 170  # a whole invocation, so a hung child cannot outlast it


class BenchError(Exception):
    """The benchmark itself could not run (missing program, crashed child)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # fixed string hashing keeps dict layouts, and so timings, alike across runs
    env["PYTHONHASHSEED"] = "0"
    # byte code written once by build() keeps compilation out of setup_s
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args: list[str], env: dict, timeout: float) -> tuple[float, dict]:
    """Run one child to completion; returns (spawn time, its JSON result)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"child {args} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"child {args} printed no result:\n{proc.stdout[-2000:]}") from exc


def check_layout() -> None:
    if not os.path.isfile(os.path.join(SRC, "mdgame", "__init__.py")):
        raise BenchError(f"no mdgame package under {SRC}; run from a full checkout")


def build(env: dict) -> None:
    """Import once untimed, so byte-code compilation never lands in set-up time."""
    proc = subprocess.run([sys.executable, "-c", "import mdgame"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"import mdgame failed:\n{proc.stderr[-2000:]}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    hard_deadline = time.monotonic() + LIMIT_S
    check_layout()
    env = child_env()
    build(env)

    def child(args):
        return spawn(args, env, max(1.0, hard_deadline - time.monotonic()))

    os.makedirs(WORK, exist_ok=True)
    base = [f"--workload={workload}", f"--seed={seed}"]
    scratch: list[str] = []
    try:
        if workload != "sums":
            # untimed prep: oracle outcomes for this seed's queries and, for
            # reload, the value cache every timed repetition loads
            expect = os.path.join(WORK, f"expect-{os.getpid()}.json")
            cache = os.path.join(WORK, f"reload-{os.getpid()}.cache")
            scratch += [expect, cache]
            base += [f"--expect={expect}", f"--cache={cache}"]
            child(base + ["--prep"])

        start = time.monotonic()
        deadline = start + seconds
        plain: list[dict] = []
        traced: list[dict] = []
        setups: list[float] = []
        last = 0.0
        # untraced repetitions fill the run, or its first third when tracing
        plain_until = start + (seconds / 3 if trace else seconds)
        min_plain = 1 if trace else MIN_REPS
        while len(plain) < min_plain or time.monotonic() + last <= plain_until:
            t_spawn, res = child(base)
            last = time.monotonic() - t_spawn
            setups.append(res["ready"] - t_spawn)
            plain.append(res)
        if trace:
            spans = os.path.join(WORK, f"spans-{workload}-{seed}.json")
            while not traced or time.monotonic() + 2 * last <= deadline:
                extra = ["--trace"] + ([f"--spans={spans}"] if not traced else [])
                _, res = child(base + extra)
                traced.append(res)
    finally:
        for f in scratch:
            if os.path.exists(f):
                os.remove(f)

    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for line in r["errors"]:
            print(f"wrong answer: {line}", file=sys.stderr)
    wall = median([r["wall_s"] for r in plain])
    if trace:
        metrics = layer_metrics(traced, wall)
        shares = layer_shares({k: v["value"] for k, v in metrics.items()},
                              median([r["wall_s"] for r in traced]))
        print("self-time share of traced wall: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in shares.items()))
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in plain]), "unit": "MB"},
        }
    print("repetition wall_s: " + " ".join(f"{r['wall_s']:.4f}" for r in plain), file=sys.stderr)
    print(f"{workload} seed={seed}: {len(plain)} untraced + {len(traced)} traced repetitions, "
          f"wall_s median {wall:.4f} (min {min(r['wall_s'] for r in plain):.4f}, "
          f"max {max(r['wall_s'] for r in plain):.4f}), "
          f"failed_frac {failed / attempted:.6f} ({failed}/{attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# unit of each per-layer metric, by the last part of its name
UNITS = {"calls": "count", "unique": "count", "results": "count", "misses": "count",
         "games": "count", "cache_bytes": "bytes", "self_s": "s",
         "call_cost_us": "us", "wrapper_pct": "%"}
COUNTS = ("count", "bytes")


def layer_metrics(traced: list[dict], untraced_wall: float) -> dict:
    """Counts from the first traced repetition, times as medians over all."""
    first = traced[0]["trace"]
    out = {}
    for k, v in first.items():
        unit = UNITS[k.rsplit(".", 1)[1]]
        if unit in COUNTS:
            for other in traced[1:]:
                if other["trace"][k] != v:
                    print(f"warning: {k} differs between traced repetitions "
                          f"({v} vs {other['trace'][k]})", file=sys.stderr)
        else:
            v = median([r["trace"][k] for r in traced])
        out[k] = {"value": v, "unit": unit}
    traced_wall = median([r["wall_s"] for r in traced])
    out["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mdgame benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
