"""One repetition of one benchmark workload, run in a fresh process.

Usage (normally started by ``bench/run.py``, with ``src`` on PYTHONPATH):

    python3 bench/child.py --workload {wheels,sums,reload} --seed N
        [--expect FILE] [--cache FILE] [--trace [--spans FILE]]
        [--prep] [--plant-wrong] [--smoke]

The process imports mdgame, builds one ``EngineContext``, runs the
workload's timed phase, then checks every answer and prints one JSON line:

    {"ready": <time.monotonic() when the context was ready>,
     "wall_s": ..., "peak_rss_mb": ..., "attempted": ..., "failed": ...,
     "errors": [...], "trace": {...} or null}

``ready`` lets the parent compute set-up time (interpreter start, import,
``make_context``) against the monotonic clock it read before spawning.
``peak_rss_mb`` is read right after the timed phase, so the answer checks
never count towards it.

``--prep`` runs the untimed per-invocation step instead: it replays this
seed's wheel queries on the brute-force ``Oracle`` and writes the outcomes
to ``--expect``, and for ``reload`` also computes and saves the value cache
to ``--cache``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import sys
import time

import mdgame
from mdgame import EngineError, Graph, Oracle, Variant, make_context
from mdgame.families import path, wheel

HERE = os.path.dirname(os.path.abspath(__file__))
VARIANTS = (Variant.CLASSIC, Variant.FORBIDDEN_LEAF, Variant.MUTUAL_FAILURES)
# component size limit of each workload's context: a wheel of 3..9 spokes
# has at most 10 vertices, the longest path in a sum 20
MAX_COMPONENT = {"wheels": 16, "reload": 16, "sums": 20}
WHEELS = range(3, 9)
RELOAD_WHEELS = range(3, 10)
SMOKE_WHEELS = range(3, 6)
SUMS = 2000
SMOKE_SUMS = 5
SUM_TERMS = (2, 5)
SUM_PATHS = (2, 20)
SUM_VERTICES = 48


# ----------------------------------------------------------------------
# inputs: every choice comes from the seed
# ----------------------------------------------------------------------

def relabel(g: Graph, perm: list[int]) -> Graph:
    """g with vertex v renamed perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def seeded_wheels(seed: int, sizes) -> list[tuple[int, Graph]]:
    """One seeded relabeling per wheel; seed 0 keeps the family labels."""
    rng = random.Random(f"wheels/{seed}")
    out = []
    for n in sizes:
        g = wheel(n)
        if seed:
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = relabel(g, perm)
        out.append((n, g))
    return out


def seeded_sums(seed: int, count: int) -> list[tuple[int, ...]]:
    """Path lengths of each disjunctive sum, at most SUM_VERTICES in all.

    The vertex cap cuts the heavy tail: without it one sum of five long
    paths can cost more than all other sums together, so the run time
    would depend on whether the seed happened to draw one.
    """
    rng = random.Random(f"sums/{seed}")
    lo, hi = SUM_PATHS
    out = []
    while len(out) < count:
        lengths = tuple(rng.randint(lo, hi) for _ in range(rng.randint(*SUM_TERMS)))
        if sum(lengths) <= SUM_VERTICES:
            out.append(lengths)
    return out


def wheel_sizes(workload: str, smoke: bool):
    if smoke:
        return SMOKE_WHEELS
    return RELOAD_WHEELS if workload == "reload" else WHEELS


# ----------------------------------------------------------------------
# workloads: only this part is timed
# ----------------------------------------------------------------------

def run_wheels(ctx, queries):
    answers = []
    engine, store = ctx.engine, ctx.store
    for variant in VARIANTS:
        for n, g in queries:
            try:
                value = engine.game_of(g, variant)
                got = (value, store.outcome(value))
            except EngineError as exc:
                got = exc
            answers.append(((variant, n), got))
    return answers


def run_sums(ctx, sums, paths):
    answers = []
    engine, store, atomic = ctx.engine, ctx.store, ctx.atomic
    for lengths in sums:
        try:
            total = store.zero
            for n in lengths:
                total = store.add(total, engine.game_of(paths[n], Variant.MUTUAL_FAILURES))
            got = atomic.atomic_weight(total)
        except EngineError as exc:
            got = exc
        answers.append((lengths, got))
    return answers


# ----------------------------------------------------------------------
# answer checks
# ----------------------------------------------------------------------

def value_digest(store, g, memo: dict) -> str:
    """Digest of a canonical value that does not depend on GameId order.

    Each node hashes the sorted digests of its Left and Right options, so
    two stores that built the same value in a different order agree, where
    their rendered text (options in GameId order) may not.
    """
    hit = memo.get(g)
    if hit is None:
        left = sorted(value_digest(store, o, memo) for o in store.left_options(g))
        right = sorted(value_digest(store, o, memo) for o in store.right_options(g))
        text = "{" + ",".join(left) + "|" + ",".join(right) + "}"
        hit = memo[g] = hashlib.sha256(text.encode()).hexdigest()[:32]
    return hit


def query_key(variant: Variant, n: int) -> str:
    return f"{variant.value} {n}"


def path_weight(n: int) -> int:
    """Atomic weight of the mf value of path n (0 below five vertices)."""
    return 0 if n < 5 else math.ceil(n / 4) - 1


def check_sums(answers, errors: list, plant_wrong: bool = False) -> int:
    """Atomic weight is additive: each sum must weigh its terms' total."""
    failed = 0
    for i, (lengths, got) in enumerate(answers):
        want = sum(path_weight(n) for n in lengths) + (1 if plant_wrong and i == 0 else 0)
        if isinstance(got, EngineError) or not got.is_integer or got.integer != want:
            errors.append(f"sum of paths {lengths}: {got!r}, want atomic weight {want}")
            failed += 1
    return failed


def check_wheels(store, answers, oracle: dict, errors: list,
                 plant_wrong: bool = False) -> int:
    """Outcomes against the oracle's, values against the reference digests."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["wheels"]
    if plant_wrong:
        reference["classic"]["3"]["digest"] = "0" * 32
    failed = 0
    memo: dict = {}
    for (variant, n), got in answers:
        if isinstance(got, EngineError):
            errors.append(f"{variant.value} wheel {n}: {type(got).__name__}: {got}")
            failed += 1
            continue
        value, outcome = got
        want = reference[variant.value][str(n)]
        digest = value_digest(store, value, memo)
        expected = oracle[query_key(variant, n)]
        if outcome.value != expected or digest != want["digest"]:
            errors.append(f"{variant.value} wheel {n}: outcome {outcome.value} "
                          f"(oracle {expected}), digest {digest} "
                          f"(reference {want['digest']})")
            failed += 1
    return failed


# ----------------------------------------------------------------------
# the untimed per-invocation step
# ----------------------------------------------------------------------

def prepare(args) -> dict:
    queries = seeded_wheels(args.seed, wheel_sizes(args.workload, args.smoke))
    oracle = Oracle()
    expect = {query_key(v, n): oracle.outcome(g, v).value
              for v in VARIANTS for n, g in queries}
    with open(args.expect, "w") as fh:
        json.dump(expect, fh)
    out = {"queries": len(expect)}
    if args.workload == "reload":
        # the cache holds canonical keys, so the family labels serve every seed
        ctx = make_context(max_component=MAX_COMPONENT[args.workload])
        run_wheels(ctx, seeded_wheels(0, wheel_sizes(args.workload, args.smoke)))
        ctx.engine.save_cache(args.cache)
        out["cache_bytes"] = os.path.getsize(args.cache)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["wheels", "sums", "reload"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--expect", help="wheels/reload: oracle outcomes (written by --prep)")
    ap.add_argument("--cache", help="reload: the value cache (written by --prep)")
    ap.add_argument("--prep", action="store_true", help="run the untimed step only")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="with --trace: write the aggregated spans here")
    ap.add_argument("--plant-wrong", action="store_true",
                    help="corrupt one expected answer (self-test of the checks)")
    ap.add_argument("--smoke", action="store_true",
                    help=f"tiny inputs: wheels {SMOKE_WHEELS.start}..{SMOKE_WHEELS.stop - 1}, "
                         f"{SMOKE_SUMS} sums")
    args = ap.parse_args(argv)
    w = args.workload
    if args.prep:
        print(json.dumps(prepare(args)))
        return 0

    ctx = make_context(max_component=MAX_COMPONENT[w])
    ready = time.monotonic()

    if w == "sums":
        sums = seeded_sums(args.seed, SMOKE_SUMS if args.smoke else SUMS)
        paths = {n: path(n) for n in range(SUM_PATHS[0], SUM_PATHS[1] + 1)}
    else:
        queries = seeded_wheels(args.seed, wheel_sizes(w, args.smoke))
    tracer = None
    if args.trace:
        from tracer import Tracer  # the benchmark's own module, beside this file
        tracer = Tracer()
        tracer.install(mdgame)

    loaded = True
    t0 = time.perf_counter()
    if w == "wheels":
        answers = run_wheels(ctx, queries)
    elif w == "sums":
        answers = run_sums(ctx, sums, paths)
    else:
        # --cache users pay for the load and the save on every run
        loaded = ctx.engine.load_cache(args.cache)
        answers = run_wheels(ctx, queries)
        saved = f"{args.cache}.{os.getpid()}.out"
        ctx.engine.save_cache(saved)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    games = len(ctx.store)
    cache_bytes = 0
    if w == "reload":
        cache_bytes = os.path.getsize(saved)
        os.remove(saved)

    errors: list[str] = []
    attempted = len(answers)
    if w == "sums":
        failed = check_sums(answers, errors, args.plant_wrong)
    else:
        with open(args.expect) as fh:
            oracle = json.load(fh)
        failed = check_wheels(ctx.store, answers, oracle, errors, args.plant_wrong)
    if w == "reload":
        attempted += 1  # the load itself
        if not loaded:
            errors.append(f"value cache {args.cache} was rejected")
            failed += 1

    trace = None
    if tracer:
        trace = tracer.report(wall, cache_bytes, games)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps({
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "trace": trace,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
