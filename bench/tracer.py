"""Outside-in per-layer tracer for mdgame.

The tracer replaces public functions and methods of the ``graphs``,
``rules``, ``cgt`` and ``atomic`` modules with timing wrappers, from the
benchmark's side; nothing inside the package is edited.  Each wrapper
pushes a frame on one span stack, so a span's self time is its duration
minus the durations of the spans it caused.  That stays exact through the
recursive ``leq``/``add``/``component_value`` calls, where an inclusive
time would count nested calls many times over.

Spans are aggregated in memory per (caller, callee) edge and written out
once, at the end (``Tracer.write_spans``); millions of ``leq`` calls make
one record per call too large to keep.  Every layer time includes part of
the wrapper cost of its children; ``call_cost_s`` measures that cost per
call so it can be read next to the shares.

The tracer does not time the phase itself: ``report`` takes the phase's
wall time from the caller, and whatever part of it no span covers is the
``outside.self_s`` remainder.
"""

from __future__ import annotations

import json
import time

# (layer, span name, owner attribute path, attribute); one name may patch
# several owners, e.g. canonical_form is imported by name into rules.
TRACED = (
    ("graphs", "graphs.canonical_form", "graphs", "canonical_form"),
    ("graphs", "graphs.canonical_form", "rules", "canonical_form"),
    ("graphs", "graphs.components", "graphs.Graph", "components"),
    ("graphs", "graphs.induced", "graphs.Graph", "induced"),
    ("rules", "rules.variant_moves", "rules", "variant_moves"),
    ("rules", "rules.component_value", "rules.GraphGameEngine", "component_value"),
    ("rules", "rules.load_cache", "rules.GraphGameEngine", "load_cache"),
    ("rules", "rules.save_cache", "rules.GraphGameEngine", "save_cache"),
    ("cgt", "cgt.make_game", "cgt.GameStore", "make_game"),
    ("cgt", "cgt.leq", "cgt.GameStore", "leq"),
    ("cgt", "cgt.add", "cgt.GameStore", "add"),
    ("atomic", "atomic.atomic_weight", "atomic.AtomicCalculator", "atomic_weight"),
    ("atomic", "atomic.remote_star_order", "atomic.AtomicCalculator", "remote_star_order"),
)
LAYERS = ("graphs", "rules", "cgt", "atomic")
ROOT = "workload"
PROBE_CALLS = 200_000   # no-op calls per round of the wrapper-cost probe


class Tracer:
    def __init__(self):
        self.names = [ROOT]      # span name stack
        self.child = [0.0]       # child time accumulated per open span
        self.stats: dict[str, list] = {}   # name -> [calls, self_s]
        self.edges: dict[tuple[str, str], list] = {}  # (caller, name) -> [calls, total_s]
        self.canon_inputs: set = set()
        self.move_results = 0

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def install(self, package) -> None:
        for _, name, owner_path, attr in TRACED:
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, fn, self._observer(name)))

    def _observer(self, name):
        """Per-call hook that records counts the layer's own time cannot show."""
        if name == "graphs.canonical_form":
            def seen(args, result):
                g = args[0]
                self.canon_inputs.add((g.n, g.adj))
            return seen
        if name == "rules.variant_moves":
            def moves(args, result):
                self.move_results += len(getattr(result, "results", result))
            return moves
        return None

    def _wrap(self, name, fn, observe):
        names, child, clock = self.names, self.child, time.perf_counter
        rec = self.stats.setdefault(name, [0, 0.0])
        edges = self.edges

        def traced(*args, **kwargs):
            caller = names[-1]
            names.append(name)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                names.pop()
                rec[0] += 1
                rec[1] += dur - child.pop()
                child[-1] += dur
                edge = edges.get((caller, name))
                if edge is None:
                    edge = edges[(caller, name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dur
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    @staticmethod
    def call_cost_s() -> float:
        """Per-call cost of one wrapper around a no-op, against the bare call."""
        def noop():
            return None
        wrapped = Tracer()._wrap("probe", noop, None)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(PROBE_CALLS):
                wrapped()
            t1 = time.perf_counter()
            for _ in range(PROBE_CALLS):
                noop()
            t2 = time.perf_counter()
            best = min(best, ((t1 - t0) - (t2 - t1)) / PROBE_CALLS)
        return max(best, 0.0)

    def report(self, wall_s: float, cache_bytes: int, games: int) -> dict:
        """Per-layer metrics of a traced phase that took wall_s, by BENCHMARK.json names.

        Every traced span is reported, also one the workload never entered:
        its calls and self time then read 0.
        """
        m: dict[str, float] = {}
        for name, (calls, self_s) in sorted(self.stats.items()):
            m[f"{name}.calls"] = calls
            m[f"{name}.self_s"] = self_s
        m["graphs.canonical_form.unique"] = len(self.canon_inputs)
        m["rules.variant_moves.results"] = self.move_results
        # a memo miss builds its value with exactly one direct make_game call
        m["rules.component_value.misses"] = self.edges.get(
            ("rules.component_value", "cgt.make_game"), [0])[0]
        m["rules.cache_bytes"] = cache_bytes
        m["cgt.store.games"] = games
        m["outside.self_s"] = wall_s - self.child[0]
        cost = self.call_cost_s()
        total_calls = sum(calls for calls, _ in self.stats.values())
        m["trace.call_cost_us"] = cost * 1e6
        m["trace.wrapper_pct"] = 100.0 * cost * total_calls / wall_s
        return m

    def write_spans(self, path: str) -> None:
        """Aggregated span tree: one record per (caller, callee) edge."""
        rows = [
            {"caller": caller, "name": name, "calls": calls, "total_s": total}
            for (caller, name), (calls, total) in sorted(self.edges.items())
        ]
        with open(path, "w") as fh:
            json.dump({"edges": rows}, fh, indent=1)


def layer_shares(m: dict, wall_s: float) -> dict:
    """Each layer's self time, and the remainder outside them, over the traced wall."""
    shares = dict.fromkeys(LAYERS, 0.0)
    for layer, name in {(layer, name) for layer, name, _, _ in TRACED}:
        shares[layer] += m[f"{name}.self_s"]
    shares["outside"] = m["outside.self_s"]
    return {k: v / wall_s for k, v in shares.items()}
