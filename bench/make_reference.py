"""Regenerate bench/reference.json: exact values of wheels 3..9.

Usage, from the repository root:

    PYTHONPATH=src python3 bench/make_reference.py

Each entry holds the outcome and an order-independent digest of the
canonical value (see ``child.value_digest``), computed at the family
labels in one fresh context.  Outcomes are checked against the brute-force
oracle before anything is written.  Regenerate only when the game rules
change; a faster engine must reproduce this file exactly.
"""

from __future__ import annotations

import json
import os
import sys

from child import HERE, MAX_COMPONENT, RELOAD_WHEELS, VARIANTS, value_digest
from mdgame import make_context
from mdgame.families import wheel


def main() -> int:
    ctx = make_context(max_component=MAX_COMPONENT["reload"])
    memo: dict = {}
    table: dict = {}
    for variant in VARIANTS:
        rows = table[variant.value] = {}
        for n in RELOAD_WHEELS:
            g = wheel(n)
            value = ctx.engine.game_of(g, variant)
            outcome = ctx.store.outcome(value)
            oracle = ctx.oracle.outcome(g, variant)
            if outcome is not oracle:
                print(f"{variant.value} wheel {n}: engine {outcome.value}, "
                      f"oracle {oracle.value}", file=sys.stderr)
                return 1
            rows[str(n)] = {"outcome": outcome.value,
                            "digest": value_digest(ctx.store, value, memo)}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"wheels": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
