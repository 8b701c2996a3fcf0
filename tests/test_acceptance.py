"""Acceptance suite: recomputes every headline result at full scale.

Each test covers one acceptance criterion, demands exact values (no
tolerances), and enforces a wall-clock budget where one applies.  Every
test prints a single PASS/FAIL summary line with its measured runtime.
Tests share one engine context, so earlier tests warm later ones; every
budget still holds from a cold start.
"""

import math
import random
import time

import pytest

import rawgames as raw
from mdgame.cgt import Comparison, Outcome
from mdgame.families import complete, cycle, path, wheel
from mdgame.graphs import connected_graphs
from mdgame.rules import Player, Variant, make_context, variant_moves


@pytest.fixture(scope="module")
def actx():
    return make_context(max_component=28)


def _finish(label, t0, budget, bad):
    elapsed = time.perf_counter() - t0
    over = budget is not None and elapsed >= budget
    status = "FAIL" if bad or over else "PASS"
    limit = f", budget {budget:.0f}s" if budget is not None else ""
    print(f"{status} {label} ({elapsed:.1f}s{limit})")
    assert not bad, bad[:5]
    assert not over, f"{label}: {elapsed:.1f}s exceeds {budget:.0f}s budget"


def _outcomes(ctx, variant, instances):
    bad = []
    for label, g, want in instances:
        got = ctx.store.outcome(ctx.engine.game_of(g, variant))
        if got is not want:
            bad.append(f"{label}: got {got.value}, want {want.value}")
    return bad


def test_01_mf_path_atomic_weight_table(actx):
    t0 = time.perf_counter()
    expected = (0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2)
    bad = []
    for n, want in zip(range(2, 13), expected):
        value = actx.engine.game_of(path(n), Variant.MUTUAL_FAILURES)
        aw = actx.atomic.atomic_weight(value)
        if not (aw.is_integer and aw.integer == want):
            bad.append(f"path {n}: got {aw}, want {want}")
    _finish("mf path atomic weights n=2..12", t0, 5.0, bad)


def test_02_mf_path_atomic_weight_formula(actx):
    t0 = time.perf_counter()
    bad = []
    for n in range(5, 29):
        value = actx.engine.game_of(path(n), Variant.MUTUAL_FAILURES)
        aw = actx.atomic.atomic_weight(value)
        want = math.ceil(n / 4) - 1
        if not (aw.is_integer and aw.integer == want):
            bad.append(f"path {n}: got {aw}, want {want}")
    _finish("mf path atomic weight = ceil(n/4)-1 for n=5..28", t0, 60.0, bad)


def test_03_classic_winners(actx):
    t0 = time.perf_counter()
    instances = [(f"path {n}", path(n), Outcome.LEFT_WINS) for n in range(5, 25)]
    instances += [(f"cycle {n}", cycle(n), Outcome.LEFT_WINS)
                  for n in range(3, 25) if n != 5]
    instances += [(f"wheel {n}", wheel(n), Outcome.LEFT_WINS)
                  for n in range(3, 11) if n != 5]
    instances += [(f"complete {n}", complete(n), Outcome.LEFT_WINS)
                  for n in range(3, 8)]
    bad = _outcomes(actx, Variant.CLASSIC, instances)
    _finish("classic Left wins paths 5..24, cycles 3..24 (not 5), "
            "wheels 3..10 (not 5), completes 3..7", t0, 300.0, bad)


def test_04_forbidden_leaf_winners(actx):
    t0 = time.perf_counter()
    instances = [(f"path {n}", path(n), Outcome.RIGHT_WINS)
                 for n in range(8, 25) if n != 11]
    instances += [(f"cycle {n}", cycle(n), Outcome.RIGHT_WINS)
                  for n in range(8, 21) if n != 11]
    instances += [(f"complete {n}", complete(n), Outcome.LEFT_WINS)
                  for n in range(5, 8)]
    bad = _outcomes(actx, Variant.FORBIDDEN_LEAF, instances)
    _finish("fl Right wins paths 8..24 and cycles 8..20 (not 11), "
            "Left wins completes 5..7", t0, 300.0, bad)


def test_05_mutual_failures_winners(actx):
    t0 = time.perf_counter()
    instances = [(f"path {n}", path(n), Outcome.LEFT_WINS) for n in range(9, 25)]
    instances += [(f"cycle {n}", cycle(n), Outcome.LEFT_WINS)
                  for n in range(10, 17)]
    instances.append(("wheel 10", wheel(10), Outcome.LEFT_WINS))
    instances += [(f"complete {n}", complete(n), Outcome.LEFT_WINS)
                  for n in range(5, 8)]
    bad = _outcomes(actx, Variant.MUTUAL_FAILURES, instances)
    _finish("mf Left wins paths 9..24, cycles 10..16, wheel 10, "
            "completes 5..7", t0, 600.0, bad)


def test_06_base_case_values(actx):
    t0 = time.perf_counter()
    st = actx.store
    cases = [
        ("classic path 3", Variant.CLASSIC, path(3), st.number_game(1)),
        ("classic path 4", Variant.CLASSIC, path(4),
         st.make_game([st.number_game(1)], [st.number_game(0)])),
        ("fl path 4", Variant.FORBIDDEN_LEAF, path(4), st.number_game(-1)),
        ("fl path 5", Variant.FORBIDDEN_LEAF, path(5), st.star),
        ("fl complete 3", Variant.FORBIDDEN_LEAF, complete(3), st.star),
        ("mf path 4", Variant.MUTUAL_FAILURES, path(4), st.star),
        ("mf path 5", Variant.MUTUAL_FAILURES, path(5),
         st.ups_game(1, plus_star=True)),
    ]
    bad = []
    for label, variant, g, want in cases:
        got = actx.engine.game_of(g, variant)
        if got != want:
            bad.append(f"{label}: got {st.render(got)}, want {st.render(want)}")
    _finish("base-case canonical values", t0, None, bad)


def test_07_move_availability_bias(actx):
    t0 = time.perf_counter()
    bad = []
    reps = connected_graphs(7)
    for n in sorted(reps):
        for g in reps[n]:
            classic_left = bool(variant_moves(g, Player.LEFT, Variant.CLASSIC, ()))
            classic_right = bool(variant_moves(g, Player.RIGHT, Variant.CLASSIC, ()))
            if classic_right and not classic_left:
                bad.append(f"classic: Right-movable, Left-stuck on {n} vertices")
            fl_left = bool(variant_moves(g, Player.LEFT, Variant.FORBIDDEN_LEAF, ()))
            fl_right = bool(variant_moves(g, Player.RIGHT, Variant.FORBIDDEN_LEAF, ()))
            if fl_left and not fl_right:
                bad.append(f"fl: Left-movable, Right-stuck on {n} vertices")
    _finish("move bias over all connected graphs, n<=7", t0, 120.0, bad)


def test_08_path_value_signs(actx):
    t0 = time.perf_counter()
    st = actx.store
    bad = []
    for n in range(2, 25):
        classic = st.compare(actx.engine.game_of(path(n), Variant.CLASSIC),
                             st.zero)
        if classic is Comparison.LESS:
            bad.append(f"classic path {n} < 0")
        fl = st.compare(actx.engine.game_of(path(n), Variant.FORBIDDEN_LEAF),
                        st.zero)
        if fl is Comparison.GREATER:
            bad.append(f"fl path {n} > 0")
    _finish("classic paths never < 0 and fl paths never > 0, n<=24",
            t0, 60.0, bad)


def test_09_property_suites(actx):
    t0 = time.perf_counter()
    st = actx.store
    bad = []

    # engine outcome equals brute-force oracle outcome
    positions = [path(n) for n in range(1, 13)]
    positions += [cycle(n) for n in range(3, 13)]
    positions += [complete(n) for n in range(1, 7)]
    for variant in Variant:
        for g in positions:
            eng = st.outcome(actx.engine.game_of(g, variant))
            orc = actx.oracle.outcome(g, variant)
            if eng is not orc:
                bad.append(f"oracle mismatch: {variant.value}, "
                           f"{g.n} vertices, {g.edge_count} edges")

    # atomic weight adds across disjoint unions of mf path values
    rng = random.Random(20260819)
    pool = [actx.engine.game_of(path(n), Variant.MUTUAL_FAILURES)
            for n in range(2, 13)]

    def sample_sum():
        total = st.zero
        for _ in range(rng.randint(1, 3)):
            total = st.add(total, rng.choice(pool))
        return total

    for _ in range(200):
        a, b = sample_sum(), sample_sum()
        wa, wb, ws = (actx.atomic.atomic_weight(x)
                      for x in (a, b, st.add(a, b)))
        if not (wa.is_integer and wb.is_integer and ws.is_integer
                and ws.integer == wa.integer + wb.integer):
            bad.append(f"additivity: {wa} + {wb} vs {ws}")

    # g beats every remote star exactly when its atomic weight is >= 1
    for n in range(2, 21):
        g = actx.engine.game_of(path(n), Variant.MUTUAL_FAILURES)
        order = actx.atomic.surrogate_order(g)
        remote_win = all(
            st.compare(st.add(g, st.nimber_game(k)), st.zero)
            is Comparison.GREATER
            for k in (order, order + 1)
        )
        heavy = actx.atomic.atomic_weight(g).integer >= 1
        if remote_win != heavy:
            bad.append(f"far-star: mf path {n} beats remote star "
                       f"{remote_win}, weight >= 1 {heavy}")

    # group laws and canonicalization idempotence on random games
    games = [raw.to_store(st, raw.random_raw(rng, 4)) for _ in range(1000)]
    for g in games:
        if st.make_game(st.left_options(g), st.right_options(g)) != g:
            bad.append(f"idempotence: {st.render(g)}")
        if st.add(g, st.zero) != g or st.negate(st.negate(g)) != g:
            bad.append(f"unit or double negation: {st.render(g)}")
        if st.add(g, st.negate(g)) != st.zero:
            bad.append(f"inverse: {st.render(g)}")
    for a, b, c in zip(games[0::3], games[1::3], games[2::3]):
        if st.add(a, b) != st.add(b, a):
            bad.append("commutativity failed")
        if st.add(st.add(a, b), c) != st.add(a, st.add(b, c)):
            bad.append("associativity failed")

    _finish("property suites: oracle agreement, weight additivity, "
            "far-star, group laws", t0, None, bad)
