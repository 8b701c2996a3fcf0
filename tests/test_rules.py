"""Move generation, the component-value engine, the referee, and the cache."""

import random
import struct

import pytest

from mdgame import Graph, Outcome, connected_graphs
from mdgame.families import complete, cycle, path, star, wheel
from mdgame.rules import (
    GraphGameEngine,
    Player,
    Variant,
    canonical_key,
    make_context,
    variant_moves,
)

ALL_VARIANTS = tuple(Variant)


# ----------------------------------------------------------------------
# move generation
# ----------------------------------------------------------------------

class TestBaseMoves:
    def test_p2_is_dead_for_both(self):
        g = path(2)
        assert variant_moves(g, Player.LEFT, Variant.CLASSIC) == ()
        assert variant_moves(g, Player.RIGHT, Variant.CLASSIC) == ()

    def test_p3_left_end_deletions_collapse(self):
        # one result per legal move: both ends give P2
        assert variant_moves(path(3), Player.LEFT, Variant.CLASSIC) == (path(2), path(2))

    def test_p3_right_cannot_strand_a_leaf(self):
        assert variant_moves(path(3), Player.RIGHT, Variant.CLASSIC) == ()

    def test_k3_moves(self):
        assert variant_moves(complete(3), Player.LEFT, Variant.CLASSIC) == (complete(2),) * 3
        right = variant_moves(complete(3), Player.RIGHT, Variant.CLASSIC)
        assert len(right) == 3
        assert all(r.edge_count == 2 for r in right)

    def test_left_never_isolates_a_neighbor(self):
        # the middle of P3 has two leaf neighbors, so it is frozen
        results = variant_moves(path(3), Player.LEFT, Variant.CLASSIC)
        assert all(r.edge_count == 0 or min(
            r.degree(v) for v in range(r.n)) >= 1 for r in results)


class TestVariantMoves:
    def test_fl_removes_leaf_deletions(self):
        assert variant_moves(path(4), Player.LEFT, Variant.CLASSIC) != ()
        assert variant_moves(path(4), Player.LEFT, Variant.FORBIDDEN_LEAF) == ()

    def test_fl_right_unchanged(self):
        classic = variant_moves(path(4), Player.RIGHT, Variant.CLASSIC)
        fl = variant_moves(path(4), Player.RIGHT, Variant.FORBIDDEN_LEAF)
        assert classic == fl

    def test_mf_closes_component_when_right_is_out(self):
        # P3: Left could move classically, Right never could
        for mover in Player:
            assert variant_moves(path(3), mover, Variant.MUTUAL_FAILURES) == ()

    def test_mf_open_component_keeps_base_moves(self):
        for mover in Player:
            mf = variant_moves(path(4), mover, Variant.MUTUAL_FAILURES)
            base = variant_moves(path(4), mover, Variant.CLASSIC)
            assert mf == base

    def test_results_never_contain_isolated_vertices(self):
        for g in connected_graphs(6)[6]:
            for variant in ALL_VARIANTS:
                for mover in Player:
                    for r in variant_moves(g, mover, variant):
                        assert all(r.degree(v) >= 1 for v in range(r.n))


class TestCanonicalKey:
    def test_relabeling_invariant(self):
        rng = random.Random(3)
        g = cycle(6)
        perm = list(range(6))
        rng.shuffle(perm)
        h = Graph.from_edges(6, [(perm[u], perm[v]) for u, v in g.edges()])
        for variant in ALL_VARIANTS:
            assert canonical_key(g, variant) == canonical_key(h, variant)

    def test_variants_do_not_share_keys(self):
        g = path(5)
        keys = {canonical_key(g, variant) for variant in ALL_VARIANTS}
        assert len(keys) == 3


# ----------------------------------------------------------------------
# engine values
# ----------------------------------------------------------------------

class TestEngineValues:
    def test_classic_base_cases(self, ctx):
        st = ctx.store
        eng = ctx.engine
        assert eng.game_of(path(2), Variant.CLASSIC) == st.zero
        assert eng.game_of(path(3), Variant.CLASSIC) == st.number_game(1)
        p4 = eng.game_of(path(4), Variant.CLASSIC)
        assert st.left_options(p4) == (st.number_game(1),)
        assert st.right_options(p4) == (st.zero,)
        assert eng.game_of(path(5), Variant.CLASSIC) == st.number_game("1/2")
        assert eng.game_of(complete(3), Variant.CLASSIC) == st.number_game("1/2")

    def test_fl_base_cases(self, ctx):
        st = ctx.store
        eng = ctx.engine
        assert eng.game_of(path(4), Variant.FORBIDDEN_LEAF) == st.number_game(-1)
        assert eng.game_of(path(5), Variant.FORBIDDEN_LEAF) == st.star
        assert eng.game_of(complete(3), Variant.FORBIDDEN_LEAF) == st.star

    def test_mf_base_cases(self, ctx):
        st = ctx.store
        eng = ctx.engine
        assert eng.game_of(path(3), Variant.MUTUAL_FAILURES) == st.zero
        assert eng.game_of(path(4), Variant.MUTUAL_FAILURES) == st.star
        assert eng.game_of(path(5), Variant.MUTUAL_FAILURES) == st.ups_game(1, plus_star=True)
        assert eng.game_of(path(7), Variant.MUTUAL_FAILURES) == st.ups_game(1)

    def test_mf_p6_canonical_form(self, ctx):
        st = ctx.store
        g = ctx.engine.game_of(path(6), Variant.MUTUAL_FAILURES)
        assert st.left_options(g) == tuple(sorted((st.zero, st.ups_game(1, plus_star=True))))
        assert st.right_options(g) == tuple(sorted((st.zero, st.star)))

    def test_sum_of_components_is_game_sum(self, ctx):
        st = ctx.store
        eng = ctx.engine
        for variant in ALL_VARIANTS:
            whole = eng.game_of(path(4).disjoint_union(cycle(5)), variant)
            parts = st.add(eng.game_of(path(4), variant), eng.game_of(cycle(5), variant))
            assert whole == parts

    def test_isolated_vertices_are_inert(self, ctx):
        eng = ctx.engine
        padded = path(5).disjoint_union(Graph.empty(2))
        for variant in ALL_VARIANTS:
            assert eng.game_of(padded, variant) == eng.game_of(path(5), variant)

    def test_mf_values_are_all_small(self, ctx):
        st = ctx.store
        for n, graphs in connected_graphs(6).items():
            for g in graphs:
                assert st.is_all_small(ctx.engine.game_of(g, Variant.MUTUAL_FAILURES))


# ----------------------------------------------------------------------
# engine versus referee
# ----------------------------------------------------------------------

class TestOracleAgreement:
    def test_fixed_examples(self, ctx):
        oracle = ctx.oracle
        assert oracle.outcome(path(5), Variant.CLASSIC) is Outcome.LEFT_WINS
        assert oracle.outcome(path(8), Variant.FORBIDDEN_LEAF) is Outcome.RIGHT_WINS
        assert oracle.outcome(path(2), Variant.CLASSIC) is Outcome.SECOND_WINS
        assert oracle.outcome(path(9), Variant.MUTUAL_FAILURES) is Outcome.LEFT_WINS

    def test_families_sweep(self, ctx):
        cases = [path(n) for n in range(2, 11)]
        cases += [cycle(n) for n in range(3, 10)]
        cases += [complete(n) for n in range(2, 6)]
        cases += [wheel(n) for n in range(3, 7)]
        cases += [star(n) for n in range(1, 6)]
        for g in cases:
            for variant in ALL_VARIANTS:
                assert ctx.engine.outcome_of(g, variant) is ctx.oracle.outcome(g, variant)

    def test_random_connected_graphs(self, ctx):
        rng = random.Random(19)
        pool = connected_graphs(6)[6]
        for g in rng.sample(pool, 40):
            for variant in ALL_VARIANTS:
                assert ctx.engine.outcome_of(g, variant) is ctx.oracle.outcome(g, variant)

    def test_disconnected_positions(self, ctx):
        combos = [
            path(3).disjoint_union(path(4)),
            cycle(3).disjoint_union(path(5)),
            complete(4).disjoint_union(cycle(4)),
        ]
        for g in combos:
            for variant in ALL_VARIANTS:
                assert ctx.engine.outcome_of(g, variant) is ctx.oracle.outcome(g, variant)


# ----------------------------------------------------------------------
# cache persistence
# ----------------------------------------------------------------------

class TestCachePersistence:
    def test_round_trip(self, tmp_path):
        ctx = make_context()
        for n in range(2, 8):
            ctx.engine.game_of(path(n), Variant.MUTUAL_FAILURES)
        ctx.engine.game_of(cycle(5), Variant.CLASSIC)
        cache = tmp_path / "values.mdgc"
        ctx.engine.save_cache(str(cache))

        fresh = make_context()
        assert fresh.engine.load_cache(str(cache)) is True
        assert len(fresh.engine._values) == len(ctx.engine._values)
        # the merged values must render identically on a fresh store
        for n in range(2, 8):
            a = ctx.store.render(ctx.engine.game_of(path(n), Variant.MUTUAL_FAILURES))
            b = fresh.store.render(fresh.engine.game_of(path(n), Variant.MUTUAL_FAILURES))
            assert a == b

    def test_corrupted_file_is_rejected(self, tmp_path):
        ctx = make_context()
        ctx.engine.game_of(path(4), Variant.CLASSIC)
        cache = tmp_path / "values.mdgc"
        ctx.engine.save_cache(str(cache))
        blob = bytearray(cache.read_bytes())
        blob[-1] ^= 0xFF  # break the checksum
        cache.write_bytes(bytes(blob))
        fresh = make_context()
        assert fresh.engine.load_cache(str(cache)) is False
        assert fresh.engine._values == {}

    def test_wrong_magic_and_version_rejected(self, tmp_path):
        ctx = make_context()
        ctx.engine.game_of(path(4), Variant.CLASSIC)
        cache = tmp_path / "values.mdgc"
        ctx.engine.save_cache(str(cache))
        blob = cache.read_bytes()

        bad_magic = tmp_path / "magic.mdgc"
        bad_magic.write_bytes(b"XXXX" + blob[4:])
        bad_version = tmp_path / "version.mdgc"
        bad_version.write_bytes(blob[:4] + b"\xff\xff\xff\xff" + blob[8:])
        fresh = make_context()
        assert fresh.engine.load_cache(str(bad_magic)) is False
        assert fresh.engine.load_cache(str(bad_version)) is False

    def test_previous_version_rejected(self, tmp_path):
        # version 2 files hold keys from the old canonical labeling; their
        # checksum still matches, so only the version check rejects them
        ctx = make_context()
        ctx.engine.game_of(path(4), Variant.CLASSIC)
        cache = tmp_path / "values.mdgc"
        ctx.engine.save_cache(str(cache))
        blob = cache.read_bytes()
        old = tmp_path / "v2.mdgc"
        old.write_bytes(blob[:4] + struct.pack("<I", 2) + blob[8:])
        fresh = make_context()
        fresh.engine.game_of(cycle(4), Variant.CLASSIC)
        before = dict(fresh.engine._values)
        assert fresh.engine.load_cache(str(old)) is False
        assert fresh.engine._values == before

    def test_missing_file(self, tmp_path):
        assert make_context().engine.load_cache(str(tmp_path / "nope")) is False

    def test_truncated_and_bit_flipped_files_are_rejected(self, tmp_path):
        ctx = make_context()
        for n in range(2, 8):
            ctx.engine.game_of(path(n), Variant.MUTUAL_FAILURES)
        ctx.engine.game_of(wheel(4), Variant.CLASSIC)
        cache = tmp_path / "values.mdgc"
        ctx.engine.save_cache(str(cache))
        blob = cache.read_bytes()
        damaged = [blob[:i] for i in range(len(blob))]
        for i in range(len(blob)):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[i] ^= 1 << bit
                damaged.append(bytes(flipped))
        fresh = make_context()
        bad = tmp_path / "bad.mdgc"
        for data in damaged:
            bad.write_bytes(data)
            assert fresh.engine.load_cache(str(bad)) is False
            assert fresh.engine._values == {}
