"""Move generation, the component-value engine, the referee, and the cache."""

import collections
import functools
import itertools
import random
import struct
import time
import tracemalloc
import zlib

import pytest

from mdgame import (GameStore, Graph, MemoCapExceeded, Outcome, TooLarge, canonical_form,
                    connected_graphs)
from mdgame import rules
from mdgame.cli import _value_payload
from mdgame.families import biclique, complete, cycle, path, star, wheel
from mdgame.graphs import labeling
from mdgame.rules import (
    GraphGameEngine,
    Oracle,
    Player,
    Variant,
    canonical_key,
    make_context,
    variant_moves,
)

ALL_VARIANTS = tuple(Variant)


def transplant(src, dst, g, memo: dict):
    """Rebuild game g of store src in store dst through make_game.

    Canonical forms are unique, so the result equals a value computed in
    dst exactly when the two values are equal, whatever order the stores
    built their games in.
    """
    hit = memo.get(g)
    if hit is None:
        hit = memo[g] = dst.make_game(
            [transplant(src, dst, o, memo) for o in src.left_options(g)],
            [transplant(src, dst, o, memo) for o in src.right_options(g)])
    return hit


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_connected_graph(n: int, rng: random.Random) -> Graph:
    """Seeded random connected graph: a random spanning tree plus up to three
    more edges (denser graphs on 8 vertices take seconds to value cold)."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    others = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    edges.update(rng.sample(others, rng.randint(0, 3)))
    return relabeled(Graph.from_edges(n, edges), rng)


# ----------------------------------------------------------------------
# move generation
# ----------------------------------------------------------------------

def orbit_moves(g: Graph, mover: Player, variant: Variant) -> tuple[Graph, ...]:
    """variant_moves pruned by the automorphisms g's labeling finds, as the
    engine calls it."""
    return variant_moves(g, mover, variant, labeling(g)[1])


class TestBaseMoves:
    def test_p2_is_dead_for_both(self):
        g = path(2)
        assert orbit_moves(g, Player.LEFT, Variant.CLASSIC) == ()
        assert orbit_moves(g, Player.RIGHT, Variant.CLASSIC) == ()

    def test_p3_left_end_deletions_collapse(self):
        # one result per orbit of legal moves: the two ends are one orbit
        assert orbit_moves(path(3), Player.LEFT, Variant.CLASSIC) == (path(2),)

    def test_p3_right_cannot_strand_a_leaf(self):
        assert orbit_moves(path(3), Player.RIGHT, Variant.CLASSIC) == ()

    def test_k3_moves(self):
        # every vertex and every edge of K3 lies in one orbit
        assert orbit_moves(complete(3), Player.LEFT, Variant.CLASSIC) == (complete(2),)
        right = orbit_moves(complete(3), Player.RIGHT, Variant.CLASSIC)
        assert len(right) == 1
        assert right[0].edge_count == 2

    def test_left_never_isolates_a_neighbor(self):
        # the middle of P3 has two leaf neighbors, so it is frozen
        results = orbit_moves(path(3), Player.LEFT, Variant.CLASSIC)
        assert all(r.edge_count == 0 or min(
            r.degree(v) for v in range(r.n)) >= 1 for r in results)


class TestVariantMoves:
    def test_fl_removes_leaf_deletions(self):
        assert orbit_moves(path(4), Player.LEFT, Variant.CLASSIC) != ()
        assert orbit_moves(path(4), Player.LEFT, Variant.FORBIDDEN_LEAF) == ()

    def test_fl_right_unchanged(self):
        classic = orbit_moves(path(4), Player.RIGHT, Variant.CLASSIC)
        fl = orbit_moves(path(4), Player.RIGHT, Variant.FORBIDDEN_LEAF)
        assert classic == fl

    def test_mf_closes_component_when_right_is_out(self):
        # P3: Left could move classically, Right never could
        for mover in Player:
            assert orbit_moves(path(3), mover, Variant.MUTUAL_FAILURES) == ()

    def test_mf_open_component_keeps_base_moves(self):
        for mover in Player:
            mf = orbit_moves(path(4), mover, Variant.MUTUAL_FAILURES)
            base = orbit_moves(path(4), mover, Variant.CLASSIC)
            assert mf == base

    def test_results_never_contain_isolated_vertices(self):
        for g in connected_graphs(6)[6]:
            for variant in ALL_VARIANTS:
                for mover in Player:
                    for r in orbit_moves(g, mover, variant):
                        assert all(r.degree(v) >= 1 for v in range(r.n))


def legal_moves(g: Graph, mover: Player, variant: Variant) -> list:
    """Every legal move of mover on connected g, vertices for Left and edges
    for Right, from the rules as stated: a deletion may not leave a vertex
    isolated, isolated vertices cannot be deleted, fl forbids Left to delete
    a leaf, and mf closes g unless both players have a classic move."""
    def no_isolated(h: Graph) -> bool:
        return all(h.degree(v) > 0 for v in range(h.n))

    def classic(who: Player) -> list:
        if who is Player.LEFT:
            return [v for v in range(g.n)
                    if g.degree(v) > 0 and no_isolated(g.delete_vertex(v))]
        return [e for e in g.edges() if no_isolated(g.delete_edge(*e))]

    if variant is Variant.MUTUAL_FAILURES and not (
            classic(Player.LEFT) and classic(Player.RIGHT)):
        return []
    moves = classic(mover)
    if mover is Player.LEFT and variant is Variant.FORBIDDEN_LEAF:
        moves = [v for v in moves if g.degree(v) != 1]
    return moves


class TestOrbitMoves:
    def counts(self, g: Graph, variant: Variant) -> tuple[int, int]:
        return (len(orbit_moves(g, Player.LEFT, variant)),
                len(orbit_moves(g, Player.RIGHT, variant)))

    def test_one_move_per_orbit_on_families(self):
        for variant in ALL_VARIANTS:
            for n in range(4, 9):
                assert self.counts(wheel(n), variant) == (2, 2)  # hub, rim; spoke, rim
            for n in range(3, 9):
                assert self.counts(cycle(n), variant) == (1, 1)
                assert self.counts(complete(n), variant) == (1, 1)
        assert self.counts(biclique(2, 3), Variant.CLASSIC) == (2, 1)
        # the ends, the two vertices next but one to an end, and the middle
        assert len(orbit_moves(path(7), Player.LEFT, Variant.CLASSIC)) == 3

    def test_orbit_results_match_every_legal_move(self):
        # the same isomorphism classes of results as making every legal move
        kept = total = 0
        form = functools.cache(canonical_form)  # results recur across variants
        for graphs in connected_graphs(7).values():
            for g in graphs:
                autos = labeling(g)[1]
                for variant in ALL_VARIANTS:
                    for mover in Player:
                        results = variant_moves(g, mover, variant, autos)
                        every = [g.delete_vertex(m) if mover is Player.LEFT
                                 else g.delete_edge(*m) for m in legal_moves(g, mover, variant)]
                        assert {form(r) for r in results} == {form(r) for r in every}
                        # with no automorphisms to prune by, one result per legal move
                        assert variant_moves(g, mover, variant, ()) == tuple(every)
                        kept += len(results)
                        total += len(every)
        assert kept < total

    def test_orbit_counts_match_the_whole_group_through_six(self):
        # on these graphs the automorphisms that labeling finds generate the
        # whole group (found here by trying all n! permutations), so no
        # orbit of moves is split in two
        for graphs in connected_graphs(6).values():
            for g in graphs:
                edges = {frozenset(e) for e in g.edges()}
                group = [p for p in itertools.permutations(range(g.n))
                         if {frozenset((p[u], p[v])) for u, v in edges} == edges]
                for variant in ALL_VARIANTS:
                    lefts = legal_moves(g, Player.LEFT, variant)
                    rights = legal_moves(g, Player.RIGHT, variant)
                    orbits = (len({frozenset(p[v] for p in group) for v in lefts}),
                              len({frozenset(frozenset((p[u], p[v])) for p in group)
                                   for u, v in rights}))
                    assert self.counts(g, variant) == orbits


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

    def test_too_large_guard(self):
        with pytest.raises(TooLarge):
            make_context(max_component=12).engine.game_of(path(13), Variant.CLASSIC)

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

    def test_random_connected_graphs_of_eight_and_nine_vertices(self, ctx):
        # a random tree plus 0..4 more edges: n-1 to n+3 edges, sparse enough
        # for the Oracle, dense enough to reach every outcome class
        rng = random.Random(24)
        seen = set()
        for n in (8, 9):
            pairs = list(itertools.combinations(range(n), 2))
            for _ in range(40):
                tree = {(rng.randrange(v), v) for v in range(1, n)}
                extra = rng.sample([e for e in pairs if e not in tree], rng.randint(0, 4))
                g = Graph.from_edges(n, sorted(tree) + extra)
                for variant in ALL_VARIANTS:
                    outcome = ctx.engine.outcome_of(g, variant)
                    assert outcome is ctx.oracle.outcome(g, variant)
                    seen.add(outcome)
        assert seen == set(Outcome)

    def test_disconnected_positions(self, ctx):
        combos = [
            path(3).disjoint_union(path(4)),
            cycle(3).disjoint_union(path(5)),
            complete(4).disjoint_union(cycle(4)),
        ]
        for g in combos:
            for variant in ALL_VARIANTS:
                assert ctx.engine.outcome_of(g, variant) is ctx.oracle.outcome(g, variant)

    def test_memo_cap_bounds_the_oracle(self):
        g, variant = wheel(5), Variant.MUTUAL_FAILURES
        free = Oracle()
        answer = free.outcome(g, variant)
        size = len(free._memo)
        exact = Oracle(memo_cap=size)
        assert exact.outcome(g, variant) is answer and len(exact._memo) == size
        for oracle in (Oracle(memo_cap=size // 2), make_context(memo_cap=size // 2).oracle):
            with pytest.raises(MemoCapExceeded):
                oracle.outcome(g, variant)
            assert len(oracle._memo) == size // 2


class TestValueIdentities:
    """Values checked against answers computed without the store's
    canonicalization: the referee on sums, and Grundy values."""

    def test_sums_match_the_oracle_on_disjoint_unions(self):
        ctx = make_context()
        reps = connected_graphs(5)
        graphs = [g for n in sorted(reps) if n > 1 for g in reps[n]]
        pairs = list(itertools.combinations_with_replacement(graphs, 2))
        assert len(pairs) == 465
        st, engine = ctx.store, ctx.engine
        for variant in ALL_VARIANTS:
            for g, h in pairs:
                total = st.add(engine.game_of(g, variant), engine.game_of(h, variant))
                assert st.outcome(total) is ctx.oracle.outcome(g.disjoint_union(h), variant)

    def test_impartial_positions_are_nimbers(self):
        # both players get every classic move, so each position is *k, k its
        # Grundy value, and a sum of components is the nim-sum
        st = GameStore()
        memo: dict[bytes, tuple] = {}

        def impartial(c: Graph) -> tuple:
            form, autos = labeling(c)
            hit = memo.get(form)
            if hit is None:
                inner, ends, edges = rules._orbit_moves(c, autos)
                results = [c.delete_vertex(v) for v in inner + ends]
                results += [c.delete_edge(u, v) for u, v in edges]
                games, grundies = [], set()
                for r in results:
                    g, k = st.zero, 0
                    for part in r.components():
                        if part.n > 1:
                            pg, pk = impartial(part)
                            g, k = st.add(g, pg), k ^ pk
                    assert g == st.nimber_game(k)
                    games.append(g)
                    grundies.add(k)
                mex = min(set(range(len(grundies) + 1)) - grundies)
                hit = memo[form] = (st.make_game(games, games), mex)
            return hit

        reps = connected_graphs(7)
        seen = set()
        for g in (g for n in sorted(reps) for g in reps[n]):
            game, k = impartial(g)
            assert game == st.nimber_game(k)
            seen.add(k)
        assert sum(map(len, reps.values())) == 996 and seen == set(range(11))


class TestRelabelingInvariance:
    def test_values_survive_random_relabeling(self):
        rng = random.Random(2021)
        for _ in range(20):
            g = random_connected_graph(rng.randint(5, 8), rng)
            h = relabeled(g, rng)
            for variant in ALL_VARIANTS:
                a, b = make_context(), make_context()
                va = a.engine.game_of(g, variant)
                vb = b.engine.game_of(h, variant)
                assert transplant(a.store, b.store, va, {}) == vb
                assert a.store.outcome(va) is a.oracle.outcome(h, variant)


class TestOwnedState:
    def test_each_context_starts_cold(self):
        # labeled graphs' forms and the classes belong to one context: a new
        # one starts empty and recomputes the same answers
        wheels = [wheel(n) for n in range(3, 9)]
        warm = make_context()
        first = {(g, v): warm.engine.game_of(g, v) for v in ALL_VARIANTS for g in wheels}
        assert warm.engine._classes and warm.engine._components
        cold = make_context()
        assert not cold.engine._classes and not cold.engine._components
        again = {key: cold.engine.game_of(*key) for key in first}
        memo: dict = {}
        for key, value in first.items():
            assert transplant(warm.store, cold.store, value, memo) == again[key]
            assert warm.store.outcome(value) is cold.store.outcome(again[key])

    @pytest.mark.parametrize("full", ["_components", "_classes"])
    def test_memo_cap_bounds_the_graph_tables(self, full):
        cap = 20
        if full == "_components":
            # every option of a wheel is a labeled graph of its own; and one
            # position of 42 differently labeled stars, all closed in mf,
            # holds 42 labeled components but only 7 classes
            stars = Graph.empty(0)
            for k in range(2, 9):
                for center in range(k + 1):
                    stars = stars.disjoint_union(Graph.from_edges(
                        k + 1, [(center, v) for v in range(k + 1) if v != center]))
            runs = [[wheel(n) for n in range(3, 9)], [stars]]
        else:
            # one position of 30 components in 30 classes: each class is
            # stored before its labeled graph, so the classes fill first
            runs = [[functools.reduce(Graph.disjoint_union, (
                g for n, gs in connected_graphs(5).items() if n > 1 for g in gs))]]
        for positions in runs:
            capped = make_context(memo_cap=cap)
            with pytest.raises(MemoCapExceeded):
                for g in positions:
                    capped.engine.game_of(g, Variant.MUTUAL_FAILURES)
            engine = capped.engine
            assert len(getattr(engine, full)) == cap
            assert len(engine._classes) <= cap and len(engine._components) <= cap


def count_labelings(monkeypatch) -> list:
    """Record each labeling the engine asks for: whether it found a new
    class, which takes a full search, and the automorphisms it returned."""
    calls = []

    def counted(g, known=()):
        form, autos = labeling(g, known)
        calls.append((form not in known, autos))
        return form, autos

    monkeypatch.setattr(rules, "labeling", counted)
    return calls


class TestClassExpansion:
    def test_one_expansion_serves_every_variant(self, monkeypatch):
        calls = count_labelings(monkeypatch)
        wheels = [wheel(n) for n in range(3, 8)]
        ctx = make_context()
        classic = [ctx.engine.game_of(g, Variant.CLASSIC) for g in wheels]
        full = [autos for new, autos in calls if new]
        assert len(full) == len(ctx.engine._classes) < len(calls)
        assert all(autos == () for new, autos in calls if not new)  # stopped early
        # every class with a classic option is expanded; one with none keeps its graph
        assert all((rep is None) == any(moves) for rep, *moves in ctx.engine._classes.values())
        labeled = len(calls)
        values = {Variant.CLASSIC: classic}
        for variant in (Variant.FORBIDDEN_LEAF, Variant.MUTUAL_FAILURES):
            values[variant] = [ctx.engine.game_of(g, variant) for g in wheels]
        assert len(calls) == labeled  # fl and mf label nothing
        for variant, got in values.items():  # each variant valued alone agrees
            alone = make_context()
            memo: dict = {}
            assert [transplant(ctx.store, alone.store, v, memo) for v in got] == [
                alone.engine.game_of(g, variant) for g in wheels]

    def test_closed_mf_component_labels_no_child(self, monkeypatch):
        calls = count_labelings(monkeypatch)
        ctx = make_context()
        for g in (star(5), path(3)):  # Right cannot move, so mf closes them
            assert ctx.engine.game_of(g, Variant.MUTUAL_FAILURES) == ctx.store.zero
        assert len(calls) == 2
        assert [rep for rep, *_ in ctx.engine._classes.values()] == [star(5), path(3)]
        ctx.engine.game_of(star(5), Variant.CLASSIC)  # Left deletes leaves
        assert len(calls) > 2 and ctx.engine._classes[canonical_form(star(5))][0] is None

    def test_engine_options_are_variant_moves_results(self):
        # the same options as multisets of entries, each in a fresh context, so
        # the class's representative is g itself
        for g in [g for n, gs in connected_graphs(6).items() if n > 1 for g in gs]:
            autos = labeling(g)[1]
            for variant in ALL_VARIANTS:
                for side, mover in ((0, Player.LEFT), (1, Player.RIGHT)):
                    engine = make_context().engine
                    got = engine._moves(engine._entry(g), variant)[side]
                    want = [engine._entry(r) for r in variant_moves(g, mover, variant, autos)]
                    assert collections.Counter(got) == collections.Counter(want)

    def test_a_loaded_cache_adds_nothing_to_known(self, tmp_path, monkeypatch):
        ctx = make_context()
        for n in range(3, 8):
            ctx.engine.game_of(wheel(n), Variant.CLASSIC)
        cache = tmp_path / "wheels.mdgc"
        ctx.engine.save_cache(str(cache))
        calls = count_labelings(monkeypatch)
        fresh = make_context()
        assert fresh.engine.load_cache(str(cache))
        assert not fresh.engine._classes and not fresh.engine._components
        value = fresh.engine.game_of(wheel(6), Variant.CLASSIC)
        # served from the file: one full search, of the queried graph only
        assert [new for new, _ in calls] == [True]
        (form, (rep, *_)), = fresh.engine._classes.items()
        assert form == canonical_form(wheel(6)) and rep == wheel(6)
        assert transplant(fresh.store, ctx.store, value, {}) == ctx.engine.game_of(
            wheel(6), Variant.CLASSIC)

    def test_lone_vertices_value_zero_quickly(self):
        ctx = make_context()
        start = time.perf_counter()
        g = Graph.empty(100_000)
        for variant in ALL_VARIANTS:
            assert ctx.engine.game_of(g, variant) == ctx.store.zero
        assert time.perf_counter() - start < 1


class TestHistoryIndependentText:
    def test_printed_values_do_not_depend_on_computation_order(self):
        # forward and reversed order intern the games in different GameId
        # orders; before options were printed by birthday and text, 22 of
        # these 426 values printed differently
        graphs = [g for n, gs in connected_graphs(6).items() if n > 1 for g in gs]
        for variant in ALL_VARIANTS:
            fwd, rev = make_context(), make_context()
            texts = {}
            for i, g in enumerate(graphs):
                v = fwd.engine.game_of(g, variant)
                texts[i] = (fwd.store.render(v), fwd.store.canonical_text(v),
                            _value_payload(fwd, g, variant, v, fwd.store.outcome(v)))
            for i in reversed(range(len(graphs))):
                g = graphs[i]
                v = rev.engine.game_of(g, variant)
                assert texts[i] == (rev.store.render(v), rev.store.canonical_text(v),
                                    _value_payload(rev, g, variant, v, rev.store.outcome(v)))


# ----------------------------------------------------------------------
# cache persistence
# ----------------------------------------------------------------------

def engine_state(engine) -> tuple:
    """Everything a cache load may change but load_error."""
    return (dict(engine._values), engine._file, list(engine._games),
            list(engine._entries), list(engine._disk_ids))


def file_keys(engine) -> list[bytes]:
    """The keys of the loaded file's entries, in file order."""
    return [engine._key_at(at) for at in engine._entries[:-1]]


COLD = engine_state(make_context().engine)


def forged_chain(depth: int, key: bytes) -> bytes:
    """A re-sealed cache file of depth games, game i being {i-1|}, the
    integer i, and one entry naming the last of them for key."""
    payload = struct.pack("<I", depth) + struct.pack("<HH", 0, 0)
    for i in range(1, depth):
        payload += struct.pack("<HHI", 1, 0, i - 1)
    payload += struct.pack("<IH", 1, len(key)) + key + struct.pack("<I", depth - 1)
    return (rules._CACHE_MAGIC + struct.pack("<I", rules._CACHE_VERSION)
            + payload + struct.pack("<I", zlib.crc32(payload)))


def entry_records(blob: bytes) -> tuple[int, list[tuple[bytes, int]]]:
    """Where a cache file's entry section starts, and its (key, game index)
    records in file order."""
    (ngames,) = struct.unpack_from("<I", blob, 8)
    pos = 12
    for _ in range(ngames):
        nl, nr = struct.unpack_from("<HH", blob, pos)
        pos += 4 + 4 * (nl + nr)
    start, records = pos, []
    (nentries,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    for _ in range(nentries):
        (klen,) = struct.unpack_from("<H", blob, pos)
        records.append((blob[pos + 2:pos + 2 + klen],
                        struct.unpack_from("<I", blob, pos + 2 + klen)[0]))
        pos += 6 + klen
    return start, records


def resealed(blob: bytes, start: int, records: list[tuple[bytes, int]]) -> bytes:
    """blob with its entry section replaced by records and a valid checksum."""
    payload = blob[8:start] + struct.pack("<I", len(records)) + b"".join(
        struct.pack("<H", len(key)) + key + struct.pack("<I", i) for key, i in records)
    return blob[:8] + payload + struct.pack("<I", zlib.crc32(payload))


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
        assert fresh.engine._values == {}
        assert set(file_keys(fresh.engine)) == set(ctx.engine._values)
        # entries are built on first use; until then a save rewrites the file
        again = tmp_path / "again.mdgc"
        fresh.engine.save_cache(str(again))
        assert again.read_bytes() == cache.read_bytes()
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
        assert fresh.engine.load_error == "checksum mismatch"
        assert engine_state(fresh.engine) == COLD

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
        assert fresh.engine.load_error == "not a value cache"
        assert fresh.engine.load_cache(str(bad_version)) is False
        assert fresh.engine.load_error == "version 4294967295, not 3"

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
        assert fresh.engine.load_cache(str(old)) is False
        assert fresh.engine.load_error == "version 2, not 3"
        assert engine_state(fresh.engine) == COLD
        assert fresh.engine.load_cache(str(cache)) is True  # the same file at version 3
        assert fresh.engine.load_error is None

    def test_missing_file(self, tmp_path):
        engine = make_context().engine
        assert engine.load_cache(str(tmp_path / "nope")) is False
        assert engine.load_error == "unreadable: No such file or directory"

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
            assert engine_state(fresh.engine) == COLD

    def test_malformed_files_with_a_valid_checksum_are_rejected(self, tmp_path):
        ctx = make_context()
        for n in range(2, 7):
            ctx.engine.game_of(path(n), Variant.MUTUAL_FAILURES)
        cache = tmp_path / "values.mdgc"
        ctx.engine.save_cache(str(cache))
        blob = cache.read_bytes()
        payload = blob[8:-4]
        (ngames,) = struct.unpack_from("<I", payload, 0)
        pos, self_ref = 4, None
        for g in range(ngames):  # find a game with an option; point it at itself
            nl, nr = struct.unpack_from("<HH", payload, pos)
            if self_ref is None and nl + nr:
                self_ref = payload[:pos + 4] + struct.pack("<I", g) + payload[pos + 8:]
            pos += 4 + 4 * (nl + nr)
        bad_payloads = [
            payload + b"\0",  # trailing bytes
            payload[:-1],  # short last entry
            self_ref,  # an option that does not precede its game
            payload[:-4] + struct.pack("<I", ngames),  # an entry past the games
            struct.pack("<I", ngames + 1) + payload[4:],  # more games than stored
        ]
        bad = tmp_path / "bad.mdgc"
        for body in bad_payloads:
            bad.write_bytes(blob[:8] + body + struct.pack("<I", zlib.crc32(body)))
            fresh = make_context()
            assert fresh.engine.load_cache(str(bad)) is False
            assert fresh.engine.load_error == "bad layout"
            assert engine_state(fresh.engine) == COLD
        assert make_context().engine.load_cache(str(cache)) is True

    def test_loaded_games_enter_the_store_canonical(self, tmp_path):
        # a file may hold a value in a non-canonical form: {-1, 0 |} = 1;
        # its option -1 is also the value of fl path 4
        key = canonical_key(path(3), Variant.CLASSIC)
        forger = make_context()
        st = forger.store
        minus_one = st.number_game(-1)
        forger.engine._values[key] = st._intern(tuple(sorted((minus_one, st.zero))), ())
        forger.engine._values[canonical_key(path(4), Variant.FORBIDDEN_LEAF)] = minus_one
        cache = tmp_path / "values.mdgc"
        forger.engine.save_cache(str(cache))
        fresh = make_context()
        assert fresh.engine.load_cache(str(cache)) is True
        assert len(fresh.engine._options(fresh.engine._find(key)[1])[0]) == 2
        assert fresh.engine.game_of(path(3), Variant.CLASSIC) == fresh.store.number_game(1)
        # -1 is built now but unreachable from the memo; a save must keep it
        resaved = tmp_path / "resaved.mdgc"
        fresh.engine.save_cache(str(resaved))
        last = make_context()
        assert last.engine.load_cache(str(resaved)) is True
        assert last.engine.game_of(path(4), Variant.FORBIDDEN_LEAF) == last.store.number_game(-1)
        assert last.engine.game_of(path(3), Variant.CLASSIC) == last.store.number_game(1)

    def test_a_deep_forged_chain_loads_without_recursion(self, tmp_path):
        # K50 has 1,225 edges, so a chain 1,200 deep, past the recursion
        # limit, is within the depth bound.  Its form is written by hand, as
        # labeling K50 is far too slow for a test.  The file lies, but it
        # must not crash the engine.
        n, edges = 50, 50 * 49 // 2
        form = bytes([n]) + ((1 << edges) - 1).to_bytes((edges + 7) // 8, "big")
        depth = 1200
        forged = tmp_path / "forged.mdgc"
        forged.write_bytes(forged_chain(depth, Variant.CLASSIC.tag + form))
        ctx = make_context()
        assert ctx.engine.load_cache(str(forged)) is True
        g = ctx.engine._value(form, Variant.CLASSIC)
        assert ctx.store.birthday(g) == ctx.store.number_value(g) == depth - 1
        assert ctx.store.outcome(g) is Outcome.LEFT_WINS

    def test_each_loaded_record_is_read_once(self, tmp_path, monkeypatch):
        ctx = make_context()
        for variant in ALL_VARIANTS:
            for n in range(3, 7):
                ctx.engine.game_of(wheel(n), variant)
        cache = tmp_path / "values.mdgc"
        ctx.engine.save_cache(str(cache))
        fresh = make_context()
        assert fresh.engine.load_cache(str(cache)) is True
        reads = collections.Counter()
        options = fresh.engine._options

        def counted(i):
            reads[i] += 1
            return options(i)

        monkeypatch.setattr(fresh.engine, "_options", counted)
        for variant in ALL_VARIANTS:
            for n in range(3, 7):
                fresh.engine.game_of(wheel(n), variant)
        assert len(fresh.engine._disk_ids) > 50
        assert dict(reads) == dict.fromkeys(fresh.engine._disk_ids, 1)  # each built game once

    @pytest.mark.parametrize("depth", [4, 50, 3000])
    def test_a_chain_deeper_than_its_position_is_rejected(self, tmp_path, depth):
        # path 3 has 2 edges, so no value of it is deeper than 2; the last of
        # depth chained games is depth - 1 deep
        forged = tmp_path / "forged.mdgc"
        forged.write_bytes(forged_chain(depth, canonical_key(path(3), Variant.CLASSIC)))
        ctx = make_context()
        assert ctx.engine.load_cache(str(forged)) is False
        assert ctx.engine.load_error == "an entry deeper than its position has edges"
        assert engine_state(ctx.engine) == COLD
        assert ctx.engine.game_of(path(3), Variant.CLASSIC) == ctx.store.number_game(1)

    def test_a_chain_as_deep_as_its_position_loads(self, tmp_path):
        # the bound catches depth, not every lie: {1|} = 2 is 2 deep
        forged = tmp_path / "forged.mdgc"
        forged.write_bytes(forged_chain(3, canonical_key(path(3), Variant.CLASSIC)))
        ctx = make_context()
        assert ctx.engine.load_cache(str(forged)) is True
        assert ctx.engine.game_of(path(3), Variant.CLASSIC) == ctx.store.number_game(2)

    def test_partly_used_cache_keeps_every_entry(self, tmp_path):
        # every component of a path or cycle position is a path or a cycle,
        # so these graphs stand for every key the cache holds
        ctx = make_context()
        graphs = {}
        for variant in ALL_VARIANTS:
            for g in [path(n) for n in range(2, 9)] + [cycle(n) for n in range(3, 7)]:
                ctx.engine.game_of(g, variant)
                graphs[canonical_key(g, variant)] = (g, variant)
        keys = set(ctx.engine._values)
        assert keys <= set(graphs)
        cache = tmp_path / "values.mdgc"
        ctx.engine.save_cache(str(cache))

        used = make_context()
        assert used.engine.load_cache(str(cache)) is True
        used.engine.game_of(path(6), Variant.MUTUAL_FAILURES)
        used.engine.game_of(cycle(5), Variant.CLASSIC)
        used.engine.game_of(path(4), Variant.FORBIDDEN_LEAF)
        assert len(used.engine._values) == 3 and set(used.engine._values) < keys
        assert set(file_keys(used.engine)) == keys
        resaved = tmp_path / "resaved.mdgc"
        used.engine.save_cache(str(resaved))

        last = make_context()
        assert last.engine.load_cache(str(resaved)) is True
        assert file_keys(last.engine) == sorted(keys)
        scratch = make_context()  # values from the rules alone
        for key in sorted(keys):
            g, variant = graphs[key]
            got = transplant(last.store, scratch.store, last.engine.game_of(g, variant), {})
            assert got == scratch.engine.game_of(g, variant)
        assert set(last.engine._values) == keys

    def test_load_must_come_first(self, tmp_path):
        ctx = make_context()
        ctx.engine.game_of(path(5), Variant.MUTUAL_FAILURES)
        cache = tmp_path / "values.mdgc"
        ctx.engine.save_cache(str(cache))
        loaded = make_context()
        assert loaded.engine.load_cache(str(cache)) is True
        queried = make_context()
        queried.engine.game_of(cycle(4), Variant.CLASSIC)
        for engine in (loaded.engine, queried.engine):
            state = engine_state(engine)
            with pytest.raises(RuntimeError):
                engine.load_cache(str(cache))
            assert engine_state(engine) == state

    def test_save_appends_to_the_loaded_games(self, tmp_path):
        mf = Variant.MUTUAL_FAILURES
        ctx = make_context()
        for n in range(2, 8):
            ctx.engine.game_of(path(n), mf)
        cache = tmp_path / "values.mdgc"
        ctx.engine.save_cache(str(cache))
        blob = cache.read_bytes()

        used = make_context()
        assert used.engine.load_cache(str(cache)) is True
        used.engine.game_of(path(5), mf)  # built from the file
        used.engine.game_of(cycle(5), mf)  # new values, appended
        used.engine.game_of(wheel(4), Variant.CLASSIC)
        resaved = tmp_path / "resaved.mdgc"
        used.engine.save_cache(str(resaved))
        again = resaved.read_bytes()
        (ngames,) = struct.unpack_from("<I", blob, 8)
        end = 12
        for _ in range(ngames):  # the end of the file's game records
            nl, nr = struct.unpack_from("<HH", blob, end)
            end += 4 + 4 * (nl + nr)
        assert struct.unpack_from("<I", again, 8)[0] > ngames
        assert again[12:end] == blob[12:end]

        last = make_context()
        assert last.engine.load_cache(str(resaved)) is True
        keys = set(used.engine._values) | set(file_keys(used.engine))
        assert set(file_keys(last.engine)) == keys > set(ctx.engine._values)

        def served(engine, key):
            hit = engine._values.get(key)
            return engine._materialize(engine._find(key)[1]) if hit is None else hit

        for key in sorted(keys):
            got = transplant(last.store, used.store, served(last.engine, key), {})
            assert got == served(used.engine, key)
        scratch = make_context()  # values from the rules alone
        for g, variant in [(cycle(5), mf), (wheel(4), Variant.CLASSIC)]:
            got = transplant(last.store, scratch.store, last.engine.game_of(g, variant), {})
            assert got == scratch.engine.game_of(g, variant)

    def test_memo_cap_bounds_served_cache_entries(self, tmp_path):
        # many keys share few values, so serving cached keys grows the
        # component memo faster than any store table
        graphs = [g for n, gs in connected_graphs(6).items() if n > 1 for g in gs]
        ctx = make_context()
        for g in graphs:
            ctx.engine.game_of(g, Variant.MUTUAL_FAILURES)
        cache = tmp_path / "values.mdgc"
        ctx.engine.save_cache(str(cache))
        cap = 20
        capped = make_context(memo_cap=cap)
        assert capped.engine.load_cache(str(cache)) is True
        with pytest.raises(MemoCapExceeded):
            for g in graphs:
                capped.engine.game_of(g, Variant.MUTUAL_FAILURES)
        assert len(capped.engine._values) <= cap
        tables = [t for t in vars(capped.store).values() if isinstance(t, dict)]
        assert tables and all(len(t) <= cap for t in tables)
        assert sum(map(len, capped.store._leq)) <= cap  # the comparison rows are one table

    @pytest.mark.parametrize("fault", ["swapped", "duplicate"])
    def test_entries_out_of_key_order_are_rejected(self, tmp_path, fault):
        ctx = make_context()
        for n in range(2, 7):
            ctx.engine.game_of(path(n), Variant.MUTUAL_FAILURES)
        cache = tmp_path / "values.mdgc"
        ctx.engine.save_cache(str(cache))
        blob = cache.read_bytes()
        start, records = entry_records(blob)
        assert len(records) > 3
        if fault == "swapped":
            records[1], records[2] = records[2], records[1]
        else:
            records[2] = records[1]
        bad = tmp_path / "bad.mdgc"
        bad.write_bytes(resealed(blob, start, records))
        fresh = make_context()
        assert fresh.engine.load_cache(str(bad)) is False
        assert fresh.engine.load_error == "keys out of order"
        assert engine_state(fresh.engine) == COLD
        assert fresh.engine.load_cache(str(cache)) is True

    def test_a_load_keeps_little_more_than_the_file(self, tmp_path):
        # the file's bytes, two offset tables and a slot per game: a load
        # that built an object per game or entry kept over 10 times the file
        ctx = make_context()
        for variant in ALL_VARIANTS:
            for n in range(3, 7):
                ctx.engine.game_of(wheel(n), variant)
        cache = tmp_path / "values.mdgc"
        ctx.engine.save_cache(str(cache))
        size = cache.stat().st_size
        fresh = make_context()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert fresh.engine.load_cache(str(cache)) is True
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(file_keys(fresh.engine)) > 100
        assert kept - before < 3 * size
        assert peak - before < 3 * size

    def test_a_save_splices_new_entries_into_the_file(self, tmp_path):
        ctx = make_context()
        for variant in (Variant.CLASSIC, Variant.MUTUAL_FAILURES):
            for n in range(2, 9):
                ctx.engine.game_of(path(n), variant)
        cache = tmp_path / "values.mdgc"
        ctx.engine.save_cache(str(cache))
        blob = cache.read_bytes()

        used = make_context()
        assert used.engine.load_cache(str(cache)) is True
        for n in (3, 5, 8):  # built from the file, so nothing to add
            used.engine.game_of(path(n), Variant.CLASSIC)
            used.engine.game_of(path(n), Variant.MUTUAL_FAILURES)
        assert len(used.engine._values) == 6
        same = tmp_path / "same.mdgc"
        used.engine.save_cache(str(same))
        assert same.read_bytes() == blob

        # every component of classic path 9's options is a path in the file
        new = canonical_key(path(9), Variant.CLASSIC)
        value = used.engine.game_of(path(9), Variant.CLASSIC)
        assert set(used.engine._values) - set(file_keys(used.engine)) == {new}
        resaved = tmp_path / "resaved.mdgc"
        used.engine.save_cache(str(resaved))
        _, old_records = entry_records(blob)
        _, records = entry_records(resaved.read_bytes())
        assert set(old_records) < set(records)
        keys = [key for key, _ in records]
        assert keys == sorted(keys) and len(records) == len(old_records) + 1
        assert 0 < keys.index(new) < len(keys) - 1  # spliced between file runs

        last = make_context()
        assert last.engine.load_cache(str(resaved)) is True
        assert file_keys(last.engine) == keys
        got = last.engine.game_of(path(9), Variant.CLASSIC)
        assert transplant(last.store, used.store, got, {}) == value
        scratch = make_context()  # values from the rules alone
        assert transplant(last.store, scratch.store, got, {}) == scratch.engine.game_of(
            path(9), Variant.CLASSIC)
