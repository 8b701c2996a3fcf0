"""Graph primitives: construction, surgery, canonical forms, enumeration."""

import functools
import hashlib
import itertools
import random
import time

import pytest

from mdgame import Graph, TooLarge, canonical_form, connected_graphs, make_context
from mdgame.families import biclique, complete, cycle, path, star, wheel
from mdgame.graphs import labeling
from mdgame.rules import _CACHE_VERSION, Variant


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------

class TestConstruction:
    def test_from_edges(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.degree(1) == 2
        assert g.adj[1] == 0b101
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.edge_count == 2

    def test_empty(self):
        g = Graph.empty(4)
        assert g.edge_count == 0
        assert len(g.components()) == 4

    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 1)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            Graph(3, (0, 0))


def random_graph(n: int, rng: random.Random) -> Graph:
    """Seeded random graph with a random edge density, sparse through dense."""
    p = rng.random()
    return Graph.from_edges(
        n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p])


class TestSurgery:
    def test_delete_vertex_compacts(self):
        # deleting the middle of P3 leaves two isolated vertices, relabeled
        g = path(3).delete_vertex(1)
        assert g.n == 2
        assert g.edge_count == 0

    def test_delete_edge(self):
        g = cycle(4).delete_edge(0, 1)
        assert g.edge_count == 3
        assert len(g.components()) == 1

    def test_lone_vertices_keep_their_place(self):
        comps = Graph.from_edges(5, [(1, 3)]).components()
        assert [(c.n, c.edges()) for c in comps] == [(1, []), (2, [(0, 1)]), (1, []), (1, [])]

    def test_delete_missing_edge_fails(self):
        with pytest.raises(ValueError):
            path(3).delete_edge(0, 2)

    def test_components_order_and_sizes(self):
        g = path(2).disjoint_union(path(3))
        comps = g.components()
        assert [c.n for c in comps] == [2, 3]

    def test_components_of_connected_graph(self):
        g = cycle(5)
        assert g.components() == [g]

    def test_components_keep_original_vertex_order(self):
        # components {0,3,5}, {1,4}, {2} interleave in the labels; each keeps
        # its vertices in increasing order: 0,3,5 -> 0,1,2 and 1,4 -> 0,1
        comps = Graph.from_edges(6, [(0, 5), (3, 5), (1, 4)]).components()
        assert [c.n for c in comps] == [3, 2, 1]
        assert [c.edges() for c in comps] == [[(0, 2), (1, 2)], [(0, 1)], []]

    @staticmethod
    def reference_components(g):
        """Components by breadth-first search over edge lists, each rebuilt
        from its edges with its vertices renumbered in increasing order."""
        near = {v: [] for v in range(g.n)}
        for u, v in g.edges():
            near[u].append(v)
            near[v].append(u)
        seen, out = set(), []
        for v in range(g.n):
            if v not in seen:
                seen.add(v)
                part = [v]
                for u in part:  # part grows as the search finds vertices
                    for w in near[u]:
                        if w not in seen:
                            seen.add(w)
                            part.append(w)
                pos = {u: i for i, u in enumerate(sorted(part))}
                out.append(Graph.from_edges(len(part), [(pos[u], pos[w]) for u in part
                                                        for w in near[u] if u < w]))
        return out

    def test_components_match_a_reference_search_on_seeded_unions(self):
        rng = random.Random(11)
        for _ in range(200):
            g = Graph.empty(0)
            for _ in range(rng.randint(1, 5)):
                g = g.disjoint_union(random_graph(rng.randint(1, 7), rng))
            perm = list(range(g.n))
            rng.shuffle(perm)  # the components interleave in the labels
            g = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert g.components() == self.reference_components(g)

    def test_many_components_split_in_linear_time(self):
        # with masks as wide as the graph, 40,000 disjoint edges took 1.4 s
        # to split on a 2-vCPU VM; shifted masks take about 0.2 s
        g = Graph.from_edges(80_000, [(2 * i, 2 * i + 1) for i in range(40_000)])
        start = time.process_time()
        comps = g.components()
        assert time.process_time() - start < 0.5
        assert len(comps) == 40_000 and set(comps) == {path(2)}

    def test_delete_vertex_matches_induced(self):
        rng = random.Random(3)
        for _ in range(100):
            g = random_graph(rng.randrange(1, 10), rng)
            for v in {0, g.n - 1, rng.randrange(g.n)}:
                want = g.induced([u for u in range(g.n) if u != v])
                assert g.delete_vertex(v) == want

    def test_disjoint_union_keeps_both_sides(self):
        g = cycle(3).disjoint_union(path(2))
        assert g.n == 5
        assert g.edge_count == 4
        assert g.adj[4] == 1 << 3

    def test_induced_relabels_in_given_order(self):
        g = path(4).induced([2, 1, 3])
        # edges 1-2 and 2-3 survive as 1-0 and 0-2
        assert sorted(g.edges()) == [(0, 1), (0, 2)]


# ----------------------------------------------------------------------
# canonical forms
# ----------------------------------------------------------------------

def shuffled_copy(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def brute_force_form(g: Graph) -> tuple[int, int]:
    """(n, least upper-triangle code over all n! labelings), in the bit order
    canonical_form documents: rows j = 1..n-1, each over columns 0..j-1."""
    def code(order: tuple[int, ...]) -> int:
        c = 0
        for j in range(1, g.n):
            row = g.adj[order[j]]
            for i in range(j):
                c = c << 1 | row >> order[i] & 1
        return c

    return g.n, min(map(code, itertools.permutations(range(g.n))))


def decode(form: bytes) -> Graph:
    n, code = form[0], int.from_bytes(form[1:], "big")
    bit = n * (n - 1) // 2
    edges = []
    for j in range(1, n):
        for i in range(j):
            bit -= 1
            if code >> bit & 1:
                edges.append((i, j))
    return Graph.from_edges(n, edges)


def assert_agrees_with_brute_force(graphs: list[Graph]) -> None:
    canon_to_brute: dict[bytes, set] = {}
    brute_to_canon: dict[tuple[int, int], set] = {}
    for g in graphs:
        form, brute = canonical_form(g), brute_force_form(g)
        if form not in canon_to_brute:
            # the form is the adjacency of a relabeling of g
            assert brute_force_form(decode(form)) == brute
        canon_to_brute.setdefault(form, set()).add(brute)
        brute_to_canon.setdefault(brute, set()).add(form)
    # equal canonical forms exactly when isomorphic, so one decode per
    # form covers every graph that has it
    assert all(len(s) == 1 for s in canon_to_brute.values())
    assert all(len(s) == 1 for s in brute_to_canon.values())


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = random.Random(7)
        for g in [path(6), cycle(6), complete(5), star(4), cycle(9)]:
            want = canonical_form(g)
            for _ in range(10):
                assert canonical_form(shuffled_copy(g, rng)) == want

    def test_distinguishes_same_degree_sequence(self):
        # P4 and K1,3 share vertex count; C6 and two triangles share degrees
        assert canonical_form(path(4)) != canonical_form(star(3))
        two_triangles = complete(3).disjoint_union(complete(3))
        assert canonical_form(cycle(6)) != canonical_form(two_triangles)

    def test_distinguishes_random_nonisomorphic_pairs(self):
        # different edge counts on the same order are never isomorphic
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randrange(4, 8)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(edges)
            k = rng.randrange(1, len(edges))
            a = Graph.from_edges(n, edges[:k])
            b = Graph.from_edges(n, edges[: k + 1])
            assert canonical_form(a) != canonical_form(b)

    def test_matches_brute_force_on_every_graph_through_five(self):
        graphs = []
        for n in range(6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                graphs.append(Graph.from_edges(
                    n, [e for k, e in enumerate(pairs) if mask >> k & 1]))
        assert len(graphs) == 1 + 1 + 2 + 8 + 64 + 1024
        assert_agrees_with_brute_force(graphs)

    def test_matches_brute_force_on_random_six_and_seven(self):
        # every second graph relabels the one before, so isomorphic pairs
        # with different labels are always present
        rng = random.Random(2014)
        graphs = []
        for _ in range(100):
            g = random_graph(rng.choice((6, 7)), rng)
            graphs += [g, shuffled_copy(g, rng)]
        assert_agrees_with_brute_force(graphs)

    def test_too_large_above_255_whatever_the_limit(self):
        # n and automorphism vertex numbers are stored one byte each
        assert canonical_form(path(255))[0] == 255
        too_large = Graph.from_edges(256, [(i, i + 1) for i in range(255)])  # path() refuses it
        with pytest.raises(TooLarge):
            canonical_form(too_large)
        with pytest.raises(TooLarge):
            labeling(too_large)

    def test_zero_vertices(self):
        assert canonical_form(Graph.empty(0)) == b"\x00"


def every_graph_through_five() -> list[Graph]:
    """All 1,100 labeled graphs on 0..5 vertices."""
    graphs = []
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            graphs.append(Graph.from_edges(
                n, [e for k, e in enumerate(pairs) if mask >> k & 1]))
    return graphs


def random_six_and_seven(seed: int) -> list[Graph]:
    """100 seeded random graphs on 6 or 7 vertices, each followed by a relabeling."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(100):
        g = random_graph(rng.choice((6, 7)), rng)
        graphs += [g, shuffled_copy(g, rng)]
    return graphs


class TestAutomorphisms:
    def assert_valid(self, graphs: list[Graph]) -> int:
        found = 0
        for g in graphs:
            edges = {frozenset(e) for e in g.edges()}
            for a in labeling(g)[1]:
                assert isinstance(a, bytes) and sorted(a) == list(range(g.n))
                assert {frozenset((a[u], a[v])) for u, v in edges} == edges
                found += 1
        return found

    def test_every_graph_through_five(self):
        graphs = every_graph_through_five()
        assert len(graphs) == 1100
        assert self.assert_valid(graphs) > 0

    def test_random_six_and_seven(self):
        assert self.assert_valid(random_six_and_seven(2014)) > 0


class TestKnownForms:
    def test_known_forms_never_change_the_form(self):
        # every connected graph through 7 vertices and a relabeling of each,
        # with known empty, holding the graph's own form, and holding every
        # other class's form: a leaf of g can only match g's own form
        rng = random.Random(1998)
        graphs = [g for gs in connected_graphs(7).values() for g in gs]
        others = {canonical_form(g) for g in graphs}
        assert len(others) == len(graphs)
        for g in graphs:
            form = canonical_form(g)
            others.discard(form)
            for h in (g, shuffled_copy(g, rng)):
                assert labeling(h, ())[0] == form
                assert labeling(h, {form}) == (form, ())  # stopped at a leaf
                assert labeling(h, others)[0] == form
            others.add(form)


# canonical_form bytes of a dozen graphs, recorded before the refinement
# fast paths; bytes that move need a new _CACHE_VERSION in rules.py
PINNED_FORMS = [
    (Graph.empty(0), "00"),
    (path(1), "01"),
    (path(5), "05003a"),
    (cycle(6), "060758"),
    (complete(5), "0503ff"),
    (star(4), "05000f"),
    (biclique(3, 4), "07007fbc"),
    (wheel(7), "080056987f"),
    (path(12), "0c00000021450a0a0500"),
    (wheel(11), "0c000008a514281807ff"),
    (complete(3).disjoint_union(cycle(4)), "07009e30"),
    (Graph.from_edges(6, [(0, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4)]), "060475"),
    (Graph.from_edges(8, [(0, 1), (0, 4), (1, 6), (3, 7), (5, 6), (5, 7)]), "0800006528"),
    (Graph.from_edges(10, [
        (0, 2), (0, 8), (1, 5), (1, 7), (1, 8), (2, 3), (2, 5), (2, 7), (2, 8), (3, 5),
        (3, 6), (3, 8), (4, 5), (4, 8), (5, 9), (6, 7), (6, 9), (7, 8), (8, 9)]),
     "0a00084a476bee"),
    (Graph.from_edges(12, [
        (0, 6), (0, 8), (0, 10), (1, 3), (1, 5), (1, 6), (1, 7), (1, 8), (2, 4), (2, 6),
        (2, 10), (2, 11), (3, 7), (3, 8), (3, 10), (4, 5), (4, 7), (5, 6), (5, 7), (5, 11),
        (6, 7), (6, 8), (6, 9), (6, 10), (7, 8), (7, 11), (9, 10), (9, 11)]),
     "0c00024884e4b606f65f"),
]


class TestPinnedForms:
    def test_bytes_are_unchanged(self):
        assert [canonical_form(g).hex() for g, _ in PINNED_FORMS] == [
            form for _, form in PINNED_FORMS]
        assert _CACHE_VERSION == 3


def labelings_digest() -> str:
    """sha256 over labeling(g), forms and automorphisms, of every connected
    graph through 6 vertices and 150 seeded random graphs on 7..14
    vertices, each followed by a relabeling."""
    rng = random.Random(2026)
    graphs = [g for gs in connected_graphs(6).values() for g in gs]
    for _ in range(150):
        g = random_graph(rng.randrange(7, 15), rng)
        graphs += [g, shuffled_copy(g, rng)]
    assert len(graphs) == 443
    h = hashlib.sha256()
    for g in graphs:
        form, autos = labeling(g)
        h.update(len(form).to_bytes(2, "big") + form
                 + len(autos).to_bytes(4, "big") + b"".join(autos))
    return h.hexdigest()


class TestPinnedLabelings:
    def test_forms_and_automorphisms_are_unchanged(self):
        # recorded before refinement stopped queueing each split cell's last
        # piece; a labeling that moves needs a new _CACHE_VERSION in rules.py
        assert labelings_digest() == (
            "a6645ee30be8051801426a8cd0880bac8d69b34a5f2829468fe928a24fa36b5d")


class TestPinnedStore:
    def test_handles_and_cache_bytes_are_unchanged(self, tmp_path):
        # one context: wheels 3..6 under every variant, mf paths 2..16 and
        # 200 seeded sums of 2-4 mf path values, each with its atomic weight.
        # A change that moves a handle or a cache byte moves a digest.
        ctx = make_context(max_component=20)
        st, engine = ctx.store, ctx.engine
        for n in range(3, 7):
            for variant in Variant:
                engine.game_of(wheel(n), variant)
        mf = {n: engine.game_of(path(n), Variant.MUTUAL_FAILURES) for n in range(2, 17)}
        for g in mf.values():
            ctx.atomic.atomic_weight(g)
        rng = random.Random(29)
        for _ in range(200):
            terms = [mf[rng.randint(2, 12)] for _ in range(rng.randint(2, 4))]
            ctx.atomic.atomic_weight(functools.reduce(st.add, terms))
        assert len(st) == 572
        engine.save_cache(str(tmp_path / "values.bin"))
        handles = hashlib.sha256(repr((st._left, st._right)).encode()).hexdigest()
        cache = hashlib.sha256((tmp_path / "values.bin").read_bytes()).hexdigest()
        assert handles == "a4e4c28082528322403bf61cc8651ab53cf4dbafa91c55bc0699cbd018e27978"
        assert cache == "b653d24d7033c38b6c5d080c2743a1a14cc85c94950041bb8e45476f97f80b09"


class TestEnumeration:
    def test_connected_counts_through_seven(self):
        reps = connected_graphs(7)
        assert [len(reps[k]) for k in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]

    def test_representatives_are_connected_and_distinct(self):
        reps = connected_graphs(5)
        for k, graphs in reps.items():
            keys = {canonical_form(g) for g in graphs}
            assert len(keys) == len(graphs)
            assert all(g.n == k and len(g.components()) == 1 for g in graphs)
