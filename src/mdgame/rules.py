"""Move rules and game-value evaluation for the graph deletion games.

The game: Left deletes a vertex together with its incident edges, Right
deletes a single edge.  A deletion that leaves some vertex isolated is
illegal, and a player with no legal deletion loses (normal play).  Three
rule sets are supported:

* classic  -- the rules as stated above;
* fl       -- forbidden leaf: Left may additionally not delete a leaf;
* mf       -- mutual failures: within each connected component, if either
              player has no classic deletion there, then neither player may
              move in that component at all.

Values are computed per connected component, keyed by an
isomorphism-invariant ComponentKey (variant tag + canonical form), and
combined by disjunctive sum.  Moves in one automorphism orbit give
isomorphic results, so a component's options come from one legal move per
orbit under the automorphisms its canonical labeling found.  The engine
owns all it remembers, under the store's memo cap: each labeled graph's
form, or its components' forms, keyed by one int up to 255 vertices; one
record per isomorphism class; and the values.  _sides alone decides which
classic orbit moves each variant allows, for the engine and variant_moves
alike, and GraphGameEngine._moves expands a class once for all variants,
when one first finds it an option: the orbit moves of its first fully
searched graph become their results' forms.  Labeling a graph of a known
class stops at the first search leaf with a known form.  A loaded value
cache stays the file's bytes, each game built from them on first use, and
a save copies them verbatim.  The engine alone enforces the component size
limit; graphs keeps no state.  A separate brute-force referee (Oracle)
replays whole labeled graphs by alternating minimax without touching game
values or canonical forms; it exists to cross-check the engine.
"""

from __future__ import annotations

import operator
import os
import struct
import zlib
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from .cgt import GameId, GameStore, MemoCapExceeded, Outcome, options_first
from .atomic import AtomicCalculator
from .graphs import _BYTE_LIMIT, Graph, TooLarge, bits, canonical_form, labeling

DEFAULT_COMPONENT_LIMIT = 12


class Player(Enum):
    LEFT = "left"
    RIGHT = "right"


class Variant(Enum):
    CLASSIC = "classic"
    FORBIDDEN_LEAF = "fl"
    MUTUAL_FAILURES = "mf"

    @property
    def tag(self) -> bytes:
        return _VARIANT_TAGS[self]


_VARIANT_TAGS = {
    Variant.CLASSIC: b"C",
    Variant.FORBIDDEN_LEAF: b"F",
    Variant.MUTUAL_FAILURES: b"M",
}


def canonical_key(component: Graph, variant: Variant) -> bytes:
    """Isomorphism- and variant-aware memo key for a connected component."""
    return variant.tag + canonical_form(component)


# ----------------------------------------------------------------------
# move generation
# ----------------------------------------------------------------------

def _edge_image(a: bytes, e: tuple[int, int]) -> tuple[int, int]:
    u, v = a[e[0]], a[e[1]]
    return (u, v) if u < v else (v, u)


def _orbit_firsts(moves: list, autos: tuple[bytes, ...], image) -> list:
    """The first of moves in each orbit under autos, image(a, m) being m's
    image under map a; moves must be closed under autos."""
    seen: set = set()
    firsts = []
    for m in moves:
        if m not in seen:
            firsts.append(m)
            seen.add(m)
            orbit = [m]
            for x in orbit:
                for a in autos:
                    y = image(a, x)
                    if y not in seen:
                        seen.add(y)
                        orbit.append(y)
    return firsts


def _orbit_moves(c: Graph, autos: tuple[bytes, ...]) -> tuple[list, list, list]:
    """The classic moves on a connected component, one per orbit under
    autos: Left's non-leaf vertices, Left's leaves, and Right's edges."""
    leaves = sum(1 << v for v, row in enumerate(c.adj) if row and not row & (row - 1))
    inner, ends, edges = [], [], []
    for v, row in enumerate(c.adj):
        # an isolated vertex is a dead stone; deleting a leaf's neighbor isolates it
        if row and not row & leaves:
            (ends if leaves >> v & 1 else inner).append(v)
        if not leaves >> v & 1:
            edges += [(v, u) for u in bits(row >> (v + 1) << (v + 1) & ~leaves)]
    # automorphisms keep leaves leaves, so no orbit meets two of these lists
    if len(inner) > 1:
        inner = _orbit_firsts(inner, autos, operator.getitem)
    if len(ends) > 1:
        ends = _orbit_firsts(ends, autos, operator.getitem)
    if len(edges) > 1:
        edges = _orbit_firsts(edges, autos, _edge_image)
    return inner, ends, edges


def _sides(inner, ends, edges, variant: Variant) -> tuple:
    """Left's and Right's moves on a component under variant, from its
    classic moves split as _orbit_moves splits them."""
    if variant is Variant.FORBIDDEN_LEAF:
        return inner, edges
    if variant is Variant.MUTUAL_FAILURES and not ((inner or ends) and edges):
        return (), ()  # the component is closed unless both players can move
    return inner + ends, edges


def variant_moves(c: Graph, mover: Player, variant: Variant,
                  autos: tuple[bytes, ...]) -> tuple[Graph, ...]:
    """One result per orbit of mover's legal moves on a connected component.

    Orbits are of vertices for Left and of edges for Right, under autos,
    automorphisms of c such as those its canonical labeling found; with
    autos empty every legal move gives its own result.  Isomorphic results
    of different orbits are not merged: equal options collapse in make_game.
    """
    lefts, rights = _sides(*_orbit_moves(c, autos), variant)
    if mover is Player.RIGHT:
        return tuple(c.delete_edge(u, v) for u, v in rights)
    return tuple(c.delete_vertex(v) for v in sorted(lefts))


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------

_CACHE_MAGIC = b"MDGC"
_CACHE_VERSION = 3


class GraphGameEngine:
    """Computes canonical game values of graph positions for each variant:
    a class's value is a loaded value cache's entry, or make_game over the
    options _moves takes from _sides, the one move path.  A loaded cache is
    the file's bytes and two offset tables: a value-memo miss bisects its
    sorted keys, an entry's games go through make_game on first use, and
    save_cache splices new values into it."""

    def __init__(self, store: GameStore, max_component: int = DEFAULT_COMPONENT_LIMIT):
        self.store = store
        self.max_component = max_component
        # labeled graph (keyed as in _entry) -> its form if connected, else
        # its components' forms, lone vertices left out
        self._components: dict = {}
        # form -> (representative, inner, ends, edges): the class's first fully
        # searched graph and its orbit moves (see _orbit_moves), until _moves
        # drops the graph and turns each move into its result's entry
        self._classes: dict[bytes, tuple] = {}
        self._values: dict[bytes, GameId] = {}
        # a loaded cache file stays its bytes until used: the offsets of its
        # game records and of its entry records, each table closed by its
        # section's end (no file reads as an empty one), and the store handle
        # of each file game built, by its index
        self._file = b""
        self._games = array("I", [0])
        self._entries = array("I", [0])
        self._disk_ids: dict[int, GameId] = {}
        self.load_error: Optional[str] = None  # why the last load_cache returned False

    def game_of(self, g: Graph, variant: Variant) -> GameId:
        """Canonical value of a position: sum of its component values."""
        return self._sum(self._entry(g), variant)

    def component_value(self, comp: Graph, variant: Variant) -> GameId:
        """Value of a connected graph; TooLarge above max_component vertices."""
        return self.game_of(comp, variant)

    def _entry(self, g: Graph):
        """g's _components entry, its components labeled on first sight."""
        n = g.n
        if n > _BYTE_LIMIT:
            key = g.adj  # packing n rows of n bits would take n * n bits
        else:
            key = n  # then the rows, n bits each
            for row in g.adj:
                key = key << n | row
        hit = self._components.get(key)
        if hit is None:
            comps = g.components()
            if len(comps) > 1 or n < 2:
                hit = tuple(self._entry(c) for c in comps if c.n > 1)
            elif n > self.max_component:
                raise TooLarge(f"graph has {n} vertices, above the "
                               f"canonicalization limit {self.max_component}")
            else:
                hit, autos = labeling(g, self._classes)
                if hit not in self._classes:  # a full search: a new class
                    self.store._memo_put(self._classes, hit, (g, *_orbit_moves(g, autos)))
            self.store._memo_put(self._components, key, hit)
        return hit

    def _sum(self, entry, variant: Variant) -> GameId:
        if isinstance(entry, bytes):
            return self._value(entry, variant)
        total = self.store.zero
        for form in entry:
            total = self.store.add(total, self._value(form, variant))
        return total

    def _value(self, form: bytes, variant: Variant) -> GameId:
        key = variant.tag + form
        hit = self._values.get(key)
        if hit is not None:
            return hit
        loaded = self._find(key)[1]
        if loaded is not None:
            value = self._materialize(loaded)
        else:
            lefts, rights = self._moves(form, variant)
            value = self.store.make_game([self._sum(r, variant) for r in lefts],
                                         [self._sum(r, variant) for r in rights])
        self.store._memo_put(self._values, key, value)
        return value

    def _moves(self, form: bytes, variant: Variant) -> tuple:
        """Left's and Right's option entries of form's class under variant; the
        first call to find an option expands the class for every variant."""
        rep, *moves = self._classes[form]
        sides = _sides(*moves, variant)
        if rep is None or not any(sides):
            return sides
        inner, ends, edges = moves
        moves = (tuple(self._entry(rep.delete_vertex(v)) for v in inner),
                 tuple(self._entry(rep.delete_vertex(v)) for v in ends),
                 tuple(self._entry(rep.delete_edge(u, v)) for u, v in edges))
        self._classes[form] = (None, *moves)
        return _sides(*moves, variant)

    def _materialize(self, i: int) -> GameId:
        """Build loaded game i, and the file games it reaches, in the store
        by options_first, so a deep chain cannot overflow."""
        ids, read = self._disk_ids, {}  # read: records unpacked, their games not yet built

        def options(j: int) -> tuple[int, ...]:
            lo, ro = read[j] = self._options(j)
            return lo + ro

        def build(j: int) -> None:
            lo, ro = read.pop(j)
            ids[j] = self.store.make_game([ids[k] for k in lo], [ids[k] for k in ro])

        options_first(i, options, ids, build)
        return ids[i]

    def _options(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Loaded game i's left and right option indices, read from the file."""
        at = self._games[i]
        nl, nr = struct.unpack_from("<HH", self._file, at)
        opts = struct.unpack_from(f"<{nl + nr}I", self._file, at + 4)
        return opts[:nl], opts[nl:]

    def _key_at(self, at: int) -> bytes:
        """The key of the loaded entry record at offset at."""
        file = self._file
        return file[at + 2:at + 2 + (file[at] | file[at + 1] << 8)]

    def _find(self, key: bytes) -> tuple[int, Optional[int]]:
        """Where key's record is, or would go, among the loaded entries, and
        its game's file index if it is there; the keys ascend, so bisect."""
        offs, n = self._entries, len(self._entries) - 1
        j = bisect_left(offs, key, 0, n, key=self._key_at)
        if j == n or self._key_at(offs[j]) != key:
            return j, None
        return j, struct.unpack_from("<I", self._file, offs[j] + 2 + len(key))[0]

    def outcome_of(self, g: Graph, variant: Variant) -> Outcome:
        return self.store.outcome(self.game_of(g, variant))

    # ------------------------------------------------------------------
    # value cache persistence
    # ------------------------------------------------------------------

    def save_cache(self, path: str) -> None:
        """Serialize the ComponentKey -> value memo plus the games it needs.

        The loaded file's game records come first, copied verbatim, so its
        games keep their indices, built or not; a built one stands for its
        store game.  The store games the memo reaches that have no index yet
        follow, in handle order, so options precede their parents.  The
        entries are the file's, copied in verbatim runs, with each memo
        entry's record spliced in at its key's place, replacing the file's
        record of that key; so no value is lost, and an engine that has only
        loaded one file, or built only its entries, saves the same bytes.
        """
        store, file = self.store, memoryview(self._file)
        index: dict[GameId, int] = {}
        for i, g in sorted(self._disk_ids.items()):  # equal games keep the lowest index
            index.setdefault(g, i)
        new: list[GameId] = []

        def reach(g: GameId) -> None:
            index[g] = -1  # numbered below, in handle order
            new.append(g)

        for g in self._values.values():
            options_first(g, lambda h: store.left_options(h) + store.right_options(h), index, reach)
        games, offs = self._games, self._entries
        ngames, records = len(games) - 1, [file[games[0]:games[-1]]]
        for g in sorted(new):
            index[g], ngames = ngames, ngames + 1
            lo, ro = store.left_options(g), store.right_options(g)
            records.append(struct.pack(f"<HH{len(lo) + len(ro)}I", len(lo), len(ro),
                                       *[index[o] for o in lo + ro]))
        nentries, at, entries = len(offs) - 1, 0, []
        for key, value in sorted(self._values.items()):
            j, old = self._find(key)
            entries += [file[offs[at]:offs[j]],
                        struct.pack("<H", len(key)) + key + struct.pack("<I", index[value])]
            at, nentries = j + (old is not None), nentries + (old is None)
        entries.append(file[offs[at]:offs[-1]])
        payload = [struct.pack("<I", ngames), *records, struct.pack("<I", nentries), *entries]
        crc = 0
        for part in payload:
            crc = zlib.crc32(part, crc)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_MAGIC + struct.pack("<I", _CACHE_VERSION))
            fh.writelines(payload)
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)

    def load_cache(self, path: str) -> bool:
        """Read a cache file into an engine that holds no loaded game and no
        value yet (RuntimeError otherwise), so the file's indices stay the
        engine's.  Returns False, leaving the engine as it was and the reason
        in load_error, on any version or structural mismatch, keys that do
        not strictly ascend, or an entry deeper than its position has edges.
        The engine keeps the file's bytes and two offset tables; entries are
        not built until used."""
        if len(self._games) > 1 or self._values:
            raise RuntimeError("load_cache must come first: one file, into an engine "
                               "that has loaded and valued nothing")

        def reject(reason: str) -> bool:
            self.load_error = reason
            return False

        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as e:
            return reject(f"unreadable: {e.strerror}")
        view = memoryview(blob)[:-4]  # the header and payload: reads past it raise
        try:
            if blob[:4] != _CACHE_MAGIC:
                return reject("not a value cache")
            (version,) = struct.unpack_from("<I", blob, 4)
            if version != _CACHE_VERSION:
                return reject(f"version {version}, not {_CACHE_VERSION}")
            if zlib.crc32(view[8:]) != struct.unpack_from("<I", blob, len(blob) - 4)[0]:
                return reject("checksum mismatch")
            (ngames,) = struct.unpack_from("<I", view, 8)
            pos, games, depths = 12, array("I"), array("I")
            for _ in range(ngames):
                games.append(pos)
                nl, nr = struct.unpack_from("<HH", view, pos)
                opts = struct.unpack_from(f"<{nl + nr}I", view, pos + 4)
                pos += 4 + 4 * (nl + nr)
                depth = 0  # options must precede their game, or depths[i] raises IndexError
                for i in opts:
                    if depths[i] >= depth:
                        depth = depths[i] + 1
                depths.append(depth)
            games.append(pos)
            (nentries,) = struct.unpack_from("<I", view, pos)
            pos, entries, key = pos + 4, array("I"), b""
            for _ in range(nentries):
                entries.append(pos)
                (klen,) = struct.unpack_from("<H", view, pos)
                (idx,) = struct.unpack_from("<I", view, pos + 2 + klen)
                prev, key = key, blob[pos + 2:pos + 2 + klen]
                if len(entries) > 1 and key <= prev:
                    return reject("keys out of order")
                pos += 6 + klen
                # every move deletes an edge: no value is deeper than its form has edges
                if depths[idx] > int.from_bytes(key[2:], "big").bit_count():
                    return reject("an entry deeper than its position has edges")
            entries.append(pos)
            if pos != len(view):
                return reject("bad layout")
        except (struct.error, IndexError):
            return reject("bad layout")
        # games are canonicalized into the store on first use
        self._file, self._games, self._entries = blob, games, entries
        self.load_error = None
        return True


# ----------------------------------------------------------------------
# brute-force referee
# ----------------------------------------------------------------------

class Oracle:
    """Alternating-minimax referee, independent of the value engine.

    Positions are raw labeled adjacency rows, a deleted vertex keeping an
    empty row; no game values, canonical forms, or option-set reasoning are
    involved.  Intended for cross-checking on small instances.  Its memo
    holds at most memo_cap positions and raises MemoCapExceeded beyond that.
    """

    def __init__(self, memo_cap: Optional[int] = None):
        self.memo_cap = memo_cap
        self._memo: dict[tuple, bool] = {}

    def outcome(self, g: Graph, variant: Variant) -> Outcome:
        left_first = self._wins(g.adj, Player.LEFT, variant)
        right_first = self._wins(g.adj, Player.RIGHT, variant)
        if left_first and right_first:
            return Outcome.FIRST_WINS
        if left_first:
            return Outcome.LEFT_WINS
        if right_first:
            return Outcome.RIGHT_WINS
        return Outcome.SECOND_WINS

    def _wins(self, rows: tuple[int, ...], mover: Player, variant: Variant) -> bool:
        key = (rows, mover, variant)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        other = Player.RIGHT if mover is Player.LEFT else Player.LEFT
        result = False
        for nrows in self._moves(rows, mover, variant):
            if not self._wins(nrows, other, variant):
                result = True
                break
        if self.memo_cap is not None and len(self._memo) >= self.memo_cap:
            raise MemoCapExceeded(f"memo table cap of {self.memo_cap} entries exceeded")
        self._memo[key] = result
        return result

    def _moves(self, rows: tuple[int, ...], mover: Player,
               variant: Variant) -> Iterator[tuple[int, ...]]:
        n = len(rows)
        deg = [rows[v].bit_count() for v in range(n)]
        if mover is Player.LEFT:
            for v in range(n):
                if deg[v] == 0:
                    continue
                if variant is Variant.FORBIDDEN_LEAF and deg[v] == 1:
                    continue
                if any(deg[u] == 1 for u in bits(rows[v])):
                    continue
                if variant is Variant.MUTUAL_FAILURES and not self._mf_open(rows, deg, v):
                    continue
                new_rows = list(rows)
                for u in bits(rows[v]):
                    new_rows[u] &= ~(1 << v)
                new_rows[v] = 0
                yield tuple(new_rows)
        else:
            for v in range(n):
                for u in bits(rows[v] >> (v + 1)):
                    u += v + 1
                    if deg[v] < 2 or deg[u] < 2:
                        continue
                    if variant is Variant.MUTUAL_FAILURES and not self._mf_open(rows, deg, v):
                        continue
                    new_rows = list(rows)
                    new_rows[v] &= ~(1 << u)
                    new_rows[u] &= ~(1 << v)
                    yield tuple(new_rows)

    def _mf_open(self, rows: tuple[int, ...], deg: list[int], seed: int) -> bool:
        # both classic base sets must be nonempty within seed's component
        comp = 1 << seed
        frontier = comp
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= rows[v]
            frontier = nxt & ~comp
            comp |= nxt
        has_left = False
        has_right = False
        for v in bits(comp):
            if deg[v] == 0:
                continue
            if not has_left and not any(deg[u] == 1 for u in bits(rows[v])):
                has_left = True
            if not has_right and deg[v] >= 2 and any(
                deg[u] >= 2 for u in bits(rows[v])
            ):
                has_right = True
            if has_left and has_right:
                return True
        return False


# ----------------------------------------------------------------------
# shared context
# ----------------------------------------------------------------------

@dataclass
class EngineContext:
    """One store plus the calculators that share it."""

    store: GameStore
    engine: GraphGameEngine
    atomic: AtomicCalculator
    oracle: Oracle


def make_context(max_component: int = DEFAULT_COMPONENT_LIMIT,
                 memo_cap: Optional[int] = None) -> EngineContext:
    store = GameStore(memo_cap=memo_cap)
    return EngineContext(
        store=store,
        engine=GraphGameEngine(store, max_component=max_component),
        atomic=AtomicCalculator(store),
        oracle=Oracle(memo_cap),
    )
