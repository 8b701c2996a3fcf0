"""Simple undirected graphs sized for exact game analysis.

Graphs are immutable, with adjacency stored as one bitmask row per vertex.
The module provides the operations the deletion games need (vertex/edge
deletion with compaction, connected components, disjoint union) plus a
canonical form for isomorphism keys: equitable refinement of ordered cell
bitmasks by integer cell splitting (McKay & Piperno 2014) with
individualization backtracking, returning the least upper-triangle
encoding among the leaves of that search tree, which is canonical but not
the least over all labelings; the labeling keeps the automorphisms it
finds (two leaves with equal encodings), for move generation to make one
move per orbit, and stops at the first leaf whose form the caller already
knows.  Canonicalization cost is exponential in the worst case, so it is
guarded by an explicit vertex limit, and by 255 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Optional

from .cgt import EngineError

class TooLarge(EngineError):
    """A graph exceeded a canonicalization limit."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitmask adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency size mismatch")
        for v, row in enumerate(self.adj):
            if row >> self.n:
                raise ValueError("edge endpoint out of range")
            if row >> v & 1:
                raise ValueError("loops are not allowed")
        for v, row in enumerate(self.adj):
            for u in bits(row):
                if not self.adj[u] >> v & 1:
                    raise ValueError("adjacency is not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            row = self.adj[v] >> (v + 1)
            for u in bits(row):
                out.append((v, v + 1 + u))
        return out

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def _component_mask(self, seed: int) -> int:
        seen = 1 << seed
        frontier = seen
        adj = self.adj
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v]
            frontier = nxt & ~seen
            seen |= nxt
        return seen

    # ------------------------------------------------------------------
    # mutation (returns new graphs)
    # ------------------------------------------------------------------

    def delete_vertex(self, v: int) -> "Graph":
        """Remove v and its incident edges; remaining vertices are compacted."""
        low = (1 << v) - 1
        rows = [(row & low) | (row >> 1 & ~low) for row in self.adj]
        del rows[v]
        return _unchecked(self.n - 1, tuple(rows))

    def delete_edge(self, u: int, v: int) -> "Graph":
        if not self.adj[u] >> v & 1:
            raise ValueError(f"edge ({u},{v}) not present")
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return _unchecked(self.n, tuple(rows))

    def induced(self, vertices: list[int]) -> "Graph":
        """Induced subgraph, relabeled to 0..k-1 in the order given."""
        pos = {u: i for i, u in enumerate(vertices)}
        rows = []
        for u in vertices:
            row = 0
            for w in bits(self.adj[u]):
                i = pos.get(w)
                if i is not None:
                    row |= 1 << i
            rows.append(row)
        return _unchecked(len(vertices), tuple(rows))

    def components(self) -> list["Graph"]:
        """Connected components as separate graphs, by least vertex, vertices
        in original order.  A lone vertex costs no bitmask operation."""
        out = []
        full = (1 << self.n) - 1
        done = 0  # vertices of the components with edges found so far
        for v, row in enumerate(self.adj):
            if not row:
                out.append(self if self.n == 1 else _LONE)
            elif not done >> v & 1:
                mask = self._component_mask(v)
                if mask == full:
                    return [self]
                out.append(self.induced(list(bits(mask))))
                done |= mask
        return out

    def disjoint_union(self, other: "Graph") -> "Graph":
        rows = list(self.adj) + [row << self.n for row in other.adj]
        return Graph(self.n + other.n, tuple(rows))

    def add_vertex(self, neighbor_mask: int) -> "Graph":
        """New graph with vertex n adjacent to the vertices in neighbor_mask."""
        rows = [
            row | (1 << self.n) if neighbor_mask >> v & 1 else row
            for v, row in enumerate(self.adj)
        ]
        rows.append(neighbor_mask)
        return Graph(self.n + 1, tuple(rows))


def bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _unchecked(n: int, rows: tuple[int, ...]) -> Graph:
    """Build a Graph from rows already known to be valid, skipping the checks."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", rows)
    return g


_LONE = _unchecked(1, (0,))


# ----------------------------------------------------------------------
# canonical form
# ----------------------------------------------------------------------

_BYTE_LIMIT = 255  # n and each vertex of an automorphism take one byte


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-invariant encoding of g.

    Two graphs yield equal bytes exactly when they are isomorphic: n, then
    the canonically ordered upper triangle as one big-endian integer (for
    j = 1..n-1, the edges from j to 0..j-1, vertex 0 most significant).
    Raises TooLarge above 255 vertices.
    """
    return labeling(g)[0]


def labeling(g: Graph, known: Container[bytes] = ()) -> tuple[bytes, tuple[bytes, ...]]:
    """canonical_form(g) and the automorphisms of g its search found.

    Map a sends v to a[v].  The maps generate a subgroup of Aut(g), whose
    orbits may split true orbits but never join two.  Raises TooLarge
    above 255 vertices.

    known is a container of canonical forms, each returned by an earlier
    full search.  The search stops at its first leaf whose bytes are in
    known and returns them with no automorphisms: a leaf encodes a
    relabeling of g, so g is isomorphic to the graph that form came from,
    and the form is g's.  Bytes from anywhere else, such as cache-file
    keys, must never be put in known.
    """
    n, adj = g.n, g.adj
    if n > _BYTE_LIMIT:
        raise TooLarge(f"graph has {n} vertices, above the canonicalization limit {_BYTE_LIMIT}")
    if n == 0:
        return b"\x00", ()
    head, nbytes = bytes([n]), (n * (n - 1) // 2 + 7) // 8
    best: Optional[int] = None
    best_order: list[int] = []
    autos: list[bytes] = []

    def encode(order: list[int]) -> int:
        # vertex at position i becomes bit n-1-i, so row j's bits for
        # positions 0..j-1 are its top j bits, position 0 most significant
        bit = [0] * n
        for i, v in enumerate(order):
            bit[v] = 1 << (n - 1 - i)
        code = 0
        for j in range(1, n):
            row = 0
            rest = adj[order[j]]
            while rest:
                low = rest & -rest
                row |= bit[low.bit_length() - 1]
                rest ^= low
            code = (code << j) | (row >> (n - j))
        return code

    def orbit_of(seeds: list[int], fixing: list[bytes]) -> set[int]:
        reach = set(seeds)
        frontier = list(seeds)
        while frontier:
            u = frontier.pop()
            for a in fixing:
                w = a[u]
                if w not in reach:
                    reach.add(w)
                    frontier.append(w)
        return reach

    def search(cells: list[int], path: tuple[int, ...]) -> bool:
        """Search below cells; True once a leaf's bytes are in known."""
        nonlocal best, best_order
        at = -1
        for i, cell in enumerate(cells):
            if cell & (cell - 1) and (at < 0 or cell.bit_count() < cells[at].bit_count()):
                at = i
        if at < 0:
            order = [cell.bit_length() - 1 for cell in cells]
            code = encode(order)
            if known and head + code.to_bytes(nbytes, "big") in known:
                best = code
                return True
            if best is None or code < best:
                best = code
                best_order = order
            elif code == best:
                # two orderings with the same matrix encoding: the position-wise
                # vertex map between them is an automorphism worth remembering
                sigma = bytearray(n)
                for pos in range(n):
                    sigma[best_order[pos]] = order[pos]
                autos.append(bytes(sigma))
            return False
        target = cells[at]
        explored: list[int] = []
        fixing: list[bytes] = []
        counted = 0
        for v in bits(target):
            if explored:
                if counted != len(autos):
                    counted = len(autos)
                    fixing = [a for a in autos if all(a[u] == u for u in path)]
                if fixing and v in orbit_of(explored, fixing):
                    # an automorphism fixing the path maps an explored branch
                    # onto this one, so it yields the same leaf codes
                    explored.append(v)
                    continue
            split = cells[:at] + [1 << v, target & ~(1 << v)] + cells[at + 1:]
            if search(_refine(adj, split, [1 << v]), path + (v,)):
                return True
            explored.append(v)
        return False

    full = (1 << n) - 1
    stopped = search(_refine(adj, [full], [full]), ())
    assert best is not None
    return head + best.to_bytes(nbytes, "big"), () if stopped else tuple(autos)


def _refine(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """Split ordered cell bitmasks until the partition is equitable.

    Each splitter in turn (the list grows in place) splits every cell by
    its vertices' neighbor counts in the splitter; pieces replace the cell
    in increasing count order, so the result is label-invariant.  All but
    the last piece become splitters: the last's counts are the cell's,
    constant by then, minus its siblings', processed just before it, so it
    would split nothing.  A one-vertex splitter's counts are 0 or 1, so it
    splits each cell by that vertex's row alone.  Sound for the search's
    two calls: all vertices as one cell and splitter, and an equitable
    partition with v split off a cell and {v} as splitter.
    """
    for s in splitters:
        row = None if s & (s - 1) else adj[s.bit_length() - 1]
        out = []
        for cell in cells:
            pieces = None
            if row is not None:
                hit = cell & row
                if hit and hit != cell:
                    pieces = [cell ^ hit, hit]
            elif cell & (cell - 1):
                parts: dict[int, int] = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    rest ^= low
                    k = (adj[low.bit_length() - 1] & s).bit_count()
                    parts[k] = parts.get(k, 0) | low
                if len(parts) > 1:
                    pieces = [parts[k] for k in sorted(parts)]
            if pieces:
                out += pieces
                splitters += pieces[:-1]  # the last splits nothing, see above
            else:
                out.append(cell)
        cells = out
        if len(cells) == len(adj):
            break
    return cells


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

def connected_graphs(max_vertices: int) -> dict[int, list[Graph]]:
    """One representative per isomorphism class of connected graphs, by order.

    Built by attaching a new vertex to every nonempty subset of each smaller
    representative (every connected graph has a removable non-cut vertex, so
    this reaches every class), deduplicated by canonical form.
    """
    if max_vertices < 1:
        return {}
    reps: dict[int, list[Graph]] = {1: [Graph.empty(1)]}
    for k in range(2, max_vertices + 1):
        seen: dict[bytes, Graph] = {}
        for g in reps[k - 1]:
            for mask in range(1, 1 << (k - 1)):
                h = g.add_vertex(mask)
                seen.setdefault(canonical_form(h), h)
        reps[k] = list(seen.values())
    return reps
