"""Constructors for the named graph families used throughout the suite."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .cgt import EngineError
from .graphs import _BYTE_LIMIT, Graph, TooLarge


class BadParams(EngineError):
    """Family parameters outside the family's domain."""


class FamilyKind(Enum):
    PATH = "path"
    CYCLE = "cycle"
    WHEEL = "wheel"
    COMPLETE = "complete"
    STAR = "star"
    BICLIQUE = "biclique"


_MIN_PARAM = {
    FamilyKind.PATH: 1,
    FamilyKind.CYCLE: 3,
    FamilyKind.WHEEL: 3,
    FamilyKind.COMPLETE: 1,
    FamilyKind.STAR: 1,
    FamilyKind.BICLIQUE: 1,
}


@dataclass(frozen=True)
class FamilySpec:
    """A family name with its size parameter(s); biclique takes two."""

    kind: FamilyKind
    a: int
    b: Optional[int] = None

    def __post_init__(self):
        lo = _MIN_PARAM[self.kind]
        if self.a < lo:
            raise BadParams(f"{self.kind.value} needs parameter >= {lo}, got {self.a}")
        if self.kind is FamilyKind.BICLIQUE:
            if self.b is None or self.b < 1:
                raise BadParams("biclique needs two parameters >= 1")
        elif self.b is not None:
            raise BadParams(f"{self.kind.value} takes a single parameter")

    def __str__(self) -> str:
        if self.b is None:
            return f"{self.kind.value} {self.a}"
        return f"{self.kind.value} {self.a} {self.b}"


def build(spec: FamilySpec) -> Graph:
    """Construct the graph for spec.

    Vertex conventions: paths and cycles are labeled along the walk; wheels
    and stars put the hub at the last index; bicliques list the first part
    then the second.  Raises TooLarge above 255 vertices before building
    anything: each family graph is connected, so it could not be labeled.
    """
    kind, n = spec.kind, spec.a
    size = n + (spec.b or 0) + (kind in (FamilyKind.WHEEL, FamilyKind.STAR))  # + the hub
    if size > _BYTE_LIMIT:
        raise TooLarge(f"{spec} has {size} vertices, above the "
                       f"canonicalization limit {_BYTE_LIMIT}")
    if kind is FamilyKind.PATH:
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if kind is FamilyKind.CYCLE:
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind is FamilyKind.WHEEL:
        rim = [(i, (i + 1) % n) for i in range(n)]
        spokes = [(i, n) for i in range(n)]
        return Graph.from_edges(n + 1, rim + spokes)
    if kind is FamilyKind.COMPLETE:
        return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind is FamilyKind.STAR:
        return Graph.from_edges(n + 1, [(i, n) for i in range(n)])
    if kind is FamilyKind.BICLIQUE:
        m = spec.b
        assert m is not None
        return Graph.from_edges(n + m, [(i, n + j) for i in range(n) for j in range(m)])
    raise BadParams(f"unknown family {kind}")


def path(n: int) -> Graph:
    return build(FamilySpec(FamilyKind.PATH, n))


def cycle(n: int) -> Graph:
    return build(FamilySpec(FamilyKind.CYCLE, n))


def wheel(n: int) -> Graph:
    """Wheel with n rim vertices plus a hub (n + 1 vertices total)."""
    return build(FamilySpec(FamilyKind.WHEEL, n))


def complete(n: int) -> Graph:
    return build(FamilySpec(FamilyKind.COMPLETE, n))


def star(n: int) -> Graph:
    """Star with n leaves plus the hub."""
    return build(FamilySpec(FamilyKind.STAR, n))


def biclique(a: int, b: int) -> Graph:
    return build(FamilySpec(FamilyKind.BICLIQUE, a, b))
