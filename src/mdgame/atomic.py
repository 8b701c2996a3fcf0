"""Atomic weight calculus for all-small games.

All-small games are infinitesimal but still carry a coarse integer scale:
the atomic weight, the number of "ups" a game is worth at the limit.  It
is computed by the standard recursion

    AW(g) = { AW(gL) - 2 | AW(gR) + 2 }

with the integer exception: when the bracket simplifies to an integer, the
result is picked by how g compares with a remote star (a nim-heap *N larger
than every nimber inside g), which is asked first: Greater takes the bound
of the right weights, Less that of the left ones, and Confused 0, and only
the bound picked is found.  Comparisons against the remote star use the
finite surrogate order N = 2 + the largest k such that *k is g or one of
its subpositions, a fact the store records when it interns g, and are
validated by recomputing at N+1; disagreement raises RemoteStarUnstable
rather than returning a guess.  The calculator's memo tables are bounded
by the store's memo_cap, like the store's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .cgt import EngineError, GameId, GameStore, Comparison, Outcome

_SCAN_LIMIT = 10_000


class NotAllSmall(EngineError):
    """Atomic weight machinery was applied to a game that is not all-small."""


class NotInteger(EngineError):
    """An integer atomic weight was required but not available."""


class RemoteStarUnstable(EngineError):
    """Remote-star surrogate comparisons disagreed between orders N and N+1."""


@dataclass(frozen=True)
class AtomicWeight:
    """Atomic weight of a game: its value handle plus integer classification."""

    value: GameId
    is_integer: bool
    integer: Optional[int] = None


def two_ahead_bound(aw: AtomicWeight) -> Optional[Outcome]:
    """Forced outcome implied by the two-ahead rule, or None when |AW| < 2."""
    if not aw.is_integer or aw.integer is None:
        raise NotInteger("two-ahead rule needs an integer atomic weight")
    if aw.integer >= 2:
        return Outcome.LEFT_WINS
    if aw.integer <= -2:
        return Outcome.RIGHT_WINS
    return None


class AtomicCalculator:
    """Atomic weights and remote-star orders over one GameStore."""

    def __init__(self, store: GameStore):
        self.store = store
        self._aw: dict[GameId, AtomicWeight] = {}
        self._naive: dict[tuple, GameId] = {}  # raw option weights -> naive weight

    # ------------------------------------------------------------------
    # remote star
    # ------------------------------------------------------------------

    def surrogate_order(self, g: GameId) -> int:
        """Order of the *N surrogate used for remote-star comparisons against g."""
        return 2 + self.store.largest_nimber_in(g)

    def remote_star_order(self, g: GameId) -> Comparison:
        """How g compares with a remote star: Greater, Less, or Confused.

        Never Equal: g = *N would make N a nimber inside g, but N exceeds
        the largest one by at least 2."""
        st = self.store
        if not st.is_all_small(g):
            raise NotAllSmall("remote-star comparison requires an all-small game")
        n = self.surrogate_order(g)
        first = st.compare(g, st.nimber_game(n))
        second = st.compare(g, st.nimber_game(n + 1))
        if first != second:
            raise RemoteStarUnstable(
                f"comparison with *{n} and *{n + 1} disagreed ({first} vs {second})"
            )
        return first

    # ------------------------------------------------------------------
    # atomic weight
    # ------------------------------------------------------------------

    def atomic_weight(self, g: GameId) -> AtomicWeight:
        st = self.store
        if not st.is_all_small(g):
            raise NotAllSmall("atomic weight is defined for all-small games only")
        return self._weight(g)

    def _weight(self, g: GameId) -> AtomicWeight:
        hit = self._aw.get(g)
        if hit is not None:
            return hit
        st = self.store
        if g == st.zero:
            return st._memo_put(self._aw, g, AtomicWeight(st.zero, True, 0))
        two = st.number_game(2)
        lefts = [st.sub(self._weight(o).value, two) for o in st.left_options(g)]
        rights = [st.add(self._weight(o).value, two) for o in st.right_options(g)]
        key = (tuple(sorted(set(lefts))), tuple(sorted(set(rights))))
        naive = self._naive.get(key)
        if naive is None:
            naive = st._memo_put(self._naive, key, st.make_game(lefts, rights))
        n = st.integer_value(naive)
        if n is None:
            result = AtomicWeight(naive, False, None)
        else:  # the integer exception: the remote star picks one bound, or 0
            order = self.remote_star_order(g)
            chosen = (0 if order is Comparison.CONFUSED
                      else self._bound(rights, n, 1) if order is Comparison.GREATER
                      else self._bound(lefts, n, -1))
            result = AtomicWeight(st.number_game(chosen), True, chosen)
        return st._memo_put(self._aw, g, result)

    def _bound(self, weights: list[GameId], base: int, outward: int) -> int:
        """The left weights' bound (outward -1), the least x no weight is at
        least, or the right weights' (outward 1), the greatest y no weight is
        at most.  When all are numbers (there is one: g is all-small, not 0),
        x must exceed them all and y be below them all; else _walk finds it."""
        st = self.store
        numbers = [st.number_value(w) for w in weights]
        if all(v is not None for v in numbers):  # by identity, not ==
            return math.floor(max(numbers)) + 1 if outward < 0 else math.ceil(min(numbers)) - 1
        fails = st.leq if outward < 0 else st._geq  # a left weight >= v, a right one <= v

        def ok(v: int) -> bool:
            vg = st.number_game(v)
            return not any(fails(vg, w) for w in weights)

        return _walk(ok, base, outward)


def _walk(ok: Callable[[int], bool], base: int, outward: int) -> int:
    """The outermost integer passing ok, seen from base in direction outward:
    walk outward while the neighbour still passes, or inward until a value
    passes.  Raises EngineError after _SCAN_LIMIT steps."""
    passing = ok(base)
    step = outward if passing else -outward
    v = base
    for _ in range(_SCAN_LIMIT + 1):
        if ok(v + step) != passing:
            return v if passing else v + step
        v += step
    raise EngineError("integer exception scan did not terminate")
