"""Exact arithmetic for short partisan games.

Games live in a GameStore: a hash-consing table mapping canonical option
sets to integer handles (GameId).  make_game() reduces arbitrary option
sets to canonical form (dominated options removed, reversible options
bypassed), so handle equality coincides with game-value equality, and all
downstream work (ordering, disjunctive sums, negation, outcome
classification, value naming) runs on interned handles backed by the
store's memo tables.  One filter and one bypass serve both sides: an
option joins an antichain of undominated options, compared only with the
ones kept so far, and a reversible option of either side is found by one
comparison against the game not yet interned, Right mirroring Left.

Sums feed ordering through cancellation: for short games x + y <= x + z
exactly when y <= z.  add() records g = a + b under a and b and, when it
first builds g from three or more summands, under each summand and the
built sum of the rest, if both are born before g.  leq() on two sums
sharing a summand answers from the other two.  The birthday guard makes
each step shrink the games compared, so the reduction ends: without it,
↑ = ↑* + * and ↑* = ↑ + * would send leq(↑*, ↑) to leq(↑, ↑*) and back.

Sums live in one table, ``_sums``, keyed by a sorted tuple of handles,
which stands for their sum: the pair add() is asked for, or a multiset of
summands.  Each sum add() builds is stored under the sorted concatenation
of its two summands' multisets (a game with none counts as itself), so
x + (y + z), (x + y) + z and (x + z) + y are built once: addition is
commutative and associative on values, and canonical forms are unique.  A
game keeps the first multiset found for it, and one that contains the sum
itself (x + * + * = x) is never recorded, so multisets stay finite.

The comparison memo, the largest table, is stored as one row per game:
``_leq[a]`` maps b to whether a <= b, so a lookup builds no key tuple and
hashes one int.  The rows form a list parallel to ``_left`` and ``_right``;
``_intern`` appends a game's empty row as it allocates the handle.  Under
``memo_cap`` the rows count as one table, their total number of entries
bounded, and so do the rows of pairs add() records, ``_parts``.  When
a <= b is not stored but b <= a is stored as true, leq answers false
without storing it: distinct handles are distinct values.  Nor does it
store an answer found by cancellation: asking again reads the younger
comparison's entry in its place.

Seven facts of a game follow from its options' facts: its birthday,
whether it is all-small, its nimber order, its number value, the largest k
such that *k is it or one of its subpositions, and its Left and Right
stops.  ``_intern`` appends them to lists parallel to ``_left`` as it
allocates the handle, the options being interned first, so each is one
lookup and none recurses.  These lists grow one entry per game, like
``_left``, so ``memo_cap`` does not count them, as it does not count the
game table.

The stops are exact floats: a number's own value while its numerator has
at most 53 bits and its denominator at most 2^1022, 0.0 for an all-small
game, else L(G) = max R(Gᴸ) and R(G) = min L(Gᴿ); None where a stop would
need a None stop or an empty side.  G <= H forces L(G) <= L(H) and
R(G) <= R(H), and a number x is below G when x < R(G), above it when
L(G) < x (Siegel, *Combinatorial Game Theory*, 2013, ch. II).  So after
the memo, the number facts and cancellation, leq answers from the stops
that are not None, with no search, unless both games are all-small (their
stops are 0), and stores none of these answers.  On the hot values of the
classic and fl variants this keeps a quarter to a half of the comparisons
out of the memo.

Names come from those facts: a game is a number or a nimber when its fact
says so, and an up multiple when its chain of single options leads to up
or up*, so naming and rendering build no game.

One walk, options_first, builds every game options first from an explicit
stack, in the order a recursion would: negations, numbers and nimbers, a
value's brace text and its length (checked before any text is built), and,
in the graph engine, loaded cache games and the games a save writes.  So
none of these recurses over a game's depth.  Negations, numbers and nimbers
have known canonical forms, which are interned as they stand, comparing
nothing.  leq answers two numbers from their number facts,
exactly and interning no game, so leq on the integers 2999 and 3000 returns
True; it still recurses over other deep games, and add still recurses.

leq looks for a refuting witness among b's Right options (bR <= a) before
a's Left options (b <= aL).  Either order decides the same relation; the
order was chosen by measurement.  On the benchmark's reload workload at seed
1, whose comparisons are mostly of all-small games with many Right options,
Right's witnesses first made 160,422 calls to leq where Left's first made
222,648.  Reading a memo row inline before a recursive call did not pay,
when measured, so leq and _beyond make the call, but for cancellation.

make_game keeps no memo of raw option sets, which seldom repeat; callers
that do repeat them, like the atomic weight recursion, keep their own.

Memo tables are unbounded unless ``memo_cap`` is set; an overfull table
raises MemoCapExceeded rather than evicting entries.  A store, and so
everything built on it, is not thread-safe: use one per thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional

GameId = int

_CANON_ITER_LIMIT = 100_000
_TEXT_LIMIT = 10_000_000  # characters in one rendered value


class EngineError(Exception):
    """Base class for engine failures."""


class MemoCapExceeded(EngineError):
    """A memo table reached its configured entry cap."""


class TextTooLong(EngineError):
    """A value's brace text would be longer than the rendering limit."""


class Outcome(Enum):
    LEFT_WINS = "LeftWins"
    RIGHT_WINS = "RightWins"
    FIRST_WINS = "FirstPlayerWins"
    SECOND_WINS = "SecondPlayerWins"


class Comparison(Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"
    CONFUSED = "Confused"


# who wins a game, by how it compares with zero
_OUTCOME_VS_ZERO = {Comparison.GREATER: Outcome.LEFT_WINS, Comparison.LESS: Outcome.RIGHT_WINS,
                    Comparison.CONFUSED: Outcome.FIRST_WINS, Comparison.EQUAL: Outcome.SECOND_WINS}


@dataclass(frozen=True)
class ValueName:
    """Classification of a canonical game: number, nimber, up multiple, or other.

    ``text`` always holds the display form; for kind 'other' that is the
    nested-brace rendering of the canonical tree.
    """

    kind: str  # 'number' | 'nimber' | 'ups' | 'other'
    text: str
    number: Optional[Fraction] = None
    nimber_order: Optional[int] = None
    up_count: int = 0
    plus_star: bool = False


def _ups_text(count: int, plus_star: bool) -> str:
    arrow = "↑" if count > 0 else "↓"
    mag = abs(count)
    base = arrow if mag == 1 else f"{mag}·{arrow}"
    return base + ("*" if plus_star else "")


def options_first(root, options, built, build) -> None:
    """Call build(x) for root and each game reachable from it through
    options(x) that is not in built, options before the games that have
    them.  build(x) must put x in built.  A game's unbuilt options go on an
    explicit stack in reverse, so they are built in the order a recursion
    would build them, and a deep chain cannot overflow the interpreter's."""
    stack = [(root, False)]
    while stack:
        x, ready = stack.pop()  # ready: x's options were pushed above it, so are built
        if x in built:
            continue
        if ready:
            build(x)
            continue
        stack.append((x, True))
        stack += [(o, False) for o in reversed(options(x)) if o not in built]


class GameStore:
    """Interning store for canonical short games.

    Handles are dense ints; a game's options always have smaller handles
    than the game itself (children are interned first), which the cache
    serializer in the graph engine relies on.
    """

    def __init__(self, memo_cap: Optional[int] = None):
        self.memo_cap = memo_cap
        self._left: list[tuple[GameId, ...]] = []
        self._right: list[tuple[GameId, ...]] = []
        self._index: dict[tuple, GameId] = {}
        self._leq: list[dict[GameId, bool]] = []  # _leq[a][b] is a <= b
        # facts of each game, appended by _intern (see the module docstring)
        self._birthday: list[int] = []
        self._all_small: list[bool] = []
        self._nimber: list[Optional[int]] = []  # k when the game is *k
        self._number: list[Optional[Fraction]] = []
        self._largest_nimber: list[int] = []
        self._left_stop: list[Optional[float]] = []  # None: no exact stop known
        self._right_stop: list[Optional[float]] = []
        self._leq_count = self._parts_count = 0  # entries in all rows of _leq, of _parts
        self._summands: dict[GameId, tuple[GameId, ...]] = {}
        self._sums: dict[tuple[GameId, ...], GameId] = {}  # a pair or a multiset -> its sum
        self._parts: dict[GameId, dict[GameId, GameId]] = {}  # g -> {x: g - x}
        self._neg: dict[GameId, GameId] = {}
        self._number_games: dict[Fraction, GameId] = {}
        self._nimber_games: dict[int, GameId] = {}
        self._names: dict[GameId, ValueName] = {}
        self._text_lengths: dict[GameId, int] = {}

        self.zero = self._intern((), ())
        self.star = self._intern((self.zero,), (self.zero,))
        self.up = self._intern((self.zero,), (self.star,))
        self.down = self._intern((self.star,), (self.zero,))
        lz = tuple(sorted((self.zero, self.star)))
        self.up_star = self._intern(lz, (self.zero,))
        self.down_star = self._intern((self.zero,), lz)

    # ------------------------------------------------------------------
    # interning and memo plumbing
    # ------------------------------------------------------------------

    def _intern(self, left: tuple, right: tuple) -> GameId:
        key = (left, right)
        gid = self._index.get(key)
        if gid is None:
            gid = self._index[key] = len(self._left)
            self._left.append(left)
            self._right.append(right)
            self._leq.append({})
            birthday, all_small, largest = self._birthday, self._all_small, self._largest_nimber
            day, small, inner = 0, bool(left) == bool(right), 0
            for o in left + right:  # interned before this game, so their facts are known
                if birthday[o] >= day:
                    day = birthday[o] + 1
                small = small and all_small[o]
                if largest[o] > inner:
                    inner = largest[o]
            orders = {self._nimber[o] for o in left} if left == right else None
            nimber = len(left) if orders == set(range(len(left))) else None
            number = self._number_from(left, right)
            birthday.append(day)
            all_small.append(small)
            self._nimber.append(nimber)
            self._number.append(number)
            largest.append(max(nimber or 0, inner))
            if number is not None:  # a float, if exact: see the module docstring
                top, bottom = number.numerator.bit_length(), number.denominator.bit_length()
                lstop = rstop = float(number) if top <= 53 and bottom <= 1023 else None
            elif small:
                lstop = rstop = 0.0
            else:  # L(G) = max R(Gᴸ), R(G) = min L(Gᴿ); None if a stop is None or a side empty
                ls, rs = [self._right_stop[o] for o in left], [self._left_stop[o] for o in right]
                lstop = max(ls) if ls and None not in ls else None
                rstop = min(rs) if rs and None not in rs else None
            self._left_stop.append(lstop)
            self._right_stop.append(rstop)
        return gid

    def _number_from(self, left: tuple, right: tuple) -> Optional[Fraction]:
        """The number {left|right} equals, found from its options' numbers, or
        None.  Every interned game is canonical, and a number's canonical form
        is {|} = 0, {x|} = x + 1, {|y} = y - 1 or {x|y} = (x + y)/2, x < y."""
        if len(left) > 1 or len(right) > 1:
            return None
        v = [self._number[o] for o in left + right]
        for x in v:
            if x is None:  # by identity: Fraction.__eq__(None) is slow
                return None
        if left and right:
            return (v[0] + v[1]) / 2 if v[0] < v[1] else None
        return v[0] + 1 if left else v[0] - 1 if right else Fraction(0)

    def _memo_put(self, table: dict, key, value):
        cap = self.memo_cap
        if cap is not None and len(table) >= cap and key not in table:
            raise MemoCapExceeded(f"memo table cap of {cap} entries exceeded")
        table[key] = value
        return value

    def _leq_put(self, row: dict, b: GameId, value: bool) -> bool:
        if b not in row:  # the rows together are one table under memo_cap
            cap = self.memo_cap
            if cap is not None and self._leq_count >= cap:
                raise MemoCapExceeded(f"memo table cap of {cap} entries exceeded")
            self._leq_count += 1
            row[b] = value
        return value

    def __len__(self) -> int:
        return len(self._left)

    def left_options(self, g: GameId) -> tuple[GameId, ...]:
        return self._left[g]

    def right_options(self, g: GameId) -> tuple[GameId, ...]:
        return self._right[g]

    # ------------------------------------------------------------------
    # ordering
    # ------------------------------------------------------------------

    def leq(self, a: GameId, b: GameId) -> bool:
        """Partial-order test a <= b."""
        if a == b:
            return True
        row = self._leq[a]
        hit = row.get(b)
        if hit is not None:
            return hit
        if self._leq[b].get(a):  # distinct canonical games are unequal values
            return False
        na = self._number[a]
        if na is not None:
            nb = self._number[b]
            if nb is not None:  # two numbers: see the module docstring
                return na <= nb
        pa = self._parts.get(a)
        if pa:
            pb = self._parts.get(b)
            if pb:
                for x, y in pa.items():
                    z = pb.get(x)
                    if z is not None:  # derived, so not stored: see the module docstring
                        hit = self._leq[y].get(z)
                        return self.leq(y, z) if hit is None else hit
        if not (self._all_small[a] and self._all_small[b]):  # stops: see the module docstring
            la, lb = self._left_stop[a], self._left_stop[b]
            if la is not None and lb is not None:
                if la > lb:
                    return False
                if la < lb and self._number[b] is not None:
                    return True
            ra, rb = self._right_stop[a], self._right_stop[b]
            if ra is not None and rb is not None:
                if ra > rb:
                    return False
                if ra < rb and na is not None:
                    return True
        # a <= b unless some br <= a or b <= some al; Right's witnesses first
        for br in self._right[b]:
            if self.leq(br, a):
                return self._leq_put(row, b, False)
        for al in self._left[a]:
            if self.leq(b, al):
                return self._leq_put(row, b, False)
        return self._leq_put(row, b, True)

    def compare(self, a: GameId, b: GameId) -> Comparison:
        if a == b:
            return Comparison.EQUAL
        if self.leq(a, b):
            return Comparison.LESS
        if self.leq(b, a):
            return Comparison.GREATER
        return Comparison.CONFUSED

    def outcome(self, g: GameId) -> Outcome:
        """Normal-play outcome class with alternating perfect play."""
        return _OUTCOME_VS_ZERO[self.compare(g, self.zero)]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def make_game(self, left_options: Iterable[GameId], right_options: Iterable[GameId]) -> GameId:
        """Intern the canonical form of the game with the given option sets."""
        # Left keeps its maximal options, Right its minimal ones; a bypass
        # keeps the value, so the other side stays undominated
        below = (self.leq, self._geq)
        sides = [self._undominated(left_options, below[0]),
                 self._undominated(right_options, below[1])]
        for _ in range(_CANON_ITER_LIMIT):
            for s in (0, 1):
                replaced = self._bypass(sides, s)
                if replaced is not None:
                    sides[s] = self._undominated(replaced, below[s])
                    break
            else:
                return self._intern(*sides)
        raise EngineError("canonicalization did not converge")

    def _geq(self, a: GameId, b: GameId) -> bool:
        return self.leq(b, a)

    def _undominated(self, opts: Iterable[GameId], below) -> tuple:
        """The distinct options no other dominates (below(x, y): y dominates
        x), in handle order.  Domination is transitive and distinct handles
        are distinct values, so each option meets only the antichain kept."""
        kept = []
        for x in sorted(set(opts)):
            for k in kept:
                if below(x, k):
                    break
            else:
                kept = [k for k in kept if not below(k, x)]
                kept.append(x)
        return tuple(kept)

    def _bypass(self, sides: list, s: int):
        """sides[s] with its first reversible option bypassed, or None.  A
        Left option x reverses through any Right response y <= G, G being
        {sides[0] | sides[1]}, and gives way to y's Left options; Right
        mirrors Left (s == 1)."""
        near, far = (self._right, self._left) if s else (self._left, self._right)
        own = sides[s]
        for i, x in enumerate(own):
            for y in far[x]:
                if self._beyond(y, sides, s):
                    return own[:i] + own[i + 1:] + near[y]
        return None

    def _beyond(self, y: GameId, sides: list, s: int) -> bool:
        """y <= G for s == 0, G <= y for s == 1, where G = {sides[0] | sides[1]}
        is not interned yet.  y <= G unless some Right option of G is <= y or
        some Left option of y is >= G; G <= y mirrors it."""
        for g in sides[1 - s]:
            if self.leq(y, g) if s else self.leq(g, y):
                return False
        for o in (self._right if s else self._left)[y]:
            if self._beyond(o, sides, 1 - s):
                return False
        return True

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def add(self, a: GameId, b: GameId) -> GameId:
        """Disjunctive sum."""
        if a > b:
            a, b = b, a
        if a == self.zero:
            return b
        key = (a, b)
        hit = self._sums.get(key)
        if hit is not None:
            return hit
        summands = tuple(sorted(self._summands.get(a, (a,)) + self._summands.get(b, (b,))))
        g = self._sums.get(summands)
        pairs = [(a, b)]
        if g is None:  # not built yet in any order or grouping
            lefts = [self.add(al, b) for al in self._left[a]]
            lefts += [self.add(a, bl) for bl in self._left[b]]
            rights = [self.add(ar, b) for ar in self._right[a]]
            rights += [self.add(a, br) for br in self._right[b]]
            g = self.make_game(lefts, rights)
            if g not in self._summands and g not in summands:  # see the module docstring
                self._memo_put(self._summands, g, summands)
            self._memo_put(self._sums, summands, g)
            if len(summands) > 2:  # each summand and the sum of the rest, if built
                pairs += [(x, self._sums.get(summands[:i] + summands[i + 1:]))
                          for i, x in enumerate(summands)]
        day = self.birthday(g)
        for x, y in pairs:  # both born before g: see the module docstring
            if y is not None and self.birthday(x) < day and self.birthday(y) < day:
                parts = self._parts.setdefault(g, {})
                if x not in parts:  # nor is y = g - x: pairs are written both ways
                    count = self._parts_count + (1 if x == y else 2)
                    if self.memo_cap is not None and count > self.memo_cap:
                        raise MemoCapExceeded(f"memo table cap of {self.memo_cap} entries exceeded")
                    self._parts_count = count  # the rows together are one table
                    parts[x], parts[y] = y, x  # in place: leq reads these rows but never calls add
        return self._memo_put(self._sums, key, g)

    def negate(self, g: GameId) -> GameId:
        """-g, built by options_first over Right's options, then Left's."""
        neg = self._neg
        hit = neg.get(g)
        if hit is not None:
            return hit

        def build(h: GameId) -> None:
            left = tuple(sorted(neg[r] for r in self._right[h]))
            right = tuple(sorted(neg[l] for l in self._left[h]))
            # negation of a canonical game is canonical, so intern directly
            m = self._intern(left, right)
            self._memo_put(neg, h, m)
            self._memo_put(neg, m, h)

        options_first(g, lambda h: self._right[h] + self._left[h], neg, build)
        return neg[g]

    def sub(self, a: GameId, b: GameId) -> GameId:
        return self.add(a, self.negate(b))

    # ------------------------------------------------------------------
    # structure predicates
    # ------------------------------------------------------------------

    def birthday(self, g: GameId) -> int:
        return self._birthday[g]

    def is_all_small(self, g: GameId) -> bool:
        """True when every subposition has both or neither player able to move."""
        return self._all_small[g]

    def largest_nimber_in(self, g: GameId) -> int:
        """The largest k such that *k is g or one of its subpositions."""
        return self._largest_nimber[g]

    # ------------------------------------------------------------------
    # named values
    # ------------------------------------------------------------------

    def number_value(self, g: GameId) -> Optional[Fraction]:
        """The dyadic rational g equals, or None when g is not a number."""
        return self._number[g]

    def integer_value(self, g: GameId) -> Optional[int]:
        fr = self.number_value(g)
        if fr is None or fr.denominator != 1:
            return None
        return fr.numerator

    def number_game(self, value) -> GameId:
        """Canonical game equal to the dyadic rational ``value``: n = {n-1|},
        -n = {|1-n} or m/2^k = {(m-1)/2^k | (m+1)/2^k}, from the numbers built."""
        hit = self._number_games.get(value)  # an int finds the equal Fraction key
        if hit is not None:
            return hit
        fr = Fraction(value)
        if fr.denominator & (fr.denominator - 1):
            raise ValueError(f"{value} is not a dyadic rational")
        built = self._number_games

        def sides(x: Fraction) -> tuple[tuple, tuple]:
            step = Fraction(1, x.denominator)
            return (((x - step,) if x.denominator > 1 or x > 0 else ()),
                    ((x + step,) if x.denominator > 1 or x < 0 else ()))

        def build(x: Fraction) -> None:
            g = self._intern(*(tuple(built[o] for o in side) for side in sides(x)))
            self._memo_put(built, x, g)

        options_first(fr, lambda x: sum(sides(x), ()), built, build)
        return built[fr]

    def nimber_order(self, g: GameId) -> Optional[int]:
        """k when g == *k (k == 0 meaning g == 0), else None."""
        return self._nimber[g]

    def nimber_game(self, order: int) -> GameId:
        """*k = {*0,...,*(k-1) | *0,...,*(k-1)} for k = order, each *j built
        before *k, so the options are in handle order."""
        built = self._nimber_games
        hit = built.get(order)
        if hit is not None:
            return hit
        if order < 0:
            raise ValueError("nimber order must be nonnegative")

        def build(k: int) -> None:
            self._memo_put(built, k, self._intern(*(tuple(built[j] for j in range(k)),) * 2))

        options_first(order, range, built, build)
        return built[order]

    def ups_game(self, count: int, plus_star: bool = False) -> GameId:
        """count copies of up (negative counts give downs), plus * if asked."""
        g = self.zero
        for _ in range(abs(count)):
            g = self.add(g, self.up if count > 0 else self.down)
        return self.add(g, self.star) if plus_star else g

    def _up_multiple_of(self, g: GameId) -> Optional[tuple[int, bool]]:
        """(n, s) when g is n.up, plus * if s, with n < 0 for downs; else None.

        For n >= 2, n.up = {0 | (n-1).up*} and n.up* = {0 | (n-1).up}, and
        downs mirror them, so g's chain of single options leads to up or up*
        (down or down*), flipping the star at each step."""
        for sign, ends, near, far in ((1, (self.up, self.up_star), self._left, self._right),
                                      (-1, (self.down, self.down_star), self._right, self._left)):
            h, count, flipped = g, 1, False
            while h not in ends and near[h] == (self.zero,) and len(far[h]) == 1:
                h, count, flipped = far[h][0], count + 1, not flipped
            if h in ends:
                return sign * count, (h == ends[1]) != flipped
        return None

    def name_value(self, g: GameId) -> ValueName:
        """Classify g from the facts the store found when it interned it."""
        if g not in self._names:
            self._check_length(self._text_length(g))
            self._fill(g, self._names,
                       lambda h, name: name or ValueName("other", text=self.canonical_text(h)))
        return self._names[g]

    def _short_name(self, g: GameId) -> Optional[ValueName]:
        """g's name as a number, nimber or up multiple, or None."""
        fr = self._number[g]
        if fr is not None:
            return ValueName("number", text=str(fr), number=fr)
        k = self._nimber[g]
        if k:
            return ValueName("nimber", text="*" if k == 1 else f"*{k}", nimber_order=k)
        um = self._up_multiple_of(g)
        if um is not None:
            return ValueName(
                "ups", text=_ups_text(um[0], um[1]), up_count=um[0], plus_star=um[1]
            )
        return None

    def _fill(self, g: GameId, memo: dict, value) -> None:
        """Put value(h, h's short name) in memo for g and each subgame its
        brace text spells out, by options_first."""
        options_first(g, lambda h: () if self._short_name(h) else self._left[h] + self._right[h],
                      memo, lambda h: self._memo_put(memo, h, value(h, self._short_name(h))))

    def render(self, g: GameId) -> str:
        return self.name_value(g).text

    def display_options(self, g: GameId) -> tuple[tuple[GameId, ...], tuple[GameId, ...]]:
        """g's options by birthday, then rendered text: unlike GameId order,
        this order does not depend on which games were interned first."""
        def key(o: GameId) -> tuple[int, str]:
            return (self.birthday(o), self.render(o))

        return tuple(sorted(self._left[g], key=key)), tuple(sorted(self._right[g], key=key))

    def _text_length(self, g: GameId) -> int:
        """len(self.render(g)), found without building any text."""
        self._fill(g, self._text_lengths,
                   lambda h, name: len(name.text) if name else self._braces_length(h))
        return self._text_lengths[g]

    def _braces_length(self, g: GameId) -> int:
        left, right = self._left[g], self._right[g]
        commas = max(len(left) - 1, 0) + max(len(right) - 1, 0)
        return 3 + commas + sum(map(self._text_length, left + right))

    def _check_length(self, length: int) -> None:
        # the text spells the shared option DAG out as a tree, so its length
        # can grow exponentially with the depth: check it before building it
        if length > _TEXT_LIMIT:
            raise TextTooLong(f"the value's text would be {length:,} characters, "
                              f"above the limit of {_TEXT_LIMIT:,}")

    def canonical_text(self, g: GameId) -> str:
        """Brace form of the canonical tree, with named subgames abbreviated."""
        self._check_length(self._braces_length(g))
        left, right = self.display_options(g)
        return "{%s|%s}" % (",".join(map(self.render, left)), ",".join(map(self.render, right)))
