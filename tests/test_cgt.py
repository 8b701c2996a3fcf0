"""Core game arithmetic: canonicalization, ordering, sums, naming."""

import functools
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rawgames as raw
import mdgame
from mdgame import AtomicCalculator, Comparison, GameStore, MemoCapExceeded, Outcome
from mdgame.cgt import options_first
from mdgame.families import path, wheel
from mdgame.graphs import connected_graphs
from mdgame.rules import Variant, make_context


@pytest.fixture(scope="module")
def st():
    return GameStore()


# ----------------------------------------------------------------------
# construction and canonical forms
# ----------------------------------------------------------------------

class TestMakeGame:
    def test_empty_is_zero(self, st):
        assert st.make_game([], []) == st.zero

    def test_star(self, st):
        assert st.make_game([st.zero], [st.zero]) == st.star

    def test_interning_is_stable(self, st):
        a = st.make_game([st.zero], [st.star])
        b = st.make_game([st.zero], [st.star])
        assert a == b == st.up

    def test_duplicate_options_collapse(self, st):
        assert st.make_game([st.zero, st.zero], [st.zero]) == st.star

    def test_dominated_option_removed(self, st):
        one = st.number_game(1)
        # Left prefers 1 over 0; {0,1|} == {1|} == 2
        assert st.make_game([st.zero, one], []) == st.number_game(2)

    def test_reversible_option_bypassed(self, st):
        # in {*|}, the option * reverses out through its response 0
        assert st.make_game([st.star], []) == st.zero

    def test_switch_is_not_simplified(self, st):
        one = st.number_game(1)
        g = st.make_game([one], [st.zero])
        assert st.left_options(g) == (one,)
        assert st.right_options(g) == (st.zero,)

    def test_integer_sandwich_reduces_to_zero(self, st):
        g = st.make_game([st.number_game(-1)], [st.number_game(2)])
        assert g == st.zero

    def test_idempotent_on_canonical_forms(self, st):
        for g in [st.zero, st.star, st.up, st.down, st.up_star, st.number_game("3/4")]:
            assert st.make_game(st.left_options(g), st.right_options(g)) == g

    def test_options_stay_sorted(self, st):
        g = st.make_game([st.star, st.zero], [st.zero])
        assert g == st.up_star
        assert st.left_options(g) == tuple(sorted(st.left_options(g)))


class TestUndominated:
    @staticmethod
    def double_loop(opts, below):
        """Every distinct option no other option dominates, by comparing all pairs."""
        opts = set(opts)
        return tuple(sorted(x for x in opts if not any(y != x and below(x, y) for y in opts)))

    def test_matches_a_double_loop_on_random_option_sets(self):
        ctx = make_context()
        st = ctx.store
        for n in range(2, 13):
            ctx.atomic.atomic_weight(ctx.engine.game_of(path(n), Variant.MUTUAL_FAILURES))
        for variant in Variant:
            for n in range(3, 7):
                ctx.engine.game_of(wheel(n), variant)
        for k in range(-8, 9):
            st.number_game(Fraction(k, 4))
        assert len(st) > 250
        rng = random.Random(17)
        widest = 0
        for _ in range(500):
            opts = [rng.randrange(len(st)) for _ in range(rng.randint(0, 12))]
            for below in (st.leq, lambda x, y: st.leq(y, x)):
                kept = st._undominated(opts, below)
                assert kept == self.double_loop(opts, below)
                widest = max(widest, len(kept))
        assert widest >= 3  # some sets keep incomparable options

    @pytest.mark.parametrize("left", [True, False])
    def test_a_chain_costs_at_most_two_comparisons_an_option(self, left):
        # a double loop over the 20 integers 0..19 makes 209 comparisons
        # for Left and 38 for Right
        st = GameStore()
        chain = [st.number_game(k) for k in range(20)]
        calls = []

        def below(x, y):
            calls.append((x, y))
            return st.leq(x, y) if left else st.leq(y, x)

        assert st._undominated(chain[::-1] + chain, below) == (chain[-1] if left else chain[0],)
        assert len(calls) <= 38


def test_day_two_universe_has_22_games():
    st = GameStore()
    day1 = {st.zero, st.star, st.number_game(1), st.number_game(-1)}
    subsets = [[]]
    for g in sorted(day1):
        subsets += [s + [g] for s in list(subsets)]
    seen = {st.make_game(L, R) for L in subsets for R in subsets}
    assert len(seen) == 22


# ----------------------------------------------------------------------
# ordering against the raw brute-force oracle
# ----------------------------------------------------------------------

class TestOrdering:
    def test_zero_leq_up(self, st):
        assert st.leq(st.zero, st.up)

    def test_zero_not_leq_star(self, st):
        assert not st.leq(st.zero, st.star)

    def test_star_leq_upstar(self, st):
        assert st.leq(st.star, st.up_star)
        assert raw.leq(raw.STAR, raw.UP_STAR)

    def test_compare_up_zero(self, st):
        assert st.compare(st.up, st.zero) is Comparison.GREATER

    def test_compare_star_star(self, st):
        assert st.compare(st.star, st.star) is Comparison.EQUAL

    def test_compare_up_star_confused(self, st):
        assert st.compare(st.up, st.star) is Comparison.CONFUSED
        assert not raw.leq(raw.UP, raw.STAR)
        assert not raw.leq(raw.STAR, raw.UP)

    def test_deep_numbers_compare_by_their_facts(self):
        # integers 3,000 deep, past the recursion limit: answered from the
        # number facts, interning no game and storing no comparison
        st = GameStore()
        a, b = st.number_game(2999), st.number_game(3000)
        half = st.number_game(Fraction(5999, 2))
        games = len(st)
        assert st.leq(a, b) and not st.leq(b, a)
        assert st.compare(a, half) is Comparison.LESS and st.compare(b, half) is Comparison.GREATER
        assert len(st) == games and st._leq_count == 0

    def test_day2_exhaustive_matches_raw(self):
        st = GameStore()
        day1_raw = [raw.ZERO, raw.STAR, raw.ONE, raw.NEG_ONE]
        subsets = [()]
        for g in day1_raw:
            subsets += [s + (g,) for s in list(subsets)]
        raws = [(L, R) for L in subsets for R in subsets]
        pairs = [(r, raw.to_store(st, r)) for r in raws]
        sample = pairs[::3]  # 86 games, ~7400 ordered pairs
        for ra, ga in sample:
            for rb, gb in sample:
                assert st.leq(ga, gb) == raw.leq(ra, rb)

    def test_random_trees_match_raw(self):
        st = GameStore()
        rng = random.Random(20240817)
        trees = [raw.random_raw(rng, 4) for _ in range(1000)]
        ids = [raw.to_store(st, t) for t in trees]
        for i in range(0, 1000, 2):
            a, b = trees[i], trees[i + 1]
            assert st.leq(ids[i], ids[i + 1]) == raw.leq(a, b)
            assert st.leq(ids[i + 1], ids[i]) == raw.leq(b, a)


# ----------------------------------------------------------------------
# sums and negation
# ----------------------------------------------------------------------

class TestArithmetic:
    def test_star_plus_star(self, st):
        assert st.add(st.star, st.star) == st.zero

    def test_upstar_plus_star(self, st):
        assert st.add(st.up_star, st.star) == st.up
        s = raw.add(raw.UP_STAR, raw.STAR)
        assert raw.eq(s, raw.UP)

    def test_negate_up(self, st):
        assert st.negate(st.up) == st.down

    def test_negate_is_involution(self, st):
        for g in [st.zero, st.star, st.up, st.number_game("1/2"), st.ups_game(3, True)]:
            assert st.negate(st.negate(g)) == g

    def test_number_addition_matches_fractions(self, st):
        vals = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 4)]
        for a in vals:
            for b in vals:
                assert st.add(st.number_game(a), st.number_game(b)) == st.number_game(a + b)

    def test_group_laws_random(self):
        st = GameStore()
        rng = random.Random(7)
        games = sorted({raw.to_store(st, raw.random_raw(rng, 3)) for _ in range(60)})
        zero = st.zero
        for i, a in enumerate(games):
            assert st.add(a, zero) == a
            assert st.add(a, st.negate(a)) == zero
            for b in games[i:i + 6]:
                assert st.add(a, b) == st.add(b, a)
        for a in games[:12]:
            for b in games[:12:2]:
                for c in games[:12:3]:
                    assert st.add(st.add(a, b), c) == st.add(a, st.add(b, c))

    def test_sum_idempotence_with_canonicalization(self):
        # value of a sum equals the sum of values, for raw uncanonicalized inputs
        st = GameStore()
        rng = random.Random(99)
        for _ in range(200):
            ra, rb = raw.random_raw(rng, 3), raw.random_raw(rng, 3)
            assert st.add(raw.to_store(st, ra), raw.to_store(st, rb)) == raw.to_store(
                st, raw.add(ra, rb)
            )


class TestMirror:
    """Identities of the theory on the domain's own values: {L | R} is
    -{-R | -L}, which runs both sides of the bypass, and G - G = 0."""

    @pytest.fixture(scope="class")
    def domain(self):
        ctx = make_context()
        for variant in Variant:
            for g in [wheel(n) for n in range(3, 7)] + [path(n) for n in range(2, 12)]:
                ctx.engine.game_of(g, variant)
        return ctx.store, len(ctx.store)

    def test_make_game_commutes_with_negation(self, domain):
        st, n = domain
        rng = random.Random(21)
        for _ in range(2000):
            left = rng.sample(range(n), rng.randint(0, 4))
            right = rng.sample(range(n), rng.randint(0, 4))
            mirrored = st.make_game([st.negate(r) for r in right], [st.negate(l) for l in left])
            assert st.make_game(left, right) == st.negate(mirrored)

    def test_each_value_minus_itself_is_zero(self, domain):
        st, n = domain
        assert n == 276
        for g in range(n):
            assert st.add(g, st.negate(g)) == st.zero


class TestReferenceOrder:
    """GameStore.leq against the defining recursion, tried Left first with
    its own memo, no cancellation and no number facts, on every ordered
    pair of a pool of the engine's values, asked in seeded random orders."""

    @pytest.fixture(scope="class")
    def pool(self):
        ctx = make_context()
        st = ctx.store
        base = [ctx.engine.game_of(wheel(n), v) for v in Variant for n in range(3, 7)]
        paths = [ctx.engine.game_of(path(n), Variant.MUTUAL_FAILURES) for n in range(2, 13)]
        base = sorted(set(base + paths + [ctx.atomic.atomic_weight(g).value for g in paths]))
        sums = [(i, j) for i in range(len(base)) for j in range(i, len(base))]
        rng = random.Random(0)  # and sums of 3 to 5 mf path values
        paths = [base.index(g) for g in paths]
        sums += [tuple(rng.choices(paths, k=rng.randint(3, 5))) for _ in range(30)]
        games = base + [functools.reduce(st.add, [base[i] for i in s]) for s in sums]
        memo = {}

        def leq(a, b):
            if (a, b) not in memo:
                memo[a, b] = (not any(leq(b, al) for al in st.left_options(a))
                              and not any(leq(br, a) for br in st.right_options(b)))
            return memo[a, b]

        expected = [[leq(a, b) for b in games] for a in games]
        return st, base, sums, expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_pair_on_a_fresh_store(self, pool, seed):
        src, base, sums, expected = pool
        st, ids = GameStore(), {}

        def copy(h):  # canonical already, so interned as it stands: no comparison
            ids[h] = st._intern(tuple(sorted(ids[o] for o in src.left_options(h))),
                                tuple(sorted(ids[o] for o in src.right_options(h))))

        for g in base:
            options_first(g, lambda h: src.left_options(h) + src.right_options(h), ids, copy)
        rng = random.Random(seed)
        games = [ids[g] for g in base]
        order = list(range(len(sums)))
        rng.shuffle(order)  # sums built in a seeded order fill the memo and the parts
        built = {k: functools.reduce(st.add, [games[i] for i in rng.sample(sums[k], len(sums[k]))])
                 for k in order}
        games += [built[k] for k in range(len(sums))]
        pairs = [(i, j) for i in range(len(games)) for j in range(len(games))]
        rng.shuffle(pairs)
        assert len(pairs) > 50_000 and 0 < sum(map(sum, expected)) < len(pairs) // 2
        for i, j in pairs:
            assert st.leq(games[i], games[j]) == expected[i][j]


# ----------------------------------------------------------------------
# cancellation: leq(x + y, x + z) is answered as leq(y, z)
# ----------------------------------------------------------------------

def summed_store(seed: int):
    """A store that ran seeded sums, and (raw tree, GameId) of every game summed.

    The sums include g + (-g), * + * and up + down, and many pairs share a
    summand, so leq on them goes through the recorded decompositions.
    """
    st = GameStore()
    rng = random.Random(seed)
    games = [(t, raw.to_store(st, t)) for t in (raw.random_raw(rng, 3) for _ in range(16))]
    games += [(raw.neg(t), st.negate(g)) for t, g in games]
    games += [(raw.STAR, st.star), (raw.UP, st.up), (raw.DOWN, st.down)]
    sums = [(raw.add(ra, rb), st.add(a, b))
            for i, (ra, a) in enumerate(games) for rb, b in games[i:] if rng.random() < 0.25]
    sums += [(raw.add(t, raw.neg(t)), st.add(g, st.negate(g))) for t, g in games[:16]]
    sums += [(raw.add(raw.STAR, raw.STAR), st.add(st.star, st.star)),
             (raw.add(raw.UP, raw.DOWN), st.add(st.up, st.down))]
    return st, games + sums


def mf_path_sums(seed: int):
    """A store that summed 3 to 5 mf path values, each sum in a seeded order."""
    ctx = make_context()
    values = [ctx.engine.game_of(path(n), Variant.MUTUAL_FAILURES) for n in range(2, 11)]
    rng = random.Random(seed)
    for _ in range(60):
        functools.reduce(ctx.store.add, rng.choices(values, k=rng.randint(3, 5)))
    return ctx.store


def check_decompositions(st):
    """Each recorded pair x, y of a game g is a sum x + y == g of games born before g."""
    assert st._parts
    for g, parts in list(st._parts.items()):  # a snapshot: add may record more pairs
        for x, y in list(parts.items()):
            assert st.add(x, y) == g
            assert parts[y] == x
            assert st.birthday(x) < st.birthday(g) and st.birthday(y) < st.birthday(g)


class TestCancellation:
    def test_decompositions_are_sums_born_earlier(self):
        st, _ = summed_store(61)
        check_decompositions(st)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_each_summand_of_a_sum_is_recorded_with_its_rest(self, seed):
        st = mf_path_sums(seed)
        check_decompositions(st)
        # and every summand of a sum, with the sum of the rest when that was
        # built first (earlier in _sums, which only grows), is recorded
        built = {m: i for i, m in enumerate(st._sums)}
        found = 0
        for m, i in built.items():
            g = st._sums[m]
            for k, x in enumerate(m):
                rest = m[:k] + m[k + 1:]
                if len(m) > 2 and built.get(rest, i) < i:
                    y = st._sums[rest]
                    if st.birthday(x) < st.birthday(g) and st.birthday(y) < st.birthday(g):
                        assert st._parts[g][x] == y
                        found += 1
        assert found > 100

    def test_answers_found_by_cancellation_are_not_stored(self):
        st, games = summed_store(63)
        derived = 0
        for _, a in games:
            for _, b in games:
                pa, pb = st._parts.get(a, {}), st._parts.get(b, {})
                if a != b and b not in st._leq[a] and not pa.keys().isdisjoint(pb):
                    st.leq(a, b)
                    assert b not in st._leq[a]
                    derived += 1
        assert derived > 100
        assert st._leq_count == sum(map(len, st._leq))

    def test_every_summed_pair_matches_raw(self):
        st, games = summed_store(65)
        shared = 0
        for ra, a in games:
            for rb, b in games:
                pa, pb = st._parts.get(a, {}), st._parts.get(b, {})
                shared += b not in st._leq[a] and not pa.keys().isdisjoint(pb)
                assert st.leq(a, b) == raw.leq(ra, rb)
        assert shared > 100  # pairs first answered through a shared summand

    def test_adds_do_not_change_any_answer(self):
        st, _ = summed_store(62)
        fresh = GameStore()
        ids = {}
        for g in range(len(st)):  # options have smaller handles than the game
            ids[g] = fresh.make_game([ids[o] for o in st.left_options(g)],
                                     [ids[o] for o in st.right_options(g)])
        assert not fresh._parts
        for a in range(len(st)):
            for b in range(len(st)):
                assert st.leq(a, b) == fresh.leq(ids[a], ids[b])


# ----------------------------------------------------------------------
# the sum memo: one sum per multiset of summands
# ----------------------------------------------------------------------

def bracketings(st, ids):
    """The sum of ids in this order, once per way of bracketing it."""
    if len(ids) == 1:
        return [ids[0]]
    return [st.add(a, b) for i in range(1, len(ids))
            for a in bracketings(st, ids[:i]) for b in bracketings(st, ids[i:])]


def every_order_and_grouping(st, ids):
    return [g for order in itertools.permutations(ids) for g in bracketings(st, list(order))]


def raw_of(st, g):
    """The canonical tree of g as a raw game."""
    return (tuple(raw_of(st, o) for o in st.left_options(g)),
            tuple(raw_of(st, o) for o in st.right_options(g)))


class TestSumMemo:
    @pytest.mark.parametrize("seed", [1, 3, 4, 10])
    def test_every_order_and_grouping_gives_one_game(self, seed):
        st = GameStore()
        rng = random.Random(seed)
        pool = [raw.random_raw(rng, 2) for _ in range(4)]
        checked = set()
        for _ in range(30):
            # drawn with replacement, so summands repeat
            picks = sorted(rng.randrange(len(pool)) for _ in range(rng.randint(2, 3)))
            trees = [pool[i] for i in picks]
            sums = set(every_order_and_grouping(st, [raw.to_store(st, t) for t in trees]))
            assert len(sums) == 1
            if tuple(picks) not in checked:  # the raw sum is slow to compare
                checked.add(tuple(picks))
                assert raw.eq(raw_of(st, sums.pop()), functools.reduce(raw.add, trees))

    def test_repeated_summands_are_kept_apart(self):
        st = GameStore()
        up_star = st.add(st.up, st.star)  # built first, so a memo that merged repeats would find it
        assert st.add(st.star, st.star) == st.zero
        assert st.add(up_star, st.star) == st.up
        two_up_star = st.add(st.add(st.up, st.up), st.star)
        assert two_up_star != up_star
        assert raw.eq(raw_of(st, two_up_star), raw.add(raw.add(raw.UP, raw.UP), raw.STAR))

    def test_regrouped_sum_is_not_rebuilt(self, monkeypatch):
        st = GameStore()
        x, y = st.nimber_game(2), st.up
        xyy = st.add(st.add(x, y), y)
        assert raw.eq(raw_of(st, xyy), raw.add(raw.add(raw_of(st, x), raw.UP), raw.UP))
        yy = st.add(y, y)
        built = []
        monkeypatch.setattr(st, "make_game", lambda left, right: built.append((left, right)))
        assert st.add(x, yy) == xyy
        assert not built


# ----------------------------------------------------------------------
# outcomes
# ----------------------------------------------------------------------

class TestOutcome:
    def test_fixed_points(self, st):
        assert st.outcome(st.zero) is Outcome.SECOND_WINS
        assert st.outcome(st.star) is Outcome.FIRST_WINS
        assert st.outcome(st.up) is Outcome.LEFT_WINS
        assert st.outcome(st.down) is Outcome.RIGHT_WINS
        assert st.outcome(st.number_game(-1)) is Outcome.RIGHT_WINS

    def test_matches_raw_outcomes(self):
        st = GameStore()
        rng = random.Random(5)
        for _ in range(300):
            t = raw.random_raw(rng, 3)
            assert st.outcome(raw.to_store(st, t)).value == raw.outcome(t)


# ----------------------------------------------------------------------
# naming
# ----------------------------------------------------------------------

class TestNames:
    def test_numbers(self, st):
        assert st.name_value(st.zero).kind == "number"
        half = st.make_game([st.zero], [st.number_game(1)])
        name = st.name_value(half)
        assert name.kind == "number"
        assert name.number == Fraction(1, 2)
        assert name.text == "1/2"
        assert st.render(st.number_game(Fraction(-5, 8))) == "-5/8"

    def test_switch_is_not_a_number(self, st):
        # {1|0} is confused with 1/2, not equal to it
        g = st.make_game([st.number_game(1)], [st.zero])
        assert st.name_value(g).kind == "other"
        assert st.render(g) == "{1|0}"
        assert st.compare(g, st.number_game("1/2")) is Comparison.CONFUSED
        assert st.outcome(g) is Outcome.FIRST_WINS

    def test_nimbers(self, st):
        assert st.name_value(st.star).kind == "nimber"
        assert st.render(st.star) == "*"
        assert st.render(st.nimber_game(2)) == "*2"
        g = st.make_game([st.zero], [st.zero])
        assert st.name_value(g).nimber_order == 1

    def test_up_multiples(self, st):
        assert st.render(st.up) == "↑"
        assert st.render(st.down_star) == "↓*"
        g = st.make_game([st.zero, st.star], [st.zero])
        name = st.name_value(g)
        assert name.kind == "ups"
        assert (name.up_count, name.plus_star) == (1, True)
        # reconstruction: {0,*|0} really is up + star
        assert raw.eq(raw.UP_STAR, raw.add(raw.UP, raw.STAR))
        assert st.render(st.ups_game(-3)) == "3·↓"

    def test_named_values_reconstruct(self, st):
        rng = random.Random(31)
        for _ in range(400):
            g = raw.to_store(st, raw.random_raw(rng, 3))
            name = st.name_value(g)
            if name.kind == "number":
                assert st.number_game(name.number) == g
            elif name.kind == "nimber":
                assert st.nimber_game(name.nimber_order) == g
            elif name.kind == "ups":
                assert st.ups_game(name.up_count, name.plus_star) == g

    def test_other_renders_nested_braces(self, st):
        g = st.make_game([st.number_game(2)], [st.star])
        assert st.render(g) == "{2|*}"

    def test_text_lengths_are_known_before_any_text(self):
        st, _ = summed_store(66)
        games = range(len(st))
        lengths = [(st._text_length(g), st._braces_length(g)) for g in games]
        assert not st._names  # no text was built to find them
        texts = [(st.render(g), st.canonical_text(g)) for g in games]
        assert len(st) == len(games)  # naming interned no game
        assert lengths == [(len(a), len(b)) for a, b in texts]
        assert max(n for n, _ in lengths) > 20  # nested braces, not just names

    def test_rendering_builds_no_game(self):
        summed, _ = summed_store(66)
        ctx = make_context()
        for n in range(3, 8):
            ctx.engine.game_of(wheel(n), Variant.CLASSIC)
        for st in (summed, ctx.store):
            size = len(st)
            kinds = {st.name_value(g).kind for g in range(size)}
            for g in range(size):
                st.render(g), st.canonical_text(g)
            assert len(st) == size
            assert "other" in kinds  # brace texts were spelled out

    def test_up_multiples_are_named_by_their_chain(self):
        st = GameStore()
        for count in range(-40, 41):
            for plus_star in (False, True):
                if count:
                    name = st.name_value(st.ups_game(count, plus_star))
                    assert (name.kind, name.up_count, name.plus_star) == (
                        "ups", count, plus_star)

    def test_a_deep_game_with_no_short_name_renders_without_recursion(self):
        st = GameStore()
        g = st.zero
        for _ in range(3000):
            g = st.make_game([g], [st.star])  # {0|*} is up; then {g'|*}
        size = len(st)
        text = "{" * 2999 + "↑" + "|*}" * 2999
        assert st.render(g) == st.canonical_text(g) == text and len(text) == 11_997
        assert st.name_value(g).kind == "other" and st._text_length(g) == len(text)
        assert len(st) == size


class TestAllSmall:
    def test_examples(self, st):
        assert st.is_all_small(st.star)
        assert st.is_all_small(st.up_star)
        assert not st.is_all_small(st.number_game(1))
        assert not st.is_all_small(st.make_game([st.number_game(1)], [st.zero]))

    def test_sum_of_all_small_is_all_small(self, st):
        g = st.add(st.ups_game(2, True), st.nimber_game(3))
        assert st.is_all_small(g)


# ----------------------------------------------------------------------
# resource limits
# ----------------------------------------------------------------------

def test_memo_cap_fails_loudly():
    st = GameStore(memo_cap=4)
    with pytest.raises(MemoCapExceeded):
        # the tables of numbers and nimbers built outgrow the cap
        for n in range(10):
            st.number_game(n)
            st.nimber_game(n)


def test_import_leaves_recursion_limit_alone():
    # a library must not change process-wide interpreter settings
    src = Path(mdgame.__file__).parent.parent
    code = ("import sys; before = sys.getrecursionlimit(); import mdgame; "
            "print(before, sys.getrecursionlimit())")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True, timeout=60).stdout.split()
    assert out[0] == out[1]


def test_memo_cap_bounds_sums():
    cap = 60
    st = GameStore(memo_cap=cap)
    rng = random.Random(3)
    with pytest.raises(MemoCapExceeded):
        total = st.zero
        for _ in range(200):
            total = st.add(total, raw.to_store(st, raw.random_raw(rng, 3)))
    tables = [t for t in vars(st).values() if isinstance(t, dict)]
    assert st._parts and all(len(t) <= cap for t in tables)
    assert sum(map(len, st._leq)) <= cap  # the comparison rows are one table


def test_memo_cap_counts_sum_pairs_across_rows():
    # each sum's recorded pairs are a row of _parts; the rows together are
    # one table under the cap, as the comparison rows are
    cap = 1000
    st = GameStore(memo_cap=cap)
    rng = random.Random(3)
    with pytest.raises(MemoCapExceeded):
        total = st.zero
        for _ in range(1000):
            total = st.add(total, raw.to_store(st, raw.random_raw(rng, 3)))
    assert sum(map(len, st._parts.values())) <= cap  # 1,350 when rows were not counted
    assert st._parts_count == sum(map(len, st._parts.values()))  # the count is exact


def test_memo_cap_counts_comparisons_across_rows():
    cap = 40

    def ups(st):
        # n.up = {0|(n-1).up*} and n.up* = {0|(n-1).up}, no memo entry; not
        # integers, which leq compares by their number facts, storing nothing
        games = [st.up, st.up_star]
        for _ in range(6):
            up, up_star = games[-2:]
            games += [st._intern((st.zero,), (up_star,)), st._intern((st.zero,), (up,))]
        return games

    free = GameStore()
    games = ups(free)
    pairs = [(a, b) for a in games for b in games]
    grown = []
    for a, b in pairs:
        free.leq(a, b)
        grown.append(sum(map(len, free._leq)))
    stop = next(i for i, n in enumerate(grown) if n > cap)
    st = GameStore(memo_cap=cap)
    assert ups(st) == games
    for a, b in pairs[:stop]:
        assert st.leq(a, b) == free.leq(a, b)
    assert st._leq_count == sum(map(len, st._leq))  # the count is exact
    with pytest.raises(MemoCapExceeded):
        st.leq(*pairs[stop])
    rows = [len(r) for r in st._leq]
    assert sum(rows) == cap and max(rows) < cap // 2  # no single row is full
    assert st._leq_count == cap  # the refused pair is not counted
    for a, b in pairs[:stop]:  # memoized pairs are answered, not counted again
        assert st.leq(a, b) == free.leq(a, b)
    for row in st._leq:
        for b, value in list(row.items()):
            st._leq_put(row, b, value)  # a pair written again
    assert st._leq_count == sum(map(len, st._leq)) == cap


def test_comparisons_found_by_cancellation_stay_out_of_the_memo():
    # a count, not a time: mf paths 2..40 with atomic weights store 43,507
    # comparisons when answers found through a shared summand are stored too
    ctx = make_context(max_component=40)
    for n in range(2, 41):
        ctx.atomic.atomic_weight(ctx.engine.game_of(path(n), Variant.MUTUAL_FAILURES))
    st = ctx.store
    assert st._leq_count == sum(map(len, st._leq)) <= 25_000


@pytest.mark.parametrize("variant, most",
                         [(Variant.CLASSIC, 15_000), (Variant.FORBIDDEN_LEAF, 10_000)])
def test_comparisons_refuted_by_stops_stay_out_of_the_memo(variant, most):
    # a count, not a time: wheels 3..8 in one context store 22,652 (classic)
    # and 14,265 (fl) comparisons when hot pairs the stops refute are searched
    ctx = make_context()
    for n in range(3, 9):
        ctx.engine.game_of(wheel(n), variant)
    st = ctx.store
    assert st._leq_count == sum(map(len, st._leq)) <= most


def test_birthday():
    st = GameStore()
    assert st.birthday(st.zero) == 0
    assert st.birthday(st.star) == 1
    assert st.birthday(st.up_star) == 2
    assert st.birthday(st.number_game(3)) == 3


@pytest.mark.parametrize("value", [Fraction(1, 3), "2/6"])
def test_number_game_rejects_non_dyadic_values(value):
    with pytest.raises(ValueError):
        GameStore().number_game(value)


# ----------------------------------------------------------------------
# numbers and nimbers, interned as their known canonical forms
# ----------------------------------------------------------------------

def reference_number(st, x, memo):
    """x's game built by make_game from its canonical options, by recursion."""
    if x not in memo:
        step = Fraction(1, x.denominator)
        left = [reference_number(st, x - step, memo)] if x.denominator > 1 or x > 0 else []
        right = [reference_number(st, x + step, memo)] if x.denominator > 1 or x < 0 else []
        memo[x] = st.make_game(left, right)
    return memo[x]


def reference_nimber(st, k, memo):
    if k not in memo:
        opts = [reference_nimber(st, j, memo) for j in range(k)]
        memo[k] = st.make_game(opts, opts)
    return memo[k]


NUMBERS = [Fraction(j, 1 << k) for k in range(5) for j in range(-6 << k, (6 << k) + 1)]


class TestKnownCanonicalForms:
    @pytest.mark.parametrize("seed", range(4))
    def test_match_make_game_in_seeded_orders(self, seed):
        rng = random.Random(seed)
        asks = [("number", x) for x in NUMBERS] + [("nimber", k) for k in range(13)]
        rng.shuffle(asks)
        st, memos = GameStore(), {"number": {}, "nimber": {}}

        def reference(kind, x):
            build = reference_number if kind == "number" else reference_nimber
            return build(st, x, memos[kind])

        if seed % 2:  # the references first: the builders must find their games
            for ask in asks:
                reference(*ask)
        for kind, x in asks:
            g = st.number_game(x) if kind == "number" else st.nimber_game(x)
            assert g == reference(kind, x)
            facts = (st.number_value(g), st.nimber_order(g))
            assert facts == ((x, 0 if x == 0 else None) if kind == "number"
                             else (0 if x == 0 else None, x))

    def test_build_with_no_comparison(self, monkeypatch):
        def refuse(self, left, right):
            raise AssertionError("make_game called")

        monkeypatch.setattr(GameStore, "make_game", refuse)
        st = GameStore()
        for x in NUMBERS:
            assert st.number_value(st.number_game(x)) == x
        assert st.nimber_order(st.nimber_game(60)) == 60
        assert st._leq_count == 0

    def test_deep_forms_need_no_recursion(self):
        st = GameStore()
        x = Fraction(1, 2 ** 1500)
        g = st.number_game(x)
        assert st.number_value(g) == x and st.birthday(g) == 1501
        assert st.number_value(st.number_game(-5000)) == -5000
        g = st.nimber_game(400)
        assert st.nimber_order(g) == 400 and st._leq_count == 0


# ----------------------------------------------------------------------
# structural facts, against their recursive definitions
# ----------------------------------------------------------------------

def simplest_between(lo, hi):
    """The simplest number strictly between lo and hi (requires lo < hi):
    0 if it lies between them, else the integer nearest 0 between them, else
    the least k/2^j between them with the least j."""
    if lo < 0 < hi:
        return Fraction(0)
    n = math.floor(lo) + 1  # least integer > lo
    if n < hi:
        return Fraction(n) if n > 0 else Fraction(math.ceil(hi) - 1)
    j = 1
    while Fraction(math.floor(lo * (1 << j)) + 1, 1 << j) >= hi:
        j += 1
    return Fraction(math.floor(lo * (1 << j)) + 1, 1 << j)


def recursive_facts(st):
    """Birthday, all-small, nimber order, number value and largest nimber
    inside, each by recursion over options with its own memo."""
    lefts, rights = st.left_options, st.right_options

    @functools.cache
    def birthday(g):
        return 1 + max((birthday(o) for o in lefts(g) + rights(g)), default=-1)

    @functools.cache
    def all_small(g):
        left, right = lefts(g), rights(g)
        return bool(left) == bool(right) and all(map(all_small, left + right))

    @functools.cache
    def nimber(g):
        left, right = lefts(g), rights(g)
        if not left and not right:
            return 0
        if left != right:
            return None
        orders = set()
        for o in left:
            k = nimber(o)
            if k is None:
                return None
            orders.add(k)
        return len(left) if orders == set(range(len(left))) else None

    @functools.cache
    def number(g):
        left, right = lefts(g), rights(g)
        if not left and not right:
            return Fraction(0)
        if len(left) > 1 or len(right) > 1:
            return None
        if not right:
            lv = number(left[0])
            return lv + 1 if lv is not None and lv.denominator == 1 and lv >= 0 else None
        if not left:
            rv = number(right[0])
            return rv - 1 if rv is not None and rv.denominator == 1 and rv <= 0 else None
        lv, rv = number(left[0]), number(right[0])
        if lv is None or rv is None or not lv < rv:
            return None
        return simplest_between(lv, rv)

    @functools.cache
    def largest_nimber(g):
        return max([nimber(g) or 0] + [largest_nimber(o) for o in lefts(g) + rights(g)])

    return birthday, all_small, nimber, number, largest_nimber


class TestStructuralFacts:
    def test_facts_match_their_recursive_definitions(self):
        ctx = make_context(max_component=14)
        st, mf = ctx.store, Variant.MUTUAL_FAILURES
        for n in range(2, 15):
            ctx.atomic.atomic_weight(ctx.engine.game_of(path(n), mf))
        for n in range(3, 7):
            ctx.engine.game_of(wheel(n), Variant.CLASSIC)
        for k in range(6):
            st.nimber_game(k)
        for k in range(-24, 25):
            st.number_game(Fraction(k, 8))
        for count in range(-3, 4):
            for plus_star in (False, True):
                st.ups_game(count, plus_star)
        facts = (st.birthday, st.is_all_small, st.nimber_order, st.number_value,
                 st.largest_nimber_in)
        assert len(st) > 150
        for g in range(len(st)):
            assert [f(g) for f in facts] == [f(g) for f in recursive_facts(st)], g
        assert {st.nimber_order(g) for g in range(len(st))} >= set(range(6))
        assert max(map(st.largest_nimber_in, range(len(st)))) == 5

    def test_facts_of_a_deep_chain_need_no_recursion(self):
        st = GameStore()
        g = st.zero
        for _ in range(5000):
            g = st.make_game([g], [])
        assert st.birthday(g) == st.number_value(g) == 5000
        assert st.nimber_order(g) is None and st.is_all_small(g) is False
        assert AtomicCalculator(st).surrogate_order(g) == 2

    def test_a_deep_chain_renders_and_negates_without_recursion(self):
        st = GameStore()
        g = st.zero
        for _ in range(5000):
            g = st.make_game([g], [])
        assert st.render(g) == "5000"
        neg = st.negate(g)
        assert st.number_value(neg) == -5000 and st.render(neg) == "-5000"


# ----------------------------------------------------------------------
# stops, against their recursive definition
# ----------------------------------------------------------------------

def reference_stops(st):
    """Left and Right stops as Fractions, by recursion over options: a
    number is its own stops, else L(G) = max R(Gᴸ) and R(G) = min L(Gᴿ)."""
    number = recursive_facts(st)[3]

    @functools.cache
    def stops(g):
        x = number(g)
        if x is not None:
            return x, x
        return (max(stops(o)[1] for o in st.left_options(g)),
                min(stops(o)[0] for o in st.right_options(g)))

    return stops


def stop_facts(st, g):
    return st._left_stop[g], st._right_stop[g]


class TestStops:
    @pytest.fixture(scope="class")
    def pool(self):
        ctx = make_context()
        st = ctx.store
        games = [st.number_game(x) for x in NUMBERS] + [st.nimber_game(k) for k in range(9)]
        games += [st.up, st.up_star]
        reps = connected_graphs(6)
        values = [ctx.engine.game_of(g, v) for v in Variant for n in sorted(reps) for g in reps[n]]
        rng = random.Random(5)
        sums = [functools.reduce(st.add, rng.sample(values, rng.randint(2, 3))) for _ in range(60)]
        return st, games + values + sums

    def test_facts_match_the_recursion(self, pool):
        st, _ = pool
        stops = reference_stops(st)
        hot = 0
        for g in range(len(st)):  # every game the pool built, subpositions too
            assert stop_facts(st, g) == stops(g), g
            hot += stops(g)[0] > stops(g)[1]
        assert hot > 100

    def test_a_number_shifts_both_stops(self, pool):
        st, games = pool
        for g in games[::7]:
            for x in (Fraction(-3, 2), Fraction(1, 4), Fraction(2)):
                shifted = st.add(g, st.number_game(x))
                assert stop_facts(st, shifted) == tuple(s + x for s in stop_facts(st, g))

    def test_inexact_floats_leave_no_stop(self):
        # the integer 2**60 + 1 would be a chain 2**60 deep: 1 + 2**-60 is 61 deep
        st = GameStore()
        wide = st.number_game(Fraction(2 ** 60 + 1, 2 ** 60))  # a 61-bit numerator
        tiny = st.number_game(Fraction(1, 2 ** 1100))  # below the floats' normal range
        assert stop_facts(st, wide) == stop_facts(st, tiny) == (None, None)
        assert stop_facts(st, st.number_game(Fraction(1, 2 ** 1000))) == (2.0 ** -1000,) * 2
        x, y = Fraction(2 ** 53 - 1, 2 ** 55), Fraction(2 ** 54 - 1, 2 ** 56)
        assert stop_facts(st, st.number_game(x)) == (x, x)  # 53 bits: exact
        assert stop_facts(st, st.number_game(y)) == (None, None)  # 54 bits would round
        hot = st.make_game([wide], [st.zero])
        assert stop_facts(st, hot) == (None, 0.0)
        assert stop_facts(st, st.make_game([st.number_game(2)], [hot])) == (2.0, None)
        games = [wide, st.number_game(y), hot, st.negate(hot), st.zero, st.number_game(1),
                 st.number_game(2), st.make_game([st.number_game(2)], [hot]),
                 st.make_game([wide], [st.number_game(x)])]
        memo = {}

        def leq(a, b):  # the defining recursion, as TestReferenceOrder's
            if (a, b) not in memo:
                memo[a, b] = (not any(leq(b, al) for al in st.left_options(a))
                              and not any(leq(br, a) for br in st.right_options(b)))
            return memo[a, b]

        for a in games:
            for b in games:
                assert st.leq(a, b) == leq(a, b)

    def test_refuted_pairs_stay_out_of_the_memo(self, pool):
        st, games = pool
        refuted = 0
        for a in games[::3]:
            for b in games[::5]:
                (la, ra), (lb, rb) = stop_facts(st, a), stop_facts(st, b)
                if (a != b and b not in st._leq[a] and a not in st._leq[b]
                        and not (st.is_all_small(a) and st.is_all_small(b))
                        and not st._parts.get(a)
                        and (la > lb or ra > rb)):
                    assert not st.leq(a, b)
                    assert b not in st._leq[a]
                    refuted += 1
        assert refuted > 100
        assert st._leq_count == sum(map(len, st._leq))
