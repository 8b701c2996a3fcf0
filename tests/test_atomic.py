"""Atomic weights and remote-star comparisons."""

import random
from fractions import Fraction

import pytest

from mdgame import (
    AtomicCalculator,
    AtomicWeight,
    Comparison,
    MemoCapExceeded,
    NotAllSmall,
    NotInteger,
    Outcome,
    make_context,
    two_ahead_bound,
)
from mdgame import atomic
from mdgame.families import path
from mdgame.rules import Variant

MF = Variant.MUTUAL_FAILURES


@pytest.fixture(scope="module")
def big_ctx():
    """Context wide enough for path positions up to n = 20."""
    return make_context(max_component=20)


def mf_value(ctx, n):
    return ctx.engine.game_of(path(n), MF)


# ----------------------------------------------------------------------
# remote star
# ----------------------------------------------------------------------

class TestRemoteStar:
    def test_star_is_confused(self, ctx):
        assert ctx.atomic.remote_star_order(ctx.store.star) is Comparison.CONFUSED

    def test_mf_p6_exceeds_far_star(self, ctx):
        assert ctx.atomic.remote_star_order(mf_value(ctx, 6)) is Comparison.GREATER

    def test_down_is_less(self, ctx):
        assert ctx.atomic.remote_star_order(ctx.store.down) is Comparison.LESS

    def test_up_is_greater(self, ctx):
        assert ctx.atomic.remote_star_order(ctx.store.up) is Comparison.GREATER

    def test_surrogate_order_tracks_content(self, ctx):
        at = ctx.atomic
        st = ctx.store
        assert at.surrogate_order(st.zero) == 2
        assert at.surrogate_order(st.star) == 3
        assert at.surrogate_order(st.nimber_game(2)) == 4

    def test_rejects_non_all_small(self, ctx):
        with pytest.raises(NotAllSmall):
            ctx.atomic.remote_star_order(ctx.store.number_game(1))


# ----------------------------------------------------------------------
# atomic weight
# ----------------------------------------------------------------------

class TestAtomicWeight:
    def test_zero(self, ctx):
        aw = ctx.atomic.atomic_weight(ctx.store.zero)
        assert (aw.is_integer, aw.integer) == (True, 0)

    def test_named_infinitesimals(self, ctx):
        st = ctx.store
        at = ctx.atomic
        assert at.atomic_weight(st.up).integer == 1
        assert at.atomic_weight(st.down).integer == -1
        assert at.atomic_weight(st.star).integer == 0
        assert at.atomic_weight(st.nimber_game(2)).integer == 0
        assert at.atomic_weight(st.ups_game(3)).integer == 3
        assert at.atomic_weight(st.ups_game(2, plus_star=True)).integer == 2

    def test_mf_p5(self, ctx):
        g = mf_value(ctx, 5)
        assert g == ctx.store.ups_game(1, plus_star=True)
        assert ctx.atomic.atomic_weight(g).integer == 1

    def test_mf_p6_integer_exception(self, ctx):
        # bracket {-2,-1|2} collapses to the integer 0; the exception picks
        # y = 1 because P6 exceeds the far star (and x = 0 on the mirror)
        g = mf_value(ctx, 6)
        assert ctx.atomic.atomic_weight(g).integer == 1
        assert ctx.atomic.atomic_weight(ctx.store.negate(g)).integer == -1

    def test_rejects_non_all_small(self, ctx):
        with pytest.raises(NotAllSmall):
            ctx.atomic.atomic_weight(ctx.store.number_game("1/2"))

    def test_table_one(self, ctx):
        want = [0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
        got = [ctx.atomic.atomic_weight(mf_value(ctx, n)).integer
               for n in range(2, 13)]
        assert got == want

    def test_memo_cap_bounds_its_tables(self):
        ctx = make_context()
        g = mf_value(ctx, 12)  # its weight fills each table with 6 to 11 entries
        ctx.atomic.atomic_weight(g)  # so the store needs no new entries below
        cap = 5
        ctx.store.memo_cap = cap
        fresh = AtomicCalculator(ctx.store)
        with pytest.raises(MemoCapExceeded):
            fresh.atomic_weight(g)
        tables = [t for t in vars(fresh).values() if isinstance(t, dict)]
        assert len(tables) == 2 and all(len(t) <= cap for t in tables)


class TestIntegerExceptionBounds:
    def test_number_weights_match_the_walk(self, ctx, monkeypatch):
        # with number weights only the bounds come by arithmetic, not _walk;
        # the walk, over the passing tests the calculator used to walk, must
        # find the same bounds from any base
        st, walk = ctx.store, atomic._walk
        rng = random.Random(29)

        def weights():
            return [st.number_game(Fraction(rng.randint(-24, 24), 1 << rng.randint(0, 3)))
                    for _ in range(rng.randint(1, 4))]

        def refuse(*args):
            raise AssertionError("_walk called on number weights")

        for _ in range(300):
            lefts, rights, base = weights(), weights(), rng.randint(-8, 8)
            expected = (walk(lambda x: all(not st.leq(st.number_game(x), v) for v in lefts),
                             base, -1),
                        walk(lambda y: all(not st.leq(w, st.number_game(y)) for w in rights),
                             base, 1))
            with monkeypatch.context() as m:
                m.setattr(atomic, "_walk", refuse)
                assert ctx.atomic._integer_exception_bounds(lefts, rights, base) == expected


class TestTwoAhead:
    def test_bound_values(self, ctx):
        st = ctx.store
        def aw(k):
            return AtomicWeight(st.number_game(k), True, k)
        assert two_ahead_bound(aw(2)) is Outcome.LEFT_WINS
        assert two_ahead_bound(aw(-3)) is Outcome.RIGHT_WINS
        assert two_ahead_bound(aw(1)) is None
        assert two_ahead_bound(aw(0)) is None

    def test_non_integer_rejected(self, ctx):
        with pytest.raises(NotInteger):
            two_ahead_bound(AtomicWeight(ctx.store.star, False, None))

    def test_consistent_with_outcomes(self, big_ctx):
        st = big_ctx.store
        for n in range(2, 17):
            g = big_ctx.engine.game_of(path(n), MF)
            for cand in (g, st.negate(g)):
                bound = two_ahead_bound(big_ctx.atomic.atomic_weight(cand))
                if bound is not None:
                    assert st.outcome(cand) is bound


# ----------------------------------------------------------------------
# property suites
# ----------------------------------------------------------------------

class TestProperties:
    def test_additivity_on_random_path_sums(self, ctx):
        rng = random.Random(23)
        st = ctx.store
        values = [mf_value(ctx, n) for n in range(2, 13)]

        def random_sum():
            total = st.zero
            for _ in range(rng.randrange(1, 4)):
                total = st.add(total, rng.choice(values))
            return total

        for _ in range(200):
            g, h = random_sum(), random_sum()
            aw_g = ctx.atomic.atomic_weight(g)
            aw_h = ctx.atomic.atomic_weight(h)
            aw_sum = ctx.atomic.atomic_weight(st.add(g, h))
            assert aw_g.is_integer and aw_h.is_integer and aw_sum.is_integer
            assert aw_sum.integer == aw_g.integer + aw_h.integer

    def test_negation_flips_weight(self, ctx):
        st = ctx.store
        for n in range(2, 13):
            g = mf_value(ctx, n)
            a = ctx.atomic.atomic_weight(g)
            b = ctx.atomic.atomic_weight(st.negate(g))
            assert b.value == st.negate(a.value)

    def test_far_star_theorem_on_paths(self, big_ctx):
        # g + *N > 0 exactly when AW(g) >= 1, stable across N and N+1
        st = big_ctx.store
        for n in range(2, 21):
            g = big_ctx.engine.game_of(path(n), MF)
            aw = big_ctx.atomic.atomic_weight(g)
            order = big_ctx.atomic.surrogate_order(g)
            verdicts = {
                st.compare(st.add(g, st.nimber_game(k)), st.zero) is Comparison.GREATER
                for k in (order, order + 1)
            }
            assert len(verdicts) == 1
            assert verdicts.pop() == (aw.is_integer and aw.integer >= 1)
