"""Tests for shared utilities."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import ChangeFeed, as_generator, double_factorial_odd


class TestAsGenerator:
    def test_int_seed_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.array_equal(a, b)

    def test_existing_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert as_generator(rng) is rng

    def test_none_gives_generator(self):
        rng = as_generator(None)
        assert isinstance(rng, np.random.Generator)

    def test_threading_a_generator_advances_state(self):
        rng = np.random.default_rng(1)
        first = as_generator(rng).random()
        second = as_generator(rng).random()
        assert first != second


class TestDoubleFactorial:
    @pytest.mark.parametrize(
        "k,expected", [(0, 1), (1, 1), (2, 1), (3, 3), (4, 15), (5, 105), (6, 945)]
    )
    def test_known_values(self, k, expected):
        assert double_factorial_odd(k) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            double_factorial_odd(-1)

    @given(k=st.integers(3, 12))
    def test_recurrence(self, k):
        assert double_factorial_odd(k) == double_factorial_odd(k - 1) * (2 * k - 3)


class TestChangeFeed:
    def test_a_reader_sees_each_key_touched_since_its_cursor_once_oldest_first(self):
        feed = ChangeFeed()
        feed.touch("a")
        cursor = feed.cursor
        assert feed.since(cursor) == []
        for key in "bcb":
            feed.touch(key)
        assert feed.since(cursor) == ["c", "b"]
        assert feed.since(0) == ["a", "c", "b"]
        assert feed.since(feed.cursor) == []

    def test_no_cursor_or_a_cursor_across_a_reset_means_look_at_everything(self):
        feed = ChangeFeed()
        feed.touch("a")
        before = feed.cursor
        assert feed.since(None) is None
        feed.reset()
        after = feed.cursor
        feed.touch("b")
        assert feed.since(before) is None
        assert feed.since(after) == ["b"]

    @given(touches=st.lists(st.integers(0, 5), max_size=40), cut=st.integers(0, 40))
    def test_matches_the_log_it_does_not_keep(self, touches, cut):
        feed = ChangeFeed()
        cut = min(cut, len(touches))
        for key in touches[:cut]:
            feed.touch(key)
        cursor = feed.cursor
        for key in touches[cut:]:
            feed.touch(key)
        latest = {key: index for index, key in enumerate(touches[cut:])}
        assert feed.since(cursor) == sorted(latest, key=latest.get)
        assert len(feed._serials) == len(set(touches))
