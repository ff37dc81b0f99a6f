"""Tests for deterministic RNG streams."""

import numpy as np
from hypothesis import given, strategies as st

from repro.util.rng import (
    RngStreams,
    derive_seed,
    generator_digest,
    generator_draws,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_differs_by_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_differs_by_name(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_path_is_not_concatenation(self):
        # ("ab",) and ("a", "b") must be distinct streams.
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_in_uint64_range(self, seed, name):
        value = derive_seed(seed, name)
        assert 0 <= value < 2**64


class TestRngStreams:
    def test_same_name_same_generator(self):
        streams = RngStreams(seed=7)
        assert streams.get("x") is streams.get("x")

    def test_distinct_names_distinct_sequences(self):
        streams = RngStreams(seed=7)
        a = streams.get("a").random(8)
        b = streams.get("b").random(8)
        assert not np.allclose(a, b)

    def test_reproducible_across_instances(self):
        a = RngStreams(seed=9).get("m").random(16)
        b = RngStreams(seed=9).get("m").random(16)
        assert np.allclose(a, b)

    def test_creation_order_does_not_matter(self):
        s1 = RngStreams(seed=3)
        s1.get("first")
        v1 = s1.get("second").random(4)
        s2 = RngStreams(seed=3)
        v2 = s2.get("second").random(4)
        assert np.allclose(v1, v2)


class TestGeneratorDraws:
    """PCG64 draw counting via the LCG distance walk (no hot-path hooks)."""

    def test_fresh_generator_has_zero_draws(self):
        assert generator_draws(np.random.default_rng(42), 42) == 0

    @given(st.integers(min_value=0, max_value=2**32), st.integers(0, 500))
    def test_exact_count_recovered_from_state(self, seed, n):
        gen = np.random.default_rng(seed)
        if n:
            gen.integers(0, 2**63, size=n)  # one 64-bit word per int
        assert generator_draws(gen, seed) == n

    def test_wrong_seed_reports_none(self):
        gen = np.random.default_rng(10)
        gen.random(3)
        # A different seed derives a different PCG64 increment, so the
        # states lie on different sequences — unattributable, not huge.
        assert generator_draws(gen, 11) is None

    def test_streams_draw_counts(self):
        streams = RngStreams(seed=99)
        # random() consumes exactly one 64-bit word per double; counts are
        # state advances, not logical samples (bounded ints may buffer).
        streams.get("a").random(5)
        streams.get("b")
        counts = streams.draw_counts()
        assert counts == {"a": 5, "b": 0}

    def test_stream_states_rows(self):
        streams = RngStreams(seed=99)
        streams.get("a").random(3)
        (row,) = streams.stream_states()
        assert row["name"] == "a"
        assert row["seed"] == derive_seed(99, "a")
        assert row["draws"] == 3
        # The digest pins the exact state: same draws -> same digest.
        twin = RngStreams(seed=99)
        twin.get("a").random(3)
        assert generator_digest(twin.get("a")) == row["state_digest"]
        twin.get("a").random()
        assert generator_digest(twin.get("a")) != row["state_digest"]
