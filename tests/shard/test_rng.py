"""Keyed hop RNG: draw-order independence is the whole point.

The oracle at the bottom pins the draws' values: every draw must be the
BLAKE2b-8 hash of the text ``repr((seed, key, index))``, mapped to a double
as numpy does, however the generator assembles that text.  It was shown to
fail with the one-part key's tuple comma dropped from ``uniforms_at``, with
the draw index off by one and with the payload's closing ``)`` dropped.
"""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard.dispatch import ShardHops
from repro.shard.rng import KeyedHopRng


def test_same_key_same_draws_regardless_of_history():
    a = KeyedHopRng(42)
    b = KeyedHopRng(42)
    # a burns through unrelated keys first; b goes straight there.
    a.rekey("hop", 1, 0)
    a.random()
    a.random()
    a.rekey("rx", 5, 3, 7)
    b.rekey("rx", 5, 3, 7)
    assert a.random() == b.random()
    assert a.random() == b.random()


def test_different_keys_decorrelate():
    rng = KeyedHopRng(42)
    rng.rekey("hop", 1, 0)
    x = rng.random()
    rng.rekey("hop", 1, 1)
    y = rng.random()
    rng.rekey("hop", 2, 0)
    z = rng.random()
    assert len({x, y, z}) == 3


def test_uniform_range_and_exponential_positive():
    rng = KeyedHopRng(7)
    rng.rekey("test")
    draws = [rng.random() for _ in range(200)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert 0.2 < sum(draws) / len(draws) < 0.8
    rng.rekey("exp")
    exps = [rng.exponential(2.0) for _ in range(100)]
    assert all(e >= 0.0 and math.isfinite(e) for e in exps)


def test_seed_changes_stream():
    a = KeyedHopRng(1)
    b = KeyedHopRng(2)
    a.rekey("hop", 1, 0)
    b.rekey("hop", 1, 0)
    assert a.random() != b.random()


def test_unkeyed_generator_surface_is_rejected():
    rng = KeyedHopRng(0)
    with pytest.raises(AttributeError, match="shard"):
        rng.normal(0.0, 1.0)


# ------------------------------------------------------------------ oracle


def reference(seed, key, index):
    """The draw addressed by ``(seed, key, index)``, from its definition."""
    payload = repr((seed, key, index)).encode("utf-8")
    raw = hashlib.blake2b(payload, digest_size=8).digest()
    return (int.from_bytes(raw, "big") >> 11) * 2.0**-53


_seeds = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, -1, 2**63 - 1, 2**63, 2**64 + 5, -(2**63)]),
)
_parts = st.one_of(
    st.integers(min_value=-(2**65), max_value=2**65),
    st.text(alphabet="ab'\"\\ \n", max_size=4),
    st.text(max_size=3),
)
#: 0-, 1- and n-part keys and prefixes.
_keys = st.lists(_parts, max_size=4).map(tuple)


def hexes(values):
    return [float.hex(v) for v in values]


@given(_seeds, _keys, st.integers(min_value=1, max_value=4), st.floats(0.01, 100.0))
@settings(max_examples=300, deadline=None)
def test_random_and_exponential_hash_the_payload_text(seed, key, n, scale):
    rng = KeyedHopRng(seed)
    rng.rekey(*key)
    draws = [rng.random() for _ in range(n)]
    assert hexes(draws) == hexes(reference(seed, key, i) for i in range(n))
    # Exponential draws continue the same key's index.
    exps = [rng.exponential(scale) for _ in range(n)]
    expected = [-scale * math.log1p(-reference(seed, key, n + i)) for i in range(n)]
    assert hexes(exps) == hexes(expected)


@given(_seeds, _keys, st.lists(_parts, max_size=5))
@settings(max_examples=300, deadline=None)
def test_uniforms_at_hashes_each_suffixed_key(seed, prefix, suffixes):
    rng = KeyedHopRng(seed)
    rng.rekey("unrelated")
    got = rng.uniforms_at(prefix, suffixes)
    assert hexes(got) == hexes(reference(seed, prefix + (s,), 0) for s in suffixes)
    if prefix:
        head = rng.seed_head + "(" + "".join(repr(p) + ", " for p in prefix)
        assert hexes(rng.uniform_at(head, s) for s in suffixes) == hexes(got)
    # The batch leaves the instance key alone.
    assert float.hex(rng.random()) == float.hex(reference(seed, ("unrelated",), 0))


@given(
    _seeds,
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_unicast_cached_head_draw(seed, sender, earlier, receivers):
    hops = ShardHops(seed, frozenset(), {})
    for _ in range(earlier + 1):
        seq = hops.hop(sender)
    assert seq == earlier
    assert float.hex(hops.rng.random()) == float.hex(reference(seed, ("hop", sender, seq), 0))
    for receiver in receivers:
        draw = hops.rng.uniform_at(hops.rx_head, receiver)
        assert float.hex(draw) == float.hex(reference(seed, ("rx", sender, seq, receiver), 0))


@given(
    _seeds,
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=2**20),
    st.lists(st.integers(min_value=0, max_value=2**40), max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_uniforms_at_equals_rekey_then_random(seed, s, q, ids):
    rng = KeyedHopRng(seed)
    batch = rng.uniforms_at(("rx", s, q), ids)
    for i, receiver in enumerate(ids):
        rng.rekey("rx", s, q, receiver)
        assert batch[i] == rng.random()
