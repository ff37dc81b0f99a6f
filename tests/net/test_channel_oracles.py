"""The channel's batch entries against the per-link computations they replace.

``Channel.prime_shadowing`` seats one reused generator on each link's stream
instead of constructing a generator per link, and ``build_topology`` reads
``delivery_probability_batch`` where it used to walk the scalar chain.  Both
promise the same bits.  The references are in ``frozen_oracles``; mutations
these tests were shown to catch: a wrong ``SeedSequence`` constant, the
eight output words cycling the pool from the wrong offset, a seed below
2**32 mixed as two words, PCG64's second increment dropped, the sorted pair
key dropped, the batch multiplying by ``1 / softness`` where the frozen
chain divides, and in ``delivery_verdicts`` a ``<=`` for the ``<``, a float32
cast and a dropped ``survival`` on one side of the width switch.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import channel as channel_mod
from repro.net.channel import Channel, Jammer
from repro.util.geometry import Point
from repro.util.rng import derive_seed, pcg64_seed_states
from tests.net import frozen_oracles
from tests.net.frozen_oracles import frozen_delivery_probability, frozen_shadowing_db

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]


def test_seed_states_are_default_rng_states():
    rng = random.Random(5)
    seeds = (
        EDGE_SEEDS
        + [rng.getrandbits(31) for _ in range(500)]
        + [rng.getrandbits(64) | 2**63 for _ in range(500)]
        + [rng.getrandbits(64) for _ in range(1000)]
    )
    states = pcg64_seed_states(seeds)
    assert len(states) == len(seeds)
    for seed, (state, inc) in zip(seeds, states):
        fresh = np.random.default_rng(seed).bit_generator.state["state"]
        assert (state, inc) == (fresh["state"], fresh["inc"]), seed
    assert pcg64_seed_states([]) == []


def test_seed_states_refuse_what_they_cannot_mix():
    # Wider seeds enter SeedSequence's pool by a different route.
    with pytest.raises(OverflowError):
        pcg64_seed_states([5, 2**64])


def test_batch_shadowing_is_the_per_link_generator():
    rng = random.Random(17)
    by_seed = {seed: [] for seed in range(7)}
    for _ in range(4000):
        hi = rng.choice([10, 1000, 10**6])
        by_seed[rng.randrange(7)].append((rng.randrange(hi), rng.randrange(hi)))
    by_seed[2**40 + 7] = [(a, a + 1) for a in range(1500)]
    checked = above_2_63 = 0
    for seed, pairs in by_seed.items():
        sigma = rng.choice([0.5, 4.0, 6.0])
        channel = Channel(seed=seed, shadowing_sigma_db=sigma)
        channel.prime_shadowing(pairs)
        for a, b in pairs:
            assert channel._shadow_cache[(min(a, b), max(a, b))] == frozen_shadowing_db(
                seed, sigma, a, b
            ), (seed, a, b)
            assert channel.shadowing_db(a, b) == channel.shadowing_db(b, a)
            checked += 1
            above_2_63 += derive_seed(seed, "shadow", str(min(a, b)), str(max(a, b))) >= 2**63
    assert checked >= 5000 and above_2_63 >= 1000


def test_batch_shadowing_with_short_derived_seeds(monkeypatch):
    """SeedSequence takes a seed below 2**32 as one word, not two; no real
    link derives one (the hash is 64 bits wide), so the derivation is cut."""
    for module in ("repro.net.channel", "tests.net.frozen_oracles"):
        monkeypatch.setattr(f"{module}.derive_seed", lambda *names: derive_seed(*names) >> 40)
    assert frozen_oracles.derive_seed(3, "shadow", "1", "2") < 2**24
    channel = Channel(seed=3)
    pairs = [(a, a + 3) for a in range(300)]
    channel.prime_shadowing(pairs)
    for a, b in pairs:
        assert channel._shadow_cache[(a, b)] == frozen_shadowing_db(3, 4.0, a, b)


def test_scalar_and_batch_fill_the_memo_in_either_order():
    pairs = [(a, b) for a in range(12) for b in range(a, 12)]
    expected = {pair: frozen_shadowing_db(9, 4.0, *pair) for pair in pairs}
    batch_first, scalar_first, mixed = (Channel(seed=9) for _ in range(3))
    batch_first.prime_shadowing((b, a) for a, b in pairs)  # unsorted on purpose
    for a, b in pairs:
        assert scalar_first.shadowing_db(b, a) == expected[(a, b)]
        assert batch_first.shadowing_db(a, b) == expected[(a, b)]
    for a, b in pairs[::3]:
        mixed.shadowing_db(a, b)
    before = dict(mixed._shadow_cache)
    mixed.prime_shadowing(pairs + pairs)
    scalar_first.prime_shadowing(pairs)  # everything cached: a no-op
    assert before.items() <= mixed._shadow_cache.items()
    for channel in (mixed, scalar_first, batch_first):
        assert channel._shadow_cache == expected


def test_a_channel_without_shadowing_primes_nothing():
    channel = Channel(seed=9, shadowing_sigma_db=0.0)
    channel.prime_shadowing([(1, 2)])
    assert channel._shadow_cache == {} and channel.shadowing_db(1, 2) == 0.0


def test_three_draws_recorded_from_the_commit_before_the_batch():
    """If only this test fails, ``Generator.normal`` or ``SeedSequence``
    changed under us (a numpy upgrade), not the batch: the frozen per-link
    generator moved with it and every other test here still passes."""
    recorded = [
        (Channel(seed=12), (0, 1), -0.6639069706265169),
        (Channel(seed=3, shadowing_sigma_db=6.0), (977, 41), -10.476312525568503),
        (Channel(seed=2**40 + 7, shadowing_sigma_db=0.5), (123456, 123457), 0.26869643149190753),
    ]
    for channel, pair, value in recorded:
        assert frozen_shadowing_db(channel.seed, channel.shadowing_sigma_db, *pair) == value
        assert channel.shadowing_db(*pair) == value
        primed = Channel(seed=channel.seed, shadowing_sigma_db=channel.shadowing_sigma_db)
        primed.prime_shadowing([pair])
        assert primed.shadowing_db(*pair) == value


@pytest.mark.parametrize("softness", [0.7, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("jamming", ["none", "active", "toggled"])
def test_scalar_batch_and_frozen_delivery_probability_agree(softness, jamming):
    rng = random.Random(f"{softness}/{jamming}")
    channel = Channel(seed=21, sinr_softness_db=softness)
    jammer = None
    if jamming != "none":
        jammer = channel.add_jammer(Jammer(Point(150.0, 120.0), power_dbm=10.0))
        channel.add_jammer(Jammer(Point(-40.0, 300.0), power_dbm=-5.0, active=False))
    mid_band = 0
    for tx_id in range(40):
        tx_pos = Point(rng.uniform(-100.0, 400.0), rng.uniform(-100.0, 400.0))
        tx_power = rng.choice([10.0, 17.5, 20.0])
        rx_ids = [100 + tx_id * 10 + k for k in range(rng.randrange(1, 10))]
        # Mostly around the range limit, where p is neither 0 nor 1.
        rx_pos = [
            Point(tx_pos.x + rng.uniform(-160.0, 160.0), tx_pos.y + rng.uniform(-160.0, 160.0))
            for _ in rx_ids
        ]
        if jamming == "toggled":
            jammer.active = tx_id % 2 == 0
            jammer.power_dbm = rng.choice([0.0, 10.0, 25.0])
        batch = channel.delivery_probability_batch(tx_power, tx_pos, rx_pos, rx_ids, tx_id)
        for p, pos, rx_id in zip(batch, rx_pos, rx_ids):
            assert p == channel.delivery_probability(tx_power, tx_pos, pos, tx_id, rx_id)
            assert p == frozen_delivery_probability(channel, tx_power, tx_pos, pos, tx_id, rx_id)
            mid_band += 0.01 < p < 0.99
    assert mid_band >= 40


coordinate = st.floats(-250.0, 250.0, allow_nan=False)
point = st.builds(Point, coordinate, coordinate)


@settings(max_examples=200, deadline=None)
@given(
    params=st.fixed_dictionaries(
        {
            "reference_distance_m": st.sampled_from([1.0, 20.0, 80.0]),
            "shadowing_sigma_db": st.sampled_from([0.0, 4.0]),
            "sinr_softness_db": st.sampled_from([0.0, 1.5]),
            "seed": st.integers(0, 2**32),
        }
    ),
    tx_id=st.integers(-1, 3),
    tx_pos=point,
    # (rx_id, point, repeat): repeat 0 puts a receiver on an earlier one's
    # point, so its distance hits the path-loss memo the batch just filled.
    receivers=st.lists(st.tuples(st.integers(-1, 12), point, st.integers(0, 3)), max_size=24),
    jammer=st.sampled_from(["none", "active", "inactive"]),
    extra_mw=st.sampled_from([0.0, 1.1e-13, 7.7e-12, 1e-10]),
    pl_cap=st.sampled_from([1, 2, 5, 1 << 16]),
)
def test_batch_is_the_scalar_chain_bit_for_bit(
    params, tx_id, tx_pos, receivers, jammer, extra_mw, pl_cap
):
    """``delivery_probability_batch`` is one pass over the memos; cold and
    warm, with the path-loss memo capped small enough to reset mid-batch, it
    must equal the frozen scalar chain per receiver, and so must
    ``delivery_probability`` (its batch of one) on a channel that shares no
    memo with it and on the batch's own channel alike.  Mutants of the batch
    this was shown to catch: shadowing a receiver id of -1, the extra
    interference dropped from the unjammed denominator, the logistic's clamp
    dropped, and ``* (1 / softness)`` for ``/ softness``."""
    batch_channel, scalar_channel = Channel(**params), Channel(**params)
    if jammer != "none":
        for channel in (batch_channel, scalar_channel):
            channel.add_jammer(
                Jammer(Point(30.0, -20.0), power_dbm=5.0, active=jammer == "active")
            )
    rx_ids, rx_pos = [], []
    for k, (rx_id, pos, repeat) in enumerate(receivers):
        if repeat == 0 and k:
            pos = rx_pos[k // 2]  # the same point again: a memo hit
        rx_ids.append(rx_id)
        rx_pos.append(pos)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(channel_mod, "_PL_CACHE_MAX", pl_cap)
        cold = batch_channel.delivery_probability_batch(
            17.0, tx_pos, rx_pos, rx_ids, tx_id, extra_interference_mw=extra_mw
        )
        warm = batch_channel.delivery_probability_batch(
            17.0, tx_pos, rx_pos, rx_ids, tx_id, extra_interference_mw=extra_mw
        )
        frozen = [
            frozen_delivery_probability(
                batch_channel, 17.0, tx_pos, pos, tx_id, rx_id, extra_interference_mw=extra_mw
            ).hex()
            for pos, rx_id in zip(rx_pos, rx_ids)
        ]
        assert [p.hex() for p in cold] == frozen
        assert [p.hex() for p in warm] == frozen
        for channel in (scalar_channel, batch_channel):
            scalar = [
                channel.delivery_probability(
                    17.0, tx_pos, pos, tx_id, rx_id, extra_interference_mw=extra_mw
                )
                for pos, rx_id in zip(rx_pos, rx_ids)
            ]
            assert [p.hex() for p in scalar] == frozen
        assert len(batch_channel._pl_cache) <= pl_cap


def test_jammed_denominator_sums_in_the_scalar_order():
    """Float addition does not associate: ``noise + jam + extra`` and
    ``noise + extra + jam`` differ in about one receiver in 250 once all
    three are near the noise floor, too rarely for the example budget above.
    One wide batch with extra interference on a jammed channel makes the
    order observable against the frozen scalar chain (a mutant summing
    noise + extra + interference is caught here)."""
    rng = random.Random(29)
    channel = Channel(seed=4, shadowing_sigma_db=0.0)
    channel.add_jammer(Jammer(Point(30.0, -20.0), power_dbm=5.0))
    noise = channel._noise_mw
    tx_pos = Point(0.0, 0.0)
    rx_pos = [Point(rng.uniform(-250.0, 250.0), rng.uniform(-250.0, 250.0)) for _ in range(4000)]
    for extra in (1.1e-13, 7.7e-12, 1e-10):
        batch = channel.delivery_probability_batch(
            17.0, tx_pos, rx_pos, [-1] * len(rx_pos), extra_interference_mw=extra
        )
        frozen = [
            frozen_delivery_probability(
                channel, 17.0, tx_pos, pos, -1, -1, extra_interference_mw=extra
            )
            for pos in rx_pos
        ]
        assert [p.hex() for p in batch] == [p.hex() for p in frozen]
        reordered = sum(
            noise + jam + extra != noise + extra + jam
            for jam in map(channel.interference_mw, rx_pos)
        )
        assert reordered >= 100


def test_wide_verdict_batch_equals_its_narrow_slices():
    """64 receivers go through the numpy compare, 4 through the list
    comprehension; the batch width must never decide a verdict.  A draw in
    four sits on ``p * survival`` exactly (lost: the compare is strict), one
    an ulp below (received), one an ulp above (lost)."""
    rng = random.Random(99)
    probs = [rng.random() for _ in range(64)]
    channel = Channel(seed=5)
    for survival in (1.0, 0.85):
        draws = []
        for i, p in enumerate(probs):
            edge = p * survival
            draws.append(
                (edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0), rng.random())[i % 4]
            )
        wide = channel.delivery_verdicts(probs, draws, survival=survival)
        narrow = []
        for i in range(0, 64, 4):
            narrow += channel.delivery_verdicts(
                probs[i : i + 4], draws[i : i + 4], survival=survival
            )
        assert wide == narrow
        assert wide[0::4] == [False] * 16 and wide[1::4] == [True] * 16
        assert wide[2::4] == [False] * 16
        assert all(isinstance(v, bool) for v in wide + narrow)


def test_one_rng_slab_is_n_sequential_draws():
    """``FastPathDispatcher.broadcast`` draws its receivers' uniforms as one
    ``random(n)`` and still charges each receiver one draw, in order."""
    for seed in (0, 12, 2**40 + 7):
        for n in (1, 7, 8, 26):
            slab, one_by_one = np.random.default_rng(seed), np.random.default_rng(seed)
            assert slab.random(n).tolist() == [one_by_one.random() for _ in range(n)]
            # Both generators are left at the same point of the stream.
            assert slab.random() == one_by_one.random()
