"""Channel memo caches: correctness and jammer invalidation.

The channel memoizes ``path_loss_db`` per distance and ``shadowing_db`` per
link, and the stack keeps a pair-probability cache keyed on
``jam_signature()``; ``comm_range_m`` is a closed form with no memo.
Caching propagation math is only safe if every way jamming state can
change — roster edits through the channel API *and* in-place attribute
flips by attack scenarios — invalidates the dependent values, and only
those: neither channel memo, nor the comm range, holds anything jamming
can change.  These are the regression tests for that contract.
"""

from __future__ import annotations

from repro.net.channel import Channel, Jammer
from repro.net.node import Network
from repro.net.stack import FastPathDispatcher
from repro.sim import Simulator
from repro.util.geometry import Point


def test_path_loss_memo_returns_identical_values():
    channel = Channel(seed=3)
    first = [channel.path_loss_db(d) for d in (1.0, 25.0, 25.0, 400.0)]
    again = [channel.path_loss_db(d) for d in (1.0, 25.0, 25.0, 400.0)]
    assert first == again
    fresh = Channel(seed=3)
    assert first == [fresh.path_loss_db(d) for d in (1.0, 25.0, 25.0, 400.0)]


def test_path_loss_cache_bounded():
    channel = Channel(seed=3)
    from repro.net import channel as channel_mod

    for i in range(channel_mod._PL_CACHE_MAX + 10):
        channel.path_loss_db(float(i))
    assert len(channel._pl_cache) <= channel_mod._PL_CACHE_MAX


def test_comm_range_cached_per_power_and_margin():
    """A function of ``(tx_power_dbm, margin_db)`` alone: a repeat and a
    second channel give the same bits."""
    channel = Channel(seed=3)
    r0 = channel.comm_range_m(20.0)
    r_margin = channel.comm_range_m(20.0, margin_db=6.0)
    assert r_margin < r0
    assert channel.comm_range_m(20.0) == r0
    assert Channel(seed=3).comm_range_m(20.0) == r0


def test_jammer_edits_change_the_signature_and_no_jam_free_memo(generators_built):
    """Shadowing is seeded per link, path loss is a function of distance and
    ``comm_range_m`` is documented "no jamming": a roster edit or an in-place
    toggle must re-derive none of them, only move ``jam_signature()``."""

    def read(channel):
        return (
            [channel.shadowing_db(a, b) for a, b in [(1, 2), (2, 7), (40, 3)]],
            [channel.path_loss_db(d) for d in (1.0, 50.0, 333.3)],
            [channel.comm_range_m(20.0), channel.comm_range_m(10.0, margin_db=-3.0)],
        )

    channel = Channel(seed=3)
    before = read(channel)
    assert before == read(Channel(seed=3))  # a second channel derives the same values
    generators_built.clear()
    signatures = [channel.jam_signature()]
    jammer = channel.add_jammer(Jammer(Point(10.0, 10.0), power_dbm=30.0))
    signatures.append(channel.jam_signature())
    assert read(channel) == before
    jammer.active = False
    signatures.append(channel.jam_signature())
    assert read(channel) == before
    channel.clear_jammers()
    signatures.append(channel.jam_signature())
    assert read(channel) == before
    assert len(set(signatures)) == len(signatures)
    assert generators_built == []


def test_in_place_jammer_toggle_changes_signature():
    """security/attacks.py flips ``active`` and retunes ``power_dbm``
    directly on the Jammer object; the signature must see both."""
    channel = Channel(seed=3)
    jammer = channel.add_jammer(Jammer(Point(0.0, 0.0), power_dbm=30.0))
    sig_on = channel.jam_signature()
    jammer.active = False
    sig_off = channel.jam_signature()
    assert sig_off != sig_on
    jammer.active = True
    assert channel.jam_signature() == sig_on
    jammer.power_dbm = 40.0
    assert channel.jam_signature() not in (sig_on, sig_off)


def test_pair_cache_recomputes_after_jammer_flip():
    """End to end: the stack's delivery-probability cache must drop stale
    pre-jamming values the moment a jammer activates in place."""
    sim = Simulator(seed=9)
    channel = Channel(seed=9)
    net = Network(sim, channel)
    a = net.create_node(1, Point(0.0, 0.0))
    b = net.create_node(2, Point(80.0, 0.0))
    dispatcher = net.stack.dispatcher
    assert isinstance(dispatcher, FastPathDispatcher)
    phy = dispatcher.phy

    clean = phy.delivery_probability(a, b)
    assert phy.delivery_probability(a, b) == clean  # served from cache

    jammer = channel.add_jammer(
        Jammer(Point(80.0, 0.0), power_dbm=30.0, active=False)
    )
    jammer.active = True  # in-place flip, bypassing add/clear
    jammed = phy.delivery_probability(a, b)
    assert jammed < clean

    jammer.active = False
    assert phy.delivery_probability(a, b) == clean


def test_pair_cache_recomputes_after_node_moves():
    sim = Simulator(seed=9)
    net = Network(sim, Channel(seed=9))
    a = net.create_node(1, Point(0.0, 0.0))
    b = net.create_node(2, Point(60.0, 0.0))
    phy = net.stack.dispatcher.phy
    near = phy.delivery_probability(a, b)
    net.set_position(2, Point(300.0, 0.0))
    far = phy.delivery_probability(a, b)
    assert far < near
