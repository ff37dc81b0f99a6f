"""``FaultLayer.fanout_verdicts`` against the per-survivor walk it replaced.

A broadcast's decoded receivers are judged by one ``FaultLayer`` call: link
cuts and partitions first, then either one ``Generator.random(k)`` slab (a
lone drop-only gremlin, ``PacketGremlin.judge_fanout``) or the
per-receiver ``gremlin_verdict`` walk.  The reference below is that walk as
the dispatcher ran it inline, one receiver at a time.  Two twin worlds on
one seed run the two sides over the same fan-outs; the standing receivers,
``cut`` reasons, ``touched`` verdicts, the ``faults.gremlin`` stream's
state, every gremlin's counts and the metric counters must all be equal.

Mutants of ``src/`` this was shown to kill: the slab drawing for link-cut
receivers too, the slab taken with two gremlins installed, ``<=`` for the
slab's ``<``, and ``faults.gremlin.dropped`` counted once per batch instead
of once per drop.  The ``<=`` mutant is only visible when a draw equals
``drop_p`` exactly, so some examples set ``drop_p`` to an upcoming draw.
"""

from typing import Any, Dict, List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.gremlin import PacketGremlin
from repro.net.channel import Channel
from repro.net.node import Network
from repro.net.packet import Packet, PacketKind
from repro.sim import Simulator
from repro.util.geometry import Point

SENDER = 0
N_NODES = 40
KNOBS = ("duplicate_p", "corrupt_p", "delay_p", "reorder_p")


def reference_verdicts(
    faults: Any, metrics: Any, sender_id: int, survivors: List[int], packet: Packet
) -> Tuple[List[int], Dict[int, str], Dict[int, Tuple[bool, bool, bool, float]]]:
    """The per-survivor fault walk, one receiver at a time, in order."""
    cut: Dict[int, str] = {}
    touched: Dict[int, Tuple[bool, bool, bool, float]] = {}
    standing = []
    for nid in survivors:
        if (faults.blocked_links or faults.partitions) and faults.link_blocked(sender_id, nid):
            metrics.incr("net.link_blocked")
            cut[nid] = "link_blocked"
            continue
        if faults.gremlins:
            verdict = faults.gremlin_verdict(sender_id, nid, packet)
            if verdict is not None:
                if verdict[0]:
                    cut[nid] = "gremlin"
                    continue
                touched[nid] = verdict
        standing.append(nid)
    return standing, cut, touched


def peek_draw(rng: np.random.Generator, ahead: int) -> float:
    """The ``ahead``-th uniform ``rng`` will draw next, without drawing it."""
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = rng.bit_generator.state
    return float(twin.random(ahead + 1)[ahead])


probability = st.sampled_from([0.0, 0.0, 0.05, 0.3, 0.5, 1.0])
#: Few kinds, so a gremlin's ``kinds`` scope and a fan-out's packet often meet.
KINDS = (PacketKind.DATA, PacketKind.RREQ, PacketKind.ACK)


def receivers(width: int) -> st.SearchStrategy:
    """``width`` distinct receivers in any order."""
    return st.permutations(range(1, N_NODES + 1)).map(lambda order: order[:width])


def partition(split: Tuple[int, Dict[int, int]]) -> Dict[int, int]:
    """node -> group, with the sender always placed, so the split can cut."""
    sender_group, groups = split
    return {SENDER: sender_group, **groups}


gremlin_spec = st.fixed_dictionaries(
    {
        # A float is drop_p itself; an int n puts drop_p on the n-th
        # upcoming draw (see build()).
        "drop_p": st.sampled_from([0.0, 0.05, 0.3, 1.0, 0, 1, 2]),
        # Two gremlins in three drop only, so the slab is drawn often.
        "drop_only": st.sampled_from([True, True, False]),
        "knobs": st.dictionaries(st.sampled_from(KNOBS), probability, min_size=1, max_size=2),
        "kinds": st.sampled_from([None, None, [], [KINDS[0]], list(KINDS[1:])]),
        "links": st.one_of(st.none(), st.lists(st.integers(1, N_NODES), max_size=40)),
        "active": st.sampled_from([True, True, True, False]),
    }
)

scenario = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "gremlins": st.sampled_from([0, 1, 1, 2]).flatmap(
            lambda n: st.lists(gremlin_spec, min_size=n, max_size=n)
        ),
        "blocked": st.lists(st.integers(1, N_NODES), max_size=12),
        "partition": st.one_of(
            st.none(),
            st.tuples(
                st.integers(0, 2),
                st.dictionaries(st.integers(1, N_NODES), st.integers(0, 2), max_size=30),
            ).map(partition),
        ),
        # Widths 0..40 evenly.
        "fanouts": st.lists(
            st.tuples(st.integers(0, N_NODES).flatmap(receivers), st.sampled_from(KINDS)),
            min_size=1,
            max_size=3,
        ),
    }
)


def build(spec: Dict[str, Any]) -> Tuple[Simulator, Network, List[PacketGremlin]]:
    sim = Simulator(seed=spec["seed"])
    net = Network(sim, Channel(seed=spec["seed"]))
    for node_id in range(N_NODES + 1):
        net.create_node(node_id, Point(float(node_id), 0.0))
    for nid in spec["blocked"]:
        net.block_link(SENDER, nid)
    if spec["partition"] is not None:
        net.add_partition(spec["partition"])
    gremlins = []
    for g in spec["gremlins"]:
        gremlin = PacketGremlin(
            net,
            drop_p=g["drop_p"] if isinstance(g["drop_p"], float) else 0.5,
            kinds=g["kinds"],
            links=None if g["links"] is None else [(SENDER, nid) for nid in g["links"]],
            **({} if g["drop_only"] else g["knobs"]),
        )
        if isinstance(g["drop_p"], int):
            # Sit drop_p on an upcoming draw, where only a strict compare drops.
            gremlin.drop_p = peek_draw(gremlin._rng, g["drop_p"])
        if g["active"]:
            gremlin.launch()
        else:
            net.add_gremlin(gremlin)  # installed but never launched: judges nothing
        gremlins.append(gremlin)
    return sim, net, gremlins


@settings(max_examples=300, deadline=None)
@given(scenario)
def test_fanout_verdicts_equal_the_per_survivor_walk(spec):
    sim, net, gremlins = build(spec)
    ref_sim, ref_net, ref_gremlins = build(spec)
    faults, ref_faults = net.stack.faults, ref_net.stack.faults
    for survivors, kind in spec["fanouts"]:
        packet = Packet(src=SENDER, dst=None, kind=kind)
        got = faults.fanout_verdicts(SENDER, list(survivors), packet)
        want = reference_verdicts(
            ref_faults, ref_sim.metrics, SENDER, list(survivors), packet
        )
        assert got == want
    if gremlins:
        stream, ref_stream = gremlins[0]._rng, ref_gremlins[0]._rng
        assert stream.bit_generator.state == ref_stream.bit_generator.state
    for gremlin, ref_gremlin in zip(gremlins, ref_gremlins):
        assert gremlin.counts == ref_gremlin.counts
    assert sim.metrics.counters() == ref_sim.metrics.counters()


def test_a_lone_drop_only_gremlin_takes_one_slab():
    """The slab is the path the oracle above must be exercising: one
    ``random(k)`` call over the in-scope receivers, no per-receiver verdict.
    ``drop_p`` equals the fifth receiver's draw, which a strict compare keeps."""
    sim, net, (gremlin,) = build(
        {
            "seed": 7,
            "gremlins": [
                {
                    "drop_p": 4,
                    "drop_only": True,
                    "knobs": {},
                    "kinds": None,
                    "links": None,
                    "active": True,
                }
            ],
            "blocked": [3],
            "partition": None,
            "fanouts": [],
        }
    )
    faults = net.stack.faults
    asked = []
    faults.gremlin_verdict = lambda *args: asked.append(args)
    before = gremlin._rng.bit_generator.state
    standing, cut, touched = faults.fanout_verdicts(
        SENDER, list(range(1, 21)), Packet(src=SENDER, dst=None)
    )
    assert asked == [] and touched == {}
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = before
    draws = twin.random(19).tolist()  # 20 receivers, one of them cut
    judged = [nid for nid in range(1, 21) if nid != 3]
    assert draws[4] == gremlin.drop_p and judged[4] in standing
    expected_drops = [nid for nid, draw in zip(judged, draws) if draw < gremlin.drop_p]
    assert 0 < len(expected_drops) < 19
    assert cut == {3: "link_blocked", **{nid: "gremlin" for nid in expected_drops}}
    assert standing == [nid for nid in range(1, 21) if nid not in cut]
    assert gremlin.counts.judged == 19
    assert sim.metrics.counter("faults.gremlin.dropped") == len(expected_drops)
    assert gremlin._rng.bit_generator.state == twin.bit_generator.state
