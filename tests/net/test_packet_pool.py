"""The slotted Packet surface: no instance dict, unhashable, picklable."""

from __future__ import annotations

import pickle

import pytest

from repro.net.packet import Packet, PacketKind


def _packet(**kw):
    defaults = dict(src=1, dst=9, payload=("m", 0), ttl=4, created_at=2.0)
    defaults.update(kw)
    return Packet(**defaults)


class TestSlottedPacket:
    def test_no_instance_dict(self):
        with pytest.raises(AttributeError):
            _packet().not_a_field = 1

    def test_unhashable_like_the_old_dataclass(self):
        with pytest.raises(TypeError):
            hash(_packet())
        with pytest.raises(TypeError):
            {_packet()}

    def test_kind_codes_are_dense_and_values_wire_stable(self):
        codes = sorted(k.code for k in PacketKind)
        assert codes == list(range(len(PacketKind)))
        assert PacketKind.DATA.value == "data"
        assert PacketKind("rreq") is PacketKind.RREQ

    def test_pickle_round_trip(self):
        # Shard handoffs pickle packets across process boundaries.
        original = _packet(path=[1, 2], headers={"k": 7})
        clone = pickle.loads(pickle.dumps(original))
        assert clone == original
