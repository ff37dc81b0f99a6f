"""Snapshot isolation: epochs are immutable views over a churning world."""


from repro.net.channel import Jammer
from repro.service import SnapshotHub
from repro.util.geometry import Point


def _asset(snap, asset_id):
    """The frozen record of ``asset_id`` in ``snap``, or None when absent."""
    return {a.id: a for a in snap.assets}.get(asset_id)


class TestEpochIsolation:
    def test_snapshot_survives_node_kill(self, small_world):
        w = small_world
        snap = w.hub.publish()
        victim = w.inventory.all()[0]
        assert _asset(snap, victim.id).alive
        w.network.fail_node(victim.node_id)
        # The live asset is down; the captured epoch still says alive.
        assert not victim.alive
        assert _asset(snap, victim.id).alive
        assert victim.node_id in snap.topology.graph

    def test_snapshot_survives_battery_drain(self, small_world):
        w = small_world
        asset = w.inventory.all()[0]
        snap = w.hub.publish()
        frozen = _asset(snap, asset.id).battery.fraction_remaining
        asset.battery.remaining_j = 0.0
        assert _asset(snap, asset.id).battery.fraction_remaining == frozen

    def test_pool_excludes_dead_assets_at_publish(self, small_world):
        w = small_world
        victim = w.inventory.all()[3]
        w.network.fail_node(victim.node_id)
        snap = w.hub.publish()
        assert _asset(snap, victim.id) is None
        assert snap.size == len(w.inventory.all()) - 1


class TestHub:
    def test_epochs_are_monotonic(self, small_world):
        hub = small_world.hub
        first = hub.publish()
        second = hub.publish()
        assert second.epoch == first.epoch + 1
        assert hub.epoch == second.epoch

    def test_current_is_stable_without_churn(self, small_world):
        hub = small_world.hub
        a = hub.current()
        b = hub.current()
        assert a is b
        assert hub.publishes == 1

    def test_churn_triggers_lazy_republish(self, small_world):
        w = small_world
        before = w.hub.current()
        victim = w.inventory.all()[0]
        w.network.fail_node(victim.node_id)
        after = w.hub.current()  # min_refresh_s=0 -> republish immediately
        assert after.epoch == before.epoch + 1
        assert _asset(after, victim.id) is None
        assert _asset(before, victim.id) is not None

    def test_refresh_is_rate_limited(self, small_world):
        w = small_world
        clock = FakeClock()
        hub = SnapshotHub(
            w.inventory, min_refresh_s=10.0, clock=clock
        )
        first = hub.current()
        w.network.fail_node(w.inventory.all()[0].node_id)
        # Dirty, but not enough wall time elapsed: same epoch served.
        assert hub.current() is first
        clock.advance(11.0)
        assert hub.current().epoch == first.epoch + 1

    def test_mark_dirty_forces_republish(self, small_world):
        hub = small_world.hub
        first = hub.current()
        hub.mark_dirty()
        assert hub.current().epoch == first.epoch + 1

    def test_moved_node_triggers_lazy_republish(self, small_world):
        w = small_world
        clock = FakeClock()
        hub = SnapshotHub(w.inventory, min_refresh_s=10.0, clock=clock)
        first = hub.current()
        mover = w.inventory.all()[0]
        w.network.set_position(mover.node_id, Point(5000.0, 5000.0))
        assert hub.current() is first  # rate limit applies to moves too
        clock.advance(11.0)
        second = hub.current()
        assert second.epoch == first.epoch + 1
        assert _asset(second, mover.id).position == Point(5000.0, 5000.0)
        assert second.topology.graph.degree(mover.node_id) == 0
        assert first.topology.graph.degree(mover.node_id) > 0
        assert hub.current() is second

    def test_jamming_change_triggers_lazy_republish(self, small_world):
        w = small_world
        first = w.hub.current()
        jammer = w.network.channel.add_jammer(Jammer(Point(200.0, 200.0), power_dbm=40.0))
        second = w.hub.current()  # min_refresh_s=0 -> republish immediately
        assert second.epoch == first.epoch + 1
        assert second.topology.edge_count < first.topology.edge_count
        assert w.hub.current() is second
        jammer.active = False  # flipped in place, behind the channel's back
        third = w.hub.current()
        assert third.epoch == second.epoch + 1
        assert third.topology.edge_count == first.topology.edge_count


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt
