"""Campaign x registry integration: declarative stack sweeps and caching.

Two contracts from the layered-stack refactor:

* A sweep can grid over stack compositions by *name* (``router="aodv"``)
  and by component params (``mac_params``) and run end-to-end through the
  registry.
* Stack composition parameters — including a full
  :class:`~repro.net.registry.StackSpec` — content-address into the
  :class:`~repro.campaign.cache.ResultCache` key, so recomposing the stack
  is a cache miss, never a stale hit.
"""

from dataclasses import asdict

from repro.campaign import CampaignRunner, ResultCache, SweepSpec
from repro.campaign.spec import canonical_json, config_key
from repro.net.registry import StackSpec

from tests.campaign.taskfns import stack_sweep_task


#: The default contention MAC and one that loses a fifth of each
#: transmission to every busy neighbour.
DEFAULT_MAC = {}
LOSSY_MAC = {"collision_rho": 0.2}


def _spec(routers, mac_params, replicates=1):
    return SweepSpec(
        "stack-sweep",
        grid={"router": list(routers), "mac_params": list(mac_params)},
        fixed={"n_nodes": 5, "n_messages": 6},
        replicates=replicates,
        base_seed=21,
    )


class TestDeclarativeSweep:
    def test_sweep_over_router_and_mac_names(self, tmp_path):
        spec = _spec(routers=("flooding", "geo", "aodv"), mac_params=(DEFAULT_MAC, LOSSY_MAC))
        runner = CampaignRunner(stack_sweep_task, cache=ResultCache(tmp_path / "c"))
        result = runner.run(spec)
        assert result.n_tasks == 6
        rows = result.results()
        assert len(rows) == 6
        for row in rows:
            assert 0.0 <= row["delivery_ratio"] <= 1.0
            assert row["tx_attempts"] > 0
        # Guard against vacuous passes: on a 5-node line at 50 m spacing
        # something must actually arrive under at least one composition.
        assert any(row["delivery_ratio"] > 0.0 for row in rows)

    def test_compositions_produce_distinct_runs(self, tmp_path):
        spec = _spec(routers=("flooding", "aodv"), mac_params=(DEFAULT_MAC,))
        runner = CampaignRunner(stack_sweep_task, cache=ResultCache(tmp_path / "c"))
        result = runner.run(spec)
        prints = {row["fingerprint"] for row in result.results()}
        assert len(prints) == 2  # different routers -> different traces

    def test_rerun_is_fully_cached(self, tmp_path):
        spec = _spec(routers=("flooding",), mac_params=(DEFAULT_MAC, LOSSY_MAC))
        cache = ResultCache(tmp_path / "c")
        cold = CampaignRunner(stack_sweep_task, cache=cache).run(spec)
        warm = CampaignRunner(stack_sweep_task, cache=cache).run(spec)
        assert warm.n_executed == 0
        assert warm.results() == cold.results()


class TestCacheMissOnRecompose:
    def test_router_name_feeds_cache_key(self):
        k_flood = config_key({"router": "flooding", "mac": "csma"})
        k_aodv = config_key({"router": "aodv", "mac": "csma"})
        assert k_flood != k_aodv

    def test_stack_spec_hashes_into_key(self):
        base = StackSpec(router="aodv", mac="csma")
        same = StackSpec(router="aodv", mac="csma")
        other_mac = StackSpec(router="aodv", mac="csma", mac_params=LOSSY_MAC)
        other_params = StackSpec(
            router="aodv", mac="csma", router_params={"x": 1}
        )
        assert config_key({"stack": base}) == config_key({"stack": same})
        assert config_key({"stack": base}) != config_key({"stack": other_mac})
        assert config_key({"stack": base}) != config_key({"stack": other_params})

    def test_spec_does_not_collide_with_equivalent_dict(self):
        spec = StackSpec(router="aodv")
        assert config_key({"stack": spec}) != config_key({"stack": asdict(spec)})

    def test_canonical_json_is_stable(self):
        a = canonical_json(StackSpec(router="aodv", router_params={"b": 2, "a": 1}))
        b = canonical_json(StackSpec(router="aodv", router_params={"a": 1, "b": 2}))
        assert a == b

    def test_recompose_reexecutes_tasks(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        default = _spec(routers=("flooding",), mac_params=(DEFAULT_MAC,))
        lossy = _spec(routers=("flooding",), mac_params=(LOSSY_MAC,))
        CampaignRunner(stack_sweep_task, cache=cache).run(default)
        recomposed = CampaignRunner(stack_sweep_task, cache=cache).run(lossy)
        assert recomposed.n_cached == 0
        assert recomposed.n_executed == recomposed.n_tasks
