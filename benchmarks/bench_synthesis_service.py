"""Synthesis-service throughput and tail latency, with and without chaos.

The service's contract (DESIGN.md §3.6) is *bounded answers under fire*:
thousands of concurrent "recruit me a composite" queries per second, every
one terminal, even while the backend is sick and the inventory churns.
This benchmark measures that contract at 1k- and 10k-asset inventories:

* **chaos off** — steady state: each distinct goal is answered live once,
  then served from the per-epoch fresh cache.  Headline: queries/sec on
  the 1k inventory (the ISSUE floor is >= 1000 qps).
* **chaos on** — the backend raises on every call and node churn advances
  the inventory epoch between timed batches, so fresh-cache entries are
  invalidated; the breaker opens and the service answers from its stale
  store, flagged degraded.  Headline: chaos p99 within
  ``CHAOS_P99_BUDGET_MS`` — resilience must not cost the tail.  (The gate
  was a ratio to the chaos-off p99 until a fresh-cache hit stopped costing
  an event-loop round trip: chaos-off p99 went 4 ms -> 0.01 ms and took
  the ratio's meaning with it; the budget is what 5x amounted to then.)

Epoch publishes (a full topology rebuild: ~0.4 s at 1k assets, ~8 s at
10k) happen *between* timed batches, exactly as a production hub would
rebuild off the serving path; query latencies measure serving, not world
rebuilding.

Writes ``BENCH_pr6.json`` (schema ``bench-pr6/2``).  Run directly::

    PYTHONPATH=src:benchmarks python benchmarks/bench_synthesis_service.py
"""

import asyncio
import json
import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np
from common import json_safe, standard_scenario

from repro.core.mission import MissionGoal, MissionType
from repro.core.synthesis.composer import GreedyComposer
from repro.service import SnapshotHub, SynthesisQuery, SynthesisService
from repro.service.chaos import ChaosBackend, ChaosConfig
from repro.things.capabilities import SensingModality
from repro.util.backoff import BackoffPolicy
from repro.util.geometry import Region

BENCH_PR6_SCHEMA = "bench-pr6/2"
QPS_FLOOR = 1000.0          # chaos-off queries/sec on the 1k inventory
CHAOS_P99_BUDGET_MS = 20.0  # chaos p99 on the 1k inventory

SIZES = (1000, 10_000)
N_GOALS = 8
N_BATCHES = 4


def build_hub(n_assets: int, seed: int = 3) -> Tuple[SnapshotHub, object]:
    blocks = max(4, int(np.sqrt(n_assets / 2.0)))
    scenario = standard_scenario(
        seed, blocks=blocks, n_blue=n_assets, n_red=0, n_gray=0
    )
    hub = SnapshotHub(scenario.inventory, min_refresh_s=3600.0)
    return hub, scenario


def goals(region: Region, n: int) -> List[MissionGoal]:
    """n overlapping surveillance goals over the scenario district."""
    span_x = (region.x_max - region.x_min) * 0.5
    span_y = (region.y_max - region.y_min) * 0.5
    out = []
    for i in range(n):
        dx = (region.x_max - region.x_min - span_x) * (i / max(1, n - 1))
        out.append(
            MissionGoal(
                MissionType.SURVEIL,
                Region(
                    region.x_min + dx,
                    region.y_min,
                    region.x_min + dx + span_x,
                    region.y_min + span_y,
                ),
                min_coverage=0.3,
                modalities=frozenset(
                    {SensingModality.SEISMIC, SensingModality.ACOUSTIC}
                ),
            )
        )
    return out


def make_service(hub: SnapshotHub, **kwargs) -> SynthesisService:
    kwargs.setdefault("backoff", BackoffPolicy(base_s=0.005, max_s=0.05))
    kwargs.setdefault("max_retries", 0)
    kwargs.setdefault("breaker_min_calls", 4)
    kwargs.setdefault("breaker_window", 8)
    kwargs.setdefault("breaker_open_s", 0.2)
    kwargs.setdefault("max_concurrent", 4)
    return SynthesisService(hub, **kwargs)


async def timed_batches(
    service: SynthesisService,
    mission_goals: List[MissionGoal],
    *,
    n_queries: int,
    concurrency: int = 64,
    deadline_s: float = 0.5,
    between_batches=None,
) -> Tuple[List[float], Dict[str, int], float]:
    """Drive ``n_queries`` in N_BATCHES timed batches.

    Returns (per-query latencies, outcome counts, total timed seconds).
    ``between_batches`` (e.g. a churn step) runs off the clock, like a
    hub rebuilding topology outside the serving path.
    """
    latencies: List[float] = []
    counts: Dict[str, int] = {}
    timed = 0.0
    sem = asyncio.Semaphore(concurrency)
    per_batch = n_queries // N_BATCHES

    async def one(i: int):
        async with sem:
            q = SynthesisQuery(
                goal=mission_goals[i % len(mission_goals)],
                deadline_s=deadline_s,
                # Priming a 10k inventory takes minutes of compose time, so
                # the staleness budget must cover the full priming pass.
                max_stale_s=600.0,
            )
            t0 = time.perf_counter()
            outcome = await service.submit(q)
            latencies.append(time.perf_counter() - t0)
            counts[outcome.status.value] = counts.get(outcome.status.value, 0) + 1

    for batch in range(N_BATCHES):
        t0 = time.perf_counter()
        await asyncio.gather(*(one(batch * per_batch + i) for i in range(per_batch)))
        timed += time.perf_counter() - t0
        if between_batches is not None and batch < N_BATCHES - 1:
            between_batches()
    return latencies, counts, timed


def percentile_ms(latencies: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q) * 1000.0)


def run_mode(
    hub: SnapshotHub,
    scenario,
    *,
    chaos: bool,
    n_queries: int,
    seed: int = 3,
) -> Dict[str, object]:
    mission_goals = goals(scenario.region, N_GOALS)
    service = make_service(hub, backends={"greedy": GreedyComposer()})

    churn_rng = np.random.default_rng(seed)
    network = hub.network

    def churn_step():
        """Off-the-clock world churn: kill a few nodes, publish an epoch."""
        up = [n.id for n in network.up_nodes()]
        for node_id in churn_rng.choice(up, size=max(1, len(up) // 50), replace=False):
            network.fail_node(int(node_id))
        hub.publish()

    async def scenario_run():
        async with service:
            # Prime with the healthy composer: answer each distinct goal
            # live once (the steady-state answer population a long-running
            # service would have accumulated).
            for g in mission_goals:
                outcome = await service.submit(
                    SynthesisQuery(goal=g, deadline_s=60.0)
                )
                assert outcome.status.value == "ok", outcome.reason
            if chaos:
                # The backend falls over and the world churns: every call
                # now raises, and a fresh epoch invalidates the fresh cache.
                service.backends["greedy"] = ChaosBackend(
                    GreedyComposer(),
                    ChaosConfig(error_prob=1.0, seed=seed),
                    name="bench",
                )
                churn_step()
            return await timed_batches(
                service,
                mission_goals,
                n_queries=n_queries,
                between_batches=churn_step if chaos else None,
            )

    latencies, counts, timed = asyncio.run(scenario_run())

    terminal = sum(counts.values())
    return {
        "queries": terminal,
        "timed_s": timed,
        "qps": terminal / timed if timed > 0 else 0.0,
        "p50_ms": percentile_ms(latencies, 50),
        "p99_ms": percentile_ms(latencies, 99),
        "outcomes": counts,
        "all_terminal": terminal == n_queries,
        "epoch": hub.epoch,
    }


def bench(sizes=SIZES, n_queries: int = 4000) -> Dict[str, object]:
    inventories: Dict[str, object] = {}
    for n_assets in sizes:
        # 10k-asset epochs cost ~8 s of topology each; keep that size light.
        n_q = n_queries if n_assets <= 1000 else max(N_BATCHES, n_queries // 4)
        hub, scenario = build_hub(n_assets)
        off = run_mode(hub, scenario, chaos=False, n_queries=n_q)
        hub, scenario = build_hub(n_assets)  # fresh world for the chaos run
        on = run_mode(hub, scenario, chaos=True, n_queries=n_q)
        inventories[str(n_assets)] = {"chaos_off": off, "chaos_on": on}
        print(
            f"{n_assets:>6} assets: off {off['qps']:,.0f} qps "
            f"p99={off['p99_ms']:.2f}ms | chaos {on['qps']:,.0f} qps "
            f"p99={on['p99_ms']:.2f}ms "
            f"degraded={on['outcomes'].get('degraded', 0)}/{on['queries']}"
        )

    anchor = inventories["1000"]
    slos = {
        "qps_floor": QPS_FLOOR,
        "chaos_p99_budget_ms": CHAOS_P99_BUDGET_MS,
        "qps_1k_chaos_off": anchor["chaos_off"]["qps"],
        "qps_1k_ok": anchor["chaos_off"]["qps"] >= QPS_FLOOR,
        "chaos_p99_ratio": (
            anchor["chaos_on"]["p99_ms"] / anchor["chaos_off"]["p99_ms"]
            if anchor["chaos_off"]["p99_ms"] > 0
            else float("inf")
        ),
        "chaos_p99_ok": anchor["chaos_on"]["p99_ms"] <= CHAOS_P99_BUDGET_MS,
        "all_terminal": all(
            mode["all_terminal"]
            for entry in inventories.values()
            for mode in entry.values()
        ),
    }
    return {
        "schema": BENCH_PR6_SCHEMA,
        "slos": slos,
        "inventories": inventories,
    }


def write_bench_pr6(payload: Dict[str, object], path: Optional[str] = None) -> str:
    if path is None:
        out_dir = os.environ.get("REPRO_BENCH_JSON_DIR") or os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "BENCH_pr6.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(json_safe(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")
    return path


def main() -> int:
    payload = bench()
    path = write_bench_pr6(payload)
    print(f"wrote {path}")
    slos = payload["slos"]
    print(
        f"SLOs: qps_1k={slos['qps_1k_chaos_off']:,.0f} "
        f"(floor {slos['qps_floor']:,.0f}) -> "
        f"{'OK' if slos['qps_1k_ok'] else 'FAIL'}; "
        f"chaos p99={payload['inventories']['1000']['chaos_on']['p99_ms']:.2f}ms "
        f"(budget {slos['chaos_p99_budget_ms']:.0f}ms, "
        f"{slos['chaos_p99_ratio']:.0f}x chaos-off) -> "
        f"{'OK' if slos['chaos_p99_ok'] else 'FAIL'}; "
        f"all_terminal={'OK' if slos['all_terminal'] else 'FAIL'}"
    )
    ok = slos["qps_1k_ok"] and slos["chaos_p99_ok"] and slos["all_terminal"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
