"""Command-line smoke campaign: ``python -m repro.campaign``.

Runs a small built-in sweep — multi-hop unicast delivery over a line
network, routers × network sizes × seed replicates — through the full
campaign stack (spec expansion, process-pool fan-out, result cache,
aggregation) and writes the aggregated table as JSON.  CI runs this as its
smoke-campaign job and uploads the JSON as a build artifact; it is also a
quick local health check that parallel execution works on a given machine.

``python -m repro.campaign replay <cache-entry.json>`` re-runs one cached
task from its stored params/seed and verifies every deterministic result
field (and the RunManifest fingerprint) reproduces exactly.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import Any, Dict

from repro.campaign.cache import ResultCache
from repro.campaign.runner import CampaignInterrupted, CampaignRunner
from repro.campaign.spec import SweepSpec

__all__ = ["smoke_task", "smoke_spec", "replay_main", "main"]

#: Result keys that legitimately vary between bit-identical executions
#: (wall-clock throughput) or that replay compares field-by-field
#: (``run_manifest``); everything else must reproduce exactly.
REPLAY_VOLATILE_KEYS = ("events_per_sec", "run_manifest")

#: RunManifest fields replay asserts on.  ``created_at``, ``env``, and
#: ``exports`` are process-local by design and excluded.
REPLAY_MANIFEST_KEYS = ("fingerprint", "root_seed", "rng_streams", "checkpoints")


def smoke_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One smoke run: periodic unicasts across an ``n_nodes`` line network.

    Honors the ``REPRO_OBS_*`` environment (NDJSON sink / profiler — see
    :func:`repro.obs.wire_from_env`); CI's obs-smoke job uses that to
    produce a telemetry export it then feeds to ``repro.obs report``.
    """
    # Imports stay local so ``--help`` costs nothing.
    from repro import Simulator
    from repro.net.channel import Channel
    from repro.net.node import Network
    from repro.net.routing import AodvRouter, FloodingRouter
    from repro.net.transport import MessageService
    from repro.obs import wire_from_env
    from repro.util.geometry import Point

    n_nodes = int(params["n_nodes"])
    spacing = float(params["spacing_m"])
    horizon = float(params["horizon_s"])

    sim = wire_from_env(Simulator(seed=seed))
    net = Network(
        sim, Channel(shadowing_sigma_db=0, fading_sigma_db=0, seed=seed)
    )
    for i in range(1, n_nodes + 1):
        net.create_node(i, Point(i * spacing, 0.0))
    router_cls = {"aodv": AodvRouter, "flooding": FloodingRouter}[params["router"]]
    router = router_cls(net)
    router.attach_all(range(1, n_nodes + 1))
    service = MessageService(router)

    rng = sim.rng.get("workload")

    def tick():
        if sim.now > horizon * 0.8:
            return
        a, b = rng.choice(range(1, n_nodes + 1), size=2, replace=False)
        service.send(int(a), int(b))
        sim.call_in(float(rng.exponential(3.0)), tick)

    sim.call_in(0.5, tick)
    with sim.span("smoke-run", router=params["router"], n_nodes=n_nodes):
        sim.run(until=horizon)
    sim.export_obs()

    from repro.obs.forensics import manifest_for_sim

    return {
        "delivery_ratio": service.delivery_ratio(),
        "tx_attempts": float(sim.metrics.counter("net.tx_attempts")),
        "events_per_sec": sim.events_per_sec,
        "trace_fingerprint": sim.trace.fingerprint(),
        # Full provenance (seed, RNG stream draw counts, trace digest) so
        # cached entries stay auditable and `repro.campaign replay` can
        # re-verify them; aggregation ignores non-numeric result fields.
        "run_manifest": manifest_for_sim(sim).as_dict(),
    }


def smoke_spec(replicates: int = 3) -> SweepSpec:
    return SweepSpec(
        name="smoke-line-delivery",
        grid={"router": ("flooding", "aodv"), "n_nodes": (8, 12)},
        fixed={"spacing_m": 75.0, "horizon_s": 120.0},
        replicates=replicates,
        base_seed=2018,
        # Pair both routers on identical worlds per size/replicate.
        seed_params=("n_nodes",),
    )


def _load_task_fn(spec: str):
    """Resolve a ``module:attr`` task-function reference."""
    import importlib

    module_name, _, attr = spec.partition(":")
    if not attr:
        raise ValueError(f"task fn must look like module:attr, got {spec!r}")
    return getattr(importlib.import_module(module_name), attr)


def replay_main(argv=None) -> int:
    """``python -m repro.campaign replay <entry>``: re-run one cached task.

    ``entry`` is a result-cache entry JSON (the ``<key>.json`` file a
    :class:`~repro.campaign.cache.ResultCache` wrote), or a bare cache key
    combined with ``--cache DIR``.  The task function re-executes with the
    cached params and seed, and every deterministic result field — plus
    the RunManifest's fingerprint and RNG draw counts — must reproduce
    exactly.  Exit status: 0 reproduced, 1 diverged, 2 unreadable entry.
    """
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign replay",
        description="Re-run one cached campaign task and verify determinism.",
    )
    parser.add_argument("entry", help="cache entry JSON file, or key with --cache")
    parser.add_argument("--cache", default=None, help="cache directory for bare keys")
    parser.add_argument(
        "--fn",
        default="repro.campaign.cli:smoke_task",
        help="task function as module:attr (default: the smoke task)",
    )
    parser.add_argument("--json", dest="json_out", default=None,
                        help="also write the replay verdict as JSON here")
    args = parser.parse_args(argv)

    path = args.entry
    if not os.path.exists(path) and args.cache:
        path = ResultCache(args.cache).path_for(args.entry)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
        params, seed, cached = entry["params"], entry["seed"], entry["result"]
        task_fn = _load_task_fn(args.fn)
    except (OSError, json.JSONDecodeError, KeyError, ValueError, AttributeError,
            ImportError) as exc:
        print(f"error: cannot replay {args.entry!r}: {exc!r}", file=sys.stderr)
        return 2

    fresh = task_fn(params, seed)
    mismatches = []
    for key in sorted(cached):
        if key in REPLAY_VOLATILE_KEYS:
            continue
        if cached[key] != fresh.get(key):
            mismatches.append(
                {"field": key, "cached": cached[key], "replayed": fresh.get(key)}
            )
    cached_manifest = cached.get("run_manifest") or {}
    fresh_manifest = fresh.get("run_manifest") or {}
    if cached_manifest and fresh_manifest:
        for key in REPLAY_MANIFEST_KEYS:
            if cached_manifest.get(key) != fresh_manifest.get(key):
                mismatches.append(
                    {
                        "field": f"run_manifest.{key}",
                        "cached": cached_manifest.get(key),
                        "replayed": fresh_manifest.get(key),
                    }
                )
    verdict = {
        "match": not mismatches,
        "key": entry.get("key"),
        "seed": seed,
        "params": params,
        "mismatches": mismatches,
    }
    print(
        f"task key={entry.get('key')} seed={seed}: "
        + ("REPLAY OK: cached result reproduced" if verdict["match"]
           else f"REPLAY DIVERGED ({len(mismatches)} field(s))")
    )
    for row in mismatches:
        print(f"  {row['field']}: cached={row['cached']!r} "
              f"replayed={row['replayed']!r}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(verdict, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json_out}")
    return 0 if verdict["match"] else 1


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A leading `replay` dispatches to the forensics subcommand; the main
    # campaign CLI stays a flat option parser (CI invokes it bare).
    if argv and argv[0] == "replay":
        return replay_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run the built-in smoke campaign.",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--replicates", type=int, default=3)
    parser.add_argument(
        "--out", default="campaign-out", help="directory for the aggregated JSON"
    )
    parser.add_argument(
        "--cache", default=None, help="result-cache directory (default: no cache)"
    )
    parser.add_argument("--timeout-s", type=float, default=300.0)
    parser.add_argument(
        "--trace-dir",
        default=None,
        help=(
            "enable causal packet tracing and write each task's telemetry "
            "to its own NDJSON file in this directory (analyze with "
            "`python -m repro.obs trace <dir>`)"
        ),
    )
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
    )
    if args.trace_dir:
        # Exported via the environment so pool workers inherit it; each
        # task's wire_from_env picks a distinct task-<pid>-<seq>.ndjson.
        os.makedirs(args.trace_dir, exist_ok=True)
        os.environ["REPRO_OBS_NDJSON_DIR"] = args.trace_dir
        os.environ["REPRO_OBS_TRACE"] = "1"
    runner = CampaignRunner(
        smoke_task,
        workers=args.workers,
        cache=ResultCache(args.cache) if args.cache else None,
        timeout_s=args.timeout_s,
    )
    try:
        result = runner.run(smoke_spec(args.replicates))
    except CampaignInterrupted as interrupt:
        # Ctrl-C is a clean stop, not a crash: completed entries were
        # flushed to the cache already, so a rerun resumes where this one
        # stopped.  Summarize what settled and exit zero.
        partial = interrupt.partial
        print(
            f"\ninterrupted: settled={partial.n_tasks} "
            f"cached={partial.n_cached} executed={partial.n_executed} "
            f"failed={partial.n_failed} wall={partial.wall_s:.2f}s "
            f"(completed results flushed"
            + (f" to {args.cache})" if args.cache else "; no cache configured)")
        )
        return 0
    table = result.table(
        "Smoke — line-network delivery by router",
        param_cols=["router", "n_nodes"],
        metrics=["delivery_ratio", "tx_attempts", "events_per_sec"],
        ci=True,
    )
    table.print()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "smoke-campaign.json"
    table.to_json(str(out_path))
    print(
        f"\ntasks={result.n_tasks} cached={result.n_cached} "
        f"executed={result.n_executed} retried={result.n_retried} "
        f"wall={result.wall_s:.2f}s workers={result.workers}"
    )
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
