"""Shared helpers for the benchmark harness.

Every benchmark regenerates one experiment from DESIGN.md §2 (E1..E20) and
prints its series as a :class:`~repro.util.tables.ResultTable`.  Benchmarks
run in two modes:

* ``pytest benchmarks/ --benchmark-only`` — *quick* mode: reduced sweeps so
  the whole harness completes in minutes; timing captured by
  pytest-benchmark.
* ``python benchmarks/bench_*.py`` — *full* mode: the complete sweep for
  the experiment writeup (EXPERIMENTS.md numbers come from these).

These scripts reproduce the paper's series; they are not where speed is
compared across commits — that is the perf ledger (``benchmarks/ledger``,
declared in ``BENCHMARK.json``).

Sweep-shaped benchmarks run through :mod:`repro.campaign`;
:func:`campaign_runner` wires a runner to the benchmark environment:

* ``REPRO_BENCH_WORKERS`` — process-pool width (default 1, i.e. serial;
  parallel and serial runs aggregate to identical tables by construction);
* ``REPRO_CAMPAIGN_CACHE`` — result-cache directory (default: no cache).
  With a cache, an interrupted sweep resumes where it stopped and a warm
  rerun executes nothing.
"""

from __future__ import annotations

import os
import re
import time
from typing import Any, Callable, Dict, Optional

from repro import ScenarioBuilder, Simulator
from repro.campaign import CampaignRunner, ResultCache
from repro.obs import wire_from_env
from repro.util.tables import ResultTable, json_safe

__all__ = [
    "ResultTable",
    "standard_scenario",
    "run_and_print",
    "json_safe",
    "table_slug",
    "write_table_json",
    "campaign_runner",
    "sim_rate",
]


def standard_scenario(
    seed: int,
    *,
    blocks: int = 8,
    n_blue: int = 80,
    n_red: int = 10,
    n_gray: int = 30,
    density: float = 0.4,
    targets: int = 0,
    jammers: int = 0,
    events: int = 0,
):
    """The default urban world used across experiments.

    Honors the ``REPRO_OBS_*`` environment (``REPRO_OBS_NDJSON`` streams
    the trace to an NDJSON export, ``REPRO_OBS_PROFILE`` turns on the
    kernel profiler), so any benchmark can run fully instrumented with no
    code change; both default off and cost nothing when unset.
    """
    sim = wire_from_env(Simulator(seed=seed))
    builder = (
        ScenarioBuilder(sim)
        .urban_grid(blocks=blocks, block_size_m=100.0, density=density)
        .population(n_blue=n_blue, n_red=n_red, n_gray=n_gray)
    )
    if targets:
        builder = builder.targets(targets)
    if jammers:
        builder = builder.jammers(jammers)
    if events:
        builder = builder.events(events)
    return builder.build()


def campaign_runner(
    fn: Callable[[Dict[str, Any], int], Dict[str, Any]],
    *,
    workers: Optional[int] = None,
    **overrides: Any,
) -> CampaignRunner:
    """A :class:`CampaignRunner` wired to the benchmark environment.

    ``fn`` must be a module-level ``(params, seed) -> dict`` function (the
    picklability contract for pool workers).
    """
    if workers is None:
        workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
    cache_dir = os.environ.get("REPRO_CAMPAIGN_CACHE")
    cache = ResultCache(cache_dir) if cache_dir else None
    return CampaignRunner(fn, workers=workers, cache=cache, **overrides)


def sim_rate(sim: Simulator) -> Dict[str, float]:
    """Kernel throughput counters for a task's result dict.

    ``Simulator.run`` accumulates events fired and wall seconds spent, so
    every benchmark can report events/sec for free by merging this into
    its metrics (``result.update(sim_rate(sim))``).
    """
    return {
        "events_processed": float(sim.events_processed),
        "sim_wall_s": sim.wall_elapsed,
        "events_per_sec": sim.events_per_sec,
    }


def write_table_json(table: ResultTable, path: str) -> None:
    """Write a table as a JSON document with non-finite values nulled."""
    table.to_json(path)


def table_slug(title: str) -> str:
    """Filename slug for a table title: lowercase, dash-separated, bounded.

    Consecutive non-alphanumeric runs collapse to a single dash (so
    "E2 / Fig.2 — x" and "E2   Fig 2 - x" cannot silently collide on a
    dash-count difference), and an empty slug is an error rather than a
    file named ``.json``.
    """
    slug = re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")
    slug = slug[:60].rstrip("-")
    if not slug:
        raise ValueError(f"table title {title!r} produces an empty JSON slug")
    return slug


#: Slugs written by this process, mapping slug -> title that claimed it.
_WRITTEN_SLUGS: Dict[str, str] = {}


def run_and_print(benchmark, fn: Callable[[], ResultTable]) -> ResultTable:
    """Benchmark ``fn`` once (pedantic single round) and print its table.

    When ``REPRO_BENCH_JSON_DIR`` is set, the table is also written there
    as ``<title-slug>.json`` (non-finite values nulled via json_safe).
    Two distinct titles mapping to one slug raise instead of silently
    overwriting each other's JSON output.
    """
    t0 = time.perf_counter()
    table = benchmark.pedantic(fn, rounds=1, iterations=1)
    harness_wall_s = time.perf_counter() - t0
    print()
    table.print()
    print(f"[obs] harness wall={harness_wall_s:.2f}s")
    telemetry = table.meta.get("telemetry") if isinstance(table.meta, dict) else None
    if telemetry:
        print(
            "[obs] campaign tasks={n_tasks} cached={n_cached} "
            "executed={n_executed} retried={n_retried} wall={wall_s:.2f}s".format(
                **{
                    k: telemetry.get(k, 0)
                    for k in (
                        "n_tasks", "n_cached", "n_executed", "n_retried", "wall_s"
                    )
                }
            )
        )
    out_dir = os.environ.get("REPRO_BENCH_JSON_DIR")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        slug = table_slug(table.title)
        claimed_by = _WRITTEN_SLUGS.setdefault(slug, table.title)
        if claimed_by != table.title:
            raise RuntimeError(
                f"JSON slug collision: {table.title!r} and {claimed_by!r} "
                f"both map to {slug!r}"
            )
        write_table_json(table, os.path.join(out_dir, f"{slug}.json"))
    return table
