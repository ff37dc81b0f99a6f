"""Regenerate ``experiments.lock.json``: one digest per quick-mode experiment table.

Run from the repository root::

    PYTHONPATH=src python benchmarks/experiments_lock.py
    git diff --exit-code experiments.lock.json

Each experiment listed in ``EXPERIMENTS`` is a ``bench_*.py`` module whose
``run_experiment(quick=True)`` table is digested: title, columns and rows
as canonical JSON (floats by ``repr``, non-finite values as ``null``), with
the module's wall-clock columns left out.  A change that moves any other
cell of a locked table moves its digest, so "regenerate exactly" in
EXPERIMENTS.md is something a diff checks.  Locking another experiment is
one more ``EXPERIMENTS`` entry.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys
import time
from typing import Any, Dict, Tuple

from repro.util.tables import json_safe

#: Locked experiments -> the columns they report that a wall clock fills.
EXPERIMENTS: Dict[str, Tuple[str, ...]] = {
    "bench_fig1_functions": (),
    "bench_fig2_synthesis_scale": ("time_s",),
    "bench_e3_discovery": (),
    "bench_fig3_reflexes": (),
    "bench_e5_games": (),
    "bench_e6_intent": (),
    "bench_e7_interference": (),
    "bench_e8_diversity": (),
    "bench_fig4_truth": (),
    "bench_e10_tomography": (),
    "bench_e11_byzantine": (),
    "bench_e12_cost": (),
    "bench_e13_continual": (),
    "bench_e14_safety": (),
    "bench_e15_attention": (),
    "bench_e16_arbiter": (),
    "bench_e17_energy": (),
    "bench_e18_placement": (),
    "bench_e19_comms": (),
    "bench_e20_autonomy": (),
    "bench_faults_reliability": (),
}

SCHEMA = "experiments-lock/1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LOCK_PATH = os.path.join(ROOT, "experiments.lock.json")


def lock_entry(module_name: str, wall_clock: Tuple[str, ...]) -> Dict[str, Any]:
    """Run one experiment in quick mode and describe its table by digest."""
    table = importlib.import_module(module_name).run_experiment(quick=True)
    columns = [c for c in table.columns if c not in wall_clock]
    rows = [[row[c] for c in columns] for row in table.rows]
    canonical = json.dumps(
        {"title": table.title, "columns": columns, "rows": json_safe(rows)},
        sort_keys=True,
        allow_nan=False,
    )
    return {
        "title": table.title,
        "columns": columns,
        "dropped": list(wall_clock),
        "rows": len(rows),
        "digest": hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest(),
    }


def main() -> None:
    experiments = {}
    for name, wall_clock in EXPERIMENTS.items():
        t0 = time.perf_counter()
        entry = experiments[name] = lock_entry(name, wall_clock)
        print(f"{name:<28} {entry['digest']}  {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    document = {"schema": SCHEMA, "mode": "quick", "experiments": experiments}
    with open(LOCK_PATH, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(document, indent=2, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    main()
