"""Parent-vs-change claim table for the perf ledger.

    python tests/tools/compare.py <parent-rev> [<change-rev>] --workload NAME
        [--workload NAME ...] [--pairs N] [--seconds S] [--seed N] [--tiny]
        [--out FILE]

Checks both revisions (``<change-rev>`` defaults to ``HEAD``) out as
temporary ``git worktree``s and runs ``benchmarks/ledger/run.py --trace 0``
from each, every run a fresh process.  Runs come in pairs, one per side;
the side that runs first alternates from pair to pair, and pair ``k`` runs
seed ``--seed + k`` on both sides.  UTC time and ``os.getloadavg()`` are
stamped around every run.

Every ``exact.*`` line must be equal within a pair.  The JSON claim table
(``--out``, default ``compare-<workload>.json`` for one workload, else
``compare.json``) holds, per workload and end-to-end metric of
``BENCHMARK.json``: each side's values, median and quartiles, the
change/parent ratio's median and range over pairs, wins out of pairs, and
a verdict from :func:`classify`.  ``BENCHMARK.json`` is read from the
change's worktree and never written.

Exit status: 0 when every run was correct and every pair's exact lines
were equal, 1 otherwise, 2 on a bad revision or a run that did not finish.
Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCHEMA = "compare/1"
#: A cell whose parent runs spread wider than this share of their median
#: (interquartile distance) is UNRESOLVED: no claim either way.
UNRESOLVED_SPREAD = 0.25
#: Share of pairs the change must win for a BETTER verdict.
WIN_SHARE = 0.9


class CompareError(Exception):
    """A revision that does not resolve, or a run that did not finish."""


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise CompareError(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def describe(rev: str) -> Dict[str, str]:
    """The commit ``rev`` names, with the trees of the program and the ledger,
    which identify what ran even after the commit is rewritten."""
    sha = git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
    return {
        "rev": rev,
        "sha": sha,
        "src_tree": git("rev-parse", f"{sha}:src"),
        "ledger_tree": git("rev-parse", f"{sha}:benchmarks/ledger"),
    }


@contextlib.contextmanager
def worktrees(shas: Sequence[str]) -> Iterator[List[str]]:
    """One detached worktree per commit, removed on the way out."""
    base = tempfile.mkdtemp(prefix="compare-")
    paths: List[str] = []
    try:
        for k, sha in enumerate(shas):
            path = os.path.join(base, f"side{k}")
            git("worktree", "add", "--detach", "--quiet", path, sha)
            paths.append(path)
        yield paths
    finally:
        for path in paths:
            subprocess.run(["git", "worktree", "remove", "--force", path], cwd=ROOT,
                           capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(base, ignore_errors=True)


def stamp() -> Dict[str, Any]:
    return {
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "load1": os.getloadavg()[0],
    }


def run_once(tree: str, workload: str, seed: int, seconds: float, tiny: bool) -> Dict[str, Any]:
    """One contract run of ``workload`` from ``tree``: its end-to-end values,
    its exact lines as ``[name, value]`` pairs and its time and load stamps."""
    argv = [
        sys.executable, os.path.join("benchmarks", "ledger", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "0",
    ] + (["--tiny"] if tiny else [])
    # Each side imports its own tree: nothing from this process's paths.
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONPATH" and not k.startswith("REPRO_")}
    before = stamp()
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    after = stamp()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = "\n".join(done.stderr.strip().splitlines()[-5:])
        raise CompareError(f"{workload} seed {seed} in {tree}: exit {done.returncode}\n{tail}")
    result = json.loads(lines[-1])
    return {
        "start": before,
        "end": after,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "exact": sorted(line.split()[1:3] for line in lines if " exact." in line),
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def side_summary(values: Sequence[float]) -> Dict[str, Any]:
    q1, q3 = quartiles(values)
    return {"values": list(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def classify(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, Any]:
    """One metric's pairs: ratio statistics, wins and the verdict.

    ``parent[k]`` and ``change[k]`` are pair ``k``'s values.  The verdict is
    ``UNRESOLVED`` when the parent's interquartile distance exceeds
    ``UNRESOLVED_SPREAD`` of its median; else ``BETTER`` when the change
    wins at least ``WIN_SHARE`` of the pairs (ties win nothing) and its
    median is better by more than that interquartile distance; else
    ``WORSE`` when its median is worse than the parent's by more than
    ``bound`` (a share of the parent median); else ``WITHIN_BOUND``.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ratios = [c / p for p, c in zip(parent, change) if p]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    if spread > UNRESOLVED_SPREAD * abs(p_med):
        verdict = "UNRESOLVED"
    elif wins >= WIN_SHARE * len(parent) and sign * (p_med - c_med) > spread:
        verdict = "BETTER"
    elif sign * (c_med - p_med) > bound * abs(p_med):
        verdict = "WORSE"
    else:
        verdict = "WITHIN_BOUND"
    return {
        "ratio": {
            "median": statistics.median(ratios) if ratios else None,
            "min": min(ratios) if ratios else None,
            "max": max(ratios) if ratios else None,
        },
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "verdict": verdict,
    }


def compare_workload(
    trees: Dict[str, str], workload: str, seeds: Sequence[int], seconds: float,
    tiny: bool, bench: Dict[str, Any], log: Any,
) -> Dict[str, Any]:
    pairs = []
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair: Dict[str, Any] = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], workload, seed, seconds, tiny)
        pair["exact_equal"] = pair["parent"]["exact"] == pair["change"]["exact"]
        pairs.append(pair)
        print(f"{workload} pair {k + 1}/{len(seeds)} seed {seed} first={order[0]} "
              f"exact_equal={pair['exact_equal']} "
              + " ".join(f"{m}={pair['parent']['metrics'][m]:.4g}->"
                         f"{pair['change']['metrics'][m]:.4g}"
                         for m in pair["parent"]["metrics"]),
              file=log, flush=True)
    metrics = {}
    for m in bench["end_to_end"]:
        name = m["name"]
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": side_summary(parent), "change": side_summary(change),
            **classify(parent, change, m["better"], m["bound"]),
        }
    return {
        "exact_equal": all(p["exact_equal"] for p in pairs),
        "correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
        "metrics": metrics,
        "pairs": pairs,
    }


def print_table(table: Dict[str, Any], out: Any) -> None:
    for workload, cell in table["workloads"].items():
        print(f"{workload}: exact_equal={cell['exact_equal']} correct={cell['correct']}",
              file=out)
        for name, m in cell["metrics"].items():
            ratio = m["ratio"]
            span = (f"ratio {ratio['median']:.3f} [{ratio['min']:.3f}, {ratio['max']:.3f}]"
                    if ratio["median"] is not None else "ratio n/a")
            print(
                f"  {name:12s} parent {m['parent']['median']:.6g} "
                f"(q1 {m['parent']['q1']:.6g} q3 {m['parent']['q3']:.6g})  "
                f"change {m['change']['median']:.6g} "
                f"(q1 {m['change']['q1']:.6g} q3 {m['change']['q3']:.6g}) {m['unit']}  "
                f"{span}  wins {m['wins']}/{m['pairs']}  {m['verdict']}",
                file=out,
            )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=12, help="pair k runs seed SEED + k")
    parser.add_argument("--tiny", action="store_true", help="the ledger's self-test scale")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    out = args.out or (
        f"compare-{args.workload[0]}.json" if len(args.workload) == 1 else "compare.json"
    )
    try:
        sides = {"parent": describe(args.parent), "change": describe(args.change)}
    except CompareError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    seeds = [args.seed + k for k in range(args.pairs)]
    table: Dict[str, Any] = {
        "schema": SCHEMA,
        **sides,
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "tiny": args.tiny,
                     "seeds": seeds},
        "host": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "workloads": {},
    }
    try:
        with worktrees([sides["parent"]["sha"], sides["change"]["sha"]]) as (p_tree, c_tree):
            with open(os.path.join(c_tree, "BENCHMARK.json"), encoding="utf-8") as fh:
                bench = json.load(fh)
            trees = {"parent": p_tree, "change": c_tree}
            for workload in args.workload:
                table["workloads"][workload] = compare_workload(
                    trees, workload, seeds, args.seconds, args.tiny, bench, sys.stderr
                )
    except CompareError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    print_table(table, sys.stdout)
    print(f"wrote {out}")
    cells = table["workloads"].values()
    return 0 if all(c["exact_equal"] and c["correct"] for c in cells) else 1


if __name__ == "__main__":
    sys.exit(main())
