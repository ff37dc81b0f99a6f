"""Parent-vs-change claim table for the perf ledger, and its pinned runs.

    python tests/tools/compare.py <parent-rev> [<change-rev>] --workload NAME
        [--workload NAME ...] [--pairs N] [--seconds S] [--seed N] [--tiny]
        [--setup N] [--out FILE]
    python tests/tools/compare.py check

Checks both revisions (``<change-rev>`` defaults to ``HEAD``) out as
temporary ``git worktree``s and runs ``benchmarks/ledger/run.py --trace 0``
from each, every run a fresh process.  Runs come in pairs, one per side;
the side that runs first alternates from pair to pair, and pair ``k`` runs
seed ``--seed + k`` on both sides.  UTC time and ``os.getloadavg()`` are
stamped around every run.  A pair in which the 1-minute load average moved
by more than ``LOAD_MOVE`` (0.5 runnable tasks) between the start and the
end of either half is rejected: it is counted and kept in the JSON, but no
metric reads it.

Every ``exact.*`` line must be equal within a pair, rejected or not.  The
JSON claim table (``--out``, default ``compare-<workload>.json`` for one
workload, else ``compare.json``) holds, per workload and end-to-end metric
of ``BENCHMARK.json``: each side's values, median and quartiles over the
accepted pairs, the change/parent ratio's median and range, wins out of
pairs, and a verdict from :func:`classify`; per workload, each side's
failed and attempted operations.  ``BENCHMARK.json`` is read from the
change's worktree and never written.

``--setup N`` re-measures set-up in process: one fresh process per side
imports that worktree's ledger and reports the fastest of ``N`` calls to
``Workload.build`` (each after a ``gc.collect()``), or, for a workload
with no ``build``, the fastest ``setup_s`` of ``N`` rounds, stamped like a
run.  ``--pairs 0 --setup N`` measures set-up alone.

Exit status: 0 when every run was correct with no failed operation and
every pair's exact lines were equal, 1 otherwise, 2 on a bad revision or a
run that did not finish.

``check`` runs the working tree's ledger as ``tests/tools/pins.json`` says
(see :func:`check`), prints one line per run and exits 0 when every run
holds its pins, 1 otherwise.  Stdlib only.
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
SCHEMA = "compare/3"
#: The ledger's pinned runs and exact statistics per cell, read by ``check``.
PINS = os.path.join(ROOT, "tests", "tools", "pins.json")
#: Share of pairs the change must win for a BETTER verdict.
WIN_SHARE = 0.9
#: Largest move of the 1-minute load average (runnable tasks) between the
#: stamps around one half of a pair before the pair is rejected.
LOAD_MOVE = 0.5
#: Run from a worktree's root by ``--setup``: ``name seed n tiny`` in argv,
#: one JSON object out.
SETUP_PROBE = """
import gc, json, sys, time
sys.path[:0] = ["src", "."]
from benchmarks.ledger.workloads import WORKLOADS
name, seed, n, tiny = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1"
workload = next(w for w in WORKLOADS if w.name == name)
inputs = workload.inputs(seed, tiny)
build = getattr(workload, "build", None)
times = []
for _ in range(n):
    if build is None:
        times.append(workload.round(inputs).setup_s)
        continue
    gc.collect()
    t0 = time.perf_counter()
    build(inputs)
    times.append(time.perf_counter() - t0)
how = "round" if build is None else "build"
print(json.dumps({"how": how, "min_s": min(times), "times": times}))
"""


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


def clean_env() -> Dict[str, str]:
    """This process's environment for a side's run: each side imports its own
    tree, so nothing from this process's paths, hash seed or ``REPRO_*``
    settings."""
    return {k: v for k, v in os.environ.items()
            if k not in ("PYTHONPATH", "PYTHONHASHSEED") and not k.startswith("REPRO_")}


def run_stamped(
    argv: Sequence[str], tree: str, what: str, env: Dict[str, str]
) -> Tuple[List[str], Dict[str, Any]]:
    """``argv`` run from ``tree``: its stdout lines, and the time and load
    stamps around it."""
    before = stamp()
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    after = stamp()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = "\n".join(done.stderr.strip().splitlines()[-5:])
        raise CompareError(f"{what} in {tree}: exit {done.returncode}\n{tail}")
    return lines, {"start": before, "end": after}


def run_once(
    tree: str, workload: str, seed: int, seconds: float, tiny: bool,
    trace: bool = False, hash_seed: Optional[int] = None,
) -> Dict[str, Any]:
    """One contract run of ``workload`` from ``tree``, traced or not, with
    ``PYTHONHASHSEED`` set to ``hash_seed`` or unset: its values, its exact
    lines as ``[name, value]`` pairs and its time and load stamps."""
    argv = [
        sys.executable, os.path.join("benchmarks", "ledger", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ] + (["--tiny"] if tiny else [])
    env = clean_env()
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    lines, stamps = run_stamped(argv, tree, f"{workload} seed {seed}", env)
    result = json.loads(lines[-1])
    return {
        **stamps,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "exact": sorted(line.split()[1:3] for line in lines if " exact." in line),
    }


def measure_setup(tree: str, workload: str, seed: int, n: int, tiny: bool) -> Dict[str, Any]:
    """``--setup``: the fastest of ``n`` set-ups of ``workload``, in one fresh
    process that imports ``tree``'s ledger, with the stamps around it."""
    argv = [sys.executable, "-c", SETUP_PROBE, workload, str(seed), str(n), "1" if tiny else "0"]
    lines, stamps = run_stamped(argv, tree, f"{workload} set-up", clean_env())
    return {**json.loads(lines[-1]), **stamps}


def load_move(run: Dict[str, Any]) -> float:
    """How far the 1-minute load average moved across one run."""
    return abs(run["end"]["load1"] - run["start"]["load1"])


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

    ``parent[k]`` and ``change[k]`` are pair ``k``'s values, and ``bound``
    is the metric's bound, a share of the parent median.  The verdict is
    ``UNRESOLVED`` when the parent's interquartile distance exceeds
    ``bound`` of its median, unless every change run is better than every
    parent run; else ``BETTER`` when the change wins at least ``WIN_SHARE``
    of the pairs (ties win nothing) and its median is better by more than
    that interquartile distance; else ``WORSE`` when its median is worse
    than the parent's by more than ``bound`` of the parent median; else
    ``WITHIN_BOUND``.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ratios = [c / p for p, c in zip(parent, change) if p]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    apart = min(sign * p for p in parent) > max(sign * c for c in change)
    if spread > bound * abs(p_med) and not apart:
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


def summarize(pairs: Sequence[Dict[str, Any]], bench: Dict[str, Any]) -> Dict[str, Any]:
    """One workload's cell from its pairs: exactness, correctness and each
    side's failed and attempted operations over every pair, each end-to-end
    metric over the pairs whose load held.  A run with a failed operation
    is not correct, whatever its own ``correct`` says.

    A pair is rejected when :func:`load_move` of either half exceeds
    ``LOAD_MOVE``; with no pair left a metric is UNRESOLVED.
    """
    kept = [p for p in pairs
            if max(load_move(p["parent"]), load_move(p["change"])) <= LOAD_MOVE]
    metrics = {}
    for m in bench["end_to_end"]:
        name = m["name"]
        cell: Dict[str, Any] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        if kept:
            parent = [p["parent"]["metrics"][name] for p in kept]
            change = [p["change"]["metrics"][name] for p in kept]
            cell.update(parent=side_summary(parent), change=side_summary(change),
                        **classify(parent, change, m["better"], m["bound"]))
        else:
            cell.update(parent=None, change=None, wins=0, losses=0, pairs=0,
                        ratio={"median": None, "min": None, "max": None},
                        verdict="UNRESOLVED")
        metrics[name] = cell
    sides = ("parent", "change")
    return {
        "exact_equal": all(p["exact_equal"] for p in pairs),
        "correct": all(p[s]["correct"] and not p[s]["failed"] for p in pairs for s in sides),
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in sides},
        "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in sides},
        "rejected": len(pairs) - len(kept),
        "metrics": metrics,
        "pairs": list(pairs),
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
              f"load_move={max(load_move(pair['parent']), load_move(pair['change'])):.2f} "
              + " ".join(f"{m}={pair['parent']['metrics'][m]:.4g}->"
                         f"{pair['change']['metrics'][m]:.4g}"
                         for m in pair["parent"]["metrics"]),
              file=log, flush=True)
    return summarize(pairs, bench)


def print_table(table: Dict[str, Any], out: Any) -> None:
    for workload, cell in table["workloads"].items():
        if "metrics" in cell:
            ops = "  ".join(f"{s} failed {cell['failed'][s]}/{cell['attempted'][s]}"
                            for s in ("parent", "change"))
            print(f"{workload}: exact_equal={cell['exact_equal']} correct={cell['correct']} "
                  f"rejected={cell['rejected']}/{len(cell['pairs'])}  {ops}", file=out)
        for name, m in cell.get("metrics", {}).items():
            if m["parent"] is None:
                print(f"  {name:12s} no pair accepted  {m['verdict']}", file=out)
                continue
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
        setup = cell.get("setup")
        if setup:
            p, c = setup["parent"]["min_s"], setup["change"]["min_s"]
            print(f"{workload}: in-process set-up, fastest of {setup['n']} "
                  f"{setup['parent']['how']} calls: parent {p:.6g} s  change {c:.6g} s  "
                  f"ratio {c / p:.3f}", file=out)


def misses(run: Dict[str, Any], pins: Dict[str, Any]) -> List[str]:
    """What one run gets wrong against its pins; empty when it holds them.

    A pinned key is an ``exact.*`` line's printed text or a metric of the
    result object.  A key the run does not print is wrong; one that is not
    pinned is not read."""
    printed = {**run["metrics"], **dict(run["exact"])}
    wrong = []
    if not run["correct"] or run["failed"]:
        wrong.append(f"correct={run['correct']} failed={run['failed']}")
    for key, want in pins.items():
        if key not in printed:
            wrong.append(f"{key} not printed, pinned {want!r}")
        elif printed[key] != want:
            wrong.append(f"{key} = {printed[key]!r}, pinned {want!r}")
    return wrong


def check(pins: Dict[str, Any], tiny: bool = False, out: Any = sys.stdout) -> int:
    """Every run ``pins`` asks of this tree's ledger, one line each; the
    number of runs that failed.

    Each cell runs untraced under each of ``pins["hash_seeds"]`` (``None``
    leaves ``PYTHONHASHSEED`` unset) and, when it has a ``traced`` entry,
    once traced with the hash seed unset, all at ``pins["seed"]`` for
    ``pins["seconds"]``.  A run holds when it is correct, fails no
    operation and prints its cell's ``exact`` pins, plus its ``traced``
    pins on the traced run.  A run that does not finish fails."""
    failed = 0
    for cell, spec in pins["cells"].items():
        runs = [(False, h) for h in pins["hash_seeds"]]
        if "traced" in spec:
            runs.append((True, None))
        for trace, hash_seed in runs:
            want = {**spec["exact"], **(spec["traced"] if trace else {})}
            label = (f"{cell} trace={int(trace)} "
                     f"PYTHONHASHSEED={'unset' if hash_seed is None else hash_seed}")
            try:
                run = run_once(ROOT, cell, pins["seed"], pins["seconds"], tiny, trace, hash_seed)
            except CompareError as exc:
                wrong, ops = [str(exc)], "did not finish"
            else:
                wrong = misses(run, want)
                ops = f"failed {run['failed']}/{run['attempted']}"
            failed += bool(wrong)
            print(f"{'FAIL' if wrong else 'ok  '} {label}  {ops}  {len(want)} pins"
                  + "".join(f"; {w}" for w in wrong), file=out, flush=True)
    return failed


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv == ["check"]:
        with open(PINS, encoding="utf-8") as fh:
            return 1 if check(json.load(fh)) else 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=12, help="pair k runs seed SEED + k")
    parser.add_argument("--tiny", action="store_true", help="the ledger's self-test scale")
    parser.add_argument("--setup", type=int, default=0, metavar="N",
                        help="also time N set-ups in one fresh process per side")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.setup < 0 or args.pairs < (0 if args.setup else 1):
        parser.error("--pairs must be at least 1, or 0 with --setup N")
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
                     "seeds": seeds, "load_move_max": LOAD_MOVE, "setup": args.setup},
        "host": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "workloads": {},
    }
    try:
        with worktrees([sides["parent"]["sha"], sides["change"]["sha"]]) as (p_tree, c_tree):
            with open(os.path.join(c_tree, "BENCHMARK.json"), encoding="utf-8") as fh:
                bench = json.load(fh)
            trees = {"parent": p_tree, "change": c_tree}
            for workload in args.workload:
                cell: Dict[str, Any] = {}
                if seeds:
                    cell = compare_workload(
                        trees, workload, seeds, args.seconds, args.tiny, bench, sys.stderr
                    )
                if args.setup:
                    cell["setup"] = {"n": args.setup, "seed": args.seed, **{
                        side: measure_setup(trees[side], workload, args.seed, args.setup,
                                            args.tiny)
                        for side in ("parent", "change")
                    }}
                table["workloads"][workload] = cell
    except CompareError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    print_table(table, sys.stdout)
    print(f"wrote {out}")
    cells = table["workloads"].values()
    return 0 if all(c.get("exact_equal", True) and c.get("correct", True) for c in cells) else 1


if __name__ == "__main__":
    sys.exit(main())
