"""Reach map: which entry point runs which function of ``src/repro``.

Runs what a user or CI runs — the examples, the quick-mode experiments,
the ``repro.campaign``/``repro.obs`` CLI steps and the perf ledger's
cells — plus the tier-1 suite, each in its own subprocess under a
``sitecustomize`` profile hook, and writes ``REACH.json``: for every
function defined under ``src/repro``, the entry points that called it,
and per package the functions (with their own lines) that only
``tests`` reach or that nothing reaches.

    python tests/tools/reach.py                    # every entry point
    python tests/tools/reach.py --list             # names and commands
    python tests/tools/reach.py --only example: --out /tmp/reach.json
    python tests/tools/reach.py --ratchet base.json   # check, run nothing

Stdlib only.  The hook installs ``sys.setprofile`` and
``threading.setprofile`` and appends each newly seen ``src/repro`` code
object to ``<dir>/<pid>.txt``, one flushed line each, so a forked worker
that leaves through ``os._exit`` still counts.  The experiments run with
``--benchmark-disable``: pytest-benchmark clears the profile function
while it times, so a timed experiment would read as unreached.

A function counts as reached when its own code object was called;
lambdas, comprehensions and class or module bodies are not functions
here.  A function's *own lines* are its ``def`` span (decorators
included) minus the spans of the functions nested in it, so a package's
line counts never count a line twice.

``--ratchet BASE`` compares the map (``--out``) with an older one: a
package whose test-only plus unreached own lines rose fails, unless
``CHANGES.md`` names each function that is newly test-only or unreached
there (by qualname), or, when none is new and a listed one grew, names
one of the package's listed functions.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, NamedTuple, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
SCHEMA = "reach/1"

HOOK = """\
import os
import sys
import threading


def _install(prefixes={prefixes!r}, out={out!r}):
    seen = set()
    sink = {{"pid": None, "fh": None}}

    def note(code):
        pid = os.getpid()
        if sink["pid"] != pid:  # first note, or the first one after a fork
            sink["pid"] = pid
            sink["fh"] = open(os.path.join(out, "%d.txt" % pid), "a")
        sink["fh"].write(
            "%s\\t%d\\t%s\\n" % (code.co_filename, code.co_firstlineno, code.co_qualname)
        )
        sink["fh"].flush()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                if code.co_filename.startswith(prefixes):
                    note(code)

    sys.setprofile(profile)
    threading.setprofile(profile)


_install()
"""


class Step(NamedTuple):
    argv: Tuple[str, ...]
    env: Tuple[Tuple[str, str], ...] = ()
    ok: Tuple[int, ...] = (0,)


def _py(*args: str, env: Dict[str, str] = None, ok: Tuple[int, ...] = (0,)) -> Step:
    return Step((sys.executable,) + args, tuple(sorted((env or {}).items())), ok)


_SERIAL_RUN = (
    "from repro.shard.engine import run_serial\n"
    "from repro.shard.spec import ShardScenarioSpec, WorkloadSpec\n"
    "spec = ShardScenarioSpec(seed={seed}, kind='uniform', n_nodes=16,\n"
    "                         spacing_m=110.0, workload=WorkloadSpec(rate_hz=2.0))\n"
    "run_serial(spec, 10.0, checkpoint_interval_s=2.5)\n"
)

_TORN = (
    "import glob, shutil\n"
    "ring = glob.glob('forensics-out/seed-42/*.ring')[0]\n"
    "data = open(ring, 'rb').read()\n"
    "open('torn.ring', 'wb').write(data[:-100])\n"
    "shutil.copy(glob.glob('forensics-out/seed-42/*.manifest.json')[0], 'manifest.json')\n"
)


def entry_points() -> Dict[str, List[Step]]:
    """Entry point name -> the steps it runs, in order, in one temporary cwd."""
    points: Dict[str, List[Step]] = {}
    examples = os.path.join(ROOT, "examples")
    extra = {"traced_aodv_faults": ("trace-out",), "service_soak": ("--duration", "5")}
    for name in sorted(os.listdir(examples)):
        if name.endswith(".py"):
            stem = name[:-3]
            points[f"example:{stem}"] = [
                _py(os.path.join(examples, name), *extra.get(stem, ()))
            ]
    benchmarks = os.path.join(ROOT, "benchmarks")
    for name in sorted(os.listdir(benchmarks)):
        if name.startswith("bench_") and name.endswith(".py"):
            points["experiment:" + name[len("bench_") : -3]] = [
                _py(
                    "-m", "pytest", os.path.join(benchmarks, name), "-q",
                    "--benchmark-disable", "-p", "no:cacheprovider",
                    "--rootdir", ROOT,
                )
            ]
    campaign = ("-m", "repro.campaign", "--replicates", "3", "--out", "campaign-out")
    points["cli:campaign"] = [
        _py(*campaign, "--workers", "2", "--cache", "cache"),
        _py(*campaign, "--workers", "2", "--cache", "cache"),
        _py("-c", "import glob, shutil; shutil.copy(sorted(glob.glob('cache/**/*.json', "
            "recursive=True))[0], 'entry.json')"),
        _py("-m", "repro.campaign", "replay", "entry.json"),
    ]
    points["cli:obs"] = [
        _py("-m", "repro.campaign", "--workers", "1", "--replicates", "2", "--out", "obs-out",
            env={"REPRO_OBS_NDJSON": "obs-out/run.ndjson", "REPRO_OBS_PROFILE": "1"}),
        _py("-m", "repro.obs", "report", "obs-out/run.ndjson", "--top", "10",
            "--json", "obs-out/report.json"),
        _py(os.path.join(examples, "traced_aodv_faults.py"), "trace-out"),
        _py("-m", "repro.obs", "trace", "trace-out/trace.ndjson", "--top", "10",
            "--json", "trace-out/digest.json", "--chrome", "trace-out/chrome.json"),
        _py("-m", "repro.obs", "live", "obs-out", "--count", "1",
            "--slo", "kernel.events_per_sec>=1", ok=(0, 1)),
    ]
    points["cli:forensics"] = [
        _py("-c", _SERIAL_RUN.format(seed=seed),
            env={"REPRO_OBS_RING_DIR": f"forensics-out/seed-{seed}"})
        for seed in (42, 43)
    ] + [
        _py("-c", _TORN),
        _py("-m", "repro.obs", "replay", "manifest.json", "--json", "replay.json"),
        _py("-m", "repro.obs", "diff", "forensics-out/seed-42", "forensics-out/seed-43",
            "--json", "divergence.json", ok=(1,)),
        _py("-m", "repro.obs", "diff", "torn.ring", "forensics-out/seed-42", ok=(2,)),
        _py("-m", "repro.obs", "report", "torn.ring", ok=(2,)),
    ]
    ledger = os.path.join(benchmarks, "ledger", "run.py")
    workloads = (
        "geo_unicast_1k", "geo_unicast_1k_traced", "flood_broadcast_1k",
        "aodv_mobile_churn", "shard_local_5k_x2", "service_churn_1k",
        "campaign_chaos_sweep",
    )
    for workload in workloads:
        points[f"ledger:{workload}"] = [
            _py(ledger, "--workload", workload, "--seed", "12", "--seconds", "1", "--trace", "1")
        ]
    points["tests"] = [
        _py("-m", "pytest", os.path.join(ROOT, "tests"), "-q", "-p", "no:cacheprovider",
            "--rootdir", ROOT, ok=(0, 1))
    ]
    return points


# --------------------------------------------------------------- static side


class Function(NamedTuple):
    path: str  # relative to src/, e.g. repro/obs/telemetry.py
    qualname: str
    own_lines: int


def defined_functions() -> Dict[Tuple[str, int], Function]:
    """Every ``def`` under ``src/repro``, keyed by (path, co_firstlineno)."""
    found: Dict[Tuple[str, int], Function] = {}
    for folder, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            full = os.path.join(folder, name)
            rel = os.path.relpath(full, SRC).replace(os.sep, "/")
            with open(full, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), full)
            _walk(tree, rel, "", found)
    return found


def _walk(node: ast.AST, rel: str, prefix: str, found: Dict) -> int:
    """Record the functions under ``node``; return the lines they span."""
    spanned = 0
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            span = child.end_lineno - first + 1
            qualname = prefix + child.name
            nested = _walk(child, rel, qualname + ".<locals>.", found)
            # co_firstlineno: the first decorator's line, else the def's.
            found[(rel, first)] = Function(rel, qualname, span - nested)
            spanned += span
        elif isinstance(child, ast.ClassDef):
            spanned += _walk(child, rel, prefix + child.name + ".", found)
        else:
            spanned += _walk(child, rel, prefix, found)
    return spanned


# ---------------------------------------------------------------- ratchet


def _idle(entry: Dict) -> Tuple[int, set]:
    """A package's test-only plus unreached own lines, and those functions."""
    kinds = (entry["test_only"], entry["unreached"])
    return sum(k["lines"] for k in kinds), {f for k in kinds for f in k["functions"]}


def _named(function: str, text: str) -> bool:
    """Whether ``text`` names ``path::qualname`` by its qualname."""
    qualname = function.split("::", 1)[1].rstrip("'")
    return re.search(r"(?<![\w.])" + re.escape(qualname) + r"(?!\w)", text) is not None


def ratchet(base: Dict, current: Dict, changes: str) -> List[str]:
    """One line per package whose test-only plus unreached lines rose
    without ``changes`` naming why (see the module docstring)."""
    empty = {"test_only": {"functions": [], "lines": 0},
             "unreached": {"functions": [], "lines": 0}}
    failures = []
    for package, entry in sorted(current["packages"].items()):
        old_lines, old_functions = _idle(base["packages"].get(package, empty))
        lines, functions = _idle(entry)
        if lines <= old_lines:
            continue
        new = sorted(functions - old_functions)
        if new:
            unnamed = [f for f in new if not _named(f, changes)]
        else:
            unnamed = [] if any(_named(f, changes) for f in functions) else sorted(functions)
        if unnamed:
            failures.append(
                f"{package}: test-only + unreached own lines {old_lines} -> {lines}; "
                f"CHANGES.md names none of {', '.join(unnamed)}"
            )
    return failures


# ---------------------------------------------------------------- run side


def run_entry(name: str, steps: Sequence[Step], log) -> Tuple[set, float]:
    """Run one entry point's steps under the hook; return the (path, line,
    qualname) triples it called and its wall seconds."""
    work = tempfile.mkdtemp(prefix="reach-")
    hook_dir = os.path.join(work, "hook")
    out = os.path.join(work, "calls")
    os.makedirs(hook_dir)
    os.makedirs(out)
    prefixes = tuple(sorted({os.path.join(SRC, "repro") + os.sep,
                             os.path.join(os.path.realpath(SRC), "repro") + os.sep}))
    with open(os.path.join(hook_dir, "sitecustomize.py"), "w", encoding="utf-8") as fh:
        fh.write(HOOK.format(prefixes=prefixes, out=out))
    run_dir = os.path.join(work, "cwd")
    os.makedirs(run_dir)
    t0 = time.perf_counter()
    try:
        for step in steps:
            env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
            env.update(step.env)
            env["PYTHONPATH"] = os.pathsep.join([hook_dir, SRC, ROOT])
            done = subprocess.run(
                step.argv, cwd=run_dir, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            if done.returncode not in step.ok:
                tail = "\n".join(done.stderr.strip().splitlines()[-5:])
                print(f"  {name}: exit {done.returncode} from {' '.join(step.argv[1:])}\n"
                      f"{tail}", file=log)
        calls = set()
        for pid_file in os.listdir(out):
            with open(os.path.join(out, pid_file), encoding="utf-8") as fh:
                for line in fh:
                    parts = line.rstrip("\n").split("\t")
                    if len(parts) == 3:  # not a torn last line of a killed worker
                        path = os.path.relpath(os.path.realpath(parts[0]),
                                               os.path.realpath(SRC))
                        calls.add((path.replace(os.sep, "/"), int(parts[1]), parts[2]))
        return calls, time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def build_report(functions: Dict, reach: Dict[str, set]) -> Dict:
    by_function: Dict[str, Dict[str, List[str]]] = defaultdict(dict)
    reached_by: Dict[Tuple[str, int], List[str]] = defaultdict(list)
    for name, calls in sorted(reach.items()):
        for path, line, qualname in calls:
            fn = functions.get((path, line))
            # A lambda on a def's first line shares its co_firstlineno.
            if fn is not None and qualname.rsplit(".", 1)[-1] == fn.qualname.rsplit(".", 1)[-1]:
                if name not in reached_by[(path, line)]:
                    reached_by[(path, line)].append(name)
    packages: Dict[str, Dict] = {}
    for key, fn in sorted(functions.items()):
        names = sorted(reached_by.get(key, []))
        label = fn.qualname
        while label in by_function[fn.path]:  # a property's getter and setter
            label += "'"
        by_function[fn.path][label] = names
        parts = fn.path[:-3].split("/")
        package = ".".join(parts[:2]) if len(parts) > 2 else "repro"
        entry = packages.setdefault(package, {
            "functions": 0, "lines": 0,
            "test_only": {"functions": [], "lines": 0},
            "unreached": {"functions": [], "lines": 0},
        })
        entry["functions"] += 1
        entry["lines"] += fn.own_lines
        kind = None
        if not names:
            kind = "unreached"
        elif names == ["tests"]:
            kind = "test_only"
        if kind:
            entry[kind]["functions"].append(f"{fn.path}::{label}")
            entry[kind]["lines"] += fn.own_lines
    return {
        "schema": SCHEMA,
        # Entry point -> how many of the functions it reached.
        "entry_points": {
            name: sum(name in names for names in reached_by.values()) for name in sorted(reach)
        },
        "packages": dict(sorted(packages.items())),
        "functions": dict(sorted(by_function.items())),
    }


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "REACH.json"))
    parser.add_argument("--only", action="append", default=[], metavar="PREFIX",
                        help="run only entry points whose name starts with PREFIX "
                             "(repeatable)")
    parser.add_argument("--list", action="store_true", help="print the entry points")
    parser.add_argument("--ratchet", metavar="BASE",
                        help="check the map at --out against the older map BASE, run nothing")
    args = parser.parse_args(argv)
    if args.ratchet:
        maps = []
        for path in (args.ratchet, args.out):
            with open(path, encoding="utf-8") as fh:
                maps.append(json.load(fh))
        with open(os.path.join(ROOT, "CHANGES.md"), encoding="utf-8") as fh:
            failures = ratchet(maps[0], maps[1], fh.read())
        for line in failures:
            print(line)
        print(f"ratchet: {len(failures)} package(s) rose without a named function")
        return 1 if failures else 0
    points = entry_points()
    if args.only:
        points = {n: s for n, s in points.items() if n.startswith(tuple(args.only))}
    if args.list:
        for name, steps in points.items():
            for step in steps:
                print(f"{name:36s} {' '.join(step.argv[1:])}")
        return 0
    functions = defined_functions()
    reach: Dict[str, set] = {}
    for name, steps in points.items():
        reach[name], seconds = run_entry(name, steps, sys.stderr)
        print(f"{name:36s} {len(reach[name]):5d} code objects  {seconds:7.1f}s",
              file=sys.stderr)
    report = build_report(functions, reach)
    # One line per list of names keeps the file diffable function by function.
    text = re.sub(
        r"\[\n\s*([^\[\]{}]*?)\n\s*\]",
        lambda m: "[" + re.sub(r",\n\s*", ", ", m.group(1)) + "]",
        json.dumps(report, indent=1),
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    for package, entry in report["packages"].items():
        print(f"{package:24s} functions={entry['functions']:5d} lines={entry['lines']:6d} "
              f"test_only={len(entry['test_only']['functions']):4d}/"
              f"{entry['test_only']['lines']:5d} lines  "
              f"unreached={len(entry['unreached']['functions']):4d}/"
              f"{entry['unreached']['lines']:5d} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
