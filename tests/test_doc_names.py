"""Docs that cannot name deleted code.

Every name a reader can look up from the prose docs — README.md, DESIGN.md,
EXPERIMENTS.md and the verify skill — must still resolve in the tree.
Inside inline code spans:

* a dotted ``repro.*`` name imports, attribute by attribute;
* a ``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` path exists (a
  glob, or a ``<placeholder>`` read as one, matches something; a
  ``::name`` suffix is dropped);
* a ``REPRO_*`` variable is still read — ``.get("REPRO_…")``,
  ``getenv(…)`` or ``environ[…]`` — somewhere in ``src/``,
  ``benchmarks/`` or ``examples/``;
* a span that is a bare CamelCase name, with its ``.attr`` if any, is a
  class (or other public name) of some :mod:`repro` module, of the
  third-party modules the docs talk about (``numpy.random``,
  ``networkx``, ``concurrent.futures``) or of ``builtins`` — and the
  attribute exists on it, or is assigned as ``self.<attr>`` in its source.

The first three kinds are checked wherever they occur in a span, including
inside a command line; CamelCase only as a whole span, so an example's own
placeholder class does not count.  Fenced blocks are examples and diagrams,
so of them only ``Class.attr`` tokens are checked, the same way: a diagram
that names a method names real code.
"""

from __future__ import annotations

import builtins
import concurrent.futures
import dataclasses
import importlib
import inspect
import pkgutil
import re
from collections import defaultdict
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List

import networkx
import numpy.random
import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")
THIRD_PARTY = (numpy.random, networkx, concurrent.futures, builtins)

_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
#: An inline code span: a run of backticks closed by a run of the same length.
_SPAN = re.compile(r"(`+)(.+?)(?<!`)\1(?!`)", re.S)
_WORD_SPLIT = re.compile(r"[\s,;()\[\]{}=\"'|]+")
_DOTTED = re.compile(r"repro(?:\.\w+)+")
_PATH = re.compile(r"(?:src|tests|benchmarks|examples)/\S*")
_ENV = re.compile(r"REPRO_[A-Z0-9_]*[A-Z0-9]")
_CAMEL = re.compile(r"([A-Z][a-z]\w*)(?:\.(\w+))?")
_FENCED_ATTR = re.compile(r"(?<!\w)[A-Z][a-z]\w*\.\w+")


def doc_names(text: str) -> Dict[str, List[str]]:
    """The names one document's code spans and fenced blocks refer to, by kind."""
    found: Dict[str, List[str]] = defaultdict(list)
    for block in _FENCE.findall(text):
        found["camel"].extend(_FENCED_ATTR.findall(block))
    for _, span in _SPAN.findall(_FENCE.sub("", text)):
        whole = span.strip().removesuffix("()")
        if _CAMEL.fullmatch(whole):
            found["camel"].append(whole)
        for word in _WORD_SPLIT.split(span):
            for kind, pattern in (("dotted", _DOTTED), ("path", _PATH), ("env", _ENV)):
                match = pattern.match(word)
                if match:
                    found[kind].append(match.group(0))
    return found


def _has_attr(obj: Any, attr: str) -> bool:
    if hasattr(obj, attr):
        return True
    if not inspect.isclass(obj):
        return False
    if dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}:
        return True
    for klass in obj.__mro__:
        try:
            source = inspect.getsource(klass)
        except (OSError, TypeError):
            continue
        if re.search(rf"\bself\.{re.escape(attr)}\b\s*(?::[^=\n]+)?=(?!=)", source):
            return True
    return False


def resolve_dotted(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not _has_attr(obj, attr):
                return False
            obj = getattr(obj, attr, None)
        return True
    return False


def resolve_path(path: str) -> bool:
    path = re.sub(r"<[^>]*>", "*", path.split("::", 1)[0])
    if "*" in path:
        return any(ROOT.glob(path))
    return (ROOT / path).exists()


@lru_cache(maxsize=1)
def _program_text() -> str:
    files = [p for d in ("src", "benchmarks", "examples") for p in (ROOT / d).rglob("*.py")]
    return "\n".join(p.read_text(encoding="utf-8") for p in files)


def resolve_env(name: str) -> bool:
    read = rf"(?:\.get|getenv)\(\s*[\"']{name}[\"']|environ\[\s*[\"']{name}[\"']\s*\]"
    return re.search(read, _program_text()) is not None


@lru_cache(maxsize=1)
def _public_names() -> Dict[str, List[Any]]:
    """Every capitalised module-level name of every repro module and of the
    third-party modules, mapped to the objects bound to it."""
    modules: List[Any] = list(THIRD_PARTY)
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            modules.append(importlib.import_module(info.name))
    names: Dict[str, List[Any]] = defaultdict(list)
    for module in modules:
        for name, obj in vars(module).items():
            if name[:1].isupper() and all(obj is not o for o in names[name]):
                names[name].append(obj)
    return names


def resolve_camel(token: str) -> bool:
    match = _CAMEL.fullmatch(token)
    assert match is not None, token
    name, attr = match.groups()
    candidates = _public_names().get(name, [])
    if attr is None:
        return bool(candidates)
    return any(_has_attr(obj, attr) for obj in candidates)


RESOLVERS = {
    "dotted": resolve_dotted,
    "path": resolve_path,
    "env": resolve_env,
    "camel": resolve_camel,
}


def unresolved(text: str) -> List[str]:
    return sorted(
        {
            f"{kind}: {name}"
            for kind, names in doc_names(text).items()
            for name in names
            if not RESOLVERS[kind](name)
        }
    )


@pytest.mark.parametrize("doc", DOCS)
def test_every_backticked_name_resolves(doc: str) -> None:
    text = (ROOT / doc).read_text(encoding="utf-8")
    assert doc_names(text), f"{doc} names nothing checkable"
    assert unresolved(text) == []


def test_a_deleted_name_is_caught() -> None:
    """Anti-vacuity: each kind rejects a name the tree no longer has."""
    text = (
        "`repro.sim.calendar.CalendarQueue`, `repro.net.stack.StackContext.tracer`, "
        "`src/repro/net/fastpath.py`, `REPRO_FAST_PATH=1 python x.py`, "
        "`ShardDispatcher`, `FastPathDispatcher.apply_remote`, `src/...`\n"
        "```\n  TraceLog.record(...)      _drain(): stage -> BinaryTraceRing\n```\n"
    )
    assert unresolved(text) == [
        "camel: FastPathDispatcher.apply_remote",
        "camel: ShardDispatcher",
        "camel: TraceLog.record",
        "dotted: repro.net.stack.StackContext.tracer",
        "dotted: repro.sim.calendar.CalendarQueue",
        "env: REPRO_FAST_PATH",
        "path: src/...",
        "path: src/repro/net/fastpath.py",
    ]
    # ...while live names of each kind, and third-party classes, pass.
    live = (
        "`repro.shard.dispatch.ShardHops`, `tests/net/test_stack.py`, "
        "`REPRO_OBS_TRACE=1`, `FastPathDispatcher.unicast`, `Simulator._queue`, "
        "`Generator`, `SeedSequence`, `Graph.add_edge`, `ProcessPoolExecutor`\n"
        "```\n  TraceLog.stage(entry)     compact(): tail -> BinaryTraceRing\n```\n"
    )
    assert len(doc_names(live)["camel"]) == 7
    assert unresolved(live) == []
