"""Self-test of the ledger at ``--tiny`` scale (< 30 s).

Not collected by the tier-1 run (``testpaths`` is ``tests/``); run it with
``PYTHONPATH=src python -m pytest benchmarks/ledger``.
"""

import io
import json
import os
import re
from contextlib import redirect_stdout

import pytest

from benchmarks.ledger import run, workloads
from benchmarks.ledger.layers import instrument
from benchmarks.ledger.spans import SpanRecorder
from benchmarks.ledger.workloads import WORKLOADS, GeoUnicast, GeoUnicastTraced, SimWorkload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")


@pytest.fixture(scope="module")
def bench():
    return run.load_benchmark()


def contract_run(workload, trace, seed=5):
    """The contract command in-process: (printed text, result object)."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "0",
             "--trace", str(trace), "--tiny"]
        )
    assert code == 0
    text = out.getvalue()
    return text, json.loads(text.strip().splitlines()[-1])


def test_benchmark_names_are_the_ledgers(bench):
    assert [w["name"] for w in bench["workloads"]] == [w.name for w in WORKLOADS]
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) and len(n) <= 64 for n in names)


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_every_metric_is_reported_with_its_unit(bench, workload):
    printed = set()
    for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        text, result = contract_run(workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed
        }
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        printed |= {
            line.split()[1] for line in text.splitlines() if line.startswith(workload)
        }
        assert "failed_share" in printed
    # Whatever this workload measured (non-zero) was also printed by name.
    assert {n for n, m in result["metrics"].items() if m["value"]} <= printed


def test_every_per_layer_metric_is_produced_by_some_workload(bench):
    seen = set()
    for workload in WORKLOADS:
        session = run.Session(workload, seed=5, tiny=True, nproc=2)
        session.step()
        session.step()
        session.step(traced=True)
        assert session.failed == 0, workload.name
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        measured = {**session.traced[0].layers, **session.details()}
        assert set(measured) <= set(units), workload.name
        seen |= set(measured)
    assert seen == {m["name"] for m in bench["per_layer"]}


def test_proxies_are_removed_and_tracing_keeps_the_fingerprint():
    workload = GeoUnicast()
    inputs = workload.inputs(seed=5, tiny=True)
    world = workload.build(inputs)
    workloads.inject_traffic(world.sim, world.transport, inputs["traffic"])
    rec = SpanRecorder()
    instrument(world, rec)
    assert rec.installed >= 19
    patched = [(obj, attr) for obj, attr, _ in rec._patched]
    assert all(attr in vars(obj) for obj, attr in patched)
    # call_in and call_at reach the queue through schedule: one span each.
    sim = world.sim
    sim.call_in(1.0, lambda: None)
    sim.call_at(2.0, lambda: None)
    sim.call_in_fast(3.0, lambda: None)
    sim.schedule(4.0)
    assert rec.totals()["sim.schedule"][0] == 4
    sim.run(until=world.horizon)
    rec.remove()
    assert rec.installed == 0
    assert not any(attr in vars(obj) for obj, attr in patched)

    for workload in WORKLOADS:
        if isinstance(workload, SimWorkload):
            inputs = workload.inputs(seed=5, tiny=True)
            plain = workload.round(inputs)
            traced = workload.round(inputs, SpanRecorder())
            assert traced.stats == plain.stats, workload.name
            assert 0.5 < traced.layers["trace.attributed_share"] <= 1.01


def test_a_large_trace_is_fingerprinted_packed(monkeypatch):
    monkeypatch.setattr(workloads, "DECODE_FINGERPRINT_MAX", 100)
    workload = GeoUnicastTraced()
    inputs = workload.inputs(seed=5, tiny=True)
    plain = workload.round(inputs)
    assert plain.stats["fingerprint"].startswith("ring:")
    assert SimWorkload.round(workload, inputs, SpanRecorder()).stats == plain.stats
    assert workload.round(workload.inputs(seed=6, tiny=True)).stats != plain.stats


def test_a_perturbed_round_raises_failed_share():
    workload = GeoUnicast()
    session = run.Session(workload, seed=5, tiny=True, nproc=2)
    session.step()
    session.step()
    assert session.failed == 0
    session.inputs = workload.inputs(seed=6, tiny=True)  # the deliberate fault
    session.step()
    assert session.failed == 1
    assert session.log[-1]["stats_match"] is False


def test_seed_derives_the_inputs():
    for workload in WORKLOADS:
        a, b, c = (workload.inputs(seed, tiny=True) for seed in (5, 5, 6))
        assert repr(a) == repr(b), workload.name
        assert repr(a) != repr(c), workload.name


def test_repro_env_knobs_are_recorded_and_cleared(monkeypatch):
    monkeypatch.setenv("REPRO_FAST_PATH", "0")
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "7")
    cleared = run.scrub_env()
    assert cleared == {"REPRO_BENCH_WORKERS": "7", "REPRO_FAST_PATH": "0"}
    assert not any(k.startswith("REPRO_") for k in os.environ)
