"""The claim instrument: its verdict rule, HEAD against itself, and the
pinned runs of ``check``."""

from __future__ import annotations

import io
import json
import subprocess

import pytest

from tests.tools import compare


def _cell(parent, change, better="lower", bound=0.129):
    return compare.classify(parent, change, better, bound)


def test_a_clear_gain_on_quiet_runs_is_better():
    cell = _cell([100.0, 101.0, 99.0, 100.5, 99.5], [80.0, 81.0, 79.0, 80.5, 79.5])
    assert cell["verdict"] == "BETTER" and cell["wins"] == 5 and cell["losses"] == 0
    assert cell["ratio"]["median"] == pytest.approx(0.8, abs=0.002)
    assert cell["ratio"]["min"] <= cell["ratio"]["median"] <= cell["ratio"]["max"]
    # The same numbers read the other way round: a rate that fell.
    assert _cell([80.0, 81.0, 79.0, 80.5, 79.5], [100.0, 101.0, 99.0, 100.5, 99.5],
                 better="higher")["verdict"] == "BETTER"


def test_a_wide_parent_spread_claims_nothing():
    cell = _cell([100.0, 150.0, 60.0, 130.0, 70.0], [55.0, 140.0, 50.0, 120.0, 65.0])
    assert cell["verdict"] == "UNRESOLVED" and cell["wins"] == 5


def test_the_spread_that_claims_nothing_is_the_metrics_own_bound():
    # IQR 15 on a median of 100: wider than peak_rss_mb's 0.129, inside 0.25.
    parent = [90.0, 95.0, 100.0, 105.0, 110.0]
    assert _cell(parent, parent, bound=0.129)["verdict"] == "UNRESOLVED"
    assert _cell(parent, parent, bound=0.25)["verdict"] == "WITHIN_BOUND"


def test_a_change_better_than_every_parent_run_is_resolved_however_wide():
    parent = [100.0, 150.0, 60.0, 130.0, 70.0]
    assert _cell(parent, [10.0] * 5)["verdict"] == "BETTER"
    assert _cell(parent, [200.0] * 5, better="higher")["verdict"] == "BETTER"
    # One change run inside the parent's range: the spread rules again.
    assert _cell(parent, [10.0] * 4 + [65.0])["verdict"] == "UNRESOLVED"


def test_a_loss_past_the_bound_is_worse_and_one_inside_it_is_not():
    parent = [100.0, 101.0, 99.0, 100.0, 100.0]
    assert _cell(parent, [p * 1.2 for p in parent])["verdict"] == "WORSE"
    assert _cell(parent, [p * 1.1 for p in parent])["verdict"] == "WITHIN_BOUND"
    assert _cell(parent, [p * 0.8 for p in parent], better="higher")["verdict"] == "WORSE"


def test_wins_below_nine_tenths_or_a_gain_inside_the_spread_claim_nothing():
    parent = [100.0, 101.0, 99.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0]
    # Nine wins and one tie out of ten: ties win nothing, 9 >= 0.9 * 10.
    change = [80.0] * 9 + [100.0]
    assert _cell(parent, change)["wins"] == 9
    assert _cell(parent, change)["verdict"] == "BETTER"
    # Eight wins out of ten is not enough, however large the gain.
    assert _cell(parent, [50.0] * 8 + [100.0, 100.0])["verdict"] == "WITHIN_BOUND"
    # Every pair won, but by less than the parent's interquartile distance.
    wide = [90.0, 95.0, 100.0, 105.0, 110.0]
    cell = _cell(wide, [w - 1.0 for w in wide], bound=0.25)
    assert cell["wins"] == 5 and cell["verdict"] == "WITHIN_BOUND"
    # Equal runs: no wins, no losses, ratio 1.
    same = _cell(parent, parent)
    assert (same["wins"], same["losses"], same["verdict"]) == (0, 0, "WITHIN_BOUND")
    assert same["ratio"] == {"median": 1.0, "min": 1.0, "max": 1.0}


def _run(value, load1, load2, failed=0):
    return {"start": {"utc": "t0", "load1": load1}, "end": {"utc": "t1", "load1": load2},
            "correct": True, "failed": failed, "attempted": 4, "metrics": {"setup_s": value}}


BENCH = {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}


def test_a_pair_whose_load_moved_is_rejected_and_counted():
    quiet, moved = compare.LOAD_MOVE / 2, compare.LOAD_MOVE * 2
    pairs = [
        {"parent": _run(100.0 + k, 0.3, 0.3 + quiet), "change": _run(80.0 + k, 0.3, 0.3),
         "exact_equal": True}
        for k in range(5)
    ]
    # One half of the fourth pair ran while the load rose: its change value
    # would turn the cell, and it is left out of every statistic.
    pairs[3]["change"] = _run(500.0, 0.3, 0.3 + moved)
    cell = compare.summarize(pairs, BENCH)
    assert cell["rejected"] == 1 and len(cell["pairs"]) == 5
    m = cell["metrics"]["setup_s"]
    assert m["pairs"] == 4 and 500.0 not in m["change"]["values"]
    assert m["wins"] == 4 and m["verdict"] == "BETTER"
    # A load that fell as far is a move too; with every pair out, no claim.
    for pair in pairs:
        pair["parent"] = _run(100.0, 0.3 + moved, 0.3)
    cell = compare.summarize(pairs, BENCH)
    assert cell["rejected"] == 5 and cell["exact_equal"] and cell["correct"]
    assert cell["metrics"]["setup_s"]["verdict"] == "UNRESOLVED"


def test_a_run_with_a_failed_operation_is_not_correct():
    pairs = [{"parent": _run(100.0, 0.3, 0.3), "change": _run(90.0, 0.3, 0.3, failed=f),
              "exact_equal": True} for f in (0, 1, 0)]
    cell = compare.summarize(pairs, BENCH)
    assert not cell["correct"]
    assert cell["failed"] == {"parent": 0, "change": 1}
    assert cell["attempted"] == {"parent": 12, "change": 12}
    out = io.StringIO()
    compare.print_table({"workloads": {"w": cell}}, out)
    assert "parent failed 0/12  change failed 1/12" in out.getvalue()


def test_head_against_head_reports_every_exact_line_equal(tmp_path):
    try:
        compare.git("rev-parse", "--verify", "HEAD:src")
    except (compare.CompareError, OSError):
        pytest.skip("not a git checkout with a committed src/")
    before = compare.git("worktree", "list", "--porcelain")
    out = tmp_path / "claim.json"
    status = compare.main([
        "HEAD", "HEAD", "--workload", "geo_unicast_1k", "--pairs", "2",
        "--seconds", "0", "--tiny", "--setup", "2", "--out", str(out),
    ])
    assert status == 0
    table = json.loads(out.read_text())
    assert table["schema"] == compare.SCHEMA
    assert table["parent"]["sha"] == table["change"]["sha"]
    assert table["settings"]["seeds"] == [12, 13]
    assert table["settings"]["load_move_max"] == compare.LOAD_MOVE
    cell = table["workloads"]["geo_unicast_1k"]
    assert cell["exact_equal"] and cell["correct"]
    assert cell["failed"] == {"parent": 0, "change": 0}
    assert cell["attempted"]["parent"] == cell["attempted"]["change"] > 0
    assert [p["first"] for p in cell["pairs"]] == ["parent", "change"]
    for pair in cell["pairs"]:
        assert pair["parent"]["exact"] and pair["parent"]["exact"] == pair["change"]["exact"]
        for side in ("parent", "change"):
            assert pair[side]["start"]["utc"] <= pair[side]["end"]["utc"]
    assert set(cell["metrics"]) == {"setup_s", "work_per_s", "peak_rss_mb"}
    assert 0 <= cell["rejected"] <= 2
    # --setup: the fastest of two GeoUnicast.build calls, one process a side.
    for side in ("parent", "change"):
        setup = cell["setup"][side]
        assert setup["how"] == "build" and len(setup["times"]) == 2
        assert 0 < setup["min_s"] == min(setup["times"])
        assert setup["start"]["utc"] <= setup["end"]["utc"]
        assert setup["start"]["load1"] >= 0 and setup["end"]["load1"] >= 0
    # The worktrees are gone again.
    assert compare.git("worktree", "list", "--porcelain") == before


def test_a_revision_that_does_not_resolve_exits_2(tmp_path):
    try:
        subprocess.run(["git", "--version"], capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git is not installed")
    assert compare.main(["no-such-rev-anywhere", "--workload", "geo_unicast_1k",
                         "--out", str(tmp_path / "x.json")]) == 2


def test_the_pins_cover_every_benchmark_cell_under_both_fixed_hash_seeds():
    with open(compare.PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    with open(f"{compare.ROOT}/BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(pins["cells"]) == {w["name"] for w in bench["workloads"]}
    assert {0, 12345} <= set(pins["hash_seeds"])
    for cell, spec in pins["cells"].items():
        assert spec["exact"] and all(k.startswith("exact.") for k in spec["exact"]), cell


def test_check_passes_a_right_pin_and_names_a_wrong_or_a_missing_one():
    run = compare.run_once(compare.ROOT, "geo_unicast_1k", 12, 0, True)
    events = dict(run["exact"])["exact.events"]

    def check(spec):
        pins = {"seed": 12, "seconds": 0, "hash_seeds": [None], "cells": {"geo_unicast_1k": spec}}
        out = io.StringIO()
        return compare.check(pins, tiny=True, out=out), out.getvalue().splitlines()

    failed, lines = check({"exact": {"exact.events": events}, "traced": {}})
    assert failed == 0 and len(lines) == 2
    assert lines[0].startswith("ok   geo_unicast_1k trace=0 PYTHONHASHSEED=unset")
    assert lines[1].startswith("ok   geo_unicast_1k trace=1 PYTHONHASHSEED=unset")
    failed, lines = check({"exact": {"exact.events": events + "0"}})
    assert failed == 1 and lines[0].startswith("FAIL geo_unicast_1k trace=0 PYTHONHASHSEED=unset")
    assert f"exact.events = '{events}', pinned '{events}0'" in lines[0]
    # A key only the traced run is held to, and that no run prints.
    failed, lines = check({"exact": {"exact.events": events}, "traced": {"exact.nope": "1"}})
    assert failed == 1 and lines[0].startswith("ok ") and lines[1].startswith("FAIL")
    assert "exact.nope not printed, pinned '1'" in lines[1]
