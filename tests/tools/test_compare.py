"""The claim instrument: its verdict rule, and HEAD against itself."""

from __future__ import annotations

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
    cell = _cell([100.0, 150.0, 60.0, 130.0, 70.0], [10.0] * 5)
    assert cell["verdict"] == "UNRESOLVED" and cell["wins"] == 5


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
    cell = _cell(wide, [w - 1.0 for w in wide])
    assert cell["wins"] == 5 and cell["verdict"] == "WITHIN_BOUND"
    # Equal runs: no wins, no losses, ratio 1.
    same = _cell(parent, parent)
    assert (same["wins"], same["losses"], same["verdict"]) == (0, 0, "WITHIN_BOUND")
    assert same["ratio"] == {"median": 1.0, "min": 1.0, "max": 1.0}


def test_head_against_head_reports_every_exact_line_equal(tmp_path):
    try:
        compare.git("rev-parse", "--verify", "HEAD:src")
    except (compare.CompareError, OSError):
        pytest.skip("not a git checkout with a committed src/")
    before = compare.git("worktree", "list", "--porcelain")
    out = tmp_path / "claim.json"
    status = compare.main([
        "HEAD", "HEAD", "--workload", "geo_unicast_1k", "--pairs", "2",
        "--seconds", "0", "--tiny", "--out", str(out),
    ])
    assert status == 0
    table = json.loads(out.read_text())
    assert table["schema"] == compare.SCHEMA
    assert table["parent"]["sha"] == table["change"]["sha"]
    assert table["settings"]["seeds"] == [12, 13]
    cell = table["workloads"]["geo_unicast_1k"]
    assert cell["exact_equal"] and cell["correct"]
    assert [p["first"] for p in cell["pairs"]] == ["parent", "change"]
    for pair in cell["pairs"]:
        assert pair["parent"]["exact"] and pair["parent"]["exact"] == pair["change"]["exact"]
        for side in ("parent", "change"):
            assert pair[side]["start"]["utc"] <= pair[side]["end"]["utc"]
    assert set(cell["metrics"]) == {"setup_s", "work_per_s", "peak_rss_mb"}
    # The worktrees are gone again.
    assert compare.git("worktree", "list", "--porcelain") == before


def test_a_revision_that_does_not_resolve_exits_2(tmp_path):
    try:
        subprocess.run(["git", "--version"], capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git is not installed")
    assert compare.main(["no-such-rev-anywhere", "--workload", "geo_unicast_1k",
                         "--out", str(tmp_path / "x.json")]) == 2
