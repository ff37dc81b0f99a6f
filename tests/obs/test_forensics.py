"""Run forensics: manifests, deterministic replay, first-divergence diffs."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.obs.forensics import (
    MANIFEST_SCHEMA,
    ForensicsError,
    ReplayError,
    RunManifest,
    content_hash,
    diff_records,
    load_manifest,
    manifest_for_shard_result,
    manifest_path,
    render_diff,
    render_replay_report,
    replay_manifest,
    write_manifest,
)
from repro.obs.report import main as obs_main
from repro.shard.engine import run_serial
from repro.shard.spec import ShardPlan, ShardScenarioSpec, WorkloadSpec

HORIZON = 6.0


def world(seed: int = 42) -> ShardScenarioSpec:
    return ShardScenarioSpec(
        seed=seed,
        kind="uniform",
        n_nodes=10,
        spacing_m=110.0,
        workload=WorkloadSpec(rate_hz=1.5),
    )


@pytest.fixture(scope="module")
def reference():
    """One checkpointed serial run shared by the read-only tests."""
    return run_serial(world(), HORIZON, checkpoint_interval_s=2.0)


@pytest.fixture(scope="module")
def manifest(reference):
    return manifest_for_shard_result(
        world(), ShardPlan(n_shards=1), HORIZON, reference
    )


class TestContentHash:
    def test_stable_across_equal_specs(self):
        assert content_hash(world()) == content_hash(world())

    def test_sensitive_to_any_field(self):
        assert content_hash(world(42)) != content_hash(world(43))
        assert content_hash(world()) != content_hash(
            dataclasses.replace(world(), n_nodes=11)
        )

    def test_plain_values_hash_too(self):
        assert content_hash({"a": 1}) == content_hash({"a": 1})
        assert content_hash({"a": 1}) != content_hash({"a": 2})


class TestManifest:
    def test_carries_provenance(self, manifest, reference):
        assert manifest.schema == MANIFEST_SCHEMA
        assert manifest.root_seed == 42
        assert manifest.fingerprint == reference.fingerprint()
        assert manifest.replayable
        assert set(manifest.content_hashes) == {"scenario_spec", "shard_plan"}
        assert [row["name"] for row in manifest.rng_streams]
        assert all(row["draws"] is not None for row in manifest.rng_streams)
        assert len(manifest.checkpoints) == len(reference.rng_checkpoints)
        assert all(cp["prefix_fingerprint"] for cp in manifest.checkpoints)

    def test_write_load_round_trip(self, manifest, tmp_path):
        path = write_manifest(manifest, str(tmp_path / "run.manifest.json"))
        loaded = load_manifest(path)
        assert loaded.as_dict() == manifest.as_dict()

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(ForensicsError, match="not found"):
            load_manifest(str(tmp_path / "absent.json"))

    def test_load_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something-else/9"}))
        with pytest.raises(ForensicsError, match="not a run-manifest"):
            load_manifest(str(path))

    def test_manifest_path_convention(self):
        assert manifest_path("a/b.ring") == "a/b.ring.manifest.json"


class TestReplay:
    def test_unmodified_manifest_reproduces_exactly(self, manifest):
        report = replay_manifest(manifest)
        assert report["match"]
        assert report["replayed_fingerprint"] == manifest.fingerprint
        assert report["first_divergent_checkpoint"] is None
        assert all(row["match"] for row in report["checkpoints"])
        assert "REPLAY OK" in render_replay_report(report)

    def test_from_time_windows_the_checkpoints(self, manifest):
        report = replay_manifest(manifest, from_time=4.0)
        assert report["match"]
        assert all(row["time"] >= 4.0 for row in report["checkpoints"])
        assert len(report["checkpoints"]) < len(manifest.checkpoints)

    def test_tampered_fingerprint_diverges(self, manifest):
        forged = RunManifest.from_dict(
            {**manifest.as_dict(), "fingerprint": "0" * 32}
        )
        report = replay_manifest(forged)
        assert not report["match"]
        assert "REPLAY DIVERGED" in render_replay_report(report)

    def test_tampered_checkpoint_names_first_divergence(self, manifest):
        payload = manifest.as_dict()
        payload["checkpoints"] = [dict(cp) for cp in payload["checkpoints"]]
        payload["checkpoints"][1]["draws"] = {"net": 10**9}
        report = replay_manifest(RunManifest.from_dict(payload))
        assert not report["match"]
        assert report["first_divergent_checkpoint"] == pytest.approx(
            payload["checkpoints"][1]["time"]
        )

    def test_provenance_only_manifest_refuses(self):
        with pytest.raises(ReplayError, match="provenance-only"):
            replay_manifest(RunManifest(root_seed=1, fingerprint="ab"))

    def test_unknown_scenario_kind_refuses(self, manifest):
        payload = manifest.as_dict()
        payload["scenario"] = {**payload["scenario"], "kind": "teleporter"}
        with pytest.raises(ReplayError, match="teleporter"):
            replay_manifest(RunManifest.from_dict(payload))


class TestCheckpointNeutrality:
    def test_checkpoints_do_not_perturb_the_world(self):
        plain = run_serial(world(7), HORIZON)
        checked = run_serial(world(7), HORIZON, checkpoint_interval_s=1.0)
        assert checked.rng_checkpoints  # they actually fired
        assert plain.fingerprint() == checked.fingerprint()


class TestDiff:
    def test_identical_streams(self, reference):
        result = diff_records(reference.records, reference.records)
        assert result["identical"]
        assert result["first_divergence"] is None
        assert "IDENTICAL" in render_diff(result)

    def test_seed_perturbation_locates_first_divergence(self, reference):
        other = run_serial(world(43), HORIZON)
        result = diff_records(
            reference.records, other.records, context=3,
            label_a="s42", label_b="s43",
        )
        assert not result["identical"]
        first = result["first_divergence"]
        assert first["time"] >= 0.0 and first["category"]
        assert first["first_in"] in ("s42", "s43")
        assert first["context_a"] and first["context_b"]
        # The named divergence really is the earliest: everything before
        # index i matched pairwise, so both contexts agree up to it.
        i = first["index"]
        assert first["context_a"][: min(3, i)] == first["context_b"][: min(3, i)]
        text = render_diff(result)
        assert "DIVERGED at canonical record" in text

    def test_missing_suffix_is_a_divergence(self, reference):
        truncated = reference.records[: len(reference.records) // 2]
        result = diff_records(reference.records, truncated)
        assert not result["identical"]

    def test_capture_warnings_surface(self, reference):
        noisy = list(reference.records) + [
            {"type": "meta", "event": "trace_capped", "time": 1.0,
             "max_records": 10},
        ]
        result = diff_records(reference.records, noisy, label_b="lossy")
        # Meta records are not trace records: streams still identical...
        assert result["identical"]
        # ...but the capture-quality warning names the lossy side.
        assert result["warnings"] == [
            "lossy: in-memory trace hit max_records; records were dropped "
            "from memory"
        ]


class TestCli:
    @pytest.fixture()
    def stamped_ring(self, tmp_path, monkeypatch):
        """Run with a ring export so the kernel stamps a manifest."""
        ring_dir = tmp_path / "rings"
        monkeypatch.setenv("REPRO_OBS_RING_DIR", str(ring_dir))
        run_serial(world(), HORIZON, checkpoint_interval_s=2.0)
        monkeypatch.delenv("REPRO_OBS_RING_DIR")
        (ring,) = [
            str(ring_dir / name)
            for name in sorted(os.listdir(ring_dir))
            if name.endswith(".ring")
        ]
        assert os.path.exists(manifest_path(ring))
        return ring

    def test_replay_of_ring_stamped_manifest_exits_zero(
        self, stamped_ring, capsys
    ):
        assert obs_main(["replay", manifest_path(stamped_ring)]) == 0
        assert "REPLAY OK" in capsys.readouterr().out

    def test_replay_exit_codes(self, manifest, tmp_path, capsys):
        forged = RunManifest.from_dict(
            {**manifest.as_dict(), "fingerprint": "f" * 32}
        )
        path = write_manifest(forged, str(tmp_path / "forged.manifest.json"))
        assert obs_main(["replay", path]) == 1
        assert obs_main(["replay", str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()

    def test_diff_cli_exit_codes_and_json(
        self, stamped_ring, tmp_path, monkeypatch, capsys
    ):
        other_dir = tmp_path / "other"
        monkeypatch.setenv("REPRO_OBS_RING_DIR", str(other_dir))
        run_serial(world(43), HORIZON)
        monkeypatch.delenv("REPRO_OBS_RING_DIR")
        out = str(tmp_path / "diff.json")
        assert (
            obs_main(["diff", stamped_ring, str(other_dir), "--json", out]) == 1
        )
        report = json.load(open(out))
        assert report["first_divergence"] is not None
        assert obs_main(["diff", stamped_ring, stamped_ring]) == 0
        assert obs_main(["diff", stamped_ring, str(tmp_path / "nope")]) == 2
        capsys.readouterr()
