"""The soak loop's headline contract: kill/resume is bit-identical.

``state.json`` and ``metrics.jsonl`` are pure functions of (workload,
fault profile, epochs completed) — so a run interrupted at any epoch
boundary and resumed, at any worker or shard count, must leave byte-for-
byte the files an uninterrupted run leaves. These tests enforce that by
literal byte comparison, which is the same check the CI soak-smoke job
runs across real processes and signals.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.obs.slo import read_health
from repro.obs.telemetry import (
    deterministic_view_bytes,
    read_telemetry_records,
    telemetry_paths,
)
from repro.serve.checkpoint import state_paths
from repro.serve.service import SoakConfig, SoakSummary, run_soak
from repro.serve.workload import SoakWorkload

_WORKLOAD = SoakWorkload(seed=11, n_aps=2, max_stas_per_ap=4,
                         target_active_stas=2.0, epoch_duration=0.25,
                         channels=1)


def _config(tmp_path, name, **overrides):
    base = dict(workload=_WORKLOAD, fault_profile="none",
                checkpoint_dir=str(tmp_path / name), n_workers=1)
    base.update(overrides)
    return SoakConfig(**base)


def _artifact_bytes(directory):
    paths = state_paths(directory)
    with open(paths["state"], "rb") as handle:
        state = handle.read()
    with open(paths["metrics"], "rb") as handle:
        metrics = handle.read()
    with open(paths["manifest"]) as handle:
        manifest_hash = json.load(handle)["config_hash"]
    return state, metrics, manifest_hash


class TestKillResumeIdentity:
    def test_resume_is_bit_identical(self, tmp_path):
        straight = run_soak(_config(tmp_path, "straight", epochs=3))
        assert straight.epochs_completed == 3

        run_soak(_config(tmp_path, "resumed", epochs=2))
        resumed = run_soak(_config(tmp_path, "resumed", epochs=3,
                                   resume=True))
        assert resumed.epochs_completed == 3
        assert resumed.epochs_this_run == 1
        assert _artifact_bytes(tmp_path / "straight") \
            == _artifact_bytes(tmp_path / "resumed")

    def test_identity_invariant_to_workers_and_shards(self, tmp_path):
        straight = run_soak(_config(tmp_path, "serial", epochs=3))
        run_soak(_config(tmp_path, "sharded", epochs=1))
        sharded = run_soak(_config(tmp_path, "sharded", epochs=3,
                                   resume=True, n_workers=2, shards=2))
        assert sharded.cumulative_frames == straight.cumulative_frames
        assert _artifact_bytes(tmp_path / "serial") \
            == _artifact_bytes(tmp_path / "sharded")

    def test_identity_under_fault_profile(self, tmp_path):
        straight = run_soak(_config(tmp_path, "a", epochs=3,
                                    fault_profile="mixed"))
        run_soak(_config(tmp_path, "b", epochs=2, fault_profile="mixed"))
        resumed = run_soak(_config(tmp_path, "b", epochs=3, resume=True,
                                   fault_profile="mixed", shards=2))
        assert resumed.total_goodput_bps == straight.total_goodput_bps
        assert _artifact_bytes(tmp_path / "a") \
            == _artifact_bytes(tmp_path / "b")

    def test_resume_after_torn_metrics_tail(self, tmp_path):
        """A kill mid-append leaves half a record; resume drops it."""
        run_soak(_config(tmp_path, "straight", epochs=3, telemetry=True))
        run_soak(_config(tmp_path, "torn", epochs=2, telemetry=True))
        directory = tmp_path / "torn"
        with open(state_paths(directory)["metrics"], "a") as handle:
            handle.write('{"epoch": 2, "x"')
        with open(telemetry_paths(directory)["telemetry"], "a") as handle:
            handle.write('{"schema_version": 1, "epoch": 2, "de')
        run_soak(_config(tmp_path, "torn", epochs=3, resume=True,
                         telemetry=True))
        assert _artifact_bytes(tmp_path / "straight") \
            == _artifact_bytes(directory)
        assert deterministic_view_bytes(tmp_path / "straight") \
            == deterministic_view_bytes(directory)

    def test_faults_change_the_run(self, tmp_path):
        clean = run_soak(_config(tmp_path, "clean", epochs=3))
        faulty = run_soak(_config(tmp_path, "faulty", epochs=3,
                                  fault_profile="bursty-loss"))
        assert faulty.total_goodput_bps != clean.total_goodput_bps

    def test_sparse_checkpoint_cadence_converges(self, tmp_path):
        # checkpoint_every=2 rewrites state.json less often, but the
        # final checkpoint must land the same bytes as every-epoch.
        dense = run_soak(_config(tmp_path, "dense", epochs=4))
        sparse = run_soak(_config(tmp_path, "sparse", epochs=4,
                                  checkpoint_every=2))
        assert dense.epochs_completed == sparse.epochs_completed == 4
        assert _artifact_bytes(tmp_path / "dense") \
            == _artifact_bytes(tmp_path / "sparse")


class TestBudgets:
    def test_epoch_budget_is_absolute(self, tmp_path):
        run_soak(_config(tmp_path, "run", epochs=2))
        again = run_soak(_config(tmp_path, "run", epochs=2, resume=True))
        assert again.epochs_this_run == 0
        assert again.epochs_completed == 2

    def test_user_budget_stops_deterministically(self, tmp_path):
        capped = run_soak(_config(tmp_path, "users", max_users=6))
        assert capped.cumulative_users >= 6
        # The stopping epoch depends only on the workload, so a rerun
        # under the same budget lands identically.
        rerun = run_soak(_config(tmp_path, "users2", max_users=6))
        assert rerun.epochs_completed == capped.epochs_completed
        assert rerun.cumulative_users == capped.cumulative_users

    def test_zero_epoch_budget_checkpoints_and_exits(self, tmp_path):
        summary = run_soak(_config(tmp_path, "zero", epochs=0))
        assert summary.epochs_completed == 0
        assert not summary.interrupted
        paths = state_paths(tmp_path / "zero")
        assert json.load(open(paths["state"]))["next_epoch"] == 0

    def test_wall_budget_marks_interrupted(self, tmp_path):
        summary = run_soak(_config(tmp_path, "wall", max_wall_seconds=0.0))
        assert summary.interrupted
        assert summary.epochs_this_run == 0


class TestGuards:
    def test_fresh_run_refuses_existing_checkpoint(self, tmp_path):
        run_soak(_config(tmp_path, "run", epochs=1))
        with pytest.raises(ValueError, match="resume"):
            run_soak(_config(tmp_path, "run", epochs=2))

    def test_resume_refuses_different_workload(self, tmp_path):
        run_soak(_config(tmp_path, "run", epochs=1))
        other = dataclasses.replace(_WORKLOAD, seed=99)
        with pytest.raises(ValueError, match="identity mismatch"):
            run_soak(_config(tmp_path, "run", epochs=2, resume=True,
                             workload=other))

    def test_resume_without_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_soak(_config(tmp_path, "ghost", epochs=1, resume=True))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SoakConfig(workload=_WORKLOAD, epochs=-1)
        with pytest.raises(ValueError):
            SoakConfig(workload=_WORKLOAD, checkpoint_every=0)


class TestTelemetry:
    def test_artifacts_produced(self, tmp_path):
        run_soak(_config(tmp_path, "run", epochs=3, telemetry=True,
                         slos=("goodput_bps<1",)))
        paths = telemetry_paths(tmp_path / "run")
        records = list(read_telemetry_records(tmp_path / "run"))
        assert Path(paths["telemetry"]).exists()
        assert [r["epoch"] for r in records] == [0, 1, 2]
        health = read_health(tmp_path / "run")
        assert health["status"] == "ok"
        assert health["epochs_completed"] == 3
        assert health["slos"] == ["goodput_bps<1"]

    def test_telemetry_is_not_identity(self, tmp_path):
        """Turning telemetry on adds files beside the checkpoint but
        must not perturb a single deterministic byte of it."""
        plain = run_soak(_config(tmp_path, "plain", epochs=3))
        with_tel = run_soak(_config(tmp_path, "tel", epochs=3,
                                    telemetry=True))
        assert with_tel.total_goodput_bps == plain.total_goodput_bps
        assert _artifact_bytes(tmp_path / "plain") \
            == _artifact_bytes(tmp_path / "tel")
        assert not Path(
            telemetry_paths(tmp_path / "plain")["telemetry"]).exists()

    def test_det_view_identical_across_resume(self, tmp_path):
        straight = run_soak(_config(tmp_path, "straight", epochs=4,
                                    telemetry=True))
        assert straight.epochs_completed == 4
        run_soak(_config(tmp_path, "resumed", epochs=2, telemetry=True))
        run_soak(_config(tmp_path, "resumed", epochs=4, resume=True,
                         telemetry=True, n_workers=2, shards=2))
        assert deterministic_view_bytes(tmp_path / "straight") \
            == deterministic_view_bytes(tmp_path / "resumed")
        assert _artifact_bytes(tmp_path / "straight") \
            == _artifact_bytes(tmp_path / "resumed")

    def test_slos_imply_telemetry(self, tmp_path):
        run_soak(_config(tmp_path, "run", epochs=2,
                         slos=("goodput_bps<1",)))
        assert Path(
            telemetry_paths(tmp_path / "run")["telemetry"]).exists()

    def test_slo_drain_policy_stops_the_run(self, tmp_path):
        # goodput_bps>0 breaches on every epoch of a live workload, so
        # the drain policy must stop the soak after the first one.
        summary = run_soak(_config(tmp_path, "drain", epochs=5,
                                   slos=("goodput_bps>0!drain",)))
        assert summary.epochs_completed == 1
        assert summary.interrupted
        assert summary.slo_status == "breached"
        health = read_health(tmp_path / "drain")
        assert health["status"] == "breached"
        assert health["breaches"][0]["policy"] == "drain"
        # The drained checkpoint resumes cleanly once the rule is gone.
        resumed = run_soak(_config(tmp_path, "drain", epochs=5,
                                   resume=True, telemetry=True))
        assert resumed.epochs_completed == 5
        assert not resumed.interrupted

    def test_degraded_health_without_drain(self, tmp_path):
        summary = run_soak(_config(tmp_path, "run", epochs=2,
                                   slos=("goodput_bps>0",)))
        assert summary.epochs_completed == 2
        assert summary.slo_status in ("degraded", "breached")
        assert read_health(tmp_path / "run")["status"] != "ok"

    def test_no_profile_section_by_default(self, tmp_path):
        run_soak(_config(tmp_path, "run", epochs=1))
        paths = state_paths(tmp_path / "run")
        with open(paths["manifest"]) as handle:
            assert json.load(handle).get("profile") is None


class TestSummary:
    def test_summary_round_trips_to_json(self, tmp_path):
        summary = run_soak(_config(tmp_path, "run", epochs=2))
        assert isinstance(summary, SoakSummary)
        payload = json.loads(json.dumps(summary.to_dict()))
        assert payload["epochs_completed"] == 2
        assert payload["config_hash"] == summary.config_hash
        assert payload["cumulative_users"] > 0
