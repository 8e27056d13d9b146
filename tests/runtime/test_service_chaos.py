"""Chaos matrix: every service failure mode recovers without data loss.

Each test here is one row of the failure matrix in
``docs/RESILIENCE.md``: SIGKILL the worker, SIGKILL the service,
SIGTERM drain, disk-full on the journal, a torn queue entry.  The
recovery bar is always the same — zero lost seeds, zero duplicated
seeds, and aggregates bit-identical to a run nothing ever interrupted.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.parallel import BenignReplicationSpec
from repro.faults.crash import CrashingSpec
from repro.faults.service import (
    journal_disk_full,
    sigkill,
    tear_queue_tail,
)
from repro.runtime.campaign import run_campaign
from repro.runtime.queue import DONE, QUEUED, load_queue
from repro.runtime.service import CampaignService, ServiceConfig

ROOT = Path(__file__).resolve().parents[2]
SPEC = BenignReplicationSpec(accesses=200, scale=8)
SEEDS = [101, 102, 103]

FAST = dict(
    max_inflight=1, poll_s=0.01, backoff_base_s=0.01, backoff_cap_s=0.05
)


def clean_aggregates(spec, seeds):
    """What an uninterrupted run of this campaign merges to."""
    result = run_campaign(spec, seeds, jobs=1)
    return {
        name: {
            "samples": agg.samples, "mean": agg.mean,
            "stdev": agg.stdev, "minimum": agg.minimum,
            "maximum": agg.maximum,
        }
        for name, agg in result.aggregates.items()
    }


def serve_subprocess(root, *extra):
    """Launch ``repro serve serve`` in its own session (so killing its
    process group cannot touch the test runner)."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "serve", str(root),
         "--max-inflight", "1", "--no-cache", *extra],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def wait_for(predicate, timeout_s=30.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


class TestWorkerSigkill:
    def test_killed_worker_retries_and_resumes_bit_identical(
        self, tmp_path
    ):
        # kill mode + marker_dir: the worker dies mid-job on its first
        # pass over seed 102, the retry finds the marker and runs clean
        spec = CrashingSpec(
            spec=SPEC, crash_seeds=(102,), mode="kill",
            marker_dir=str(tmp_path / "markers"),
        )
        service = CampaignService(
            tmp_path / "svc", config=ServiceConfig(**FAST),
            use_cache=False,
        )
        # jobs=1 runs the seeds in the service worker itself, so the
        # kill takes down the worker rather than a pool child that the
        # worker's own supervisor would respawn
        admission = service.submit(spec, SEEDS, experiment="chaos", jobs=1)
        summary = service.serve(drain_and_exit=True)
        assert summary["done"] == 1
        assert summary["service.jobs_requeued"] >= 1
        assert summary["service.worker_forks"] == 2
        payload = json.loads(
            service.result_path(admission.job_id).read_text()
        )
        assert payload["completed"] == len(SEEDS)
        assert payload["resumed"] >= 1  # attempt 2 resumed the journal
        assert payload["aggregates"] == clean_aggregates(SPEC, SEEDS)


class TestServiceSigkill:
    def test_killed_service_restarts_and_completes(self, tmp_path):
        root = tmp_path / "svc"
        # enough per-seed work that SIGKILL lands while the job runs
        spec = BenignReplicationSpec(accesses=4000, scale=8)
        seeds = list(range(201, 221))
        service = CampaignService(
            root, config=ServiceConfig(**FAST), use_cache=False
        )
        admission = service.submit(spec, seeds, experiment="chaos")
        journal = service.journal_path(admission.job_id)

        process = serve_subprocess(root)
        try:
            assert wait_for(journal.exists), "worker never started"
            sigkill(process)  # takes the worker down with it
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                sigkill(process)
        queue = load_queue(service.queue_path)
        assert queue.jobs[admission.job_id].state in (QUEUED, "running")

        # restart: reconcile running -> queued, resume from the journal
        restarted = CampaignService(
            root, config=ServiceConfig(**FAST), use_cache=False
        )
        summary = restarted.serve(drain_and_exit=True)
        assert summary["done"] == 1
        payload = json.loads(
            restarted.result_path(admission.job_id).read_text()
        )
        assert payload["completed"] == len(seeds)
        assert payload["aggregates"] == clean_aggregates(spec, seeds)


class TestSigtermDrain:
    def test_sigterm_drains_gracefully_exit_zero(self, tmp_path):
        root = tmp_path / "svc"
        spec = BenignReplicationSpec(accesses=4000, scale=8)
        seeds = list(range(301, 331))
        service = CampaignService(
            root, config=ServiceConfig(**FAST), use_cache=False
        )
        admission = service.submit(spec, seeds, experiment="chaos")
        journal = service.journal_path(admission.job_id)

        process = serve_subprocess(root)
        try:
            assert wait_for(journal.exists), "worker never started"
            process.send_signal(signal.SIGTERM)
            returncode = process.wait(timeout=60)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                sigkill(process)
        assert returncode == 0  # graceful drain exits clean

        queue = load_queue(service.queue_path)
        job = queue.jobs[admission.job_id]
        if job.state == DONE:
            pytest.skip("job finished before SIGTERM landed")
        # requeued without burning an attempt; journal holds progress
        assert job.state == QUEUED
        assert job.attempts == 0

        restarted = CampaignService(
            root, config=ServiceConfig(**FAST), use_cache=False
        )
        summary = restarted.serve(drain_and_exit=True)
        assert summary["done"] == 1
        payload = json.loads(
            restarted.result_path(admission.job_id).read_text()
        )
        assert payload["aggregates"] == clean_aggregates(spec, seeds)


class TestJournalDiskFull:
    def test_enospc_burns_attempt_then_retry_resumes(self, tmp_path):
        service = CampaignService(
            tmp_path / "svc",
            config=ServiceConfig(max_job_attempts=3, **FAST),
            use_cache=False,
        )
        admission = service.submit(SPEC, SEEDS, experiment="chaos")
        # budget 3: header + two seed records land, the third seed's
        # append hits ENOSPC; the retry worker (fresh per-process
        # counter) resumes the clean prefix and only needs one append
        with journal_disk_full(appends_before_full=3):
            summary = service.serve(drain_and_exit=True)
        assert summary["done"] == 1
        assert summary["service.jobs_requeued"] >= 1
        payload = json.loads(
            service.result_path(admission.job_id).read_text()
        )
        assert payload["completed"] == len(SEEDS)
        assert payload["aggregates"] == clean_aggregates(SPEC, SEEDS)


class TestTornQueueEntry:
    def test_torn_final_entry_healed_and_job_completes(self, tmp_path):
        service = CampaignService(
            tmp_path / "svc", config=ServiceConfig(**FAST),
            use_cache=False,
        )
        admission = service.submit(SPEC, SEEDS, experiment="chaos")
        tear_queue_tail(service.queue_path)  # crash mid-append
        summary = service.serve(drain_and_exit=True)
        assert summary["done"] == 1
        # the log healed: every surviving line is complete JSON
        for line in service.queue_path.read_text().splitlines():
            json.loads(line)
        payload = json.loads(
            service.result_path(admission.job_id).read_text()
        )
        assert payload["aggregates"] == clean_aggregates(SPEC, SEEDS)
