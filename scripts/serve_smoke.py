#!/usr/bin/env python
"""CI smoke: the campaign service survives a SIGKILL'd worker and
answers warm resubmissions from the cache without forking.

Drill:

1. compute clean reference aggregates for two campaigns (no service);
2. submit both to one service — the plain campaign at ``--priority
   high``, plus a fault-injected campaign whose worker SIGKILLs itself
   mid-job on its first attempt;
3. serve to drain: the high-priority job must start first, the killed
   worker must be re-forked and resume its journal, and both results
   must be bit-identical to the clean references;
4. resubmit the plain campaign into a *fresh* service root sharing the
   result cache: it must complete warm — zero worker forks — and
   instantly (well under one worker's interpreter startup).

Usage (from the repository root)::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path


def clean_aggregates(spec, seeds) -> dict:
    from repro.runtime import run_campaign

    result = run_campaign(spec, seeds, jobs=1)
    return {
        name: {
            "samples": agg.samples, "mean": agg.mean,
            "stdev": agg.stdev, "minimum": agg.minimum,
            "maximum": agg.maximum,
        }
        for name, agg in result.aggregates.items()
    }


def result_payload(service, job_id: str) -> dict:
    return json.loads(service.result_path(job_id).read_text())


def fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=4)
    parser.add_argument("--accesses", type=int, default=300)
    parser.add_argument(
        "--warm-budget-s", type=float, default=5.0,
        help="wall-clock ceiling for the warm resubmission",
    )
    args = parser.parse_args(argv)

    from repro.analysis.parallel import BenignReplicationSpec
    from repro.faults.crash import CrashingSpec
    from repro.runtime.service import CampaignService, ServiceConfig

    plain = BenignReplicationSpec(accesses=args.accesses, scale=8)
    plain_seeds = list(range(101, 101 + args.seeds))
    crash_seeds = list(range(201, 201 + args.seeds))
    config = ServiceConfig(
        max_inflight=1, poll_s=0.01,
        backoff_base_s=0.01, backoff_cap_s=0.05,
    )

    print("[1/4] clean reference aggregates...", flush=True)
    plain_reference = clean_aggregates(plain, plain_seeds)
    crash_reference = clean_aggregates(plain, crash_seeds)

    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp) / "cache"
        # the injected fault: the worker SIGKILLs itself mid-job on the
        # first pass over this seed; the marker makes the retry clean
        crashing = CrashingSpec(
            spec=plain, crash_seeds=(crash_seeds[1],), mode="kill",
            marker_dir=str(Path(tmp) / "markers"),
        )

        print("[2/4] submit two jobs (one high-priority), serve "
              "through a worker SIGKILL...", flush=True)
        service = CampaignService(
            Path(tmp) / "svc", config=config, cache_dir=cache_dir,
        )
        high = service.submit(
            plain, plain_seeds, experiment="E13", priority="high",
        )
        # jobs=1 runs the seeds in the service worker itself, so the
        # kill takes down the worker rather than a pool child that the
        # worker's own supervisor would respawn
        killed = service.submit(
            crashing, crash_seeds, experiment="chaos", jobs=1,
        )
        if not (high.accepted and killed.accepted):
            return fail("admission rejected a smoke job")
        summary = service.serve(drain_and_exit=True)
        if summary["done"] != 2:
            return fail(f"expected 2 done jobs, got {summary['done']}")
        if summary["service.worker_forks"] != 3:
            return fail(
                "expected 3 worker forks (one per job + one re-fork "
                f"after SIGKILL), got {summary['service.worker_forks']}"
            )

        events = [
            json.loads(line)
            for line in (service.root / "service.telemetry")
            .read_text().splitlines()
        ]
        started = [e["job"] for e in events if e["kind"] == "job_started"]
        if started[0] != high.job_id:
            return fail("high-priority job did not start first")

        killed_payload = result_payload(service, killed.job_id)
        if killed_payload["resumed"] < 1:
            return fail("re-forked worker did not resume the journal")
        if result_payload(service, high.job_id)["aggregates"] \
                != plain_reference:
            return fail("high-priority job aggregates differ from clean")
        if killed_payload["aggregates"] != crash_reference:
            return fail("killed job aggregates differ from clean")
        print(f"      done=2 forks=3 resumed={killed_payload['resumed']}"
              f" — bit-identical", flush=True)

        print("[3/4] warm resubmission into a fresh service root...",
              flush=True)
        warm_root = Path(tmp) / "svc-warm"
        warm = CampaignService(
            warm_root, config=config, cache_dir=cache_dir,
        )
        resubmit = warm.submit(
            plain, plain_seeds, experiment="E13", priority="high",
        )
        if resubmit.job_id != high.job_id:
            return fail("resubmission fingerprinted to a different job")
        began = time.monotonic()
        warm_summary = warm.serve(drain_and_exit=True)
        elapsed = time.monotonic() - began

        print("[4/4] warm job forked nothing and matched...", flush=True)
        if warm_summary["service.worker_forks"] != 0:
            return fail(
                f"warm job forked {warm_summary['service.worker_forks']}"
                " workers; wanted 0"
            )
        if warm_summary["service.jobs_cached_warm"] != 1:
            return fail("warm job was not completed from the cache")
        if result_payload(warm, resubmit.job_id)["aggregates"] \
                != plain_reference:
            return fail("warm aggregates differ from clean")
        if elapsed > args.warm_budget_s:
            return fail(
                f"warm completion took {elapsed:.2f}s "
                f"> {args.warm_budget_s}s budget"
            )
        print(f"      cached_warm=1 forks=0 in {elapsed:.2f}s", flush=True)

    print("serve smoke OK: SIGKILL recovery bit-identical, warm "
          "resubmission served from cache without forking")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
