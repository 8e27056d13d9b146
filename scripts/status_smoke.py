#!/usr/bin/env python
"""CI smoke: campaign telemetry + ``repro status`` on a real journal.

Runs one small journaled campaign (4 seeds of E4 at a tiny scale), then
exercises the live-observability surface end to end:

* the journal records carry per-seed worker metrics snapshots;
* the telemetry sidecar holds the full lifecycle
  (``campaign_started`` → 4× ``seed_started``/``seed_finished`` →
  ``campaign_finished``);
* ``python -m repro status <journal>`` reports seed progress and the
  merged ``runtime.*``/``mc.*`` metrics, and its output is
  byte-identical across invocations (deterministic given the files);
* ``python -m repro report --campaign <journal>`` writes the JSON +
  markdown run report, and the JSON is byte-identical on a second
  build.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/status_smoke.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path

SEEDS = [101, 102, 103, 104]


def capture_cli(argv) -> str:
    from repro.cli import main

    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = main(argv)
    if code != 0:
        raise SystemExit(
            f"command {argv} exited {code}:\n{stream.getvalue()}"
        )
    return stream.getvalue()


def main() -> int:
    from repro.analysis.parallel import REPLICATION_SPECS
    from repro.obs.events import (
        CAMPAIGN_FINISHED,
        CAMPAIGN_STARTED,
        SEED_FINISHED,
        SEED_STARTED,
    )
    from repro.runtime import (
        build_run_report,
        load_journal,
        read_telemetry,
        run_campaign,
        telemetry_path,
    )

    failures = []
    spec = dataclasses.replace(REPLICATION_SPECS["E4"], scale=8)
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "campaign.jsonl"
        result = run_campaign(
            spec, SEEDS, jobs=2, journal_path=journal, experiment="E4"
        )
        if not result.complete:
            failures.append("campaign did not complete")
        if len(result.worker_metrics) != len(SEEDS):
            failures.append(
                f"expected {len(SEEDS)} worker metric snapshots, got "
                f"{len(result.worker_metrics)}"
            )
        for key in ("mc.acts", "runtime.seeds_completed", "mc.ref_bursts"):
            if key not in result.metrics:
                failures.append(f"campaign metrics missing {key}")

        snapshot = load_journal(journal)
        if len(snapshot.worker_metrics) != len(SEEDS):
            failures.append("journal records did not carry worker metrics")
        events = read_telemetry(telemetry_path(journal))
        counts = {}
        for event in events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        expected = {
            CAMPAIGN_STARTED: 1,
            SEED_STARTED: len(SEEDS),
            SEED_FINISHED: len(SEEDS),
            CAMPAIGN_FINISHED: 1,
        }
        for kind, want in expected.items():
            if counts.get(kind, 0) != want:
                failures.append(
                    f"telemetry: expected {want} {kind} events, got "
                    f"{counts.get(kind, 0)}"
                )

        first = capture_cli(["status", str(journal)])
        second = capture_cli(["status", str(journal)])
        if first != second:
            failures.append("repro status output is not deterministic")
        for needle in (f"{len(SEEDS)}/{len(SEEDS)} seeds done",
                       "mc.acts", "runtime.seeds_completed"):
            if needle not in first:
                failures.append(f"repro status output missing {needle!r}")

        capture_cli(["report", "--campaign", str(journal)])
        report_json = journal.with_name(journal.name + "-report.json")
        if not report_json.exists():
            failures.append("repro report --campaign wrote no JSON")
        else:
            rebuilt = json.dumps(
                build_run_report(journal), sort_keys=True, indent=2
            ) + "\n"
            if report_json.read_text() != rebuilt:
                failures.append("campaign run report is not deterministic")

    if failures:
        print("status smoke FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"status smoke passed: {len(SEEDS)} seeds journaled, telemetry "
          f"complete, status/report deterministic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
