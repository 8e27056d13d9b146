"""Resilient campaign runtime: checkpoint, supervise, resume.

The simulator's evidence base is long seeded replication campaigns, and
a bare process-pool fan-out loses every completed seed to one worker
crash, OOM kill, or Ctrl-C.  This package is the one fan-out, hardened:

* :mod:`repro.runtime.journal`    — crash-safe per-seed result journal
  (fsync'd JSONL, schema-versioned header keyed on a campaign
  fingerprint of spec + seeds);
* :mod:`repro.runtime.supervisor` — supervised pool map with per-task
  timeouts, bounded deterministic-backoff retry, ``BrokenProcessPool``
  respawn, and graceful degradation to a serial path;
* :mod:`repro.runtime.campaign`   — ties both together behind
  :func:`run_campaign`, whose ``resume=True`` skips journaled seeds and
  merges to aggregates bit-identical to an uninterrupted run.

``python -m repro replicate --journal/--resume`` is the CLI surface;
``docs/RESILIENCE.md`` documents the journal format and the recovery
ladder.
"""

from repro.runtime.campaign import (
    CampaignInterrupted,
    CampaignResult,
    rebuild_from_signature,
    rebuild_spec,
    run_campaign,
)
from repro.runtime.journal import (
    SCHEMA_VERSION,
    CampaignHeader,
    CampaignJournal,
    JournalError,
    JournalSnapshot,
    campaign_fingerprint,
    load_journal,
    peek_header,
    spec_signature,
)
from repro.runtime.report import (
    build_run_report,
    render_run_report,
    summarize_telemetry,
    write_run_report,
)
from repro.runtime.supervisor import (
    SeedFailure,
    SupervisedOutcome,
    Supervisor,
    SupervisorPolicy,
    backoff_delay,
)
from repro.runtime.telemetry import (
    CampaignTelemetry,
    CapturedScenario,
    merge_metric_snapshots,
    read_telemetry,
    telemetry_path,
)

__all__ = [
    "CampaignHeader",
    "CampaignInterrupted",
    "CampaignJournal",
    "CampaignResult",
    "CampaignTelemetry",
    "CapturedScenario",
    "JournalError",
    "JournalSnapshot",
    "SCHEMA_VERSION",
    "SeedFailure",
    "SupervisedOutcome",
    "Supervisor",
    "SupervisorPolicy",
    "backoff_delay",
    "build_run_report",
    "campaign_fingerprint",
    "load_journal",
    "merge_metric_snapshots",
    "peek_header",
    "read_telemetry",
    "rebuild_from_signature",
    "rebuild_spec",
    "render_run_report",
    "run_campaign",
    "spec_signature",
    "summarize_telemetry",
    "telemetry_path",
    "write_run_report",
]
