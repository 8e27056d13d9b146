"""Resilient campaign runtime: checkpoint, supervise, resume.

The simulator's evidence base is long seeded replication campaigns, and
a bare process-pool fan-out loses every completed seed to one worker
crash, OOM kill, or Ctrl-C.  This package is the one fan-out, hardened:

* :mod:`repro.runtime.journal`    — the crash-safe per-seed journal, the
  one on-disk record of a campaign (fsync'd JSONL, schema-versioned
  header keyed on a campaign fingerprint of spec + seeds; result and
  failure lines carry attempts and wall-clock times);
* :mod:`repro.runtime.supervisor` — supervised pool map with per-task
  timeouts, bounded deterministic-backoff retry, ``BrokenProcessPool``
  respawn, and graceful degradation to a serial path;
* :mod:`repro.runtime.campaign`   — ties both together behind
  :func:`run_campaign`, whose ``resume=True`` skips journaled seeds and
  merges to aggregates bit-identical to an uninterrupted run.

``python -m repro replicate --journal/--resume`` is the CLI surface and
``python -m repro status`` renders a journal; ``docs/RESILIENCE.md``
documents the journal format and the recovery ladder.
"""

from repro.runtime.campaign import (
    CampaignInterrupted,
    CampaignResult,
    CapturedScenario,
    merge_metric_snapshots,
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
    SeedFailure,
    campaign_fingerprint,
    load_journal,
    peek_header,
    spec_signature,
)
from repro.runtime.supervisor import (
    SupervisedOutcome,
    Supervisor,
    SupervisorPolicy,
    backoff_delay,
)

__all__ = [
    "CampaignHeader",
    "CampaignInterrupted",
    "CampaignJournal",
    "CampaignResult",
    "CapturedScenario",
    "JournalError",
    "JournalSnapshot",
    "SCHEMA_VERSION",
    "SeedFailure",
    "SupervisedOutcome",
    "Supervisor",
    "SupervisorPolicy",
    "backoff_delay",
    "campaign_fingerprint",
    "load_journal",
    "merge_metric_snapshots",
    "peek_header",
    "rebuild_from_signature",
    "rebuild_spec",
    "run_campaign",
    "spec_signature",
]
