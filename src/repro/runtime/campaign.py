"""Campaigns: journaled, supervised, resumable replication runs.

A *campaign* is one scenario spec replicated across a seed list.  This
module ties the :class:`~repro.runtime.journal.CampaignJournal` (what is
already done) to the :class:`~repro.runtime.supervisor.Supervisor` (how
the rest gets done):

* a fresh campaign journals every per-seed result the moment a worker
  delivers it;
* ``resume=True`` reloads the journal, verifies its fingerprint against
  the requested spec + seeds, skips completed seeds, and merges old and
  new results **in seed order** — so the aggregates are bit-identical
  to an uninterrupted run;
* ``KeyboardInterrupt`` salvages instead of discarding: the exception
  is re-raised as :class:`CampaignInterrupted` carrying the partial
  result, and the journal (all flushed, fsync'd lines) is the resume
  point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from repro.analysis.stats import (
    Aggregate,
    Number,
    ScenarioFn,
    merge_replications,
)
from repro.obs.events import (
    CACHE_HIT,
    CAMPAIGN_FINISHED,
    CAMPAIGN_RESUME,
    CAMPAIGN_STARTED,
    SEED_CACHED,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceBus
from repro.runtime.journal import (
    CampaignHeader,
    CampaignJournal,
    JournalError,
    campaign_fingerprint,
)
from repro.runtime.supervisor import (
    SeedFailure,
    SupervisedOutcome,
    Supervisor,
    SupervisorPolicy,
)
from repro.runtime.telemetry import (
    CampaignTelemetry,
    merge_metric_snapshots,
    telemetry_path,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.cache import ResultCache


@dataclass
class CampaignResult:
    """Outcome of one (possibly resumed) campaign."""

    seeds: List[int]
    completed: Dict[int, Mapping[str, Number]]
    failures: Dict[int, SeedFailure] = field(default_factory=dict)
    #: per-seed worker registry snapshots (``capture_metrics`` runs;
    #: cached seeds have none — their workers never ran)
    worker_metrics: Dict[int, Dict[str, Number]] = field(default_factory=dict)
    #: campaign-level metrics: worker snapshots merged in seed order
    #: (ints sum, floats average) plus the supervisor's ``runtime.*``
    metrics: Dict[str, Number] = field(default_factory=dict)
    #: seeds skipped because the journal already had their results
    resumed: int = 0
    #: seeds served from the content-addressed result cache
    cache_hits: int = 0
    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    degraded: bool = False
    journal_path: Optional[Path] = None

    @property
    def complete(self) -> bool:
        return all(seed in self.completed for seed in self.seeds)

    @property
    def incomplete_seeds(self) -> List[int]:
        return [s for s in self.seeds if s not in self.completed]

    @property
    def aggregates(self) -> Optional[Dict[str, Aggregate]]:
        """Merged aggregates over the completed seeds, in seed order.

        For a complete campaign this is bit-identical to the serial
        ``replicate(spec, seeds)`` fold; for a partial one it covers
        what finished (and is labelled as such by the CLI).
        """
        runs = [self.completed[s] for s in self.seeds if s in self.completed]
        if not runs:
            return None
        return merge_replications(runs)


class CampaignInterrupted(KeyboardInterrupt):
    """Ctrl-C (or SIGINT) landed mid-campaign; partial results salvaged.

    Subclasses :class:`KeyboardInterrupt` so callers that only handle
    the stock interrupt still unwind correctly.
    """

    def __init__(
        self, partial: CampaignResult, journal_path: Optional[Path]
    ) -> None:
        self.partial = partial
        self.journal_path = journal_path
        super().__init__("campaign interrupted")


def run_campaign(
    spec: ScenarioFn,
    seeds: Sequence[int],
    jobs: Optional[int] = None,
    policy: Optional[SupervisorPolicy] = None,
    journal_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    experiment: str = "",
    trace: Optional[TraceBus] = None,
    metrics: Optional[MetricsRegistry] = None,
    cache: Optional["ResultCache"] = None,
    capture_metrics: bool = True,
) -> CampaignResult:
    """Run (or resume) one campaign under supervision.

    ``resume=True`` requires ``journal_path``; the journal's fingerprint
    must match ``(spec, seeds, experiment)`` or :class:`JournalError` is
    raised rather than silently mixing campaigns.

    With a ``cache``, seeds the cache already holds are journaled and
    counted as ``runtime.cache_hit`` (with a ``cache_hit`` trace event
    each) before the supervisor schedules anything; only misses reach
    the worker pool, and their fresh results are stored on delivery.
    Cached seeds bypass the supervisor entirely, so they can neither
    time out nor retry — a fully warm campaign forks no workers.

    A journaled campaign additionally streams lifecycle telemetry to
    the ``<journal>.telemetry`` sidecar (``python -m repro status``
    reads it live), and ``capture_metrics=True`` ships each worker's
    registry snapshot back with its result: snapshots ride on the
    journal records and merge into ``CampaignResult.metrics``.  Cached
    and previously-journaled-without-metrics seeds contribute no
    snapshot (their workers never ran under capture).
    """
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    fingerprint = campaign_fingerprint(spec, seeds, experiment)

    journal: Optional[CampaignJournal] = None
    telemetry: Optional[CampaignTelemetry] = None
    completed: Dict[int, Mapping[str, Number]] = {}
    worker_metrics: Dict[int, Dict[str, Number]] = {}
    resumed = 0
    if journal_path is not None:
        journal_path = Path(journal_path)
        if resume:
            journal = CampaignJournal.resume(journal_path)
            journal.verify(fingerprint)
            completed = dict(journal.completed)
            worker_metrics = dict(journal.worker_metrics)
            resumed = len(completed)
        else:
            journal = CampaignJournal.create(
                journal_path, spec, seeds, experiment
            )
        telemetry = CampaignTelemetry(
            telemetry_path(journal_path), append=resume
        )
    elif resume:
        raise JournalError("resume requested without a journal path")

    supervisor = Supervisor(
        policy=policy, trace=trace, metrics=metrics,
        fingerprint=fingerprint, telemetry=telemetry,
    )
    if resumed:
        supervisor._count("seeds_resumed", resumed)
        supervisor._emit(
            CAMPAIGN_RESUME,
            fingerprint=fingerprint,
            completed=resumed,
            remaining=len(seeds) - resumed,
        )
    supervisor._telemetry(
        CAMPAIGN_STARTED,
        fingerprint=fingerprint,
        experiment=experiment,
        seeds=len(seeds),
        resumed=resumed,
    )

    cache_hits = 0
    use_cache = False
    if cache is not None:
        from repro.analysis.cache import is_cacheable

        use_cache = is_cacheable(spec)
    if use_cache:
        assert cache is not None
        for seed in seeds:
            if seed in completed:
                continue
            hit = cache.get(spec, seed)
            if hit is None:
                supervisor._count("cache_miss")
                continue
            completed[seed] = hit
            if journal is not None:
                journal.record(seed, hit)
            cache_hits += 1
            supervisor._count("cache_hit")
            supervisor._emit(
                CACHE_HIT, fingerprint=fingerprint, seed=seed
            )
            supervisor._telemetry(SEED_CACHED, seed=seed)

    def on_result(
        seed: int,
        result: Mapping[str, Number],
        snapshot: Optional[Mapping[str, Number]] = None,
    ) -> None:
        completed[seed] = result
        if snapshot is not None:
            worker_metrics[seed] = dict(snapshot)
        if journal is not None:
            journal.record(seed, result, metrics=snapshot)
        if use_cache:
            assert cache is not None
            cache.put(spec, seed, result)

    def finish(outcome: SupervisedOutcome) -> CampaignResult:
        result = _build_result(
            seeds, completed, worker_metrics, outcome, supervisor,
            resumed, cache_hits,
            journal_path if journal is not None else None,
        )
        supervisor._telemetry(
            CAMPAIGN_FINISHED,
            fingerprint=fingerprint,
            completed=len(result.completed),
            failed=len(result.failures),
            retries=result.retries,
            respawns=result.respawns,
            timeouts=result.timeouts,
            cache_hits=result.cache_hits,
            degraded=result.degraded,
            runtime=supervisor.metrics.snapshot(),
        )
        if journal is not None:
            journal.close()
        if telemetry is not None:
            telemetry.close()
        return result

    remaining = [s for s in seeds if s not in completed]
    outcome = SupervisedOutcome()
    try:
        if remaining:
            outcome = supervisor.map(
                spec, remaining, jobs=jobs, on_result=on_result,
                capture_metrics=capture_metrics,
            )
    except KeyboardInterrupt:
        partial = _build_result(
            seeds, completed, worker_metrics, outcome, supervisor,
            resumed, cache_hits,
            journal_path if journal is not None else None,
        )
        if journal is not None:
            journal.close()
        if telemetry is not None:
            telemetry.close()
        raise CampaignInterrupted(
            partial, journal_path if journal is not None else None
        ) from None
    return finish(outcome)


def _build_result(
    seeds: List[int],
    completed: Dict[int, Mapping[str, Number]],
    worker_metrics: Dict[int, Dict[str, Number]],
    outcome: SupervisedOutcome,
    supervisor: Supervisor,
    resumed: int,
    cache_hits: int,
    journal_path: Optional[Path],
) -> CampaignResult:
    snapshots = [worker_metrics[s] for s in seeds if s in worker_metrics]
    merged = merge_metric_snapshots(snapshots) if snapshots else {}
    for key, value in supervisor.metrics.snapshot().items():
        merged.setdefault(key, value)
    return CampaignResult(
        seeds=list(seeds),
        completed=dict(completed),
        failures=dict(outcome.failures),
        worker_metrics=dict(worker_metrics),
        metrics=merged,
        resumed=resumed,
        cache_hits=cache_hits,
        retries=outcome.retries,
        respawns=outcome.respawns,
        timeouts=outcome.timeouts,
        degraded=outcome.degraded,
        journal_path=journal_path,
    )


def _rebuildable_specs() -> Dict[str, type]:
    """Spec types a journal signature can reconstruct by name."""
    from repro.analysis.parallel import (
        AttackReplicationSpec,
        BenignReplicationSpec,
        EvasionReplicationSpec,
    )
    from repro.faults.crash import CrashingSpec

    return {
        klass.__name__: klass
        for klass in (
            AttackReplicationSpec,
            BenignReplicationSpec,
            EvasionReplicationSpec,
            CrashingSpec,
        )
    }


def rebuild_from_signature(signature: Mapping[str, object]) -> ScenarioFn:
    """Reconstruct a scenario spec from its ``spec_signature`` dict.

    Handles the flat, picklable replication specs the CLI exposes plus
    wrapper specs whose fields are themselves signatures (the chaos
    harness's :class:`~repro.faults.crash.CrashingSpec`), recursively.
    A signature carrying only a ``repr`` (arbitrary callables) cannot
    be rebuilt.
    """
    known = _rebuildable_specs()
    klass = known.get(str(signature.get("type")))
    if klass is None or "params" not in signature:
        raise JournalError(
            f"cannot rebuild spec of type {signature.get('type')!r}; "
            f"resume it through repro.runtime.run_campaign with the "
            f"original spec object"
        )
    params = dict(signature["params"])  # type: ignore[arg-type]
    for key, value in params.items():
        if (
            isinstance(value, dict)
            and str(value.get("type")) in known
            and "params" in value
        ):
            params[key] = rebuild_from_signature(value)
        elif isinstance(value, list):
            params[key] = tuple(value)
    try:
        return klass(**params)  # type: ignore[arg-type]
    except TypeError as error:
        raise JournalError(
            f"journal spec params do not match "
            f"{klass.__name__}: {error}"
        ) from None


def rebuild_spec(header: CampaignHeader) -> ScenarioFn:
    """Reconstruct the scenario spec a journal header describes.

    Only specs :func:`rebuild_from_signature` knows can be rebuilt; a
    journal written for an arbitrary callable carries a ``repr``
    fingerprint but not enough to reconstruct it.
    """
    return rebuild_from_signature(header.spec)
