"""Campaigns: journaled, supervised, resumable replication runs.

A *campaign* is one scenario spec replicated across a seed list.  This
module ties the :class:`~repro.runtime.journal.CampaignJournal` (what is
already done) to the :class:`~repro.runtime.supervisor.Supervisor` (how
the rest gets done):

* a fresh campaign journals every per-seed result the moment a worker
  delivers it, with the worker's metrics snapshot and attempt count,
  and every seed that exhausts its retries as a failure line;
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
from repro.runtime.journal import (
    CampaignHeader,
    CampaignJournal,
    JournalError,
    SeedFailure,
    campaign_fingerprint,
)
from repro.runtime.supervisor import (
    SupervisedOutcome,
    Supervisor,
    SupervisorPolicy,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.cache import ResultCache


@dataclass
class CampaignResult:
    """Outcome of one (possibly resumed) campaign."""

    seeds: List[int]
    completed: Dict[int, Mapping[str, Number]]
    failures: Dict[int, SeedFailure] = field(default_factory=dict)
    #: per-seed worker metrics snapshots (cached seeds have none —
    #: their workers never ran)
    worker_metrics: Dict[int, Dict[str, Number]] = field(default_factory=dict)
    #: the worker snapshots merged in seed order (ints sum, floats
    #: average): the campaign's ``mc.*``/``cache.*``/``defense.*`` totals
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


class CapturedScenario:
    """Picklable wrapper: run one seed, ship its metrics back too.

    ``scenario(seed)`` normally returns a flat result mapping and throws
    its systems — counters and all — away.  The wrapper opens an
    ambient :func:`~repro.obs.runtime.observe` block (which records
    every system built inside, configuring nothing), runs the scenario,
    and returns ``{"result": ..., "metrics": ...}`` where ``metrics``
    merges those systems' :meth:`~repro.sim.system.System.metrics_snapshot`.
    Exceptions pass through untouched so the supervisor's retry ladder
    sees them as usual.
    """

    __slots__ = ("scenario",)

    def __init__(self, scenario: ScenarioFn) -> None:
        self.scenario = scenario

    def __getstate__(self):
        return self.scenario

    def __setstate__(self, state) -> None:
        self.scenario = state

    def __call__(self, seed: int) -> Dict[str, object]:
        from repro.obs.runtime import observe

        with observe() as session:
            result = self.scenario(seed)
        metrics = merge_metric_snapshots(
            [system.metrics_snapshot() for system in session.systems]
        )
        return {"result": result, "metrics": metrics}


def merge_metric_snapshots(
    snapshots: Sequence[Mapping[str, Number]],
) -> Dict[str, Number]:
    """Fold metrics snapshots into one map: ints sum, floats average.

    Integer counters (ACTs, fallbacks, cache hits) are totals, so they
    add; float gauges (hit rates, average latencies) are already
    normalized, so they mean over the snapshots that carry them.  The
    result has every key any snapshot has, and the fold is
    deterministic in ``snapshots`` order.
    """
    values: Dict[str, List[Number]] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            values.setdefault(key, []).append(value)
    merged: Dict[str, Number] = {}
    for key, samples in values.items():
        if any(isinstance(sample, float) for sample in samples):
            merged[key] = sum(samples) / len(samples)
        else:
            merged[key] = sum(samples)
    return merged


def run_campaign(
    spec: ScenarioFn,
    seeds: Sequence[int],
    jobs: Optional[int] = None,
    policy: Optional[SupervisorPolicy] = None,
    journal_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    experiment: str = "",
    cache: Optional["ResultCache"] = None,
) -> CampaignResult:
    """Run (or resume) one campaign under supervision.

    ``resume=True`` requires ``journal_path``; the journal's fingerprint
    must match ``(spec, seeds, experiment)`` or :class:`JournalError` is
    raised rather than silently mixing campaigns.

    Every seed runs inside :class:`CapturedScenario`, so each worker's
    metrics snapshot comes back with its result, rides on its journal
    line and merges into ``CampaignResult.metrics``.

    With a ``cache``, seeds the cache already holds are journaled as
    cached (and counted in ``cache_hits``) before the supervisor
    schedules anything; only misses reach the worker pool, and their
    fresh results are stored on delivery.  Cached seeds bypass the
    supervisor entirely, so they can neither time out nor retry — a
    fully warm campaign forks no workers.
    """
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    fingerprint = campaign_fingerprint(spec, seeds, experiment)

    journal: Optional[CampaignJournal] = None
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
    elif resume:
        raise JournalError("resume requested without a journal path")

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
                continue
            completed[seed] = hit
            if journal is not None:
                journal.record(seed, hit, cached=True)
            cache_hits += 1

    def on_result(seed: int, envelope, attempts: int) -> None:
        # the CapturedScenario envelope: the result and its metrics
        result, metrics = envelope["result"], envelope["metrics"]
        completed[seed] = result
        worker_metrics[seed] = metrics
        if journal is not None:
            journal.record(seed, result, metrics=metrics, attempts=attempts)
        if use_cache:
            assert cache is not None
            cache.put(spec, seed, result)

    def result_of(outcome: SupervisedOutcome) -> CampaignResult:
        snapshots = [worker_metrics[s] for s in seeds if s in worker_metrics]
        return CampaignResult(
            seeds=list(seeds),
            completed=dict(completed),
            failures=dict(outcome.failures),
            worker_metrics=dict(worker_metrics),
            metrics=merge_metric_snapshots(snapshots),
            resumed=resumed,
            cache_hits=cache_hits,
            retries=outcome.retries,
            respawns=outcome.respawns,
            timeouts=outcome.timeouts,
            degraded=outcome.degraded,
            journal_path=journal_path if journal is not None else None,
        )

    remaining = [s for s in seeds if s not in completed]
    outcome = SupervisedOutcome()
    try:
        if remaining:
            outcome = Supervisor(policy, fingerprint).map(
                CapturedScenario(spec), remaining, jobs=jobs,
                on_result=on_result,
                on_failure=journal.fail if journal is not None else None,
            )
    except KeyboardInterrupt:
        partial = result_of(outcome)
        raise CampaignInterrupted(partial, partial.journal_path) from None
    finally:
        if journal is not None:
            journal.close()
    return result_of(outcome)


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
