"""Supervised process-pool map: timeouts, bounded retry, pool respawn.

A bare ``ProcessPoolExecutor`` map over seeds hopes: one OOM-killed
worker raises ``BrokenProcessPool`` and discards every completed seed.
:class:`Supervisor` wraps the fan-out with the recovery ladder a long
campaign needs:

* **per-task wall-clock timeouts** — a hung seed is abandoned, its
  worker pool recycled, and the seed requeued;
* **bounded retry with deterministic backoff** — a failed seed retries
  up to ``max_retries`` times; the backoff delay is a pure function of
  (campaign fingerprint, seed, attempt), so reruns pace identically;
* **``BrokenProcessPool`` recovery** — a dead worker poisons the whole
  pool, so the supervisor respawns it and requeues every in-flight
  seed;
* **graceful degradation** — after ``max_pool_respawns`` pool deaths the
  supervisor stops trusting process isolation and finishes the
  remaining seeds serially in-process.

Per-seed results are delivered through an ``on_result`` callback the
moment they complete, and permanent failures through ``on_failure``
(the campaign layer journals both there), so progress survives any
later failure.  Results are returned keyed by seed; ordering is the
caller's concern, which is how the campaign layer keeps aggregates
bit-identical to a serial run.  The retry, respawn and timeout tallies
land on the returned :class:`SupervisedOutcome`.
"""

from __future__ import annotations

import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Mapping, Optional, Sequence

from repro.analysis.parallel import effective_workers, resolve_jobs
from repro.analysis.stats import Number, ScenarioFn
from repro.runtime.journal import SeedFailure

#: ``on_result(seed, result, attempts)``: a seed completed on its
#: ``attempts``-th try
ResultCallback = Callable[[int, Mapping[str, Number], int], None]
#: ``on_failure(failure)``: a seed exhausted its retry budget
FailureCallback = Callable[[SeedFailure], None]


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs of the recovery ladder."""

    #: per-task wall-clock budget; ``None`` disables timeouts
    timeout_s: Optional[float] = None
    #: retries per seed after its first attempt
    max_retries: int = 2
    #: first backoff delay; attempt ``n`` waits ~``base * 2**(n-1)``
    backoff_base_s: float = 0.05
    #: ceiling on any single backoff delay
    backoff_cap_s: float = 2.0
    #: pool deaths tolerated before degrading to the serial path
    max_pool_respawns: int = 3
    #: how often the supervisor wakes to check deadlines
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive or None")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_pool_respawns < 0:
            raise ValueError("max_pool_respawns must be >= 0")


def backoff_delay(
    fingerprint: str, seed: int, attempt: int, policy: SupervisorPolicy
) -> float:
    """Deterministic jittered exponential backoff.

    A pure function of its arguments: rerunning a campaign replays the
    same delays, and distinct seeds decorrelate so a broken pool's
    requeued seeds do not stampede back in lockstep.
    """
    if attempt < 1:
        raise ValueError("attempt counts from 1")
    base = min(
        policy.backoff_cap_s, policy.backoff_base_s * (2 ** (attempt - 1))
    )
    jitter = random.Random(f"{fingerprint}:{seed}:{attempt}").uniform(0.5, 1.0)
    return base * jitter


@dataclass
class SupervisedOutcome:
    """Everything one supervised map learned."""

    results: Dict[int, Mapping[str, Number]] = field(default_factory=dict)
    failures: Dict[int, SeedFailure] = field(default_factory=dict)
    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    #: the supervisor gave up on process isolation and finished serially
    degraded: bool = False


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*: terminate workers, abandon their work."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead worker
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - broken pools may refuse
        pass


class Supervisor:
    """Run ``scenario(seed)`` for many seeds under the recovery ladder."""

    def __init__(
        self, policy: Optional[SupervisorPolicy] = None, fingerprint: str = "",
    ) -> None:
        self.policy = policy or SupervisorPolicy()
        self.fingerprint = fingerprint
        self._on_result: Optional[ResultCallback] = None
        self._on_failure: Optional[FailureCallback] = None

    def map(
        self,
        scenario: ScenarioFn,
        seeds: Sequence[int],
        jobs: Optional[int] = None,
        on_result: Optional[ResultCallback] = None,
        on_failure: Optional[FailureCallback] = None,
    ) -> SupervisedOutcome:
        """Supervised equivalent of ``pool.map(scenario, seeds)``.

        Never raises for a failing *seed* — permanent failures land in
        ``outcome.failures`` (and reach ``on_failure`` as they happen).
        ``KeyboardInterrupt`` tears the pool down and propagates;
        everything already completed has been delivered through
        ``on_result``.
        """
        seeds = [int(seed) for seed in seeds]
        outcome = SupervisedOutcome()
        if not seeds:
            return outcome
        self._on_result, self._on_failure = on_result, on_failure
        workers = effective_workers(resolve_jobs(jobs), len(seeds))
        if workers <= 1:
            self._run_serial(
                scenario, deque(seeds), {seed: 0 for seed in seeds}, outcome,
            )
        else:
            self._run_pooled(scenario, seeds, workers, outcome)
        return outcome

    # ------------------------------------------------------------------
    # Serial path (one worker, or degraded mode)
    # ------------------------------------------------------------------

    def _run_serial(
        self,
        scenario: ScenarioFn,
        queue: Deque[int],
        attempts: Dict[int, int],
        outcome: SupervisedOutcome,
        ready_at: Optional[Dict[int, float]] = None,
    ) -> None:
        """In-process loop over ``queue`` with the same retry budget (no
        timeouts: a hung seed cannot be preempted without process
        isolation).  ``ready_at`` holds the backoff gates a degraded
        pool left behind; each seed waits out its own."""
        while queue:
            seed = queue.popleft()
            if ready_at is not None:
                gate = ready_at.get(seed, 0.0) - time.monotonic()
                if gate > 0:
                    time.sleep(gate)
            attempts[seed] += 1
            try:
                result = scenario(seed)
            except KeyboardInterrupt:
                raise
            except Exception as error:
                self._requeue(
                    seed, attempts, queue, outcome,
                    reason=f"error: {error!r}", sleep=True,
                )
                continue
            self._complete(seed, result, attempts, outcome)

    # ------------------------------------------------------------------
    # Pooled path
    # ------------------------------------------------------------------

    def _run_pooled(
        self,
        scenario: ScenarioFn,
        seeds: Sequence[int],
        workers: int,
        outcome: SupervisedOutcome,
    ) -> None:
        policy = self.policy
        queue: Deque[int] = deque(seeds)
        attempts: Dict[int, int] = {seed: 0 for seed in seeds}
        ready_at: Dict[int, float] = {}
        pool = ProcessPoolExecutor(max_workers=workers)
        inflight: Dict[object, int] = {}
        deadlines: Dict[object, Optional[float]] = {}
        try:
            while queue or inflight:
                now = time.monotonic()
                # Submit every ready seed up to the worker count, so a
                # task's deadline starts roughly when it starts running.
                while queue and len(inflight) < workers:
                    seed = self._pop_ready(queue, ready_at, now)
                    if seed is None:
                        break
                    attempts[seed] += 1
                    try:
                        future = pool.submit(scenario, seed)
                    except BrokenProcessPool:
                        # A worker died between polls and the executor
                        # flagged itself broken before ``wait`` could
                        # deliver the failed futures.  The seed never
                        # ran: refund it and recycle the pool.
                        attempts[seed] -= 1
                        queue.appendleft(seed)
                        pool = self._respawn(
                            pool, inflight, deadlines, attempts, queue,
                            outcome, ready_at, workers,
                            reason="worker died",
                        )
                        if pool is None:
                            self._degrade(
                                scenario, queue, attempts, outcome, ready_at,
                            )
                            return
                        continue
                    inflight[future] = seed
                    deadlines[future] = (
                        now + policy.timeout_s
                        if policy.timeout_s is not None else None
                    )
                if not inflight:
                    # Everything pending is backing off; sleep it out.
                    gate = min(ready_at.get(s, now) for s in queue)
                    time.sleep(max(0.0, min(gate - now, 0.25)))
                    continue
                done, _ = wait(
                    set(inflight),
                    timeout=policy.poll_interval_s,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    seed = inflight.pop(future)
                    deadlines.pop(future, None)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broken = True
                        self._requeue(
                            seed, attempts, queue, outcome,
                            reason="worker died", ready_at=ready_at,
                        )
                    except KeyboardInterrupt:  # pragma: no cover - defensive
                        raise
                    except Exception as error:
                        self._requeue(
                            seed, attempts, queue, outcome,
                            reason=f"error: {error!r}", ready_at=ready_at,
                        )
                    else:
                        self._complete(seed, result, attempts, outcome)
                if broken:
                    pool = self._respawn(
                        pool, inflight, deadlines, attempts, queue,
                        outcome, ready_at, workers, reason="worker died",
                    )
                    if pool is None:
                        self._degrade(
                            scenario, queue, attempts, outcome, ready_at,
                        )
                        return
                    continue
                pool_after_timeout = self._check_deadlines(
                    pool, inflight, deadlines, attempts, queue,
                    outcome, ready_at, workers,
                )
                if pool_after_timeout is _DEGRADE:
                    self._degrade(
                        scenario, queue, attempts, outcome, ready_at,
                    )
                    return
                if pool_after_timeout is not None:
                    pool = pool_after_timeout
        except KeyboardInterrupt:
            if pool is not None:
                _kill_pool(pool)
            raise
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _pop_ready(
        self, queue: Deque[int], ready_at: Dict[int, float], now: float
    ) -> Optional[int]:
        """First queued seed whose backoff gate has passed (queue order
        otherwise preserved)."""
        for _ in range(len(queue)):
            seed = queue.popleft()
            if ready_at.get(seed, 0.0) <= now:
                return seed
            queue.append(seed)
        return None

    def _check_deadlines(
        self, pool, inflight, deadlines, attempts, queue, outcome,
        ready_at, workers,
    ):
        """Expire overdue tasks.  A hung worker can only be reclaimed by
        recycling the pool, so any expiry implies a respawn; the other
        in-flight seeds are requeued through the same retry budget."""
        if self.policy.timeout_s is None:
            return None
        now = time.monotonic()
        expired = [
            future for future, deadline in deadlines.items()
            if deadline is not None and now > deadline
            and future in inflight
        ]
        if not expired:
            return None
        for future in expired:
            seed = inflight.pop(future)
            deadlines.pop(future, None)
            outcome.timeouts += 1
            self._requeue(
                seed, attempts, queue, outcome,
                reason=f"timeout after {self.policy.timeout_s}s",
                ready_at=ready_at,
            )
        replacement = self._respawn(
            pool, inflight, deadlines, attempts, queue, outcome,
            ready_at, workers, reason="task timeout",
        )
        return replacement if replacement is not None else _DEGRADE

    def _respawn(
        self, pool, inflight, deadlines, attempts, queue, outcome,
        ready_at, workers, reason,
    ) -> Optional[ProcessPoolExecutor]:
        """Kill and replace the pool, requeueing every in-flight seed.

        A broken pool cannot say *which* worker took it down, so every
        in-flight seed burns one attempt — deterministic, where guessing
        at innocence would race against exception delivery.  With the
        default retry budget innocents recover on the fresh pool.
        Returns ``None`` once the respawn budget is spent."""
        for future, seed in list(inflight.items()):
            self._requeue(
                seed, attempts, queue, outcome,
                reason=f"pool lost ({reason})", ready_at=ready_at,
            )
        inflight.clear()
        deadlines.clear()
        _kill_pool(pool)
        outcome.respawns += 1
        if outcome.respawns > self.policy.max_pool_respawns:
            return None
        return ProcessPoolExecutor(max_workers=workers)

    def _degrade(self, scenario, queue, attempts, outcome, ready_at) -> None:
        """The pool keeps dying: finish the remaining seeds serially."""
        outcome.degraded = True
        self._run_serial(scenario, queue, attempts, outcome, ready_at)

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------

    def _complete(self, seed, result, attempts, outcome) -> None:
        outcome.results[seed] = result
        if self._on_result is not None:
            self._on_result(seed, result, attempts[seed])

    def _requeue(
        self, seed, attempts, queue, outcome, reason,
        ready_at: Optional[Dict[int, float]] = None, sleep: bool = False,
    ) -> None:
        """Retry a failed seed, or record it as permanently failed once
        its budget (1 first attempt + ``max_retries``) is spent."""
        attempt = attempts[seed]
        if attempt >= 1 + self.policy.max_retries:
            failure = SeedFailure(seed=seed, attempts=attempt, reason=reason)
            outcome.failures[seed] = failure
            if self._on_failure is not None:
                self._on_failure(failure)
            return
        delay = backoff_delay(self.fingerprint, seed, attempt, self.policy)
        outcome.retries += 1
        if sleep:
            time.sleep(delay)
        elif ready_at is not None:
            ready_at[seed] = time.monotonic() + delay
        queue.append(seed)


#: sentinel: the respawn budget is spent, fall back to serial
_DEGRADE = object()
