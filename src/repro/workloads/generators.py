"""Benign workload generators: the traffic defenses must not wreck.

Every overhead number in the harness (E3, E8, E13) comes from running
these generators with a defense on and off.  Four archetypes cover the
access-locality spectrum the interleaving discussion (§4.1) cares about:

* ``sequential``   — streaming over the domain's whole space (high row
  locality; prefetch-friendly);
* ``random``       — uniform over the space (no locality; bank-level
  parallelism is all that helps);
* ``pointer_chase``— dependent irregular accesses within a small hot
  buffer (the workloads where disabling interleaving hurts most);
* ``zipfian``      — skewed mixed read/write, the cloud-tenant stand-in.

Generators yield *virtual* line numbers; the runner drives them through
the core with a configurable memory-level parallelism (outstanding
requests per step).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Tuple

from repro.mc.controller import MemoryRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import DomainHandle, System

#: A workload step: (virtual_line, is_write)
Access = Tuple[int, bool]

GENERATOR_NAMES = (
    "sequential", "random", "pointer_chase", "zipfian", "stride",
    "streaming_write",
)


def sequential(handle_lines: int, rng: random.Random) -> Iterator[Access]:
    """Endless streaming reads over the whole space."""
    position = 0
    while True:
        yield position, False
        position = (position + 1) % handle_lines


def random_uniform(handle_lines: int, rng: random.Random) -> Iterator[Access]:
    """Uniform random reads; 1 in 4 is a write.

    The line draw is ``int(rng.random() * n)`` rather than
    ``rng.randrange(n)``: the two consume the Twister stream
    differently, and EXPERIMENTS.md's random-workload rows pin this one.
    """
    while True:
        line = int(rng.random() * handle_lines)
        yield line, rng.random() < 0.25


def pointer_chase(handle_lines: int, rng: random.Random) -> Iterator[Access]:
    """Dependent chase within a hot buffer of at most 512 lines."""
    hot = min(handle_lines, 512)
    # A random permutation cycle, like a shuffled linked list.
    order = list(range(hot))
    rng.shuffle(order)
    successor = {order[i]: order[(i + 1) % hot] for i in range(hot)}
    position = order[0]
    while True:
        yield position, False
        position = successor[position]


def zipfian(handle_lines: int, rng: random.Random) -> Iterator[Access]:
    """Zipf-skewed accesses (80/20-ish), 1 in 3 writes on hot lines."""
    # Approximate Zipf by exponentiating a uniform draw.  Written as
    # ``u * u * u``: ``u ** 3`` may round differently, and the lines
    # this draw truncates to are pinned by EXPERIMENTS.md.
    while True:
        u = rng.random()
        line = int(handle_lines * (u * u * u))  # heavy head at low lines
        line = min(line, handle_lines - 1)
        yield line, rng.random() < (0.33 if line < handle_lines // 5 else 0.1)


def stride(handle_lines: int, rng: random.Random) -> Iterator[Access]:
    """Fixed-stride reads (a column walk / matrix traversal): touches a
    new row on almost every access, the row-locality worst case."""
    step = max(1, handle_lines // 97)  # co-prime-ish, covers the space
    position = rng.randrange(handle_lines)
    while True:
        yield position, False
        position = (position + step) % handle_lines


def streaming_write(handle_lines: int, rng: random.Random) -> Iterator[Access]:
    """memset/memcpy-style: sequential stores (writeback pressure)."""
    position = 0
    while True:
        yield position, True
        position = (position + 1) % handle_lines


_GENERATORS: Dict[str, Callable[[int, random.Random], Iterator[Access]]] = {
    "sequential": sequential,
    "random": random_uniform,
    "pointer_chase": pointer_chase,
    "zipfian": zipfian,
    "stride": stride,
    "streaming_write": streaming_write,
}


def make_generator(
    name: str, total_lines: int, rng: random.Random
) -> Iterator[Access]:
    try:
        factory = _GENERATORS[name]
    except KeyError:
        known = ", ".join(GENERATOR_NAMES)
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None
    if total_lines < 1:
        raise ValueError("total_lines must be >= 1")
    return factory(total_lines, rng)


@dataclass
class WorkloadResult:
    """Performance of one benign run."""

    accesses: int
    started_ns: int
    finished_ns: int
    cache_hits: int

    @property
    def duration_ns(self) -> int:
        return max(1, self.finished_ns - self.started_ns)

    @property
    def lines_per_us(self) -> float:
        return self.accesses * 1000.0 / self.duration_ns

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.accesses if self.accesses else 0.0


class WorkloadRunner:
    """Drives a generator through a tenant's address space.

    ``mlp`` outstanding accesses are issued per step: the step's start
    time is shared (they overlap in the memory system) and the step ends
    at the slowest completion — a simple but standard way to express
    memory-level parallelism without a full out-of-order core."""

    def __init__(
        self,
        system: "System",
        handle: "DomainHandle",
        name: str = "sequential",
        mlp: int = 8,
        seed: int = 7,
        scheduler: str = "fcfs",
    ) -> None:
        """``scheduler``: "fcfs" drives accesses through the core/cache
        path in arrival order; "fr-fcfs" bypasses the cache and issues
        each MLP window through the row-hit-first batch scheduler (the
        memory-bound view a real MC queue gives mixed traffic)."""
        if mlp < 1:
            raise ValueError("mlp must be >= 1")
        self.system = system
        self.handle = handle
        self.name = name
        self.mlp = mlp
        self.scheduler_policy = scheduler
        self._batch_scheduler = None
        if scheduler != "fcfs":
            from repro.mc.scheduler import BatchScheduler

            self._batch_scheduler = BatchScheduler(
                system.controller, policy=scheduler
            )
        self._rng = random.Random(seed)
        self._generator = make_generator(name, handle.total_lines, self._rng)
        self.stepped_accesses = 0
        self.stepped_hits = 0

    def step(self, now: int) -> int:
        """Issue one MLP batch; returns the batch completion time.
        This is the quantum the cooperative engine schedules."""
        if self._batch_scheduler is not None:
            return self._step_scheduled(now)
        core = self.system.core
        asid = self.handle.asid
        batch_end = now
        for _ in range(self.mlp):
            line, is_write = next(self._generator)
            if is_write:
                outcome = core.store(asid, line, now)
            else:
                outcome = core.load(asid, line, now)
            if outcome.cache_hit:
                self.stepped_hits += 1
            batch_end = max(batch_end, outcome.done_at_ns)
            self.stepped_accesses += 1
        return batch_end

    def next_request(self, now: int):
        """Produce one memory request (uncached path) for shared-queue
        scheduling across tenants."""
        line, is_write = next(self._generator)
        self.stepped_accesses += 1
        return MemoryRequest(
            time_ns=now,
            physical_line=self.handle.physical_line(line),
            is_write=is_write,
            domain=self.handle.asid,
        )

    def _step_scheduled(self, now: int) -> int:
        """One MLP window through the MC batch scheduler (uncached —
        the memory-bound view)."""
        requests = []
        for _ in range(self.mlp):
            line, is_write = next(self._generator)
            requests.append(
                MemoryRequest(
                    time_ns=now,
                    physical_line=self.handle.physical_line(line),
                    is_write=is_write,
                    domain=self.handle.asid,
                )
            )
            self.stepped_accesses += 1
        completions = self._batch_scheduler.issue(requests)
        return max(c.ready_at_ns for c in completions)

    def run(self, accesses: int, start_ns: int = 0) -> WorkloadResult:
        """Execute ``accesses`` accesses; returns timing and hit stats."""
        if accesses < 1:
            raise ValueError("accesses must be >= 1")
        core = self.system.core
        asid = self.handle.asid
        now = start_ns
        hits = 0
        issued = 0
        while issued < accesses:
            batch = min(self.mlp, accesses - issued)
            batch_end = now
            for _ in range(batch):
                line, is_write = next(self._generator)
                if is_write:
                    outcome = core.store(asid, line, now)
                else:
                    outcome = core.load(asid, line, now)
                if outcome.cache_hit:
                    hits += 1
                batch_end = max(batch_end, outcome.done_at_ns)
            issued += batch
            now = batch_end
        return WorkloadResult(
            accesses=issued,
            started_ns=start_ns,
            finished_ns=now,
            cache_hits=hits,
        )


class SharedQueueRunner:
    """Several tenants feeding one MC queue — the setting where request
    scheduling policy matters.

    Each step gathers a window of requests round-robin from all sources
    (they are simultaneously outstanding) and issues it through a
    :class:`~repro.mc.scheduler.BatchScheduler`.  With FCFS the tenants'
    streams thrash each other's row buffers; FR-FCFS restores row
    locality by serving open-row requests first.
    """

    def __init__(
        self,
        system: "System",
        sources: "List[WorkloadRunner]",
        window: int = 16,
        policy: str = "fr-fcfs",
    ) -> None:
        from repro.mc.scheduler import BatchScheduler

        if not sources:
            raise ValueError("need at least one source")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.system = system
        self.sources = list(sources)
        self.window = window
        self.scheduler = BatchScheduler(system.controller, policy=policy)
        self.steps = 0

    def step(self, now: int) -> int:
        """Issue one shared window; returns its completion time."""
        sources = self.sources
        count = len(sources)
        requests = [
            sources[index % count].next_request(now)
            for index in range(self.window)
        ]
        completions = self.scheduler.issue(requests)
        self.steps += 1
        return max(c.ready_at_ns for c in completions)

    def run(self, accesses: int, start_ns: int = 0) -> int:
        """Issue ``accesses`` accesses in shared windows; returns the
        finish time."""
        if accesses < 1:
            raise ValueError("accesses must be >= 1")
        now = start_ns
        issued = 0
        while issued < accesses:
            now = self.step(now)
            issued += self.window
        return now
