"""Crash-safe per-seed journal: the one on-disk record of a campaign.

A campaign journal is a JSONL file: one schema-versioned header line
followed by one line per settled seed.  The header carries a **campaign
fingerprint** — a digest of the scenario spec, the seed list and the
journal schema — so a resume can refuse to graft results from a
different campaign onto this one.  The lines are:

* the header: ``kind``, ``schema``, ``fingerprint``, ``experiment``,
  ``spec``, ``seeds`` and ``t``;
* a result line, ``{"seed", "result", "metrics", "attempts", "t"}``, for
  a seed a worker ran (``metrics`` is that worker's metrics snapshot,
  ``attempts`` counts its tries in this run); a seed served from the
  result cache carries ``"cached": true`` instead of ``metrics`` and
  ``attempts``;
* a failure line, ``{"seed", "failed": reason, "attempts", "t"}``, for a
  seed that exhausted its retries.

``t`` is wall-clock Unix seconds.  The last line per seed decides its
state: done (a result line), failed (a failure line) or pending (no
line yet).  ``t``, ``attempts``, ``cached`` and failure lines are
optional on read, so journals written before they existed load, resume
and render unchanged (and keep their fingerprints).

Durability contract:

* every line is written in a single ``write`` call on a line-buffered
  stream and then ``flush`` + ``fsync``\\ ed, so a SIGKILL between seeds
  loses nothing and a SIGKILL mid-write leaves at most one torn final
  line;
* the loader drops a torn final line (that seed simply reruns on
  resume) but treats corruption anywhere else as an error;
* duplicate records for a seed are legal — a crash after write but
  before the supervisor noted completion makes the seed rerun — and the
  *last* record wins, which is deterministic because per-seed results
  are pure functions of the seed.

Because results round-trip through JSON (ints stay ints, floats
round-trip exactly via ``repr``), aggregates merged from journal records
are bit-identical to aggregates merged from the in-memory results of an
uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.analysis.stats import Number

#: bump when the journal layout changes; resumes across versions refuse
SCHEMA_VERSION = 1

#: value of the header's ``kind`` field
JOURNAL_KIND = "repro-campaign-journal"


class JournalError(ValueError):
    """A journal is missing, malformed, or belongs to another campaign."""


@dataclass
class SeedFailure:
    """Why one seed permanently failed."""

    seed: int
    attempts: int
    reason: str


def _now() -> float:
    """The wall-clock ``t`` journal lines carry (Unix seconds, ms)."""
    return round(time.time(), 3)


def _signature_value(value: object) -> object:
    """JSON-able form of one spec field, recursing into nested specs.

    Nested dataclasses (e.g. the spec a
    :class:`~repro.faults.crash.CrashingSpec` wraps) keep their type
    name so :func:`repro.runtime.campaign.rebuild_spec` can reconstruct
    them; tuples flatten to lists, which is what JSON would do anyway.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return spec_signature(value)
    if isinstance(value, (list, tuple)):
        return [_signature_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _signature_value(val) for key, val in value.items()}
    return value


def spec_signature(spec: object) -> Dict[str, object]:
    """A JSON-able, order-stable description of a scenario spec.

    Dataclass specs (the picklable ones in
    :mod:`repro.analysis.parallel`) serialize as type name + field dict,
    which is enough to rebuild them on resume; nested dataclass fields
    (wrapper specs) recurse with their own type names.  Anything else
    falls back to ``repr`` — fingerprintable but not rebuildable.
    """
    if dataclasses.is_dataclass(spec) and not isinstance(spec, type):
        return {
            "type": type(spec).__name__,
            "params": {
                field.name: _signature_value(getattr(spec, field.name))
                for field in dataclasses.fields(spec)
            },
        }
    return {"type": type(spec).__name__, "repr": repr(spec)}


def campaign_fingerprint(
    spec: object, seeds: Sequence[int], experiment: str = ""
) -> str:
    """Digest identifying one campaign: spec + seeds + schema version.

    Any change to the scenario parameters, the seed list (including
    order), or the journal schema produces a different fingerprint, so a
    stale journal can never be silently merged into a different
    campaign.
    """
    payload = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "experiment": experiment,
            "spec": spec_signature(spec),
            "seeds": list(seeds),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CampaignHeader:
    """The journal's first line, parsed."""

    schema: int
    fingerprint: str
    experiment: str
    spec: Dict[str, object]
    seeds: List[int]
    #: wall-clock creation time (``None`` in journals that predate it)
    t: Optional[float] = None

    def as_json_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": JOURNAL_KIND,
            "schema": self.schema,
            "fingerprint": self.fingerprint,
            "experiment": self.experiment,
            "spec": self.spec,
            "seeds": list(self.seeds),
        }
        if self.t is not None:
            payload["t"] = self.t
        return payload

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, object]) -> "CampaignHeader":
        if payload.get("kind") != JOURNAL_KIND:
            raise JournalError(
                f"not a campaign journal (kind={payload.get('kind')!r})"
            )
        schema = int(payload["schema"])  # type: ignore[arg-type]
        if schema != SCHEMA_VERSION:
            raise JournalError(
                f"journal schema {schema} != supported {SCHEMA_VERSION}"
            )
        return cls(
            schema=schema,
            fingerprint=str(payload["fingerprint"]),
            experiment=str(payload.get("experiment", "")),
            spec=dict(payload["spec"]),  # type: ignore[arg-type]
            seeds=[int(seed) for seed in payload["seeds"]],  # type: ignore
            t=payload.get("t"),  # type: ignore[arg-type]
        )


def _read_lines(path: Path) -> Tuple[List[Dict[str, object]], int]:
    """Parse every journal line, tolerating a torn final line only.

    Returns the parsed payloads plus the byte offset where the clean
    prefix ends; a resume truncates the file there so a fresh append
    can never concatenate onto a torn fragment.
    """
    payloads: List[Dict[str, object]] = []
    torn: Optional[str] = None
    clean_end = 0
    offset = 0
    with path.open("rb") as stream:
        raw = stream.read()
    for line_number, raw_line in enumerate(
        raw.splitlines(keepends=True), start=1
    ):
        offset += len(raw_line)
        line = raw_line.strip()
        if not line:
            if torn is None:
                clean_end = offset
            continue
        if torn is not None:
            raise JournalError(torn)
        try:
            payloads.append(json.loads(line))
            clean_end = offset
        except json.JSONDecodeError as error:
            torn = f"{path}:{line_number}: corrupt journal line: {error}"
    return payloads, clean_end


@dataclass(frozen=True)
class JournalSnapshot:
    """One journal, parsed: the header and each seed's state.

    A seed's last line decides its state (see the module docstring).
    Loading a snapshot never mutates the file (no torn-line truncation,
    no append handle), so ``python -m repro status`` can safely inspect
    the journal of a campaign that is still running in another process.
    """

    header: CampaignHeader
    #: seeds whose last line is a result, with that result
    completed: Dict[int, Dict[str, Number]]
    #: the worker metrics snapshots those result lines carried
    worker_metrics: Dict[int, Dict[str, Number]]
    #: seeds whose last line is a failure line
    failures: Dict[int, SeedFailure] = field(default_factory=dict)
    #: completed seeds served from the result cache
    cached: Set[int] = field(default_factory=set)
    #: retries per seed, over every line it has (attempts beyond each
    #: run's first); seeds never retried are absent
    retries: Dict[int, int] = field(default_factory=dict)
    #: ``t`` of the last line that carries one
    last_t: Optional[float] = None

    def pending(self) -> List[int]:
        """Seeds with no result and no failure line, in seed order."""
        return [
            s for s in self.header.seeds
            if s not in self.completed and s not in self.failures
        ]

    @property
    def elapsed_s(self) -> Optional[float]:
        """Wall seconds from the header to the last line (``None`` for
        journals without ``t``)."""
        if self.header.t is None or self.last_t is None:
            return None
        return self.last_t - self.header.t

    @property
    def eta_s(self) -> Optional[float]:
        """Seconds until the pending seeds finish at the campaign's
        average rate so far: ``pending * elapsed / done``.  ``None``
        while nothing is done, nothing is pending, or ``t`` is absent."""
        elapsed = self.elapsed_s
        pending = len(self.pending())
        if elapsed is None or not self.completed or not pending:
            return None
        return pending * elapsed / len(self.completed)


def _load(path: Union[str, Path]) -> Tuple[JournalSnapshot, int]:
    """The one journal parser: the snapshot, plus the byte offset where
    the clean prefix ends (see :func:`_read_lines`)."""
    path = Path(path)
    if not path.exists():
        raise JournalError(f"no journal at {path}")
    payloads, clean_end = _read_lines(path)
    if not payloads:
        raise JournalError(f"{path}: empty journal")
    header = CampaignHeader.from_json_dict(payloads[0])
    known = set(header.seeds)
    last: Dict[int, Tuple[object, Mapping[str, object]]] = {}
    retries: Dict[int, int] = {}
    last_t = header.t
    for payload in payloads[1:]:
        try:
            seed = int(payload["seed"])  # type: ignore[arg-type]
            attempts = int(payload.get("attempts", 1))  # type: ignore
            outcome: object = (
                SeedFailure(seed, attempts, str(payload["failed"]))
                if "failed" in payload
                else dict(payload["result"])  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as error:
            raise JournalError(
                f"{path}: malformed record {payload!r}: {error}"
            ) from None
        if seed not in known:
            raise JournalError(
                f"{path}: record for seed {seed} not in campaign seeds"
            )
        last[seed] = (outcome, payload)
        if attempts > 1:
            retries[seed] = retries.get(seed, 0) + attempts - 1
        last_t = payload.get("t", last_t)  # type: ignore[assignment]
    completed: Dict[int, Dict[str, Number]] = {}
    worker_metrics: Dict[int, Dict[str, Number]] = {}
    failures: Dict[int, SeedFailure] = {}
    cached: Set[int] = set()
    for seed, (outcome, payload) in last.items():
        if isinstance(outcome, SeedFailure):
            failures[seed] = outcome
            continue
        completed[seed] = outcome  # type: ignore[assignment]
        if payload.get("metrics") is not None:
            worker_metrics[seed] = dict(payload["metrics"])  # type: ignore
        if payload.get("cached"):
            cached.add(seed)
    snapshot = JournalSnapshot(
        header=header, completed=completed, worker_metrics=worker_metrics,
        failures=failures, cached=cached, retries=retries, last_t=last_t,
    )
    return snapshot, clean_end


def load_journal(path: Union[str, Path]) -> JournalSnapshot:
    """Read a journal without touching it (see :class:`JournalSnapshot`)."""
    return _load(path)[0]


def peek_header(path: Union[str, Path]) -> CampaignHeader:
    """Read just the header of an existing journal."""
    path = Path(path)
    if not path.exists():
        raise JournalError(f"no journal at {path}")
    with path.open() as stream:
        first = stream.readline().strip()
    if not first:
        raise JournalError(f"{path}: empty journal")
    try:
        payload = json.loads(first)
    except json.JSONDecodeError as error:
        raise JournalError(f"{path}:1: corrupt header: {error}") from None
    return CampaignHeader.from_json_dict(payload)


class CampaignJournal:
    """Append-only journal of one campaign's settled seeds."""

    def __init__(
        self, path: Union[str, Path], header: CampaignHeader
    ) -> None:
        self.path = Path(path)
        self.header = header
        self.completed: Dict[int, Dict[str, Number]] = {}
        #: per-seed worker metrics snapshots, for records that carried
        #: one (seeds served from the result cache never do)
        self.worker_metrics: Dict[int, Dict[str, Number]] = {}
        self._stream = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        spec: object,
        seeds: Sequence[int],
        experiment: str = "",
    ) -> "CampaignJournal":
        """Start a fresh journal (truncating any previous file)."""
        header = CampaignHeader(
            schema=SCHEMA_VERSION,
            fingerprint=campaign_fingerprint(spec, seeds, experiment),
            experiment=experiment,
            spec=spec_signature(spec),
            seeds=[int(seed) for seed in seeds],
            t=_now(),
        )
        journal = cls(path, header)
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        journal._stream = journal.path.open("w", buffering=1)
        journal._append_line(header.as_json_dict())
        return journal

    @classmethod
    def resume(cls, path: Union[str, Path]) -> "CampaignJournal":
        """Open an existing journal, loading its completed seeds, and
        position it for appending further records.  A torn final line
        (SIGKILL mid-write) is truncated away first, so the next append
        starts on a clean line boundary."""
        path = Path(path)
        snapshot, clean_end = _load(path)
        if clean_end < path.stat().st_size:
            os.truncate(path, clean_end)
        journal = cls(path, snapshot.header)
        journal.completed = snapshot.completed
        journal.worker_metrics = snapshot.worker_metrics
        journal._stream = path.open("a", buffering=1)
        return journal

    def verify(self, fingerprint: str) -> None:
        """Refuse to mix this journal with a different campaign.

        The error names *both* fingerprints (the journal's and the
        requested campaign's) and the exact remediation commands, so a
        mismatch in a multi-campaign job directory is debuggable from
        the message alone.
        """
        if self.header.fingerprint != fingerprint:
            raise JournalError(
                f"{self.path}: journal fingerprint "
                f"{self.header.fingerprint} "
                f"(experiment {self.header.experiment or '?'!r}, "
                f"{len(self.header.seeds)} seeds) does not match the "
                f"requested campaign fingerprint {fingerprint}; the "
                f"spec, seeds, or schema changed.  Either continue the "
                f"journal's own campaign with:\n"
                f"    python -m repro replicate --resume {self.path}\n"
                f"or start a fresh journal for the new campaign with:\n"
                f"    python -m repro replicate <EXPERIMENT> --journal "
                f"<NEW_PATH>\n"
                f"(or delete {self.path} if its results are disposable)"
            )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(
        self,
        seed: int,
        result: Mapping[str, Number],
        metrics: Optional[Mapping[str, Number]] = None,
        attempts: Optional[int] = None,
        cached: bool = False,
    ) -> None:
        """Durably append one completed seed: a worker's result with its
        metrics snapshot and attempt count, or a cached one."""
        payload: Dict[str, object] = {
            "seed": int(seed), "result": dict(result), "t": _now(),
        }
        if metrics is not None:
            payload["metrics"] = dict(metrics)
            self.worker_metrics[int(seed)] = dict(metrics)
        if attempts is not None:
            payload["attempts"] = int(attempts)
        if cached:
            payload["cached"] = True
        self._append_line(payload)
        self.completed[int(seed)] = dict(result)

    def fail(self, failure: SeedFailure) -> None:
        """Durably append a seed that exhausted its retries."""
        self._append_line({
            "seed": int(failure.seed), "failed": failure.reason,
            "attempts": int(failure.attempts), "t": _now(),
        })

    def _append_line(self, payload: Dict[str, object]) -> None:
        if self._stream is None:
            raise JournalError(f"{self.path}: journal is closed")
        self._stream.write(json.dumps(payload, sort_keys=True) + "\n")
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def pending(self) -> List[int]:
        """Campaign seeds with no journaled result yet, in seed order."""
        return [s for s in self.header.seeds if s not in self.completed]

    def close(self) -> None:
        if self._stream is not None:
            try:
                self._stream.flush()
                os.fsync(self._stream.fileno())
            except (OSError, ValueError):  # pragma: no cover - best effort
                pass
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
