"""Crash-safe per-seed result journal for replication campaigns.

A campaign journal is a JSONL file: one schema-versioned header line
followed by one record line per completed seed.  The header carries a
**campaign fingerprint** — a digest of the scenario spec, the seed list
and the journal schema — so a resume can refuse to graft results from a
different campaign onto this one.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.stats import Number

#: bump when the journal layout changes; resumes across versions refuse
SCHEMA_VERSION = 1

#: value of the header's ``kind`` field
JOURNAL_KIND = "repro-campaign-journal"

class JournalError(ValueError):
    """A journal is missing, malformed, or belongs to another campaign."""


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

    def as_json_dict(self) -> Dict[str, object]:
        return {
            "kind": JOURNAL_KIND,
            "schema": self.schema,
            "fingerprint": self.fingerprint,
            "experiment": self.experiment,
            "spec": self.spec,
            "seeds": list(self.seeds),
        }

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
    """A read-only view of one journal: header + everything recorded.

    Unlike :meth:`CampaignJournal.resume`, loading a snapshot never
    mutates the file (no torn-line truncation, no append handle), so
    ``python -m repro status`` can safely inspect the journal of a
    campaign that is still running in another process.
    """

    header: CampaignHeader
    completed: Dict[int, Dict[str, Number]]
    worker_metrics: Dict[int, Dict[str, Number]]

    def pending(self) -> List[int]:
        return [
            s for s in self.header.seeds if s not in self.completed
        ]


def load_journal(path: Union[str, Path]) -> JournalSnapshot:
    """Read a journal without touching it (see :class:`JournalSnapshot`)."""
    path = Path(path)
    if not path.exists():
        raise JournalError(f"no journal at {path}")
    payloads, _ = _read_lines(path)
    if not payloads:
        raise JournalError(f"{path}: empty journal")
    header = CampaignHeader.from_json_dict(payloads[0])
    known = set(header.seeds)
    completed: Dict[int, Dict[str, Number]] = {}
    worker_metrics: Dict[int, Dict[str, Number]] = {}
    for payload in payloads[1:]:
        try:
            seed = int(payload["seed"])  # type: ignore[arg-type]
            result = dict(payload["result"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as error:
            raise JournalError(
                f"{path}: malformed record {payload!r}: {error}"
            ) from None
        if seed not in known:
            raise JournalError(
                f"{path}: record for seed {seed} not in campaign seeds"
            )
        completed[seed] = result
        metrics = payload.get("metrics")
        if metrics is not None:
            worker_metrics[seed] = dict(metrics)  # type: ignore[arg-type]
    return JournalSnapshot(
        header=header, completed=completed, worker_metrics=worker_metrics
    )


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
    """Append-only journal of one campaign's per-seed results."""

    def __init__(
        self, path: Union[str, Path], header: CampaignHeader
    ) -> None:
        self.path = Path(path)
        self.header = header
        self.completed: Dict[int, Dict[str, Number]] = {}
        #: per-seed worker registry snapshots, for records that carried
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
        if not path.exists():
            raise JournalError(f"no journal at {path}")
        payloads, clean_end = _read_lines(path)
        if not payloads:
            raise JournalError(f"{path}: empty journal")
        if clean_end < path.stat().st_size:
            os.truncate(path, clean_end)
        header = CampaignHeader.from_json_dict(payloads[0])
        journal = cls(path, header)
        known = set(header.seeds)
        for payload in payloads[1:]:
            try:
                seed = int(payload["seed"])  # type: ignore[arg-type]
                result = dict(payload["result"])  # type: ignore[arg-type]
            except (KeyError, TypeError, ValueError) as error:
                raise JournalError(
                    f"{path}: malformed record {payload!r}: {error}"
                ) from None
            if seed not in known:
                raise JournalError(
                    f"{path}: record for seed {seed} not in campaign seeds"
                )
            journal.completed[seed] = result
            metrics = payload.get("metrics")
            if metrics is not None:
                journal.worker_metrics[seed] = dict(metrics)  # type: ignore
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
    ) -> None:
        """Durably append one completed seed (optionally with the
        worker's registry snapshot riding on the same record)."""
        payload: Dict[str, object] = {
            "seed": int(seed), "result": dict(result),
        }
        if metrics is not None:
            payload["metrics"] = dict(metrics)
            self.worker_metrics[int(seed)] = dict(metrics)
        self._append_line(payload)
        self.completed[int(seed)] = dict(result)

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
