"""Content-addressed on-disk cache of per-seed replication results.

Every replication in this harness is a pure function of its spec, its
seed and the simulator's code (that is what makes parallel fan-out and
journaled resume bit-identical), which makes results
*content-addressable*: the cache key is a digest of the spec signature,
the seed, and :func:`source_digest` — a digest of the ``repro``
package's source — so any change to the scenario parameters or to any
line of the simulator produces a different key rather than a stale hit.
Entries written by other code are never read again; ``repro cache
prune`` removes them.

Entries are single JSON files written atomically (temp file +
``os.replace``), so concurrent pool workers and concurrent campaigns may
share one cache directory without locks: the worst interleaving rewrites
an entry with identical bytes.  Values round-trip through JSON exactly
(ints stay ints, floats via ``repr``), so aggregates folded from cached
results are bit-identical to aggregates folded from fresh runs — the
same argument the campaign journal relies on.

What is *not* cacheable:

* non-dataclass callables (their signature falls back to ``repr``,
  which embeds memory addresses — never a stable key);
* specs that declare ``cacheable = False`` — wrappers whose behaviour
  is not a pure function of ``(spec, seed)``, e.g. the crash-injection
  specs with wall-clock hangs and marker files.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.runtime.journal import spec_signature

#: root of the ``repro`` package, whose source keys every entry
PACKAGE_ROOT = Path(__file__).resolve().parents[1]

#: environment variable overriding the default cache directory
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: default cache directory, relative to the working directory
DEFAULT_CACHE_DIR = Path(".repro-cache")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro-cache`` in the cwd."""
    value = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(value) if value else DEFAULT_CACHE_DIR


def is_cacheable(spec: object) -> bool:
    """Whether ``spec``'s results may be served from the cache.

    Requires a dataclass instance (stable, param-complete signature)
    whose signature is JSON-serializable, and honours an explicit
    ``cacheable = False`` attribute on the spec.
    """
    if getattr(spec, "cacheable", True) is False:
        return False
    if not dataclasses.is_dataclass(spec) or isinstance(spec, type):
        return False
    try:
        json.dumps(spec_signature(spec), sort_keys=True)
    except (TypeError, ValueError):
        return False
    return True


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """sha256 over the sorted relative paths and the bytes of every
    ``.py`` file of the ``repro`` package (computed once per process)."""
    digest = hashlib.sha256()
    files = sorted(
        (path.relative_to(PACKAGE_ROOT).as_posix(), path)
        for path in PACKAGE_ROOT.rglob("*.py")
    )
    for name, path in files:
        data = path.read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def result_key(spec: object, seed: int) -> str:
    """Content address of one ``(spec, seed)`` result."""
    payload = json.dumps(
        {
            "source": source_digest(),
            "spec": spec_signature(spec),
            "seed": int(seed),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


@dataclass(frozen=True)
class CacheEntry:
    """Metadata of one stored result (``repro cache ls`` row)."""

    key: str
    spec_type: str
    seed: int
    created_at: float
    bytes: int
    path: Path
    #: :func:`source_digest` of the code that stored it ("" before the
    #: cache keyed entries on the source)
    source: str


class ResultCache:
    """Content-addressed store of per-seed replication results.

    ``hits``/``misses`` count this instance's lookups (a campaign's
    hits are also its ``CampaignResult.cache_hits`` and the journal's
    cached lines); the on-disk store itself is shared by every version
    of the code, each under its own keys.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """Entry file for a key (two-level fan-out keeps dirs small)."""
        return self.root / key[:2] / f"{key}.json"

    def get(
        self, spec: object, seed: int
    ) -> Optional[Dict[str, object]]:
        """The cached result of ``spec(seed)``, or ``None``.

        A corrupt entry reads as a miss — the caller recomputes and
        overwrites it.
        """
        path = self.path_for(result_key(spec, seed))
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(payload, dict) or not isinstance(
            payload.get("result"), dict
        ):
            self.misses += 1
            return None
        self.hits += 1
        return payload["result"]

    def put(
        self, spec: object, seed: int, result: Mapping[str, object]
    ) -> Path:
        """Store one result atomically; returns the entry path."""
        key = result_key(spec, seed)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "source": source_digest(),
            "key": key,
            "spec": spec_signature(spec),
            "seed": int(seed),
            "created_at": time.time(),
            "result": dict(result),
        }
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w") as stream:
                json.dump(payload, stream, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def counters(self) -> Dict[str, int]:
        """Runtime hit/miss counters of this instance."""
        return {"hits": self.hits, "misses": self.misses}

    # ------------------------------------------------------------------
    # Maintenance (the ``repro cache`` subcommand)
    # ------------------------------------------------------------------

    def entries(self) -> List[CacheEntry]:
        """Every readable entry, oldest first."""
        found: List[CacheEntry] = []
        if not self.root.exists():
            return found
        for path in sorted(self.root.glob("*/*.json")):
            try:
                payload = json.loads(path.read_text())
                entry = CacheEntry(
                    key=str(payload["key"]),
                    spec_type=str(payload["spec"]["type"]),
                    seed=int(payload["seed"]),
                    created_at=float(payload["created_at"]),
                    bytes=path.stat().st_size,
                    path=path,
                    source=str(payload.get("source", "")),
                )
            except (OSError, KeyError, TypeError, ValueError):
                continue
            found.append(entry)
        found.sort(key=lambda entry: (entry.created_at, entry.key))
        return found

    def stats(self) -> Dict[str, object]:
        entries = self.entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(entry.bytes for entry in entries),
            "source": source_digest(),
        }

    def prune(
        self,
        older_than_s: Optional[float] = None,
        max_entries: Optional[int] = None,
    ) -> int:
        """Drop what can never hit, then entries by age and/or count;
        returns how many went.

        Entries stored by other code (another :func:`source_digest`, or
        none at all) and unreadable files under the root (corrupt
        debris) go unconditionally: no lookup of this code reaches
        them.  ``older_than_s`` then removes entries older than that
        many seconds, and ``max_entries`` keeps only the newest N.
        """
        removed = 0
        if not self.root.exists():
            return removed
        current = source_digest()
        survivors = [
            entry for entry in self.entries() if entry.source == current
        ]
        live = {entry.path for entry in survivors}
        for path in self.root.glob("*/*.json"):
            if path not in live:
                path.unlink(missing_ok=True)
                removed += 1
        now = time.time()
        if older_than_s is not None:
            for entry in list(survivors):
                if now - entry.created_at > older_than_s:
                    entry.path.unlink(missing_ok=True)
                    survivors.remove(entry)
                    removed += 1
        if max_entries is not None and len(survivors) > max_entries:
            excess = len(survivors) - max_entries
            for entry in survivors[:excess]:  # oldest first
                entry.path.unlink(missing_ok=True)
                removed += 1
        return removed

    def clear(self) -> int:
        """Remove every entry file; returns how many were removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("*/*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        for child in self.root.iterdir():
            if child.is_dir():
                try:
                    child.rmdir()
                except OSError:
                    pass
        return removed
