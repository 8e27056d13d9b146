"""The content-addressed result cache: keys, storage, runner and
campaign integration, and the cache CLI."""

import json

import pytest

from repro.analysis.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    is_cacheable,
    result_key,
)
from repro.analysis.parallel import (
    BenignReplicationSpec,
    TracedSpec,
    run_replications,
)
from repro.cli import main
from repro.faults.crash import CrashingSpec
from repro.obs.registry import MetricsRegistry
from repro.runtime import run_campaign

SPEC = BenignReplicationSpec(accesses=300, pages=32, scale=8)


# ----------------------------------------------------------------------
# Keys and cacheability
# ----------------------------------------------------------------------

def test_result_key_is_stable_and_seed_sensitive():
    assert result_key(SPEC, 1) == result_key(SPEC, 1)
    assert result_key(SPEC, 1) != result_key(SPEC, 2)
    other = BenignReplicationSpec(accesses=301, pages=32, scale=8)
    assert result_key(SPEC, 1) != result_key(other, 1)


def test_schema_version_changes_the_key(monkeypatch):
    before = result_key(SPEC, 1)
    monkeypatch.setattr(
        "repro.analysis.cache.CACHE_SCHEMA_VERSION",
        CACHE_SCHEMA_VERSION + 1,
    )
    assert result_key(SPEC, 1) != before


def test_is_cacheable():
    assert is_cacheable(SPEC)
    assert not is_cacheable(lambda seed: {})  # unstable repr signature
    assert not is_cacheable(TracedSpec(spec=SPEC, trace_dir="t"))
    assert not is_cacheable(CrashingSpec(spec=SPEC))


# ----------------------------------------------------------------------
# Store semantics
# ----------------------------------------------------------------------

def test_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(SPEC, 5) is None
    cache.put(SPEC, 5, {"acts": 12, "ratio": 1.5})
    assert cache.get(SPEC, 5) == {"acts": 12, "ratio": 1.5}
    assert cache.counters() == {"hits": 1, "misses": 1}


def test_corrupt_entry_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.put(SPEC, 5, {"acts": 12})
    path.write_text("{not json")
    assert cache.get(SPEC, 5) is None
    cache.put(SPEC, 5, {"acts": 12})  # recompute overwrites in place
    assert cache.get(SPEC, 5) == {"acts": 12}


def test_schema_mismatch_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.put(SPEC, 5, {"acts": 12})
    payload = json.loads(path.read_text())
    payload["schema"] = CACHE_SCHEMA_VERSION + 1
    path.write_text(json.dumps(payload))
    assert cache.get(SPEC, 5) is None


def test_fetch_or_run_orders_and_fills(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, 2, {"v": 2})
    ran = []

    def runner(missing):
        ran.extend(missing)
        return [{"v": seed} for seed in missing]

    out = cache.fetch_or_run(SPEC, [1, 2, 3], runner)
    assert out == [{"v": 1}, {"v": 2}, {"v": 3}]
    assert ran == [1, 3]
    # everything is now warm
    assert cache.fetch_or_run(SPEC, [1, 2, 3], runner) == out
    assert ran == [1, 3]


def test_fetch_or_run_rejects_short_runner(tmp_path):
    cache = ResultCache(tmp_path)
    with pytest.raises(ValueError, match="runner returned"):
        cache.fetch_or_run(SPEC, [1, 2], lambda missing: [{}])


def test_entries_stats_prune_clear(tmp_path):
    cache = ResultCache(tmp_path)
    for seed in (1, 2, 3):
        cache.put(SPEC, seed, {"v": seed})
    entries = cache.entries()
    assert [e.seed for e in entries] == [1, 2, 3]
    assert all(e.spec_type == "BenignReplicationSpec" for e in entries)
    stats = cache.stats()
    assert stats["entries"] == 3 and stats["bytes"] > 0
    assert cache.prune(max_entries=1) == 2
    assert cache.stats()["entries"] == 1
    assert cache.clear() == 1
    assert cache.entries() == []


# ----------------------------------------------------------------------
# Runner / campaign integration
# ----------------------------------------------------------------------

def test_run_replications_warm_is_bit_identical(tmp_path):
    cache = ResultCache(tmp_path)
    seeds = [101, 102, 103]
    cold = run_replications(SPEC, seeds, jobs=1, cache=cache)
    assert cache.counters() == {"hits": 0, "misses": 3}
    warm = run_replications(SPEC, seeds, jobs=1, cache=cache)
    assert cache.counters() == {"hits": 3, "misses": 3}
    assert warm == cold == run_replications(SPEC, seeds, jobs=1)


def test_run_replications_skips_cache_for_uncacheable(tmp_path):
    cache = ResultCache(tmp_path)
    spec = CrashingSpec(spec=SPEC)  # cacheable = False; crashes nothing
    run_replications(spec, [101], jobs=1, cache=cache)
    assert cache.counters() == {"hits": 0, "misses": 0}
    assert cache.entries() == []


def test_campaign_counts_hits_and_journals_cached_seeds(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    seeds = [101, 102, 103, 104]
    first = run_campaign(SPEC, seeds, jobs=1, cache=cache)
    assert first.complete and first.cache_hits == 0

    metrics = MetricsRegistry()
    journal = tmp_path / "campaign.jsonl"
    second = run_campaign(
        SPEC, seeds, jobs=1, cache=cache,
        journal_path=journal, metrics=metrics,
    )
    assert second.complete and second.cache_hits == len(seeds)
    assert second.aggregates == first.aggregates
    assert metrics.value("runtime.cache_hit") == len(seeds)
    # every cached seed was journaled, so the journal can resume alone
    recorded = [
        json.loads(line)
        for line in journal.read_text().splitlines()[1:]
        if line.strip()
    ]
    assert sorted(entry["seed"] for entry in recorded) == seeds


def test_campaign_counts_misses(tmp_path):
    cache = ResultCache(tmp_path)
    metrics = MetricsRegistry()
    result = run_campaign(
        SPEC, [7, 8], jobs=1, cache=cache, metrics=metrics,
    )
    assert result.complete and result.cache_hits == 0
    assert metrics.value("runtime.cache_miss") == 2


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cache_cli_lifecycle(tmp_path, capsys):
    cache_dir = str(tmp_path)
    ResultCache(cache_dir).put(SPEC, 9, {"v": 9})
    assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
    assert "BenignReplicationSpec" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "entries: 1" in capsys.readouterr().out
    assert main(["cache", "prune", "--cache-dir", cache_dir]) == 2
    assert main(
        ["cache", "prune", "--cache-dir", cache_dir, "--max-entries", "0"]
    ) == 0
    assert "pruned 1" in capsys.readouterr().out
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0


def test_replicate_cli_reports_cached_seeds(tmp_path, capsys):
    argv = [
        "replicate", "E13", "--seeds", "2", "--scale", "8", "--jobs", "1",
        "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "[cached:" not in first
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "[cached: 2 seeds from result cache]" in second
    # identical aggregate lines, cached or not
    strip = lambda text: [
        line for line in text.splitlines() if "[cached:" not in line
    ]
    assert strip(first) == strip(second)


def test_replicate_cli_no_cache_flag(tmp_path, capsys):
    argv = [
        "replicate", "E13", "--seeds", "2", "--scale", "8", "--jobs", "1",
        "--cache-dir", str(tmp_path), "--no-cache",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert ResultCache(tmp_path).entries() == []
