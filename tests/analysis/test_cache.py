"""The content-addressed result cache: keys, storage, campaign
integration, and the cache CLI."""

import json

from repro.analysis.cache import ResultCache, is_cacheable, result_key
from repro.analysis.parallel import BenignReplicationSpec
from repro.cli import main
from repro.faults.crash import CrashingSpec
from repro.runtime import load_journal, run_campaign

SPEC = BenignReplicationSpec(accesses=300, pages=32, scale=8)


# ----------------------------------------------------------------------
# Keys and cacheability
# ----------------------------------------------------------------------

def test_result_key_is_stable_and_seed_sensitive():
    assert result_key(SPEC, 1) == result_key(SPEC, 1)
    assert result_key(SPEC, 1) != result_key(SPEC, 2)
    other = BenignReplicationSpec(accesses=301, pages=32, scale=8)
    assert result_key(SPEC, 1) != result_key(other, 1)


def test_is_cacheable():
    assert is_cacheable(SPEC)
    assert not is_cacheable(lambda seed: {})  # unstable repr signature
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


def test_entry_from_another_source_digest_reads_as_miss(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, 5, {"acts": 12})
    assert cache.get(SPEC, 5) == {"acts": 12}
    # the same spec and seed, looked up by a changed simulator
    monkeypatch.setattr(
        "repro.analysis.cache.source_digest", lambda: "0" * 64
    )
    assert cache.get(SPEC, 5) is None


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


def test_prune_removes_entries_of_other_code(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    current = cache.put(SPEC, 1, {"v": 1})
    with monkeypatch.context() as patch:
        patch.setattr("repro.analysis.cache.source_digest", lambda: "0" * 64)
        other = cache.put(SPEC, 1, {"v": 1})
    # an entry stored before entries carried their source digest
    unsourced = cache.put(SPEC, 2, {"v": 2})
    payload = json.loads(unsourced.read_text())
    del payload["source"]
    unsourced.write_text(json.dumps(payload))
    assert len(cache.entries()) == 3
    assert cache.prune() == 2
    assert current.exists()
    assert not other.exists() and not unsourced.exists()
    assert cache.get(SPEC, 1) == {"v": 1}


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------

def test_campaign_skips_cache_for_uncacheable(tmp_path):
    cache = ResultCache(tmp_path)
    spec = CrashingSpec(spec=SPEC)  # cacheable = False; crashes nothing
    assert run_campaign(spec, [101], jobs=1, cache=cache).complete
    assert cache.counters() == {"hits": 0, "misses": 0}
    assert cache.entries() == []


def test_campaign_counts_hits_and_journals_cached_seeds(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    seeds = [101, 102, 103, 104]
    first = run_campaign(SPEC, seeds, jobs=1, cache=cache)
    assert first.complete and first.cache_hits == 0

    journal = tmp_path / "campaign.journal"
    second = run_campaign(
        SPEC, seeds, jobs=1, cache=cache, journal_path=journal,
    )
    assert second.complete and second.cache_hits == len(seeds)
    assert second.aggregates == first.aggregates
    assert cache.counters() == {"hits": len(seeds), "misses": len(seeds)}
    # every cached seed was journaled, so the journal can resume alone
    recorded = [
        json.loads(line)
        for line in journal.read_text().splitlines()[1:]
        if line.strip()
    ]
    assert sorted(entry["seed"] for entry in recorded) == seeds
    assert all(entry["cached"] for entry in recorded)
    assert load_journal(journal).cached == set(seeds)


def test_campaign_counts_misses(tmp_path):
    cache = ResultCache(tmp_path)
    result = run_campaign(SPEC, [7, 8], jobs=1, cache=cache)
    assert result.complete and result.cache_hits == 0
    assert cache.counters() == {"hits": 0, "misses": 2}


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
    assert main(["cache", "prune", "--cache-dir", cache_dir]) == 0
    assert "pruned 0" in capsys.readouterr().out
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
