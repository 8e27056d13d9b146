"""Journal format, fingerprinting, and crash-tolerance tests."""

import json

import pytest

from repro.analysis.parallel import BenignReplicationSpec
from repro.runtime import (
    CampaignJournal,
    JournalError,
    SCHEMA_VERSION,
    SeedFailure,
    campaign_fingerprint,
    load_journal,
    peek_header,
    rebuild_spec,
    spec_signature,
)

SPEC = BenignReplicationSpec(accesses=100, scale=8)
SEEDS = [101, 102, 103]


class TestFingerprint:
    def test_stable_for_same_campaign(self):
        assert campaign_fingerprint(SPEC, SEEDS, "E13") == \
            campaign_fingerprint(SPEC, list(SEEDS), "E13")

    def test_sensitive_to_spec_params(self):
        other = BenignReplicationSpec(accesses=200, scale=8)
        assert campaign_fingerprint(SPEC, SEEDS) != \
            campaign_fingerprint(other, SEEDS)

    def test_sensitive_to_seed_list_and_order(self):
        assert campaign_fingerprint(SPEC, SEEDS) != \
            campaign_fingerprint(SPEC, SEEDS[:-1])
        assert campaign_fingerprint(SPEC, SEEDS) != \
            campaign_fingerprint(SPEC, list(reversed(SEEDS)))

    def test_sensitive_to_experiment(self):
        assert campaign_fingerprint(SPEC, SEEDS, "E13") != \
            campaign_fingerprint(SPEC, SEEDS, "E4")

    def test_signature_of_non_dataclass_falls_back_to_repr(self):
        signature = spec_signature(lambda seed: {"x": seed})
        assert signature["type"] == "function"
        assert "repr" in signature


class TestJournalRoundTrip:
    def test_create_record_resume(self, tmp_path):
        path = tmp_path / "c.jsonl"
        journal = CampaignJournal.create(path, SPEC, SEEDS, "E13")
        journal.record(101, {"acts": 5, "elapsed_ns": 1.5})
        journal.record(102, {"acts": 7, "elapsed_ns": 2.5})
        journal.close()

        reloaded = CampaignJournal.resume(path)
        assert reloaded.header.experiment == "E13"
        assert reloaded.header.schema == SCHEMA_VERSION
        assert reloaded.completed == {
            101: {"acts": 5, "elapsed_ns": 1.5},
            102: {"acts": 7, "elapsed_ns": 2.5},
        }
        assert reloaded.pending() == [103]
        reloaded.verify(campaign_fingerprint(SPEC, SEEDS, "E13"))
        reloaded.close()

    def test_resume_appends(self, tmp_path):
        path = tmp_path / "c.jsonl"
        journal = CampaignJournal.create(path, SPEC, SEEDS, "E13")
        journal.record(101, {"acts": 5})
        journal.close()
        resumed = CampaignJournal.resume(path)
        resumed.record(102, {"acts": 7})
        resumed.close()
        final = CampaignJournal.resume(path)
        assert set(final.completed) == {101, 102}
        final.close()

    def test_results_round_trip_bit_identically(self, tmp_path):
        # ints stay ints, floats round-trip exactly through repr
        path = tmp_path / "c.jsonl"
        result = {"a": 3, "b": 0.1 + 0.2, "c": 1.0 / 3.0}
        journal = CampaignJournal.create(path, SPEC, SEEDS)
        journal.record(101, result)
        journal.close()
        loaded = CampaignJournal.resume(path).completed[101]
        assert loaded == result
        assert all(
            type(loaded[key]) is type(result[key]) for key in result
        )

    def test_last_line_decides_done_failed_or_pending(self, tmp_path):
        path = tmp_path / "c.jsonl"
        journal = CampaignJournal.create(path, SPEC, SEEDS)
        journal.fail(SeedFailure(seed=101, attempts=3, reason="boom"))
        journal.record(101, {"acts": 5}, attempts=1)  # resumed, then done
        journal.record(102, {"acts": 6}, cached=True)
        journal.fail(SeedFailure(seed=103, attempts=1, reason="lost"))
        journal.close()
        snapshot = load_journal(path)
        assert snapshot.completed == {101: {"acts": 5}, 102: {"acts": 6}}
        assert snapshot.failures == {
            103: SeedFailure(seed=103, attempts=1, reason="lost")
        }
        assert snapshot.cached == {102}
        assert snapshot.retries == {101: 2}
        assert snapshot.pending() == []
        # a resume reruns the failed seed: only results count as done
        resumed = CampaignJournal.resume(path)
        assert resumed.pending() == [103]
        resumed.close()

    def test_duplicate_seed_last_record_wins(self, tmp_path):
        path = tmp_path / "c.jsonl"
        journal = CampaignJournal.create(path, SPEC, SEEDS)
        journal.record(101, {"acts": 1})
        journal.record(101, {"acts": 2})
        journal.close()
        assert CampaignJournal.resume(path).completed[101] == {"acts": 2}


class TestCrashTolerance:
    def _journal_with_torn_tail(self, tmp_path):
        path = tmp_path / "c.jsonl"
        journal = CampaignJournal.create(path, SPEC, SEEDS)
        journal.record(101, {"acts": 5})
        journal.close()
        with path.open("a") as stream:
            stream.write('{"seed": 102, "result": {"ac')  # SIGKILL here
        return path

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = self._journal_with_torn_tail(tmp_path)
        journal = CampaignJournal.resume(path)
        assert set(journal.completed) == {101}
        assert journal.pending() == [102, 103]
        journal.close()

    def test_resume_truncates_torn_tail_before_appending(self, tmp_path):
        # Appending after a torn tail must not concatenate onto the
        # fragment: resume truncates back to the last clean line first.
        path = self._journal_with_torn_tail(tmp_path)
        journal = CampaignJournal.resume(path)
        journal.record(102, {"acts": 9})
        journal.close()
        final = CampaignJournal.resume(path)
        assert final.completed == {101: {"acts": 5}, 102: {"acts": 9}}
        assert final.pending() == [103]
        final.close()
        # and the file itself is clean JSONL again
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        journal = CampaignJournal.create(path, SPEC, SEEDS)
        journal.record(101, {"acts": 5})
        journal.close()
        lines = path.read_text().splitlines()
        lines.insert(1, "{broken")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt"):
            CampaignJournal.resume(path)


class TestValidation:
    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = tmp_path / "c.jsonl"
        CampaignJournal.create(path, SPEC, SEEDS, "E13").close()
        journal = CampaignJournal.resume(path)
        with pytest.raises(JournalError, match="fingerprint"):
            journal.verify(campaign_fingerprint(SPEC, SEEDS + [104], "E13"))
        journal.close()

    def test_mismatch_error_names_both_fingerprints_and_remedies(
        self, tmp_path
    ):
        # A mismatch in a multi-campaign job directory must be
        # debuggable from the message alone: both fingerprints, the
        # journal's own campaign, and the exact commands to continue
        # it or to start fresh.
        path = tmp_path / "c.jsonl"
        CampaignJournal.create(path, SPEC, SEEDS, "E13").close()
        journal = CampaignJournal.resume(path)
        requested = campaign_fingerprint(SPEC, SEEDS + [104], "E13")
        with pytest.raises(JournalError) as excinfo:
            journal.verify(requested)
        journal.close()
        message = str(excinfo.value)
        assert journal.header.fingerprint in message
        assert requested in message
        assert "E13" in message and f"{len(SEEDS)} seeds" in message
        assert f"python -m repro replicate --resume {path}" in message
        assert "--journal" in message  # fresh-journal remediation

    def test_record_for_unknown_seed_refused(self, tmp_path):
        path = tmp_path / "c.jsonl"
        journal = CampaignJournal.create(path, SPEC, SEEDS)
        journal._append_line({"seed": 999, "result": {"acts": 1}})
        journal.close()
        with pytest.raises(JournalError, match="not in campaign seeds"):
            CampaignJournal.resume(path)

    def test_peek_header_and_rebuild_spec(self, tmp_path):
        path = tmp_path / "c.jsonl"
        CampaignJournal.create(path, SPEC, SEEDS, "E13").close()
        header = peek_header(path)
        assert header.seeds == SEEDS
        assert rebuild_spec(header) == SPEC

    def test_peek_missing_journal(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            peek_header(tmp_path / "missing.jsonl")

    def test_non_journal_file_refused(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"kind": "something-else"}) + "\n")
        with pytest.raises(JournalError, match="not a campaign journal"):
            peek_header(path)

    def test_unrebuildable_spec_refused(self, tmp_path):
        path = tmp_path / "c.jsonl"
        CampaignJournal.create(
            path, lambda seed: {"x": seed}, SEEDS, "custom"
        ).close()
        with pytest.raises(JournalError, match="cannot rebuild"):
            rebuild_spec(peek_header(path))
