"""Unit tests for the BatchJournal write-ahead log and its replay."""

import json
import os
import warnings

import pytest

from repro.errors import EclError
from repro.farm.jobs import SimResult
from repro.farm.ledger import canonical_json
from repro.serve import BatchJournal
from repro.serve.api import result_line


@pytest.fixture
def journal(tmp_path):
    return BatchJournal(str(tmp_path / "journal"))


def result(job_id="j1", index=0, status="ok"):
    return SimResult(job_id=job_id, design="d", module="m",
                     engine="efsm", index=index, status=status,
                     instants=4, elapsed=1.23, worker_pid=4321)


class TestWriting:
    def test_admit_row_end_lifecycle(self, journal):
        journal.admit("t", "b1", {"jobs": []}, ["j1", "j2"],
                      priority=3, ttl_s=9.5)
        journal.row("t", "b1", result("j1"))
        journal.row("t", "b1", result("j2", index=1))
        journal.end("t", "b1")
        lines = [json.loads(line)
                 for line in open(journal.shard_path("t")) if line.strip()]
        assert [line["kind"] for line in lines] == \
            ["admit", "row", "row", "end"]
        assert lines[0]["priority"] == 3
        assert lines[0]["ttl_s"] == 9.5
        assert lines[0]["job_ids"] == ["j1", "j2"]
        assert lines[-1]["reason"] == "complete"

    def test_rows_use_stable_serialization(self, journal):
        journal.admit("t", "b1", {}, ["j1"])
        journal.row("t", "b1", result("j1"))
        (_, row_line) = [json.loads(line)
                         for line in open(journal.shard_path("t"))]
        # volatile fields (elapsed, worker_pid, trace_path) never land
        # in the WAL: a replayed row must equal a re-executed one.
        assert "elapsed" not in row_line["row"]
        assert "worker_pid" not in row_line["row"]
        assert row_line["row"]["job_id"] == "j1"
        assert row_line["row"]["instants"] == 4

    def test_shards_are_per_tenant(self, journal):
        journal.admit("alice", "a", {}, [])
        journal.admit("bob", "b", {}, [])
        assert journal.tenants() == ["alice", "bob"]
        assert os.path.exists(journal.shard_path("alice"))
        assert journal.replay("alice").batches.keys() == {"a"}
        assert journal.replay("bob").batches.keys() == {"b"}

    def test_bad_tenant_name_rejected(self, journal):
        with pytest.raises(EclError, match="tenant"):
            journal.admit("../escape", "b", {}, [])

    def test_fault_hook_failure_leaves_no_partial_line(self, journal):
        journal.admit("t", "b1", {}, ["j1"])

        def hook(kind, key):
            raise OSError("injected")

        journal.fault_hook = hook
        with pytest.raises(OSError):
            journal.row("t", "b1", result("j1"))
        journal.fault_hook = None
        replay = journal.replay("t")
        assert replay.batches["b1"].rows == {}
        assert replay.torn_lines == 0


def parent_row_line(batch_id, row):
    """A ``row`` line as journals wrote it before rows were embedded:
    the whole record through ``canonical_json``."""
    return canonical_json({"kind": "row", "batch": batch_id,
                           "job_id": row.job_id,
                           "row": row.to_dict(volatile=False)}) + "\n"


class TestRowFormats:
    def test_row_line_embeds_the_stable_bytes_verbatim(self, journal):
        row = result("j1")
        journal.admit("t", "b1", {}, ["j1"])
        journal.row("t", "b1", row)
        with open(journal.shard_path("t"), "rb") as handle:
            line = handle.read().splitlines()[1]
        stable = json.dumps(row.to_dict(volatile=False), sort_keys=True,
                            separators=(",", ":")).encode()
        assert row.stable_json() == stable
        assert result_line(row, stable=True) == stable + b"\n"
        assert line == (b'{"batch": "b1", "job_id": "j1", "kind": "row", '
                        b'"row": ' + stable + b"}")
        # the record's keys keep canonical order
        assert json.dumps(json.loads(line), sort_keys=True).encode() \
            .startswith(b'{"batch": "b1", "job_id": "j1", "kind": "row"')

    def test_mixed_formats_replay_and_compact_to_the_same_rows(self,
                                                               journal):
        rows = [result("j%d" % i, index=i) for i in range(4)]
        expected = {row.job_id: row.to_dict(volatile=False) for row in rows}
        journal.admit("t", "closed", {}, ["x"])
        journal.row("t", "closed", result("x"))
        journal.end("t", "closed")
        journal.admit("t", "b1", {"jobs": []}, sorted(expected))
        with open(journal.shard_path("t"), "a") as handle:
            handle.write(parent_row_line("b1", rows[0]))
        journal.row("t", "b1", rows[1])
        with open(journal.shard_path("t"), "a") as handle:
            handle.write(parent_row_line("b1", rows[2]))
        journal.row("t", "b1", rows[3])
        replayed = journal.replay("t").batches["b1"].rows
        assert replayed == expected
        summary = journal.compact("t")
        assert summary["dropped_batches"] == 1
        assert summary["rewritten_shards"] == 1
        (record,) = journal.replay("t").open_batches()
        assert record.batch_id == "b1" and record.rows == expected


class TestReplay:
    def test_open_batches_excludes_ended(self, journal):
        journal.admit("t", "done", {}, ["j1"])
        journal.row("t", "done", result("j1"))
        journal.end("t", "done")
        journal.admit("t", "open", {}, ["j2"])
        replay = journal.replay("t")
        assert [r.batch_id for r in replay.open_batches()] == ["open"]
        assert replay.batches["done"].ended
        assert replay.batches["done"].end_reason == "complete"

    def test_pending_job_ids_are_the_unjournaled_ones(self, journal):
        journal.admit("t", "b", {}, ["j1", "j2", "j3"])
        journal.row("t", "b", result("j2"))
        record = journal.replay("t").batches["b"]
        assert not record.complete
        assert record.pending_job_ids == ["j1", "j3"]
        journal.row("t", "b", result("j1"))
        journal.row("t", "b", result("j3"))
        assert journal.replay("t").batches["b"].complete

    def test_torn_tail_is_skipped_with_warning(self, journal):
        journal.admit("t", "b", {}, ["j1"])
        journal.row("t", "b", result("j1"))
        with open(journal.shard_path("t"), "a") as handle:
            handle.write('{"kind": "row", "batch": "b", "job_')
        with pytest.warns(UserWarning, match="torn"):
            replay = journal.replay("t")
        assert replay.torn_lines == 1
        # everything before the torn tail survived
        assert replay.batches["b"].rows.keys() == {"j1"}

    def test_every_truncated_prefix_replays_its_complete_lines(self, journal):
        """A crash can cut the shard at any byte: replay never raises
        and recovers exactly the rows whose lines are complete."""
        job_ids = ["j%d" % n for n in range(4)]
        journal.admit("t", "b", {"jobs": []}, job_ids)
        for index, job_id in enumerate(job_ids):
            journal.row("t", "b", result(job_id, index=index))
        journal.end("t", "b")
        path = journal.shard_path("t")
        with open(path, "rb") as handle:
            data = handle.read()
        # byte offset at which each line's content is complete
        ends = [end for end, byte in enumerate(data) if byte == ord("\n")]
        kinds = [json.loads(line)["kind"] for line in data.splitlines()]
        assert kinds == ["admit", "row", "row", "row", "row", "end"]
        for cut in range(len(data) + 1):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                replay = journal.replay("t")
            complete = sum(1 for end in ends if end <= cut)
            if complete == 0:
                assert replay.batches == {}, cut
                continue
            record = replay.batches["b"]
            rows = min(complete - 1, len(job_ids))
            assert sorted(record.rows) == job_ids[:rows], cut
            assert record.ended == (complete == len(kinds)), cut
            # only a partial last line is torn; a line cut just before
            # its newline is still whole
            tail = data[:cut].rsplit(b"\n", 1)[-1]
            assert replay.torn_lines == int(bool(tail) and cut not in ends), cut

    def test_duplicate_rows_dedupe_to_first(self, journal):
        journal.admit("t", "b", {}, ["j1"])
        journal.row("t", "b", result("j1", status="ok"))
        journal.row("t", "b", result("j1", status="error"))
        replay = journal.replay("t")
        assert replay.duplicate_rows == 1
        assert replay.batches["b"].rows["j1"]["status"] == "ok"

    def test_orphan_row_counted_not_fatal(self, journal):
        # a row whose admit append failed: nothing to attach it to
        journal.row("t", "ghost", result("j1"))
        journal.admit("t", "real", {}, ["j2"])
        replay = journal.replay("t")
        assert replay.orphan_rows == 1
        assert replay.batches.keys() == {"real"}

    def test_missing_shard_replays_empty(self, journal):
        replay = journal.replay("never-seen")
        assert replay.batches == {}
        assert replay.torn_lines == 0


class TestCompaction:
    def test_closed_batches_drop_open_ones_survive(self, journal):
        journal.admit("t", "done", {"jobs": ["x"]}, ["j1"])
        journal.row("t", "done", result("j1"))
        journal.end("t", "done")
        journal.admit("t", "open", {"jobs": ["y"]}, ["j2", "j3"],
                      priority=2, ttl_s=7.0)
        journal.row("t", "open", result("j2"))

        summary = journal.compact()
        assert summary["dropped_batches"] == 1
        assert summary["kept_batches"] == 1
        assert summary["rewritten_shards"] == 1

        replay = journal.replay("t")
        assert replay.batches.keys() == {"open"}
        record = replay.batches["open"]
        assert record.priority == 2
        assert record.ttl_s == 7.0
        assert record.spec == {"jobs": ["y"]}
        assert record.rows.keys() == {"j2"}
        assert record.pending_job_ids == ["j3"]

    def test_shard_with_nothing_open_is_removed(self, journal):
        journal.admit("t", "b", {}, ["j1"])
        journal.row("t", "b", result("j1"))
        journal.end("t", "b")
        summary = journal.compact()
        assert summary["removed_shards"] == 1
        assert not os.path.exists(journal.shard_path("t"))
        # and the journal still works after — appends reopen the shard
        journal.admit("t", "b2", {}, ["j9"])
        assert journal.replay("t").batches.keys() == {"b2"}

    def test_clean_all_open_shard_is_left_alone(self, journal):
        journal.admit("t", "open", {}, ["j1"])
        journal.row("t", "open", result("j1"))
        before = open(journal.shard_path("t")).read()
        summary = journal.compact()
        assert summary["rewritten_shards"] == 0
        assert summary["kept_lines"] == 2
        assert open(journal.shard_path("t")).read() == before

    def test_torn_tail_and_duplicates_compact_away(self, journal):
        journal.admit("t", "open", {}, ["j1"])
        journal.row("t", "open", result("j1", status="ok"))
        journal.row("t", "open", result("j1", status="error"))  # dup
        with open(journal.shard_path("t"), "a") as handle:
            handle.write('{"kind": "row", "ba')  # torn tail
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            journal.compact()
        # the rewritten shard replays clean: first row won, tail gone
        replay = journal.replay("t")
        assert replay.torn_lines == 0
        assert replay.duplicate_rows == 0
        assert replay.batches["open"].rows["j1"]["status"] == "ok"

    def test_rewrite_is_atomic_no_tmp_left_behind(self, journal, tmp_path):
        journal.admit("t", "done", {}, [])
        journal.end("t", "done")
        journal.admit("t", "open", {}, ["j1"])
        journal.compact()
        assert not os.path.exists(journal.shard_path("t") + ".tmp")
        # idempotent: a second pass finds a clean shard, rewrites nothing
        summary = journal.compact()
        assert summary["rewritten_shards"] == 0
        assert summary["dropped_batches"] == 0

    def test_single_tenant_compaction_scope(self, journal):
        journal.admit("alice", "a", {}, [])
        journal.end("alice", "a")
        journal.admit("bob", "b", {}, [])
        journal.end("bob", "b")
        summary = journal.compact(tenant="alice")
        assert summary["shards"] == 1
        assert not os.path.exists(journal.shard_path("alice"))
        assert os.path.exists(journal.shard_path("bob"))
