"""Unit tests for the BatchJournal (one file per open batch) and its
replay."""

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


def admit(journal, tenant, batch_id, spec, job_ids, **envelope):
    """Journal a batch's admission: encode it, then write it."""
    journal.admit(tenant, batch_id, journal.prepare_admit(
        tenant, batch_id, spec, job_ids, **envelope))


def result(job_id="j1", index=0, status="ok"):
    return SimResult(job_id=job_id, design="d", module="m",
                     engine="efsm", index=index, status=status,
                     instants=4, elapsed=1.23, worker_pid=4321)


class TestWriting:
    def test_admit_row_end_lifecycle(self, journal):
        admit(journal, "t", "b1", {"jobs": []}, ["j1", "j2"],
              priority=3, ttl_s=9.5)
        journal.row("t", "b1", result("j1"))
        journal.row("t", "b1", result("j2", index=1))
        path = journal.batch_path("t", "b1")
        lines = [json.loads(line) for line in open(path) if line.strip()]
        assert [line["kind"] for line in lines] == ["admit", "row", "row"]
        assert lines[0]["priority"] == 3
        assert lines[0]["ttl_s"] == 9.5
        assert lines[0]["job_ids"] == ["j1", "j2"]
        journal.end("t", "b1")
        # the close deletes the batch's file: nothing is left to replay
        assert not os.path.exists(path)
        assert os.listdir(os.path.join(journal.root, "t")) == []
        assert journal.replay("t").batches == {}

    def test_rows_use_stable_serialization(self, journal):
        admit(journal, "t", "b1", {}, ["j1"])
        journal.row("t", "b1", result("j1"))
        (_, row_line) = [json.loads(line)
                         for line in open(journal.batch_path("t", "b1"))]
        # volatile fields (elapsed, worker_pid, trace_path) never land
        # in the journal: a replayed row must equal a re-executed one.
        assert "elapsed" not in row_line["row"]
        assert "worker_pid" not in row_line["row"]
        assert row_line["row"]["job_id"] == "j1"
        assert row_line["row"]["instants"] == 4

    def test_shards_are_per_tenant(self, journal):
        admit(journal, "alice", "a", {}, [])
        admit(journal, "bob", "b", {}, [])
        assert journal.tenants() == ["alice", "bob"]
        assert os.path.exists(journal.batch_path("alice", "a"))
        assert journal.replay("alice").batches.keys() == {"a"}
        assert journal.replay("bob").batches.keys() == {"b"}

    def test_bad_tenant_name_rejected(self, journal):
        with pytest.raises(EclError, match="tenant"):
            admit(journal, "../escape", "b", {}, [])

    def test_fault_hook_failure_leaves_no_partial_line(self, journal):
        admit(journal, "t", "b1", {}, ["j1"])

        def hook(kind, key):
            raise OSError("injected")

        journal.fault_hook = hook
        with pytest.raises(OSError):
            journal.row("t", "b1", result("j1"))
        with pytest.raises(OSError):
            journal.end("t", "b1")
        journal.fault_hook = None
        replay = journal.replay("t")
        assert replay.batches["b1"].rows == {}
        assert replay.torn_lines == 0

    def test_row_of_a_batch_without_a_file_fails(self, journal):
        # its admit never landed: the row could not be recovered, so it
        # fails (the service counts it) instead of making a stray file
        with pytest.raises(FileNotFoundError):
            journal.row("t", "ghost", result("j1"))
        journal.end("t", "ghost")
        assert not os.path.exists(journal.batch_path("t", "ghost"))

    def test_legacy_tenant_shard_is_refused_by_name(self, tmp_path):
        root = tmp_path / "journal"
        root.mkdir()
        (root / "default.jsonl").write_text('{"kind": "admit"}\n')
        with pytest.raises(EclError, match=r"default\.jsonl.*earlier"):
            BatchJournal(str(root))


def parent_row_line(batch_id, row):
    """A ``row`` line as journals wrote it before rows were embedded:
    the whole record through ``canonical_json``."""
    return canonical_json({"kind": "row", "batch": batch_id,
                           "job_id": row.job_id,
                           "row": row.to_dict(volatile=False)}) + "\n"


class TestRowFormats:
    def test_row_line_embeds_the_stable_bytes_verbatim(self, journal):
        row = result("j1")
        admit(journal, "t", "b1", {}, ["j1"])
        journal.row("t", "b1", row)
        with open(journal.batch_path("t", "b1"), "rb") as handle:
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

    def test_mixed_formats_replay_to_the_same_rows(self, journal):
        rows = [result("j%d" % i, index=i) for i in range(4)]
        expected = {row.job_id: row.to_dict(volatile=False) for row in rows}
        admit(journal, "t", "closed", {}, ["x"])
        journal.row("t", "closed", result("x"))
        journal.end("t", "closed")
        admit(journal, "t", "b1", {"jobs": []}, sorted(expected))
        path = journal.batch_path("t", "b1")
        with open(path, "a") as handle:
            handle.write(parent_row_line("b1", rows[0]))
        journal.row("t", "b1", rows[1])
        with open(path, "a") as handle:
            handle.write(parent_row_line("b1", rows[2]))
        journal.row("t", "b1", rows[3])
        (record,) = journal.replay("t").batches.values()
        assert record.batch_id == "b1" and record.rows == expected


class TestReplay:
    def test_open_batches_excludes_ended(self, journal):
        admit(journal, "t", "done", {}, ["j1"])
        journal.row("t", "done", result("j1"))
        journal.end("t", "done")
        admit(journal, "t", "open", {}, ["j2"])
        replay = journal.replay("t")
        assert list(replay.batches) == ["open"]
        assert os.listdir(os.path.join(journal.root, "t")) == \
            ["open.jsonl"]

    def test_pending_job_ids_are_the_unjournaled_ones(self, journal):
        admit(journal, "t", "b", {}, ["j1", "j2", "j3"])
        journal.row("t", "b", result("j2"))
        record = journal.replay("t").batches["b"]
        assert not record.complete
        assert record.pending_job_ids == ["j1", "j3"]
        journal.row("t", "b", result("j1"))
        journal.row("t", "b", result("j3"))
        assert journal.replay("t").batches["b"].complete

    def test_torn_tail_is_skipped_with_warning(self, journal):
        admit(journal, "t", "b", {}, ["j1"])
        journal.row("t", "b", result("j1"))
        with open(journal.batch_path("t", "b"), "a") as handle:
            handle.write('{"kind": "row", "batch": "b", "job_')
        with pytest.warns(UserWarning, match="torn"):
            replay = journal.replay("t")
        assert replay.torn_lines == 1
        # everything before the torn tail survived
        assert replay.batches["b"].rows.keys() == {"j1"}

    def test_every_truncated_prefix_replays_its_complete_lines(self, journal):
        """A crash can cut the batch file at any byte: replay never
        raises and recovers exactly the rows whose lines are complete;
        a file cut inside its admit line holds nothing and goes."""
        job_ids = ["j%d" % n for n in range(4)]
        admit(journal, "t", "b", {"jobs": []}, job_ids)
        for index, job_id in enumerate(job_ids):
            journal.row("t", "b", result(job_id, index=index))
        path = journal.batch_path("t", "b")
        with open(path, "rb") as handle:
            data = handle.read()
        # byte offset at which each line's content is complete
        ends = [end for end, byte in enumerate(data) if byte == ord("\n")]
        kinds = [json.loads(line)["kind"] for line in data.splitlines()]
        assert kinds == ["admit", "row", "row", "row", "row"]
        for cut in range(len(data) + 1):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                replay = journal.replay("t")
            complete = sum(1 for end in ends if end <= cut)
            if complete == 0:
                assert replay.batches == {}, cut
                assert replay.orphan_files == 1, cut
                assert not os.path.exists(path), cut
                continue
            record = replay.batches["b"]
            assert replay.orphan_files == 0, cut
            assert sorted(record.rows) == job_ids[:complete - 1], cut
            # only a partial last line is torn; a line cut just before
            # its newline is still whole
            tail = data[:cut].rsplit(b"\n", 1)[-1]
            assert replay.torn_lines == int(bool(tail) and cut not in ends), cut

    def test_duplicate_rows_dedupe_to_first(self, journal):
        admit(journal, "t", "b", {}, ["j1"])
        journal.row("t", "b", result("j1", status="ok"))
        journal.row("t", "b", result("j1", status="error"))
        replay = journal.replay("t")
        assert replay.duplicate_rows == 1
        assert replay.batches["b"].rows["j1"]["status"] == "ok"

    def test_orphan_row_counted_not_fatal(self, journal):
        # a batch file whose admit line never landed: nothing to attach
        # its rows to, so replay counts the file and removes it
        admit(journal, "t", "real", {}, ["j2"])
        ghost = journal.batch_path("t", "ghost")
        with open(ghost, "w") as handle:
            handle.write(parent_row_line("ghost", result("j1")))
        replay = journal.replay("t")
        assert replay.orphan_files == 1
        assert replay.torn_lines == 1
        assert replay.batches.keys() == {"real"}
        assert not os.path.exists(ghost)

    def test_missing_shard_replays_empty(self, journal):
        replay = journal.replay("never-seen")
        assert replay.batches == {}
        assert replay.torn_lines == 0
