"""Unit tests for the content-addressed TraceLedger."""

import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EclError, NotFoundError
from repro.farm import SimJob, StimulusSpec, TraceLedger
from repro.engines import make_record
from repro.farm.ledger import (
    PACK_DIR,
    canonical_json,
    compact_json,
    encode_records,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


@pytest.fixture
def ledger(tmp_path):
    return TraceLedger(str(tmp_path / "traces"))


def sample_job(index=0, **kwargs):
    return SimJob(design="d", module="m",
                  stimulus=StimulusSpec.random(length=2), index=index,
                  **kwargs)


def sample_records():
    return [make_record({"ping": None}, {"pong"}, {}),
            make_record({}, set(), {})]


def sample_lines():
    return encode_records(sample_records())


class TestTraceLedger:
    def test_put_then_load_roundtrips(self, ledger):
        job = sample_job()
        digest, path = ledger.put(job, sample_lines())
        assert os.path.exists(path)
        header, records = ledger.load(digest)
        assert header["job_id"] == job.job_id
        assert header["instants"] == 2
        assert records == sample_records()

    def test_content_addressing_dedupes_objects(self, ledger):
        digest_a, path_a = ledger.put(sample_job(), sample_lines())
        digest_b, path_b = ledger.put(sample_job(), sample_lines())
        # a repeat appends again to the same segment; the digest still
        # proves identity and the index keeps both runs
        assert digest_a == digest_b and path_a == path_b
        assert len(ledger) == 2
        assert ledger.load(digest_a)[1] == sample_records()

    def test_different_traces_get_different_addresses(self, ledger):
        digest_a, _ = ledger.put(sample_job(), sample_lines())
        digest_b, _ = ledger.put(sample_job(index=1), sample_lines())
        assert digest_a != digest_b  # header includes the job identity

    def test_index_records_are_jsonl(self, ledger):
        ledger.put(sample_job(), sample_lines())
        index_path = os.path.join(ledger.root, "ledger.jsonl")
        lines = [json.loads(line)
                 for line in open(index_path) if line.strip()]
        assert len(lines) == 1
        assert lines[0]["design"] == "d"
        assert lines[0]["trace"]

    def test_find_returns_latest_entry_for_job(self, ledger):
        job = sample_job()
        assert ledger.find(job.job_id) is None
        ledger.put(job, sample_lines())
        entry = ledger.find(job.job_id)
        assert entry is not None and entry["module"] == "m"

    def test_vcd_sidecar_written_once(self, ledger):
        digest, path = ledger.put(sample_job(), sample_lines(),
                                  vcd_text="$date x $end\n")
        with open(ledger.vcd_path(digest)) as handle:
            assert handle.read().startswith("$date")

    def test_objects_shard_by_digest_prefix(self, ledger):
        digest, _ = ledger.put(sample_job(), sample_lines(),
                               vcd_text="$date x $end\n")
        vcd_path = ledger.vcd_path(digest)
        assert os.path.exists(vcd_path)
        assert os.path.basename(os.path.dirname(vcd_path)) == digest[:2]

    def test_torn_index_tail_is_skipped_with_warning(self, ledger):
        ledger.put(sample_job(), sample_lines())
        ledger.put(sample_job(index=1), sample_lines())
        index_path = os.path.join(ledger.root, "ledger.jsonl")
        with open(index_path, "a") as handle:
            handle.write('{"job_id": "cut-by-a-cra')
        # a crash mid-append must not poison every later read
        with pytest.warns(RuntimeWarning, match="torn"):
            entries = ledger.entries()
            assert len(ledger) == 2
            assert ledger.find(sample_job().job_id) is not None
        assert len(entries) == 2

    def test_fault_hook_failure_writes_nothing(self, ledger):
        calls = []

        def hook(op, key):
            calls.append((op, key))
            raise OSError("injected ledger fault")

        ledger.fault_hook = hook
        with pytest.raises(OSError):
            ledger.put(sample_job(), sample_lines())
        assert calls == [("put", sample_job().job_id)]
        assert len(ledger) == 0  # the failed put left no index entry
        ledger.fault_hook = None
        ledger.put(sample_job(), sample_lines())
        assert len(ledger) == 1

    def test_storage_fault_escalates_only_when_asked(self, tmp_path):
        """Farm mode keeps the error-row contract; serving mode
        (raise_storage_errors) re-raises so the pool can retry."""
        from repro.farm import WorkerState
        source = """
module echo (input pure ping, output pure pong)
{
    while (1) { await (ping); emit (pong); }
}
"""
        job = SimJob(design="echo", module="echo",
                     stimulus=StimulusSpec.explicit([{"ping": None}]))

        def hook(op, key):
            raise OSError("disk detached")

        farm_state = WorkerState({"echo": source},
                                 ledger_root=str(tmp_path / "a"))
        farm_state.ledger.fault_hook = hook
        result = farm_state.run_job(job)
        assert result.status == "error"
        assert "disk detached" in result.error

        serve_state = WorkerState({"echo": source},
                                  ledger_root=str(tmp_path / "b"),
                                  raise_storage_errors=True)
        serve_state.ledger.fault_hook = hook
        with pytest.raises(OSError, match="disk detached"):
            serve_state.run_job(job)

    def test_record_vcd_flows_through_worker(self, tmp_path):
        from repro.farm import WorkerState
        source = """
module echo (input pure ping, output pure pong)
{
    while (1) { await (ping); emit (pong); }
}
"""
        state = WorkerState({"echo": source},
                            ledger_root=str(tmp_path / "led"))
        job = SimJob(design="echo", module="echo", record_vcd=True,
                     stimulus=StimulusSpec.explicit(
                         [{"ping": None}, {}]))
        result = state.run_job(job)
        assert result.ok and result.trace_path
        with open(state.ledger.vcd_path(result.trace_digest)) as handle:
            text = handle.read()
        assert "$scope module echo $end" in text
        assert "ping" in text and "pong" in text


def pack_files(ledger):
    return sorted(os.listdir(os.path.join(ledger.root, PACK_DIR)))


class TestPackSegments:
    def test_object_bytes_are_the_sorted_json_lines(self, ledger):
        job, records = sample_job(), sample_records()
        header = {"job_id": job.job_id, "design": "d", "module": "m",
                  "engine": job.engine, "index": 0, "seed": job.seed,
                  "stimulus": job.stimulus.describe(), "instants": 2}
        lines = [json.dumps(line, sort_keys=True)
                 for line in [header] + records]
        blob = ("\n".join(lines) + "\n").encode("utf-8")
        digest, path = ledger.put(job, encode_records(records))
        assert digest == hashlib.sha256(blob).hexdigest()
        entry = ledger.find(job.job_id)
        with open(path, "rb") as handle:
            handle.seek(entry["offset"])
            assert handle.read(entry["length"]) == blob

    def test_warm_puts_append_to_one_segment(self, ledger):
        for index in range(5):
            ledger.put(sample_job(index=index), sample_lines())
        (segment,) = pack_files(ledger)
        assert segment.startswith("%d-" % os.getpid())
        entries = ledger.entries()
        assert [e["pack"] for e in entries] == [segment] * 5
        assert [e["offset"] for e in entries] == sorted(
            e["offset"] for e in entries)
        assert not os.path.exists(os.path.join(ledger.root, "objects"))

    def test_torn_pack_tail_without_index_line_is_ignored(self, ledger):
        digests = [ledger.put(sample_job(index=i), sample_lines())[0]
                   for i in range(2)]
        (segment,) = pack_files(ledger)
        # a crash mid-append: object bytes landed, the index line never
        with open(os.path.join(ledger.root, PACK_DIR, segment), "ab") as h:
            h.write(b'{"job_id": "cut-by-a-cra')
        reopened = TraceLedger(ledger.root)
        assert len(reopened) == 2
        for digest in digests:
            assert reopened.load(digest)[1] == sample_records()
        digest, _ = reopened.put(sample_job(index=2), sample_lines())
        assert reopened.load(digest)[0]["index"] == 2

    def test_flipped_byte_makes_load_raise(self, ledger):
        digest, path = ledger.put(sample_job(), sample_lines())
        entry = ledger.find(sample_job().job_id)
        with open(path, "r+b") as handle:
            handle.seek(entry["offset"] + entry["length"] // 2)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(EclError, match="corrupt"):
            ledger.load(digest)

    def test_truncated_segment_makes_load_raise(self, ledger):
        digest, path = ledger.put(sample_job(), sample_lines())
        os.truncate(path, os.path.getsize(path) - 3)
        with pytest.raises(EclError, match="corrupt"):
            ledger.load(digest)

    def test_old_objects_layout_still_loads(self, tmp_path):
        job, records = sample_job(), sample_records()
        packed = TraceLedger(str(tmp_path / "new"))
        digest, path = packed.put(job, encode_records(records))
        entry = packed.find(job.job_id)
        with open(path, "rb") as handle:
            blob = handle.read()[entry["offset"]:][:entry["length"]]
        # the pre-pack layout: one file per object, index without pack
        root = tmp_path / "old"
        (root / "objects" / digest[:2]).mkdir(parents=True)
        (root / "objects" / digest[:2] / (digest + ".jsonl")).write_bytes(
            blob)
        legacy = {key: entry[key] for key in entry
                  if key not in ("pack", "offset", "length")}
        (root / "ledger.jsonl").write_text(json.dumps(legacy) + "\n")
        old = TraceLedger(str(root))
        assert old.has(digest)
        header, loaded = old.load(digest)
        assert header["job_id"] == job.job_id and loaded == records
        # new puts land in a pack next to the old objects
        fresh, _ = old.put(sample_job(index=1), encode_records(records))
        assert old.load(fresh)[0]["index"] == 1

    def test_offline_load_finds_traces_in_any_shard(self, ledger):
        digest, _ = ledger.for_tenant("alice").put(sample_job(),
                                                  sample_lines())
        # the root ledger and another tenant's shard do not *record* it
        # (not servable to them), but an offline load still finds it
        for reader in (ledger, ledger.for_tenant("bob")):
            assert not reader.has(digest)
            assert reader.load(digest)[1] == sample_records()

    def test_unknown_digest_raises(self, ledger):
        with pytest.raises(NotFoundError, match="has no trace"):
            ledger.load("0" * 64)

    def test_opening_a_ledger_creates_nothing(self, tmp_path):
        root = tmp_path / "traces"
        reader = TraceLedger(str(root), tenant="ghost")
        assert reader.entries() == []
        assert reader.locate("0" * 64) is None
        assert not root.exists()
        reader.put(sample_job(), sample_lines())
        assert (root / PACK_DIR).is_dir()

    def test_threads_sharing_one_ledger_keep_offsets_exact(self, ledger):
        import threading

        def writer(base):
            for index in range(base, base + 25):
                ledger.put(sample_job(index=index), sample_lines())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(base,))
                       for base in (0, 100, 200, 300)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        entries = ledger.entries()
        assert len(entries) == 100 and len(pack_files(ledger)) == 1
        for entry in entries:
            assert ledger.load(entry["trace"])[0]["index"] == entry["index"]

    def test_two_processes_append_to_one_root(self, ledger):
        script = (
            "import sys\n"
            "from repro.farm import SimJob, StimulusSpec, TraceLedger\n"
            "from repro.engines import make_record\n"
            "from repro.farm.ledger import encode_records\n"
            "ledger = TraceLedger(sys.argv[1])\n"
            "base = int(sys.argv[2])\n"
            "for i in range(base, base + 20):\n"
            "    job = SimJob(design='d', module='m', index=i,\n"
            "                 stimulus=StimulusSpec.random(length=2))\n"
            "    ledger.put(job, encode_records([make_record("
            "{'ping': None}, {'pong'}, {'v': i})]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
        children = [subprocess.Popen([sys.executable, "-c", script,
                                      ledger.root, str(base)], env=env)
                    for base in (0, 100)]
        assert [child.wait(timeout=60) for child in children] == [0, 0]
        entries = ledger.entries()
        assert len(entries) == 40
        assert len(pack_files(ledger)) == 2
        for entry in entries:
            header, records = ledger.load(entry["trace"])
            assert records[0]["values"] == {"v": header["index"]}


JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.text())
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=25,
)


class TestCanonicalJson:
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_matches_sorted_json_dumps(self, value):
        assert canonical_json(value) == json.dumps(value, sort_keys=True)

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_compact_matches_sorted_compact_json_dumps(self, value):
        assert compact_json(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"))

    def test_edge_values(self):
        value = {"z": [float("nan"), float("inf"), -float("inf"), 1e300,
                       -0.0], "é": "ü\u2603\U0001f600", "a": {"b": None}}
        assert canonical_json(value) == json.dumps(value, sort_keys=True)
        assert compact_json(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"))

    def test_unserializable_raises_type_error(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical_json({"x": object()})
