"""Integration: ``eclc farm run`` end to end.

Covers the PR's acceptance bar: one invocation executing 100+ jobs
across two designs and several engines, producing a FarmReport with
per-job statuses and a persisted TraceLedger.
"""

import json
import os

import pytest

from repro.cli import main
from repro.designs import AUDIO_BUFFER_ECL, DOOR_CTRL_ECL, PROTOCOL_STACK_ECL
from repro.farm import TraceLedger, expand_jobs


@pytest.fixture(scope="module")
def design_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("farm-designs")
    stack = root / "stack.ecl"
    stack.write_text(PROTOCOL_STACK_ECL)
    buffer_ = root / "buffer.ecl"
    buffer_.write_text(AUDIO_BUFFER_ECL)
    return str(stack), str(buffer_)


class TestFarmRunAcceptance:
    def test_hundred_jobs_two_designs_four_engines(self, design_files,
                                                   tmp_path, capsys):
        stack, buffer_ = design_files
        ledger_dir = str(tmp_path / "ledger")
        report_path = str(tmp_path / "report.json")
        # 2 modules x 4 engines x 17 traces = 136 jobs, one invocation.
        assert main([
            "farm", "run", stack, buffer_,
            "-m", "toplevel", "-m", "audio_buffer",
            "--engines", "efsm,interp,native,equivalence",
            "--traces", "17", "--length", "8",
            "-j", "1", "--ledger", ledger_dir,
            "--report", report_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "136 job(s) over 2 design(s)" in out
        assert "reactions/sec" in out

        data = json.load(open(report_path))
        assert data["total"] == 136
        assert data["ok"] is True
        assert data["status_counts"] == {"ok": 136}
        assert {row["engine"] for row in data["results"]} == \
            {"efsm", "interp", "native", "equivalence"}
        assert all(row["status"] == "ok" for row in data["results"])
        assert data["reactions"] == 136 * 8

        ledger = TraceLedger(ledger_dir)
        entries = ledger.entries()
        assert len(entries) == 136
        header, records = ledger.load(entries[0]["trace"])
        assert header["instants"] == len(records) == 8

    def test_spec_file_drives_batch(self, design_files, tmp_path,
                                    capsys):
        stack, buffer_ = design_files
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps({
            "workers": 1,
            "ledger": "spec-traces",
            "designs": {"stack": stack, "buffer": buffer_},
            "jobs": [
                {"design": "stack", "modules": ["toplevel"],
                 "engines": ["efsm", "native", "equivalence"],
                 "traces": 3, "length": 6, "seed": 11},
                {"design": "buffer", "modules": ["audio_buffer"],
                 "engines": ["rtos"], "traces": 2, "length": 6},
                {"design": "stack", "modules": ["toplevel"],
                 "engines": ["rtos"], "traces": 1, "length": 6,
                 "tasks": [
                     ["assemble", "assemble", 3,
                      {"outpkt": "packet"}],
                     ["prochdr", "prochdr", 2, {"inpkt": "packet"}],
                     ["checkcrc", "checkcrc", 1,
                      {"inpkt": "packet"}]]},
            ],
        }))
        assert main(["farm", "run", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "12 job(s) over 2 design(s)" in out
        assert os.path.isdir(str(tmp_path / "spec-traces"))

    def test_exit_one_on_failing_job(self, tmp_path, capsys):
        bad = tmp_path / "bad.ecl"
        bad.write_text("""
module div (input int v, output int q)
{
    while (1) { await (v); emit_v (q, 100 / v); }
}
""")
        # An unknown module is refused before any job runs, so force a
        # runtime error instead: every stimulus value is 0.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "designs": {"bad": str(bad)},
            "workers": 1,
            "jobs": [{"design": "bad", "engines": ["efsm"], "traces": 1,
                      "length": 2, "present_prob": 1,
                      "value_range": [0, 0]}],
        }))
        assert main(["farm", "run", "--spec", str(spec)]) == 1
        out = capsys.readouterr().out
        assert "error=1" in out and "division by zero" in out

    def test_needs_files_or_spec(self, capsys):
        assert main(["farm", "run"]) == 2
        assert "needs design files or --spec" in \
            capsys.readouterr().err

    def test_bad_spec_is_clean_error(self, tmp_path, capsys):
        spec = tmp_path / "broken.json"
        spec.write_text("{not json")
        assert main(["farm", "run", "--spec", str(spec)]) == 1
        assert "bad farm spec" in capsys.readouterr().err

    def test_determinism_same_batch_same_traces(self, design_files,
                                                tmp_path, capsys):
        """Re-running an identical batch reproduces identical trace
        digests — the deterministic-seed contract."""
        stack, _ = design_files
        digests = []
        for round_ in ("a", "b"):
            ledger_dir = str(tmp_path / ("ledger-" + round_))
            assert main([
                "farm", "run", stack, "-m", "toplevel",
                "--engines", "efsm", "--traces", "5", "--length", "6",
                "-j", "1", "--ledger", ledger_dir,
            ]) == 0
            capsys.readouterr()
            digests.append([entry["trace"] for entry
                            in TraceLedger(ledger_dir).entries()])
        assert digests[0] == digests[1]
        assert len(set(digests[0])) == 5   # distinct traces per job


class TestNativeTaskEngine:
    """``--task-engine native`` / spec ``task_engine`` end to end."""

    def test_flag_drives_native_tasks_and_prints_kernel_stats(
            self, design_files, tmp_path, capsys):
        stack, _buffer = design_files
        report_path = str(tmp_path / "rtos-report.json")
        assert main([
            "farm", "run", stack, "-m", "toplevel",
            "--engines", "rtos", "--task-engine", "native",
            "--traces", "2", "--length", "6", "-j", "1",
            "--report", report_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "rtos: dispatches=" in out
        with open(report_path) as handle:
            report = json.load(handle)
        assert report["ok"]
        assert report["kernel_stats"]["dispatches"] > 0
        for row in report["results"]:
            assert row["kernel_stats"]["dispatches"] > 0

    def test_spec_task_engine_partition(self, design_files, tmp_path,
                                        capsys):
        stack, _buffer = design_files
        spec = tmp_path / "partition.json"
        spec.write_text(json.dumps({
            "workers": 1,
            "cache_dir": "spec-cache",
            "designs": {"stack": stack},
            "jobs": [
                {"design": "stack", "modules": ["toplevel"],
                 "engines": ["rtos"], "traces": 2, "length": 6,
                 "task_engine": "native",
                 "tasks": [
                     ["assemble", "assemble", 3, {"outpkt": "packet"}],
                     ["prochdr", "prochdr", 2, {"inpkt": "packet"}],
                     ["checkcrc", "checkcrc", 1,
                      {"inpkt": "packet"}]]},
            ],
        }))
        assert main(["farm", "run", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "2 job(s) over 1 design(s)" in out
        assert "rtos: dispatches=" in out
        assert os.path.isdir(str(tmp_path / "spec-cache"))


#: Flag values the spec schema refuses: (argv after the design file,
#: the field the error must name).  Each once ran silently clamped or
#: dropped.
FLAG_PROBES = [
    (["farm", "run", "-m", "door_ctrl", "-m", "nope"], "modules"),
    (["farm", "run", "--traces", "-3"], "traces"),
    (["farm", "run", "--length", "-1"], "length"),
    (["farm", "run", "--horizon", "-5"], "horizon"),
    (["cover", "-m", "door_ctrl", "--rounds", "-2"], "rounds"),
    (["cover", "-m", "door_ctrl", "--target", "-5"], "target"),
]


@pytest.mark.parametrize("argv, field", FLAG_PROBES,
                         ids=[" ".join(argv) for argv, _ in FLAG_PROBES])
def test_bad_flag_is_a_usage_error_naming_the_field(tmp_path, capsys,
                                                    argv, field):
    door = tmp_path / "door.ecl"
    door.write_text(DOOR_CTRL_ECL)
    command = argv[:2] if argv[0] == "farm" else argv[:1]
    argv = command + [str(door)] + argv[len(command):] + ["-j", "1"]
    assert main(argv) == 2
    assert '"%s"' % field in capsys.readouterr().err


def test_flags_and_equivalent_spec_expand_identically(design_files,
                                                      tmp_path, capsys):
    """``farm run`` flags are a v2 document: the same batch as the
    equivalent spec file and as ``expand_jobs``, down to job ids and
    stable report rows."""
    stack, buffer_ = design_files
    matrix = {"engines": ["efsm", "native"], "traces": 2, "length": 5,
              "horizon": 4, "seed": 7}
    reports = []
    for name, argv in (
        ("flags", [stack, buffer_, "-m", "toplevel", "-m", "audio_buffer",
                   "--engines", "efsm,native", "--traces", "2",
                   "--length", "5", "--horizon", "4", "--seed", "7"]),
        ("spec", ["--spec", str(tmp_path / "batch.json")]),
    ):
        (tmp_path / "batch.json").write_text(json.dumps({
            "spec_version": 2,
            "designs": {"stack.ecl": stack, "buffer.ecl": buffer_},
            "jobs": [dict(matrix, design="stack.ecl", modules=["toplevel"]),
                     dict(matrix, design="buffer.ecl",
                          modules=["audio_buffer"])],
        }))
        report = str(tmp_path / ("%s.json" % name))
        assert main(["farm", "run"] + argv + ["-j", "1",
                                              "--report", report]) == 0
        with open(report) as handle:
            reports.append([
                {key: value for key, value in row.items()
                 if key not in ("elapsed", "trace_path", "worker_pid")}
                for row in json.load(handle)["results"]])
    capsys.readouterr()
    assert reports[0] == reports[1]
    jobs = expand_jobs([("stack.ecl", "toplevel"),
                        ("buffer.ecl", "audio_buffer")],
                       engines=("efsm", "native"), traces=2, length=5,
                       horizon=4, salt=7)
    assert [row["job_id"] for row in reports[0]] == \
        [job.job_id for job in jobs]
