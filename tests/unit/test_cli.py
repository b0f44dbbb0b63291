"""Unit tests driving the ``eclc`` CLI through ``main(argv)``."""

import pytest

from repro.cli import main
from repro.pipeline.registry import DEFAULT_REGISTRY

ECHO = """
module echo (input pure ping, output pure pong)
{
    while (1) { await (ping); emit (pong); }
}
"""

#: The ``%`` operator has no RTL translation, so the hardware
#: back-ends must refuse this module while c/py/dot still work.
COUNTER = """
module counter (input pure tick, output int total)
{
    int n;
    n = 0;
    while (1) { await (tick); n = (n + 1) % 7; emit_v (total, n); }
}
"""


@pytest.fixture
def echo_file(tmp_path):
    path = tmp_path / "echo.ecl"
    path.write_text(ECHO)
    return str(path)


@pytest.fixture
def counter_file(tmp_path):
    path = tmp_path / "counter.ecl"
    path.write_text(COUNTER)
    return str(path)


class TestInfo:
    def test_lists_modules(self, echo_file, capsys):
        assert main(["info", echo_file]) == 0
        out = capsys.readouterr().out
        assert "module echo" in out and "states" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.ecl"
        path.write_text("module {")
        assert main(["info", str(path)]) == 1
        assert "eclc: error" in capsys.readouterr().err


#: ``zz`` is undeclared: the checker rejects module m.
UNDECLARED_EMIT = "module m (input pure s) { emit(zz); }"


@pytest.mark.parametrize("argv", [
    ["info", "bad.ecl"],
    ["compile", "bad.ecl", "-m", "m", "-o", "out"],
    ["simulate", "bad.ecl", "-m", "m", "--trace", "trace.txt"],
    ["dot", "bad.ecl", "-m", "m"],
], ids=lambda argv: argv[0])
def test_checker_error_fails_every_command(argv, tmp_path, monkeypatch,
                                           capsys):
    """A module handle is lazy: every command must run the checker
    before it uses the module."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.ecl").write_text(UNDECLARED_EMIT)
    (tmp_path / "trace.txt").write_text("s\n")
    assert main(argv) == 1
    assert "module m has 1 problem(s)" in capsys.readouterr().err


class TestCompile:
    #: backend name -> files expected for a pure module named "echo"
    EXPECTED = {
        "c": ["echo.c", "echo.h"],
        "py": ["echo.py"],
        "vhdl": ["echo.vhd"],
        "verilog": ["echo.v"],
        "esterel": ["echo.strl", "echo_data.c", "echo_data.h"],
        "dot": ["echo.dot"],
    }

    @pytest.mark.parametrize("kind", sorted(EXPECTED))
    def test_each_emit_kind(self, kind, echo_file, tmp_path, capsys):
        outdir = tmp_path / ("out_" + kind)
        assert main(["compile", echo_file, "-m", "echo",
                     "--emit", kind, "-o", str(outdir)]) == 0
        produced = sorted(p.name for p in outdir.iterdir())
        assert produced == self.EXPECTED[kind]
        out = capsys.readouterr().out
        for name in self.EXPECTED[kind]:
            assert name in out

    def test_emit_choices_come_from_registry(self, capsys):
        with pytest.raises(SystemExit):
            main(["compile", "x.ecl", "-m", "m", "--emit", "fortran"])
        err = capsys.readouterr().err
        for name in DEFAULT_REGISTRY.names():
            assert name in err    # argparse lists valid choices

    def test_all_skips_failing_backends(self, counter_file, tmp_path,
                                        capsys):
        outdir = tmp_path / "out"
        assert main(["compile", counter_file, "-m", "counter",
                     "--emit", "all", "-o", str(outdir)]) == 0
        captured = capsys.readouterr()
        assert "skipping vhdl" in captured.err
        assert "skipping verilog" in captured.err
        produced = {p.name for p in outdir.iterdir()}
        assert "counter.c" in produced and "counter.dot" in produced
        assert not any(p.endswith((".vhd", ".v")) for p in produced)

    def test_single_failing_backend_is_an_error(self, counter_file,
                                                tmp_path, capsys):
        assert main(["compile", counter_file, "-m", "counter",
                     "--emit", "vhdl", "-o", str(tmp_path)]) == 1
        assert "eclc: error" in capsys.readouterr().err

    def test_all_fails_on_translation_error(self, tmp_path, capsys):
        # Two parallel writers of one pure signal: phase 1 rejects the
        # module, which is an error, not a skip of every backend.
        path = tmp_path / "writers.ecl"
        path.write_text("module m (input pure s, output pure t) {"
                        " par { { await (s); emit (t); }"
                        " { await (s); emit (t); } } }")
        assert main(["compile", str(path), "-m", "m", "--emit", "all",
                     "-o", str(tmp_path / "out")]) == 1
        assert "skipping" not in capsys.readouterr().err

    def test_unknown_module(self, echo_file, tmp_path, capsys):
        assert main(["compile", echo_file, "-m", "nope",
                     "-o", str(tmp_path)]) == 1
        assert "no module named" in capsys.readouterr().err


class TestBuild:
    def test_batch_build_writes_all_modules(self, tmp_path, capsys):
        path = tmp_path / "two.ecl"
        path.write_text(ECHO + COUNTER)
        outdir = tmp_path / "out"
        assert main(["build", str(path), "--emit", "c,dot",
                     "-o", str(outdir)]) == 0
        produced = sorted(p.name for p in outdir.iterdir())
        assert produced == ["counter.c", "counter.dot", "counter.h",
                            "echo.c", "echo.dot", "echo.h"]
        out = capsys.readouterr().out
        assert "echo" in out and "counter" in out and "build" in out

    def test_build_warm_cache(self, tmp_path, capsys):
        path = tmp_path / "echo.ecl"
        path.write_text(ECHO)
        cache = str(tmp_path / "cache")
        outdir = str(tmp_path / "out")
        argv = ["build", str(path), "-o", outdir, "--cache-dir", cache]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 stage cache hit(s)" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        # Warm builds serve check + emit straight from the cache; the
        # intermediate stages are never even forced.
        assert "2/2 stages cached" in warm

    def test_removed_jobs_option_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "echo.ecl"
        path.write_text(ECHO)
        with pytest.raises(SystemExit) as exit_info:
            main(["build", str(path), "-o", str(tmp_path / "out"),
                  "-j", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_build_reports_failures(self, tmp_path, capsys):
        path = tmp_path / "mixed.ecl"
        path.write_text(ECHO + """
module broken (input pure go, output pure done)
{
    while (1) { await (go); emit (missing); }
}
""")
        assert main(["build", str(path), "-o",
                     str(tmp_path / "out")]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out


class TestSimulate:
    def test_trace_run(self, echo_file, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("# warm up\nping\n\nping\n")
        assert main(["simulate", echo_file, "-m", "echo",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "instant 2" in out and "pong" in out

    def test_vcd_dump_matches_reference_format(self, echo_file,
                                               tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("ping\n\nping\n")
        vcd_path = tmp_path / "run.vcd"
        assert main(["simulate", echo_file, "-m", "echo",
                     "--trace", str(trace), "--vcd",
                     str(vcd_path)]) == 0
        assert "wrote %s" % vcd_path in capsys.readouterr().out
        text = vcd_path.read_text()
        # Same header shape as the checked-in examples/door_ctrl.vcd.
        import os
        reference = open(os.path.join(os.path.dirname(__file__), "..",
                                      "..", "examples",
                                      "door_ctrl.vcd")).read()
        for ref_line, line in (
                ("$date ecl reproduction $end", "$date"),
                ("$timescale 1 ns $end", "$timescale"),
                ("$enddefinitions $end", "$enddefinitions")):
            assert ref_line in reference
            assert any(ln.startswith(line) for ln in text.splitlines())
        assert "$scope module echo $end" in text
        assert "$var wire 1" in text and "ping" in text
        assert "$dumpvars" in text
        # Time markers and at least one presence pulse were recorded.
        assert "#1" in text and "1" in text

    def test_bad_trace_value(self, echo_file, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("ping=zebra\n")
        assert main(["simulate", echo_file, "-m", "echo",
                     "--trace", str(trace)]) == 1
        assert "bad value" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["efsm", "interp"])
    def test_undeclared_signal_is_located_diagnostic(self, echo_file,
                                                     tmp_path, capsys,
                                                     engine):
        """A stimulus referencing a signal the module does not declare
        must exit non-zero with a trace-located message, not a bare
        engine error (let alone a KeyError)."""
        trace = tmp_path / "trace.txt"
        trace.write_text("ping\nnosuch\n")
        assert main(["simulate", echo_file, "-m", "echo",
                     "--engine", engine, "--trace", str(trace)]) == 1
        err = capsys.readouterr().err
        assert "trace line 2" in err
        assert "does not declare input signal 'nosuch'" in err
        assert "inputs: ping" in err

    def test_output_signal_in_trace_rejected(self, echo_file, tmp_path,
                                             capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("pong\n")
        assert main(["simulate", echo_file, "-m", "echo",
                     "--trace", str(trace)]) == 1
        err = capsys.readouterr().err
        assert "trace line 1" in err and "'pong'" in err

    def test_value_on_pure_signal_rejected(self, echo_file, tmp_path,
                                           capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("ping=3\n")
        assert main(["simulate", echo_file, "-m", "echo",
                     "--trace", str(trace)]) == 1
        err = capsys.readouterr().err
        assert "trace line 1" in err and "pure" in err


class TestDot:
    def test_dot_to_stdout(self, echo_file, capsys):
        assert main(["dot", echo_file, "-m", "echo"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and "echo" in out


class TestServe:
    @pytest.mark.parametrize("flags", [
        ["--cache-dir", "x"], ["--pool-mode", "thread"], ["--no-recover"],
    ], ids=["cache-dir", "pool-mode", "no-recover"])
    def test_removed_options_are_usage_errors(self, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--port", "0"] + flags)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("workers, mode", [(2, "process"),
                                               (1, "thread")])
    def test_pool_mode_follows_workers(self, monkeypatch, capsys,
                                       workers, mode):
        import repro.serve as serve

        built = []

        class Unbound:
            server_address = ("127.0.0.1", 0)

        def make_server(service, **kwargs):
            built.append(service.pool.mode)
            return Unbound()

        def serve_forever(service, server=None):
            service.shutdown(drain=False, timeout=5)

        monkeypatch.setattr(serve, "make_server", make_server)
        monkeypatch.setattr(serve, "serve_forever", serve_forever)
        assert main(["serve", "-j", str(workers), "--no-telemetry"]) == 0
        assert built == [mode]
        assert "%d %s workers" % (workers, mode) in capsys.readouterr().out
