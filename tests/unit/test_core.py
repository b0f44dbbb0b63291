"""Unit tests for the compile API, partition runner and CLI."""

import os

import pytest

from repro.cli import main as eclc_main
from repro.core import PartitionSpec, TaskSpec, run_partition
from repro.errors import CompileError
from repro.pipeline import CompileOptions, Pipeline

SRC = """
module echo (input pure ping, output pure pong)
{
    while (1) { await (ping); emit (pong); }
}
"""


class TestCompileApi:
    def test_compile_and_list(self):
        design = Pipeline().compile_text(SRC)
        assert design.module_names == ["echo"]

    def test_unknown_module(self):
        design = Pipeline().compile_text(SRC)
        with pytest.raises(CompileError):
            design.module("nope").check()

    def test_module_products_cached(self):
        design = Pipeline().compile_text(SRC)
        module = design.module("echo")
        assert module.efsm() is module.efsm()
        assert design.module("echo") is module

    def test_optimization_toggle(self):
        design = Pipeline(CompileOptions(optimize=False)) \
            .compile_text(SRC)
        module = design.module("echo")
        assert module.efsm() is module.efsm(optimized=False)

    def test_bad_engine_name(self):
        module = Pipeline().compile_text(SRC).module("echo")
        with pytest.raises(CompileError):
            module.reactor(engine="jit")

    def test_compile_file(self, tmp_path):
        path = tmp_path / "echo.ecl"
        path.write_text(SRC)
        design = Pipeline().compile_file(str(path))
        assert design.module_names == ["echo"]

    def test_split_report_accessible(self):
        design = Pipeline().compile_text(SRC)
        report = design.module("echo").split_report()
        assert report.module_name == "echo"


class TestPartitionRunner:
    def test_run_partition_row(self):
        design = Pipeline().compile_text(SRC)
        spec = PartitionSpec("1 task", [TaskSpec("echo", "echo")])

        def bench(kernel):
            pongs = 0
            for _ in range(5):
                kernel.post_input("ping")
                if "pong" in kernel.run_until_idle():
                    pongs += 1
            return pongs

        result = run_partition(design, spec, bench, "Echo")
        assert result.testbench_result == 5
        row = result.row
        assert row.example == "Echo"
        assert row.task_code > 0
        assert row.rtos_code > row.task_code
        assert row.task_kcycles > 0
        assert row.rtos_kcycles > 0
        assert result.efsm_sizes["echo"][0] >= 2


class TestCli:
    def write(self, tmp_path):
        path = tmp_path / "echo.ecl"
        path.write_text(SRC)
        return str(path)

    def test_info(self, tmp_path, capsys):
        assert eclc_main(["info", self.write(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "module echo" in out

    def test_compile_c(self, tmp_path, capsys):
        src = self.write(tmp_path)
        outdir = str(tmp_path / "out")
        assert eclc_main(["compile", src, "-m", "echo", "--emit", "c",
                          "-o", outdir]) == 0
        assert os.path.exists(os.path.join(outdir, "echo.c"))
        assert os.path.exists(os.path.join(outdir, "echo.h"))

    def test_compile_all_skips_impossible(self, tmp_path, capsys):
        data_src = """
module m (input int x, output int y)
{
    int i; int a;
    while (1) { await (x); for (i = 0; i < 3; i++) a += x;
    emit_v (y, a); }
}
"""
        path = tmp_path / "m.ecl"
        path.write_text(data_src)
        outdir = str(tmp_path / "out")
        assert eclc_main(["compile", str(path), "-m", "m",
                          "--emit", "all", "-o", outdir]) == 0
        # C and Esterel written; RTL skipped (data part not empty).
        assert os.path.exists(os.path.join(outdir, "m.c"))
        assert os.path.exists(os.path.join(outdir, "m.strl"))
        assert not os.path.exists(os.path.join(outdir, "m.v"))

    def test_simulate(self, tmp_path, capsys):
        src = self.write(tmp_path)
        trace = tmp_path / "trace.txt"
        trace.write_text("# start-up\n\nping\n\nping\n")
        assert eclc_main(["simulate", src, "-m", "echo",
                          "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "pong" in out

    def test_dot(self, tmp_path, capsys):
        assert eclc_main(["dot", self.write(tmp_path), "-m", "echo"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.ecl"
        path.write_text("module m (input pure s) { emit(zz); }")
        assert eclc_main(["compile", str(path), "-m", "m"]) == 1
        assert "error" in capsys.readouterr().err
