"""Gold-standard back-end validation: compile the generated C with gcc
and run it against the Python automaton on the same stimulus.

This is the paper's actual deployment path (phase 3 produces C for the
target); here the host compiler stands in for the cross toolchain.
Aggregate-valued outputs are compared by presence; scalar outputs by
value.  Modules relying on the aggregate-to-integer cast extension are
excluded (C pointer-decay semantics differ; see DESIGN.md §4).
"""

import functools
import shutil
import subprocess

import pytest

from repro.core import EclCompiler
from repro.designs import AUDIO_BUFFER_ECL, DOOR_CTRL_ECL, PROTOCOL_STACK_ECL
from repro.lang.types import PureType
from repro.pipeline import Pipeline

gcc = shutil.which("gcc") or shutil.which("cc")
pytestmark = pytest.mark.skipif(gcc is None,
                                reason="no C compiler available")

COUNTER = """
module counter (input pure tick, input pure clear, output int value)
{
    int n;
    n = 0;
    while (1) {
        await (tick | clear);
        present (clear) { n = 0; } else { n = n + 1; }
        emit_v (value, n);
    }
}
"""

CROSSING = """
module crossing (input pure tick, input pure request,
                 output pure cars_green, output pure cars_red)
{
    while (1) {
        do {
            while (1) { emit (cars_green); await (tick); }
        } abort (request);
        emit (cars_red);
        await (tick);
        emit (cars_red);
        await (tick);
    }
}
"""

FIFO = """
#define DEPTH 4
typedef unsigned char byte;
module fifo (input byte push, input pure pop, output byte head,
             output int level_out)
{
    byte buf[DEPTH];
    int head_i;
    int tail_i;
    int level;
    head_i = 0; tail_i = 0; level = 0;
    while (1) {
        await (push | pop);
        present (push) {
            if (level < DEPTH) {
                buf[tail_i] = push;
                tail_i = (tail_i + 1) % DEPTH;
                level = level + 1;
            }
        }
        present (pop) {
            if (level > 0) {
                emit_v (head, buf[head_i]);
                head_i = (head_i + 1) % DEPTH;
                level = level - 1;
            }
        }
        emit_v (level_out, level);
    }
}
"""

#: ``~`` on a bool is logical negation in every engine (DESIGN.md §4),
#: where C's ``~`` on a bool is always non-zero.
NEG = """
module neg (input bool ok, output pure bad)
{
    while (1) {
        await (ok);
        if (~ok) emit (bad);
    }
}
"""


def _scalar_outputs(module):
    return [p for p in module.kernel.output_params
            if not isinstance(p.type, PureType)
            and p.type.is_scalar()]


def _pure_outputs(module):
    return [p for p in module.kernel.output_params
            if isinstance(p.type, PureType)]


def _main_c(module, trace):
    """A C harness feeding ``trace`` and printing boundary activity."""
    name = module.name
    lines = [
        "#include <stdio.h>",
        '#include "%s.h"' % name,
        "static %s_ctx_t ctx;" % name,
        "int main(void) {",
        "    %s_reset(&ctx);" % name,
    ]
    for instant, step in enumerate(trace):
        for signal, value in step.items():
            lines.append("    ctx.%s_present = 1;" % signal)
            if value is not None:
                lines.append("    ctx.%s_value = %d;" % (signal, value))
        lines.append("    %s_react(&ctx);" % name)
        for param in _pure_outputs(module):
            lines.append(
                '    if (ctx.%s_present) printf("%d %s\\n");'
                % (param.name, instant, param.name))
        for param in _scalar_outputs(module):
            lines.append(
                '    if (ctx.%s_present) printf("%d %s=%%ld\\n", '
                "(long) ctx.%s_value);"
                % (param.name, instant, param.name, param.name))
    lines.append("    return 0;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _python_reference(module, trace):
    reactor = module.reactor()
    events = []
    for instant, step in enumerate(trace):
        pure = [n for n, v in step.items() if v is None]
        valued = {n: v for n, v in step.items() if v is not None}
        out = reactor.react(inputs=pure, values=valued)
        for name in sorted(out.emitted):
            if name in out.values and isinstance(out.values[name], int):
                events.append("%d %s=%d" % (instant, name,
                                            out.values[name]))
            else:
                events.append("%d %s" % (instant, name))
    return events


def _run_c(module, trace, tmp_path):
    bundle = module.c_code()
    (tmp_path / ("%s.h" % module.name)).write_text(bundle.header)
    (tmp_path / ("%s.c" % module.name)).write_text(bundle.source)
    (tmp_path / "main.c").write_text(_main_c(module, trace))
    binary = tmp_path / "sim"
    subprocess.run(
        [gcc, "-std=c99", "-O1", "-o", str(binary),
         str(tmp_path / ("%s.c" % module.name)),
         str(tmp_path / "main.c")],
        check=True, capture_output=True, text=True)
    result = subprocess.run([str(binary)], check=True,
                            capture_output=True, text=True)
    return [line for line in result.stdout.splitlines() if line]


@pytest.mark.parametrize("source, name, trace", [
    (COUNTER, "counter",
     [{}, {"tick": None}, {"tick": None}, {"clear": None},
      {"tick": None}, {"tick": None, "clear": None}]),
    (CROSSING, "crossing",
     [{}, {"tick": None}, {"tick": None, "request": None},
      {"tick": None}, {"tick": None}, {"tick": None}]),
    (FIFO, "fifo",
     [{}, {"push": 11}, {"push": 22}, {"pop": None},
      {"push": 33, "pop": None}, {"pop": None}, {"pop": None},
      {"pop": None}]),
    (NEG, "neg",
     [{}, {"ok": 1}, {"ok": 0}, {"ok": 1}, {"ok": 0}]),
])
def test_generated_c_matches_python(tmp_path, source, name, trace):
    module = EclCompiler().compile_text(source).module(name)
    c_events = _run_c(module, trace, tmp_path)
    py_events = _python_reference(module, trace)
    assert c_events == py_events


def test_generated_c_compiles_warning_clean(tmp_path):
    module = EclCompiler().compile_text(COUNTER).module("counter")
    bundle = module.c_code()
    (tmp_path / "counter.h").write_text(bundle.header)
    (tmp_path / "counter.c").write_text(bundle.source)
    result = subprocess.run(
        [gcc, "-std=c99", "-Wall", "-c", str(tmp_path / "counter.c"),
         "-o", str(tmp_path / "counter.o")],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    # Unused-label warnings are tolerated; real warnings are not.
    serious = [line for line in result.stderr.splitlines()
               if "warning" in line and "unused label" not in line
               and "defined but not used" not in line]
    assert not serious, serious


#: Every module of the paper's three designs.
PAPER_MODULES = [
    (PROTOCOL_STACK_ECL, name)
    for name in ("assemble", "checkcrc", "prochdr", "toplevel")
] + [
    (AUDIO_BUFFER_ECL, name)
    for name in ("sampler", "fifo_ctrl", "drain_ctrl", "audio_buffer")
] + [(DOOR_CTRL_ECL, name) for name in ("door_ctrl", "interlock")]


@functools.lru_cache(maxsize=None)
def _paper_build(source):
    return Pipeline().compile_text(source)


@pytest.mark.parametrize("source, name", PAPER_MODULES,
                         ids=[name for _source, name in PAPER_MODULES])
def test_paper_module_c_compiles_as_c99(tmp_path, source, name):
    build = _paper_build(source)
    assert sorted(build.module_names) == sorted(
        module for design, module in PAPER_MODULES if design == source)
    for filename, text in build.module(name).emit("c").items():
        (tmp_path / filename).write_text(text)
    result = subprocess.run(
        [gcc, "-std=c99", "-Wall", "-Werror=bool-operation",
         "-c", str(tmp_path / ("%s.c" % name)),
         "-o", str(tmp_path / ("%s.o" % name))],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
