"""Compiler-throughput benchmarks: the three phases, separately timed.

Not a paper table — operational data for users of the reproduction
(how expensive is each phase on the paper's own design).
"""


from repro.codegen.c_backend import generate_c
from repro.designs import AUDIO_BUFFER_ECL, PROTOCOL_STACK_ECL
from repro.ecl import translate_module
from repro.efsm import build_efsm
from repro.lang import parse_text
from repro.pipeline import Pipeline


def test_phase0_parse(benchmark):
    program, _types = benchmark(
        lambda: parse_text(PROTOCOL_STACK_ECL, "stack.ecl"))
    assert len(program.modules()) == 4


def test_phase1_translate(benchmark):
    program, types = parse_text(PROTOCOL_STACK_ECL, "stack.ecl")
    kernel = benchmark(
        lambda: translate_module(program, types, "toplevel"))
    assert kernel.name == "toplevel"


def test_phase2_build_efsm(benchmark):
    program, types = parse_text(PROTOCOL_STACK_ECL, "stack.ecl")
    kernel = translate_module(program, types, "toplevel")
    efsm = benchmark(lambda: build_efsm(kernel))
    assert efsm.state_count > 1


def test_phase2_build_efsm_audio_buffer(benchmark):
    """The slowest paper module to build (about 2000 symbolic paths)."""
    program, types = parse_text(AUDIO_BUFFER_ECL, "buffer.ecl")
    kernel = translate_module(program, types, "audio_buffer")
    efsm = benchmark(lambda: build_efsm(kernel))
    assert efsm.state_count > 1


def test_phase3_c_backend(benchmark):
    design = Pipeline().compile_text(PROTOCOL_STACK_ECL)
    efsm = design.module("toplevel").efsm()  # pre-build phase 2
    bundle = benchmark(lambda: generate_c(efsm, design.types))
    assert "toplevel_react" in bundle.source


def test_full_pipeline(benchmark):
    def pipeline():
        design = Pipeline().compile_text(PROTOCOL_STACK_ECL)
        return design.module("toplevel").efsm().state_count

    states = benchmark(pipeline)
    assert states > 1
