"""Unit tests for symbolic EFSM construction."""

import pytest

from repro.ecl import translate_module
from repro.efsm import TERMINATED, build_efsm, Leaf, TestData, TestSignal, walk_reaction
from repro.errors import CausalityError, CompileError, NondeterminismError
from repro.lang import parse_text


def build(body, signals="input pure s, input pure r, output pure t",
          header="", **kw):
    src = "%smodule m (%s) { %s }" % (header, signals, body)
    program, types = parse_text(src)
    return build_efsm(translate_module(program, types, "m"), **kw)


class TestStructure:
    def test_single_await(self):
        efsm = build("await(s); emit(t);")
        # initial state pauses into the waiting state.
        assert efsm.state_count == 2
        assert "s" in efsm.tested_inputs()
        assert "t" in efsm.emitted_signals()

    def test_termination_leaf(self):
        efsm = build("await(s);")
        leaves = [n for state in efsm.states
                  for n in walk_reaction(state.reaction)
                  if isinstance(n, Leaf)]
        assert any(leaf.target == TERMINATED for leaf in leaves)

    def test_loop_reuses_state(self):
        efsm = build("while (1) { await(s); emit(t); }")
        assert efsm.state_count == 2

    def test_untested_input_not_in_tree(self):
        efsm = build("while (1) { await(s); emit(t); }")
        assert "r" not in efsm.tested_inputs()

    def test_data_guard_creates_testdata(self):
        efsm = build(
            "int x; while (1) { await(s); x++;"
            " if (x > 2) emit(t); }")
        nodes = [n for state in efsm.states
                 for n in walk_reaction(state.reaction)]
        assert any(isinstance(n, TestData) for n in nodes)

    def test_delta_flag_on_leaf(self):
        efsm = build("while (1) { await(s); await(); emit(t); }")
        leaves = [n for state in efsm.states
                  for n in walk_reaction(state.reaction)
                  if isinstance(n, Leaf) and n.delta]
        assert leaves

    def test_state_budget_enforced(self):
        body = "; ".join("await(s)" for _ in range(10)) + ";"
        with pytest.raises(CompileError):
            build(body, max_states=3)

    def test_paper_assemble_two_states(self):
        from repro.designs import PROTOCOL_STACK_ECL
        program, types = parse_text(PROTOCOL_STACK_ECL)
        efsm = build_efsm(translate_module(program, types, "assemble"))
        # Init state + the single byte-collecting wait state (the for
        # loop is folded through the constant store).
        assert efsm.state_count == 2


class TestConstantFolding:
    def test_loop_head_resolved_without_branch(self):
        # cnt = 0 then cnt < 4 must not produce a runtime test.
        efsm = build(
            "int cnt; while (1) {"
            " for (cnt = 0; cnt < 4; cnt++) { await(s); } emit(t); }")
        init_nodes = list(walk_reaction(efsm.state(0).reaction))
        assert not any(isinstance(n, TestData) for n in init_nodes)

    def test_unknown_on_resume_keeps_test(self):
        efsm = build(
            "int cnt; while (1) {"
            " for (cnt = 0; cnt < 4; cnt++) { await(s); } emit(t); }")
        wait_nodes = [n for state in efsm.states[1:]
                      for n in walk_reaction(state.reaction)]
        assert any(isinstance(n, TestData) for n in wait_nodes)

    def test_call_invalidates_constants(self):
        efsm = build(
            "int x; while (1) { await(s); x = 0; poke(&x);"
            " if (x > 0) emit(t); }",
            header="void poke(int *p) { *p = 5; }\n")
        nodes = [n for state in efsm.states
                 for n in walk_reaction(state.reaction)]
        assert any(isinstance(n, TestData) for n in nodes)


class TestLocalSignals:
    def test_local_compiled_away(self):
        efsm = build(
            "signal pure mid;"
            "while (1) { await(s);"
            " par { emit(mid); present (mid) emit(t); } }")
        for state in efsm.states:
            for node in walk_reaction(state.reaction):
                assert not (isinstance(node, TestSignal)
                            and node.signal == "mid")
        # The broadcast still works: t is emitted.
        assert "t" in efsm.emitted_signals()

    def test_causality_paradox_rejected(self):
        with pytest.raises((CausalityError, NondeterminismError)):
            build("signal pure p; while (1) { await(s);"
                  " present (~p) emit(p); }")

    def test_self_justification_resolved_absent(self):
        efsm = build("signal pure p;"
                     "while (1) { await(s);"
                     " present (p) { emit(p); emit(t); } }")
        assert "t" not in efsm.emitted_signals()

    def test_unemittable_local_never_assumed_present(self):
        # l is emitted only in the first instant, by a branch that has
        # terminated before the loop runs.  Assuming l present in a later
        # instant would make the loop instantaneous; no emit of l can run
        # then, so the builder takes l absent without running that path.
        from repro.analysis import compare_on_trace
        src = ("module m (input pure s, output pure t) {"
               " signal pure l;"
               " par { emit(l);"
               " { await(s); while (1) {"
               " present (l) { } else { emit(t); await(s); } } } } }")
        program, types = parse_text(src)
        kernel = translate_module(program, types, "m")
        efsm = build_efsm(kernel)
        assert "t" in efsm.emitted_signals()
        trace = [{}, {"s": None}, {}, {"s": None}, {"s": None}, {}]
        assert compare_on_trace(kernel, efsm, trace) is None


class TestExplorationWork:
    """Pin how many symbolic runs each paper-module build makes.

    A run is one top-level ``react`` of a state's residue; a valid run
    is one whose assumptions match its emissions.  Signals a state's
    instant cannot emit are absent without a fork, so incoherent runs
    are never made.
    """

    @pytest.mark.parametrize("design, name, runs, valid", [
        ("audio", "audio_buffer", 582, 302),
        ("stack", "toplevel", 421, 285),
        ("stack", "prochdr", 33, 30),
    ])
    def test_react_runs(self, monkeypatch, design, name, runs, valid):
        from repro.designs import AUDIO_BUFFER_ECL, PROTOCOL_STACK_ECL
        from repro.efsm import build as efsm_build
        source = {"audio": AUDIO_BUFFER_ECL,
                  "stack": PROTOCOL_STACK_ECL}[design]
        program, types = parse_text(source)
        kernel = translate_module(program, types, name)
        counts = {"runs": 0, "valid": 0}
        real_react = efsm_build.react

        def counting_react(stmt, ctx):
            result = real_react(stmt, ctx)
            counts["runs"] += 1
            if all((signal in ctx.emitted) == assumed
                   for signal, assumed in ctx.assumptions.items()):
                counts["valid"] += 1
            return result

        monkeypatch.setattr(efsm_build, "react", counting_react)
        build_efsm(kernel)
        assert counts == {"runs": runs, "valid": valid}


class TestEngineAgreement:
    """The builder and the interpreter agree on the paper's modules."""

    @pytest.mark.parametrize("name", ["assemble", "checkcrc", "prochdr",
                                      "toplevel"])
    def test_paper_modules(self, name):
        from repro.analysis import compare_on_trace
        from repro.designs import PROTOCOL_STACK_ECL
        program, types = parse_text(PROTOCOL_STACK_ECL)
        kernel = translate_module(program, types, name)
        efsm = build_efsm(kernel)
        trace = _stack_trace(name)
        assert compare_on_trace(kernel, efsm, trace) is None


def _stack_trace(name):
    packet = bytes(range(64))
    if name == "assemble":
        return [{}] + [{"in_byte": b} for b in packet] + [{}] * 4
    if name == "checkcrc":
        return [{}, {"inpkt": packet}, {}, {}, {"reset": None}, {}]
    if name == "prochdr":
        return ([{}, {"inpkt": packet}, {}, {"crc_ok": 1}]
                + [{}] * 8 + [{"reset": None}, {}])
    return [{}] + [{"in_byte": b} for b in packet] + [{}] * 12
