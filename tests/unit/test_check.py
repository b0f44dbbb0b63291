"""Unit tests for the static semantic checker."""

import pytest

from repro.ecl.check import check_module, errors_of, warnings_of
from repro.errors import CompileError
from repro.lang import parse_text
from repro.pipeline import CompileOptions, Pipeline


def diagnostics_for(body, signals="input pure s, input int v, "
                    "output pure t, output int w", extra=""):
    src = "%smodule m (%s) { %s }" % (extra, signals, body)
    program, types = parse_text(src)
    return check_module(program, types, "m")


def error_messages(body, **kw):
    return [d.message for d in errors_of(diagnostics_for(body, **kw))]


class TestNameResolution:
    def test_undeclared_identifier(self):
        assert any("undeclared identifier 'x'" in m
                   for m in error_messages("emit_v(w, x);"))

    def test_declared_variable_ok(self):
        assert not error_messages("int x; x = 1; emit_v(w, x);"
                                  " await(s); emit(t);")

    def test_scoped_variable_not_visible_outside(self):
        messages = error_messages(
            "{ int x; x = 1; } emit_v(w, x); await(s); emit(t);")
        assert any("undeclared identifier 'x'" in m for m in messages)

    def test_signal_value_read_ok(self):
        assert not error_messages("emit_v(w, v + 1); await(s); emit(t);")

    def test_pure_signal_value_read_rejected(self):
        messages = error_messages("emit_v(w, s);")
        assert any("pure signal 's' carries no value" in m
                   for m in messages)

    def test_assignment_to_signal_rejected(self):
        messages = error_messages("v = 3;")
        assert any("cannot assign to signal 'v'" in m for m in messages)

    def test_assignment_to_undeclared(self):
        messages = error_messages("y = 3;")
        assert any("assignment to undeclared identifier 'y'" in m
                   for m in messages)


class TestCallChecks:
    def test_unknown_function(self):
        messages = error_messages("emit_v(w, f(1));")
        assert any("unknown function 'f'" in m for m in messages)

    def test_arity_mismatch(self):
        messages = error_messages(
            "emit_v(w, f(1, 2));",
            extra="int f(int a) { return a; }\n")
        assert any("expects 1 arguments, got 2" in m for m in messages)

    def test_correct_call_ok(self):
        assert not error_messages(
            "await(s); emit_v(w, f(v)); emit(t);",
            extra="int f(int a) { return a * 2; }\n")

    def test_module_in_expression_rejected(self):
        messages = error_messages(
            "emit_v(w, sub(s, t));",
            extra="module sub (input pure a, output pure b)"
                  " { halt(); }\n")
        assert any("instantiated inside an expression" in m
                   for m in messages)


class TestControlFlowChecks:
    def test_break_outside_loop(self):
        assert any("break outside" in m for m in error_messages("break;"))

    def test_continue_outside_loop(self):
        assert any("continue outside" in m
                   for m in error_messages("continue;"))

    def test_break_inside_loop_ok(self):
        assert not error_messages(
            "while (1) { await(s); break; } emit(t); emit_v(w, v);")

    def test_break_across_par_rejected(self):
        messages = error_messages(
            "while (1) { await(s); par { break; emit(t); } "
            "emit_v(w, v); }")
        assert any("break outside" in m for m in messages)

    def test_return_value_rejected(self):
        assert any("cannot return a value" in m
                   for m in error_messages("return 1;"))


class TestSignalChecks:
    def test_emit_undeclared(self):
        assert any("undeclared signal 'zz'" in m
                   for m in error_messages("emit(zz);"))

    def test_emit_input(self):
        assert any("cannot emit input signal 's'" in m
                   for m in error_messages("emit(s);"))

    def test_emit_v_on_pure(self):
        assert any("emit_v on pure signal 't'" in m
                   for m in error_messages("emit_v(t, 1);"))

    def test_bare_emit_on_valued(self):
        assert any("needs emit_v" in m for m in error_messages("emit(w);"))

    def test_await_undeclared(self):
        assert any("undeclared signal 'q'" in m
                   for m in error_messages("await(q);"))

    def test_local_signal_shadowing_rejected(self):
        assert any("shadows" in m
                   for m in error_messages("signal pure s;"))


class TestWarnings:
    def test_unused_signal_warning(self):
        warnings = warnings_of(diagnostics_for(
            "await(s); emit(t); emit_v(w, 1);"))
        assert any("'v' is never used" in d.message for d in warnings)

    def test_unread_variable_warning(self):
        warnings = warnings_of(diagnostics_for(
            "int x; x = 1; await(s); emit(t); emit_v(w, v);"))
        assert any("'x' is never read" in d.message for d in warnings)

    def test_clean_module_no_warnings(self):
        diagnostics = diagnostics_for(
            "int x; x = v; await(s); emit(t); emit_v(w, x);")
        assert not warnings_of(diagnostics)


class TestCompilerIntegration:
    def test_errors_block_compilation(self):
        design = Pipeline().compile_text(
            "module m (input pure s, output pure t) { emit(zz); }")
        with pytest.raises(CompileError) as failure:
            design.module("m").check()
        assert "zz" in str(failure.value)

    def test_warnings_exposed(self):
        design = Pipeline().compile_text(
            "module m (input pure s, input pure unused, output pure t)"
            " { while (1) { await(s); emit(t); } }")
        module = design.module("m")
        assert any("unused" in w for w in module.warnings())

    def test_strict_mode_promotes_warnings(self):
        design = Pipeline(CompileOptions(strict=True)).compile_text(
            "module m (input pure s, input pure unused, output pure t)"
            " { while (1) { await(s); emit(t); } }")
        with pytest.raises(CompileError):
            design.module("m").check()

    def test_check_can_be_disabled(self):
        design = Pipeline(CompileOptions(check=False)).compile_text(
            "module m (input pure s, input pure unused, output pure t)"
            " { while (1) { await(s); emit(t); } }")
        assert design.module("m").diagnostics() == []

    def test_paper_designs_are_clean(self):
        from repro.designs import AUDIO_BUFFER_ECL, PROTOCOL_STACK_ECL
        for source in (PROTOCOL_STACK_ECL, AUDIO_BUFFER_ECL):
            design = Pipeline().compile_text(source)
            for name in design.module_names:
                diagnostics = design.module(name).check()  # raises on errors
                assert not errors_of(diagnostics)
