"""Error-path tests: every phase rejects bad input with a useful,
located message (diagnostics are part of the product)."""

import pytest

from repro.errors import (
    CausalityError,
    CompileError,
    EclError,
    LexError,
    ParseError,
    PreprocessorError,
    ScopeError,
)
from repro.lang import parse_text
from repro.pipeline import CompileOptions, Pipeline


class TestErrorHierarchy:
    def test_all_errors_are_ecl_errors(self):
        for exc_type in (LexError, ParseError, PreprocessorError,
                         ScopeError, CausalityError, CompileError):
            assert issubclass(exc_type, EclError)

    def test_span_rendered_in_message(self):
        with pytest.raises(ParseError) as failure:
            parse_text("module m (input pure s) { emit(; }", "f.ecl")
        assert "f.ecl:" in str(failure.value)

    def test_one_catch_for_everything(self):
        try:
            Pipeline().compile_text("module m (").module("m").check()
        except EclError:
            pass
        else:
            raise AssertionError("expected an EclError subclass")


class TestParserMessages:
    def cases(self):
        return [
            ("module m () { await; }", "("),
            ("module m (pure s) {}", "input"),
            ("module m (input pure s) { do {} }", "while"),
            ("module m (input pure s) { present s {} }", "("),
        ]

    def test_messages_mention_expectation(self):
        for source, hint in self.cases():
            with pytest.raises(ParseError) as failure:
                parse_text(source)
            assert hint in str(failure.value), source


class TestCausalityMessages:
    def test_causality_error_names_module_state(self):
        source = ("module m (input pure s, output pure t) {"
                  " signal pure p;"
                  " while (1) { await(s); present (~p) emit(p); } }")
        design = Pipeline().compile_text(source)
        with pytest.raises(EclError) as failure:
            design.module("m").efsm()
        assert "m" in str(failure.value)

    def test_instantaneous_loop_suggests_fix(self):
        source = ("module m (input pure s, output pure t) {"
                  " while (1) { emit(t); } }")
        design = Pipeline().compile_text(source)
        with pytest.raises(EclError) as failure:
            design.module("m").kernel()
        message = str(failure.value)
        assert "await()" in message or "data" in message


class TestCompileErrorAggregation:
    def test_multiple_problems_listed(self):
        source = ("module m (input pure s, output pure t) {"
                  " emit(zz); emit(yy); }")
        design = Pipeline().compile_text(source)
        with pytest.raises(CompileError) as failure:
            design.module("m").check()
        message = str(failure.value)
        assert "zz" in message and "yy" in message
        assert "2 problem(s)" in message


class TestRuntimeGuards:
    def test_efsm_state_budget_message(self):
        source = ("module m (input pure s, output pure t) { %s }"
                  % " ".join("await(s);" for _ in range(8)))
        design = Pipeline(CompileOptions(max_states=3)) \
            .compile_text(source)
        with pytest.raises(CompileError) as failure:
            design.module("m").efsm()
        assert "asynchronous partitioning" in str(failure.value)

    def test_preprocessor_error_has_location(self):
        with pytest.raises(PreprocessorError):
            parse_text('#include "missing.h"\nmodule m (input pure s) {}')


class TestDataRuntimeErrors:
    def run_body(self, body):
        source = ("module m (input pure s, output int w) {"
                  " int a[4]; int x;"
                  " while (1) { await(s); %s emit_v(w, x); } }" % body)
        reactor = Pipeline().compile_text(source).module("m").reactor()
        reactor.react()
        return reactor.react(inputs={"s"})

    def test_out_of_bounds_index(self):
        from repro.errors import EvalError
        with pytest.raises(EvalError) as failure:
            self.run_body("x = a[7];")
        assert "out of bounds" in str(failure.value)

    def test_division_by_zero(self):
        from repro.errors import EvalError
        with pytest.raises(EvalError) as failure:
            self.run_body("x = 1 / (x - x);")
        assert "zero" in str(failure.value)
