"""Unit tests for the C/VHDL/Verilog back-ends and the glue bundle."""

import pytest

from repro.errors import CodegenError
from repro.pipeline import Pipeline

SCALAR = """
module blink (input pure tick, output pure led)
{
    while (1) {
        await (tick);
        emit (led);
        await (tick);
    }
}
"""

VALUED = """
module scale (input int x, output int y)
{
    int gain;
    gain = 3;
    while (1) {
        await (x);
        emit_v (y, x * gain + 1);
    }
}
"""

WITH_DATA_LOOP = """
module summer (input int x, output int s)
{
    int i;
    int acc;
    while (1) {
        await (x);
        for (i = 0, acc = 0; i < 4; i++) { acc = acc + x; }
        emit_v (s, acc);
    }
}
"""

WITH_STRUCT = """
typedef struct { int a; int b; } pair_t;
module pick (input pair_t p, output int a)
{
    while (1) { await (p); emit_v (a, p.a); }
}
"""


def module_of(src, name):
    return Pipeline().compile_text(src).module(name)


def emitted(src, name, backend, suffix):
    """One file of ``backend``'s bundle for module ``name``."""
    return module_of(src, name).emit(backend)[name + suffix]


class TestCBackend:
    def test_header_has_context_struct(self):
        header = emitted(SCALAR, "blink", "c", ".h")
        assert "blink_ctx_t" in header
        assert "tick_present" in header
        assert "led_present" in header

    def test_source_has_react_and_reset(self):
        source = emitted(SCALAR, "blink", "c", ".c")
        assert "void blink_reset(" in source
        assert "void blink_react(" in source
        assert "switch (ctx->__state)" in source

    def test_variables_redirected_to_ctx(self):
        source = emitted(VALUED, "scale", "c", ".c")
        assert "ctx->gain" in source
        assert "ctx->x_value" in source
        assert "ctx->y_value" in source

    def test_data_loop_emitted_as_function(self):
        source = emitted(WITH_DATA_LOOP, "summer", "c", ".c")
        assert "static void ecl_summer_data_1" in source
        assert "ecl_summer_data_1(ctx);" in source

    def test_struct_typedef_reproduced(self):
        header = emitted(WITH_STRUCT, "pick", "c", ".h")
        assert "typedef struct" in header
        assert "pair_t" in header

    def test_every_state_has_case(self):
        module = module_of(SCALAR, "blink")
        source = module.emit("c")["blink.c"]
        for state in module.efsm().states:
            assert "case %d:" % state.index in source

    def test_reactions_exit_via_common_epilogue(self):
        source = emitted(SCALAR, "blink", "c", ".c")
        assert "ecl_done:" in source
        assert "goto ecl_done;" in source

    def test_shared_subtrees_emitted_once(self):
        # The paper's protocol-stack product machine shares reaction
        # code between states; the back-end must emit it behind labels.
        from repro.designs import PROTOCOL_STACK_ECL
        source = emitted(PROTOCOL_STACK_ECL, "toplevel", "c", ".c")
        assert "ecl_shared_0:" in source
        assert source.count("goto ecl_shared_0;") >= 2


    def test_aggregate_cast_wider_than_object_refused(self):
        # Figure 2 as printed casts the 2-byte crc field to int: C would
        # read past the object, so the back-end refuses.
        from repro.designs import PROTOCOL_STACK_FIGURES_ECL
        with pytest.raises(CodegenError, match="module checkcrc"):
            emitted(PROTOCOL_STACK_FIGURES_ECL, "checkcrc", "c", ".c")


class TestHardwareBackends:
    def test_verilog_for_scalar_design(self):
        text = emitted(SCALAR, "blink", "verilog", ".v")
        assert "module blink (" in text
        assert "input wire tick_present" in text
        assert "output reg led_present" in text
        assert "endmodule" in text

    def test_vhdl_for_scalar_design(self):
        text = emitted(SCALAR, "blink", "vhdl", ".vhd")
        assert "entity blink is" in text
        assert "architecture rtl of blink" in text

    def test_valued_signals_get_vectors(self):
        text = emitted(VALUED, "scale", "verilog", ".v")
        assert "[31:0] x_value" in text
        assert "[31:0] y_value" in text

    def test_data_loop_refused(self):
        # "hardware only when the data-dominated C part is empty".
        with pytest.raises(CodegenError) as err:
            emitted(WITH_DATA_LOOP, "summer", "verilog", ".v")
        assert "data" in str(err.value)

    def test_aggregate_signal_refused(self):
        with pytest.raises(CodegenError):
            emitted(WITH_STRUCT, "pick", "vhdl", ".vhd")


class TestGlueBundle:
    def test_esterel_text_structure(self):
        esterel = emitted(SCALAR, "blink", "esterel", ".strl")
        assert esterel.startswith("module blink:")
        assert "input tick;" in esterel
        assert "await [tick]" in esterel
        assert "emit led" in esterel
        assert esterel.rstrip().endswith("end module")

    def test_local_signals_declared_in_esterel(self):
        src = ("module m (input pure s, output pure t) {"
               " signal pure mid;"
               " while (1) { await(s); par { emit(mid);"
               " present (mid) emit(t); } } }")
        assert "signal mid in" in emitted(src, "m", "esterel", ".strl")

    def test_c_file_contains_data_functions(self):
        glue = module_of(WITH_DATA_LOOP, "summer").emit("esterel")
        assert "ecl_summer_data_1" in glue["summer_data.c"]
        assert "ecl_summer_data_1" in glue["summer_data.h"]

    def test_header_declares_valued_signals(self):
        header = emitted(VALUED, "scale", "esterel", "_data.h")
        assert "x_value" in header
        assert "y_value" in header

    def test_user_functions_preserved_verbatim_shape(self):
        src = ("int helper(int a) { return a * 2; }\n"
               "module m (input int x, output int y) {"
               " while (1) { await(x); emit_v(y, helper(x)); } }")
        assert "helper" in emitted(src, "m", "esterel", "_data.c")


class TestDotExport:
    def test_dot_shape(self):
        text = emitted(SCALAR, "blink", "dot", ".dot")
        assert text.startswith("digraph blink")
        assert "->" in text
        assert "led" in text
