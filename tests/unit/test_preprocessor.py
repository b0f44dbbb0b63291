"""Unit tests for the small C preprocessor."""

import pytest

from repro.errors import PreprocessorError
from repro.lang import preprocess


class TestObjectMacros:
    def test_simple_define(self):
        out = preprocess("#define N 5\nint x = N;")
        assert "int x = 5;" in out

    def test_paper_pktsize_arithmetic(self):
        src = (
            "#define HDRSIZE 6\n"
            "#define DATASIZE 56\n"
            "#define CRCSIZE 2\n"
            "#define PKTSIZE HDRSIZE+DATASIZE+CRCSIZE\n"
            "x = PKTSIZE;"
        )
        out = preprocess(src)
        # The expansion is parenthesized so precedence survives.
        assert "x=(6+56+2);" in out.replace(" ", "")

    def test_macro_chain(self):
        out = preprocess("#define A 1\n#define B A\n#define C B\ny = C;")
        assert "1" in out

    def test_undef(self):
        out = preprocess("#define N 5\n#undef N\nx = N;")
        assert "x = N;" in out

    def test_no_expansion_in_strings(self):
        out = preprocess('#define N 5\ns = "N";')
        assert '"N"' in out

    def test_line_count_preserved(self):
        src = "#define N 5\n\nx = N;"
        out = preprocess(src)
        assert len(out.split("\n")) == len(src.split("\n"))


class TestFunctionMacros:
    def test_basic(self):
        out = preprocess("#define SQ(x) x*x\ny = SQ(3);")
        assert "3*3" in out.replace(" ", "")

    def test_two_params(self):
        out = preprocess("#define ADD(a, b) a+b\ny = ADD(1, 2);")
        assert "1+2" in out.replace(" ", "")

    def test_nested_call_argument(self):
        out = preprocess("#define ID(x) x\ny = ID(f(1, 2));")
        assert "f(1, 2)" in out

    def test_wrong_arity_rejected(self):
        with pytest.raises(PreprocessorError):
            preprocess("#define ADD(a, b) a+b\ny = ADD(1);")

    def test_name_without_args_not_expanded(self):
        out = preprocess("#define F(x) x\ny = F;")
        assert "y = F;" in out


class TestConditionals:
    def test_ifdef_taken(self):
        out = preprocess("#define A 1\n#ifdef A\nx = 1;\n#endif")
        assert "x = 1;" in out

    def test_ifdef_skipped(self):
        out = preprocess("#ifdef A\nx = 1;\n#endif")
        assert "x = 1;" not in out

    def test_ifndef_else(self):
        out = preprocess("#ifndef A\nx = 1;\n#else\nx = 2;\n#endif")
        assert "x = 1;" in out
        assert "x = 2;" not in out

    def test_unterminated_conditional(self):
        with pytest.raises(PreprocessorError):
            preprocess("#ifdef A\nx;")

    def test_endif_without_if(self):
        with pytest.raises(PreprocessorError):
            preprocess("#endif")

    def test_defines_inside_inactive_block_ignored(self):
        out = preprocess("#ifdef A\n#define B 1\n#endif\nx = B;")
        assert "x = B;" in out


class TestIncludes:
    def test_include_file(self, tmp_path):
        header = tmp_path / "defs.h"
        header.write_text("#define N 7\n")
        src = '#include "defs.h"\nx = N;'
        out = preprocess(src, include_paths=[str(tmp_path)])
        assert "x = (7);" in out or "x = 7;" in out

    def test_missing_include(self):
        with pytest.raises(PreprocessorError):
            preprocess('#include "nope.h"')

    def test_malformed_include(self):
        with pytest.raises(PreprocessorError):
            preprocess("#include defs.h")

    def test_self_including_header_is_a_preprocessor_error(self, tmp_path):
        (tmp_path / "self.h").write_text('#include "self.h"\n')
        with pytest.raises(PreprocessorError, match="nested deeper"):
            preprocess('#include "self.h"', include_paths=[str(tmp_path)])


class TestPredefined:
    def test_predefined_macros(self):
        out = preprocess("x = N;", predefined={"N": 3})
        assert "x = 3;" in out

    def test_recursive_macro_detected(self):
        with pytest.raises(PreprocessorError):
            preprocess("#define A B\n#define B A(\nx = A;")
