"""Unit tests for the staged pipeline: stages, registry, cache, batch."""

import importlib.util
import threading

import pytest

from repro import designs
from repro.codegen.c_backend import generate_c
from repro.ecl.glue import generate_glue
from repro.efsm.dot import to_dot
from repro.errors import CompileError, PreprocessorError
from repro.pipeline import (
    Artifact,
    ArtifactCache,
    ArtifactKey,
    Backend,
    BackendRegistry,
    CompileOptions,
    DEFAULT_REGISTRY,
    Pipeline,
    digest_options,
    digest_text,
    stage_named,
)

ECHO = """
module echo (input pure ping, output pure pong)
{
    while (1) { await (ping); emit (pong); }
}
"""

SCALE = """
module scale (input int x, output int y)
{
    while (1) { await (x); emit_v (y, x * 2); }
}
"""

TWO_MODULES = ECHO + SCALE

AMP = """
module amp (input int x, output int y)
{
    while (1) { await (x); emit_v (y, x * %s); }
}
"""


class TestArtifacts:
    def test_digest_text_stable(self):
        assert digest_text("abc") == digest_text("abc")
        assert digest_text("abc") != digest_text("abd")

    def test_digest_options_sees_fields(self):
        base = digest_options(CompileOptions())
        assert base == digest_options(CompileOptions())
        assert base != digest_options(CompileOptions(optimize=False))

    def test_key_identity(self):
        key = ArtifactKey("s", "o", "translate", "m")
        assert key == ArtifactKey("s", "o", "translate", "m")
        assert key.cache_id != ArtifactKey("s", "o", "efsm", "m").cache_id

    def test_stage_named(self):
        assert stage_named("translate").kind == "kernel"
        assert stage_named("emit:c").kind == "files"
        with pytest.raises(CompileError):
            stage_named("launder")


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = DEFAULT_REGISTRY.names()
        for expected in ("c", "py", "vhdl", "verilog", "esterel", "dot"):
            assert expected in names

    def test_unknown_backend_is_compile_error(self):
        with pytest.raises(CompileError):
            DEFAULT_REGISTRY.get("gcc")

    def test_custom_registration(self):
        registry = BackendRegistry()
        @registry.backend("upper", requires=("source",))
        def emit_upper(build):
            return {build.name + ".txt": build.source.upper()}
        assert "upper" in registry
        pipe = Pipeline(registry=registry)
        files = pipe.compile_text(ECHO).module("echo").emit("upper")
        assert "MODULE ECHO" in files["echo.txt"]

    def test_bad_requires_rejected(self):
        registry = BackendRegistry()
        with pytest.raises(CompileError):
            registry.register(Backend("x", lambda b: {},
                                      requires=("efsm", "llvm-ir")))

    def test_hardware_flag(self):
        assert DEFAULT_REGISTRY.get("vhdl").hardware
        assert not DEFAULT_REGISTRY.get("c").hardware

    def test_custom_registry_inherits_its_entry_points(self):
        registry = BackendRegistry(
            entry_points=("repro.codegen.c_backend",
                          "repro.codegen.dot_backend"))
        assert registry.names() == ["c", "dot"]
        with pytest.raises(CompileError):
            registry.get("vhdl")   # not among its entry points


class TestCache:
    def test_memory_roundtrip(self):
        cache = ArtifactCache.memory()
        key = ArtifactKey("s", "o", "translate", "m")
        assert cache.get(key) is None
        cache.put(key, {"k": 1}, kind="kernel")
        hit = cache.get(key)
        assert isinstance(hit, Artifact)
        assert hit.payload == {"k": 1} and hit.from_cache
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_persistent_survives_process_state(self, tmp_path):
        root = str(tmp_path / "cache")
        key = ArtifactKey("s", "o", "efsm", "m")
        ArtifactCache.persistent(root).put(key, [1, 2, 3])
        fresh = ArtifactCache.persistent(root)
        hit = fresh.get(key)
        assert hit is not None and hit.payload == [1, 2, 3]
        assert fresh.stats.disk_hits == 1

    def test_unpicklable_payload_degrades_gracefully(self, tmp_path):
        cache = ArtifactCache.persistent(str(tmp_path / "cache"))
        key = ArtifactKey("s", "o", "check", "m")
        cache.put(key, threading.Lock())   # not picklable
        assert cache.stats.store_errors == 1
        assert cache.get(key) is not None  # memory layer still serves it

    def test_clear(self, tmp_path):
        cache = ArtifactCache.persistent(str(tmp_path / "cache"))
        key = ArtifactKey("s", "o", "split", "m")
        cache.put(key, "payload")
        cache.clear()
        assert len(cache) == 0
        assert ArtifactCache.persistent(cache.root).get(key) is None


class TestModuleHandle:
    def test_stage_products(self):
        handle = Pipeline().compile_text(ECHO).module("echo")
        assert handle.kernel().name == "echo"
        assert handle.efsm().state_count >= 1
        assert handle.split_report().module_name == "echo"
        assert handle.check() == []

    def test_efsm_identity_and_optimize_variants(self):
        handle = Pipeline().compile_text(ECHO).module("echo")
        assert handle.efsm() is handle.efsm()
        assert handle.efsm(optimized=False) is handle.raw_efsm()

    def test_emit_matches_generators(self):
        design = Pipeline().compile_text(ECHO)
        module = design.module("echo")
        files = module.emit("c")
        bundle = generate_c(module.efsm(), design.types)
        assert files["echo.c"] == bundle.source
        assert files["echo.h"] == bundle.header
        assert module.emit("dot")["echo.dot"] == to_dot(module.efsm())
        glue = generate_glue(module.kernel(), design.types)
        assert module.emit("esterel")["echo.strl"] == glue.esterel_text

    def test_unknown_module_message(self):
        design = Pipeline().compile_text(ECHO)
        with pytest.raises(CompileError, match="no module named 'nope'"):
            design.module("nope").kernel()

    def test_reactor_engines(self):
        handle = Pipeline().compile_text(ECHO).module("echo")
        for engine in ("efsm", "interp"):
            out = handle.reactor(engine=engine).react(inputs=["ping"])
            out = handle.reactor(engine=engine).react(inputs=["ping"])
            assert out.emitted is not None
        with pytest.raises(CompileError):
            handle.reactor(engine="jit")

    def test_py_backend_emits_importable_module(self, tmp_path):
        files = Pipeline().compile_text(ECHO).module("echo").emit("py")
        path = tmp_path / "echo.py"
        path.write_text(files["echo.py"])
        spec = importlib.util.spec_from_file_location("echo_gen", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        reactor = module.reactor()
        reactor.react(inputs=["ping"])
        out = reactor.react(inputs=["ping"])
        assert "pong" in out.emitted


class TestCompileDesign:
    def test_batched_compile_of_paper_designs(self):
        pipe = Pipeline()
        for text, expected in (
                (designs.PROTOCOL_STACK_ECL,
                 {"assemble", "checkcrc", "prochdr", "toplevel"}),
                (designs.AUDIO_BUFFER_ECL,
                 {"sampler", "fifo_ctrl", "drain_ctrl", "audio_buffer"})):
            report = pipe.compile_design(text, emit=("c", "dot"))
            assert report.ok
            assert set(report.module_names) == expected
            for build in report.modules:
                assert build.emitted["c"]
                assert any(name.endswith(".dot") for name
                           in build.files)

    def test_hardware_backend_skips_data_modules(self):
        report = Pipeline().compile_design(
            designs.PROTOCOL_STACK_ECL, emit=("vhdl",))
        toplevel = report.module("toplevel")
        assert toplevel.ok and "vhdl" in toplevel.skipped

    def test_hardware_backend_emits_pure_module(self):
        report = Pipeline().compile_design(ECHO, emit=("vhdl", "verilog"))
        build = report.module("echo")
        assert build.emitted["vhdl"] == ("echo.vhd",)
        assert build.emitted["verilog"] == ("echo.v",)

    def test_module_failure_does_not_abort_batch(self):
        bad = ECHO + """
module broken (input pure go, output pure done)
{
    while (1) { await (go); emit (missing); }
}
"""
        report = Pipeline().compile_design(bad, emit=("c",))
        assert not report.ok
        assert report.module("echo").ok
        broken = report.module("broken")
        assert not broken.ok and "problem" in broken.error

    def test_write_files(self, tmp_path):
        report = Pipeline().compile_design(ECHO, emit=("c",))
        written = report.write_files(str(tmp_path))
        assert sorted(p.split("/")[-1] for p in written) == \
            ["echo.c", "echo.h"]
        assert (tmp_path / "echo.c").read_text() == \
            report.files()["echo.c"]

    def test_summary_mentions_modules(self):
        report = Pipeline().compile_design(TWO_MODULES, emit=("c",))
        text = report.summary()
        assert "echo" in text and "scale" in text

    def test_module_subset(self):
        report = Pipeline().compile_design(TWO_MODULES, emit=("c",),
                                           modules=["scale"])
        assert report.module_names == ["scale"]

    def test_cached_diagnostics_name_the_file_being_built(self):
        """The artifact key leaves the file name out, so a second unit
        with the same text reuses the first one's diagnostics; each
        still reports its own file."""
        text = ("module m (input pure go, input pure unused)"
                " { await (go); }\n")
        pipeline = Pipeline()
        for filename in ("a.ecl", "b.ecl"):
            report = pipeline.compile_design(text, filename=filename,
                                             emit=())
            assert report.module("m").warnings == [
                "%s:1:26: warning: signal 'unused' is never used"
                % filename]
        strict = Pipeline(CompileOptions(strict=True))
        for filename in ("a.ecl", "b.ecl"):
            handle = strict.compile_text(text, filename).module("m")
            with pytest.raises(CompileError,
                               match=r"\n  %s:1:26: warning" % filename):
                handle.check()


class TestWarmCompile:
    def test_warm_recompile_is_all_cache_hits(self, tmp_path):
        root = str(tmp_path / "cache")
        cold = Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(TWO_MODULES, emit=("c", "dot"))
        assert cold.ok and cold.cache_hits == 0
        warm = Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(TWO_MODULES, emit=("c", "dot"))
        assert warm.ok
        for build in warm.modules:
            assert all(t.cache_hit for t in build.timings)
        assert warm.files() == cold.files()

    def test_warm_build_never_parses(self, tmp_path, monkeypatch):
        root = str(tmp_path / "cache")
        Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(ECHO, emit=("c",))

        def boom(*args, **kwargs):
            raise AssertionError("warm build hit the parser")
        import repro.pipeline.pipeline as pipeline_mod
        monkeypatch.setattr(pipeline_mod, "run_parse", boom)
        warm = Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(ECHO, emit=("c",))
        assert warm.ok and warm.module("echo").cache_hits > 0

    def test_option_change_invalidates(self, tmp_path):
        root = str(tmp_path / "cache")
        Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(ECHO, emit=("c",))
        other = Pipeline(CompileOptions(optimize=False),
                         cache=ArtifactCache.persistent(root)) \
            .compile_design(ECHO, emit=("c",))
        assert other.ok and other.cache_hits == 0

    def test_source_change_invalidates(self, tmp_path):
        root = str(tmp_path / "cache")
        Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(ECHO, emit=("c",))
        changed = Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(ECHO.replace("pong", "pung"), emit=("c",))
        assert changed.ok and changed.cache_hits == 0

    def test_included_file_change_invalidates(self, tmp_path):
        header = tmp_path / "gain.h"
        header.write_text("#define GAIN 2\n")
        source = '#include "gain.h"\n' + """
module amp (input int x, output int y)
{
    while (1) { await (x); emit_v (y, x * GAIN); }
}
"""
        root = str(tmp_path / "cache")
        paths = (str(tmp_path),)
        cold = Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(source, emit=("c",), include_paths=paths)
        assert cold.ok and "* 2" in cold.files()["amp.c"]
        header.write_text("#define GAIN 99\n")
        changed = Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(source, emit=("c",), include_paths=paths)
        assert changed.cache_hits == 0
        assert "* 99" in changed.files()["amp.c"]

    def test_predefined_macros_part_of_digest(self, tmp_path):
        source = """
module fixed (input pure go, output int level)
{
    while (1) { await (go); emit_v (level, LEVEL); }
}
"""
        root = str(tmp_path / "cache")
        # Warm runs touch only check + emit:c, both cache-served.
        for level, expect_hits in (("1", 0), ("2", 0), ("1", 2)):
            report = Pipeline(cache=ArtifactCache.persistent(root)) \
                .compile_design(source, emit=("c",),
                                predefined={"LEVEL": level})
            assert report.ok
            assert report.cache_hits == expect_hits

    def test_unresolvable_include_fails_at_first_use_and_stores_nothing(
            self, tmp_path):
        root = tmp_path / "cache"
        source = '#include "missing.h"\n' + ECHO
        design = Pipeline(cache=ArtifactCache.persistent(str(root))) \
            .compile_text(source)   # never raises
        for _ in range(2):   # the kept error, not a second preprocess
            with pytest.raises(PreprocessorError, match="missing.h"):
                design.module_names
        assert design.source_digest is None
        assert list(root.rglob("*.pkl")) == []

    def test_every_include_spelling_reaches_the_key(self, tmp_path):
        # Spellings the preprocessor accepts all put the header's text
        # into the preprocessed unit: no space after 'include',
        # '#  include', trailing comments, backslash-continued lines.
        header = tmp_path / "gain.h"
        spellings = [
            '#include"gain.h"\n',
            '#  include  "gain.h"\n',
            '#include "gain.h" /* tuning */\n',
            '#include "gain.h" // tuning\n',
            '#include \\\n"gain.h"\n',
        ]
        paths = (str(tmp_path),)
        for index, spelling in enumerate(spellings):
            root = str(tmp_path / ("cache%d" % index))
            source = spelling + AMP % "GAIN"
            header.write_text("#define GAIN 2\n")
            cold = Pipeline(cache=ArtifactCache.persistent(root)) \
                .compile_design(source, emit=("c",), include_paths=paths)
            assert cold.ok and "* 2" in cold.files()["amp.c"], spelling
            header.write_text("#define GAIN 99\n")
            edited = Pipeline(cache=ArtifactCache.persistent(root)) \
                .compile_design(source, emit=("c",), include_paths=paths)
            assert edited.cache_hits == 0, \
                "edit invisible to the key: %r" % spelling
            assert "* 99" in edited.files()["amp.c"], spelling

    def test_guarded_missing_include_is_cached(self, tmp_path):
        root = str(tmp_path / "cache")
        source = "#ifdef NEVER\n#include \"missing.h\"\n#endif\n" + ECHO
        cold = Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(source, emit=("c",))
        assert cold.ok   # the guarded include never fires
        assert list((tmp_path / "cache").rglob("*.pkl"))
        warm = Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(source, emit=("c",))
        assert warm.ok and warm.files() == cold.files()
        for build in warm.modules:
            assert build.timings and all(t.cache_hit for t in build.timings)

    @pytest.mark.parametrize("original, edited", [
        ("#define GAIN 2\n" + AMP % "GAIN",
         "#define GAIN 2 /* loop gain */\n" + AMP % "GAIN"),
        ("#define GAIN 2\n" + AMP % "GAIN",
         "#define LOOP_GAIN 2\n" + AMP % "LOOP_GAIN"),
        ("#pragma tune fast\n" + AMP % "2",
         "#pragma tune small\n" + AMP % "2"),
    ], ids=["define-comment", "renamed-macro", "pragma"])
    def test_edit_the_parser_cannot_see_is_cache_served(self, tmp_path,
                                                        original, edited):
        root = str(tmp_path / "cache")
        cold = Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(original, emit=("c", "dot"))
        assert cold.ok and cold.cache_hits == 0
        warm = Pipeline(cache=ArtifactCache.persistent(root)) \
            .compile_design(edited, emit=("c", "dot"))
        assert warm.ok and warm.files() == cold.files()
        for build in warm.modules:
            assert build.timings and all(t.cache_hit for t in build.timings)

    def test_replaced_backend_invalidates_emit_artifacts(self, tmp_path):
        root = str(tmp_path / "cache")
        registry = BackendRegistry(
            entry_points=("repro.codegen.dot_backend",))
        warm_files = Pipeline(cache=ArtifactCache.persistent(root),
                              registry=registry) \
            .compile_design(ECHO, emit=("dot",)).files()
        assert warm_files["echo.dot"].startswith("digraph")

        replaced = BackendRegistry()
        @replaced.backend("dot", requires=("efsm",))
        def emit_custom(build):
            return {build.name + ".dot": "CUSTOM OUTPUT"}
        fresh = Pipeline(cache=ArtifactCache.persistent(root),
                         registry=replaced) \
            .compile_design(ECHO, emit=("dot",))
        assert fresh.files()["echo.dot"] == "CUSTOM OUTPUT"

    def test_option_mutation_after_construction_rekeys(self, tmp_path):
        pipe = Pipeline(cache=ArtifactCache.persistent(
            str(tmp_path / "cache")))
        first = pipe.compile_design(ECHO, emit=("c",))
        assert first.ok
        pipe.options.optimize = False
        second = pipe.compile_design(ECHO, emit=("c",))
        assert second.ok and second.cache_hits == 0

    def test_options_digest_follows_reassignment_and_field_writes(self):
        pipe = Pipeline()
        first = pipe.options_digest
        assert pipe.options_digest == first
        pipe.options.optimize = False
        second = pipe.options_digest
        assert second != first
        pipe.options = CompileOptions()
        assert pipe.options_digest == first

    def test_memory_layer_is_lru_bounded(self):
        cache = ArtifactCache.memory(max_memory_entries=2)
        keys = [ArtifactKey("s", "o", "check", "m%d" % i)
                for i in range(3)]
        for key in keys:
            cache.put(key, key.module)
        assert len(cache) == 2
        assert cache.get(keys[0]) is None     # evicted, LRU
        assert cache.get(keys[2]).payload == "m2"


class TestPipelineReuse:
    def test_recompile_shares_pipeline_cache(self):
        pipeline = Pipeline()
        first = pipeline.compile_text(ECHO).module("echo").efsm()
        second = pipeline.compile_text(ECHO).module("echo").efsm()
        assert first is second   # same source+options → same artifact

    def test_strict_mode_check_raises(self):
        unused = """
module quiet (input pure go, input pure unused, output pure done)
{
    while (1) { await (go); emit (done); }
}
"""
        design = Pipeline(CompileOptions(strict=True)) \
            .compile_text(unused)
        with pytest.raises(CompileError):
            design.module("quiet").check()
