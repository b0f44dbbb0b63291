"""Unit tests for the packaged paper designs."""


from repro.designs import (
    ASSEMBLE_ECL,
    AUDIO_BUFFER_ECL,
    CHECKCRC_ECL,
    CHECKCRC_FIGURE2_ECL,
    HEADER_ECL,
    PROCHDR_ECL,
    PROTOCOL_STACK_ECL,
    PROTOCOL_STACK_FIGURES_ECL,
    TOPLEVEL_ECL,
)
from repro.lang import parse_text
from repro.pipeline import Pipeline


class TestSourceText:
    def test_header_defines_packet_layout(self):
        _program, types = parse_text(HEADER_ECL)
        packet = types.lookup("packet_t")
        assert packet.size == 64
        cooked = packet.field_named("cooked").type
        assert cooked.field_named("crc").offset == 62

    def test_each_listing_parses_alone(self):
        for listing in (ASSEMBLE_ECL, CHECKCRC_ECL, CHECKCRC_FIGURE2_ECL,
                        PROCHDR_ECL, TOPLEVEL_ECL):
            program, _ = parse_text(HEADER_ECL + listing)
            assert program.modules()

    def test_figure2_verbatim_keeps_int_cast(self):
        assert "(int) inpkt.cooked.crc" in CHECKCRC_FIGURE2_ECL
        assert "await ()" not in CHECKCRC_FIGURE2_ECL

    def test_executable_variant_is_well_typed(self):
        assert "(unsigned short) inpkt.cooked.crc" in CHECKCRC_ECL
        assert "await ()" in CHECKCRC_ECL

    def test_full_stack_contains_all_modules(self):
        program, _ = parse_text(PROTOCOL_STACK_ECL)
        assert [m.name for m in program.modules()] == [
            "assemble", "checkcrc", "prochdr", "toplevel"]

    def test_figures_bundle_matches_paper(self):
        program, _ = parse_text(PROTOCOL_STACK_FIGURES_ECL)
        assert [m.name for m in program.modules()] == [
            "assemble", "checkcrc", "prochdr", "toplevel"]


class TestDesignSizes:
    def test_stack_module_state_counts(self):
        design = Pipeline().compile_text(PROTOCOL_STACK_ECL)
        counts = {name: design.module(name).efsm().state_count
                  for name in design.module_names}
        assert counts["assemble"] == 2
        assert counts["checkcrc"] == 3
        assert counts["prochdr"] >= 4
        # The synchronous product is bigger than any component but far
        # below the naive product bound.
        assert counts["toplevel"] > max(counts["assemble"],
                                        counts["checkcrc"])
        assert counts["toplevel"] < (counts["assemble"]
                                     * counts["checkcrc"]
                                     * counts["prochdr"] * 4)

    def test_audio_buffer_product_explosion(self):
        from repro.cost import CostModel
        design = Pipeline().compile_text(AUDIO_BUFFER_ECL)
        model = CostModel()
        parts = sum(
            model.efsm_code_bytes(design.module(name).efsm())
            for name in ("sampler", "fifo_ctrl", "drain_ctrl"))
        product = model.efsm_code_bytes(
            design.module("audio_buffer").efsm())
        # The Table 1 Buffer shape: product code ≳ 2x the sum of parts.
        assert product > 2 * parts

    def test_audio_buffer_data_is_small(self):
        # Paper: Buffer task data is tiny (80 bytes for one task).
        from repro.cost import CostModel
        design = Pipeline().compile_text(AUDIO_BUFFER_ECL)
        module = design.module("audio_buffer")
        assert CostModel().module_data_bytes(module.kernel()) < 128
