"""ECL source text of the paper's designs.

``PROTOCOL_STACK_ECL`` is Figures 1-4 of the paper, assembled into one
translation unit.  Differences from the listings (README, "Semantics and
deviations"):

* the typographic ``˜`` of the PDF is ASCII ``~`` (the lexer also accepts
  the original glyph);
* ``prochdr``'s "some lengthy computation" (elided in Figure 3) is a
  multi-instant header/address comparison using the ``await()``
  delta-cycle construct described in ECL statement 2;
* ``checkcrc`` gains one ``await()`` before computing so that ``crc_ok``
  is emitted one instant after ``inpkt`` — under the paper's non-immediate
  ``await`` semantics, ``prochdr``'s ``await (crc_ok)`` (started in the
  same instant ``inpkt`` arrives) would otherwise always miss a
  simultaneous ``crc_ok``.  Figure 2 verbatim is kept in
  ``CHECKCRC_FIGURE2_ECL`` for the artifact tests.

``AUDIO_BUFFER_ECL`` reconstructs the "simple audio buffer controller from
a voice mail pager design" of Section 4's Table 1: a command decoder, a
FIFO buffer manager and a codec sequencer.  The paper gives no listing; the
reconstruction is sized so the synchronous product machine is markedly
larger than the sum of the three tasks, which is the trade-off the Buffer
rows of Table 1 demonstrate.
"""

HEADER_ECL = """\
#define HDRSIZE 6
#define DATASIZE 56
#define CRCSIZE 2
#define PKTSIZE HDRSIZE+DATASIZE+CRCSIZE
#define MYADDR 0x40

typedef unsigned char byte;

typedef struct {
    byte packet[PKTSIZE];
} packet_view_1_t;

typedef struct {
    byte header[HDRSIZE];
    byte data[DATASIZE];
    byte crc[CRCSIZE];
} packet_view_2_t;

typedef union {
    packet_view_1_t raw;
    packet_view_2_t cooked;
} packet_t;
"""

ASSEMBLE_ECL = """\
module assemble (input pure reset,
        input byte in_byte, output packet_t outpkt)
{
    int cnt;
    packet_t buffer;

    /* outermost reactive loop */
    while (1) {
        do {
            /* get PKTSIZE bytes */
            for (cnt = 0; cnt < PKTSIZE; cnt++) {
                await (in_byte);
                buffer.raw.packet[cnt] = in_byte;
            }
            /* assemble them and emit the output */
            emit_v (outpkt, buffer);
        } abort (reset);
    }
}
"""

#: Figure 2 exactly as printed (CRC emitted in the same instant as inpkt).
CHECKCRC_FIGURE2_ECL = """\
module checkcrc (input pure reset,
        input packet_t inpkt, output bool crc_ok)
{
    int i;
    unsigned int crc;

    while (1) {
        do {
            await (inpkt);
            for (i = 0, crc = 0; i < PKTSIZE; i++) {
                crc = (crc ^ inpkt.raw.packet[i]) << 1;
            }
            emit_v (crc_ok, crc == (int) inpkt.cooked.crc);
        } abort (reset);
    }
}
"""

#: Functional variant.  Two fixes over the Figure 2 listing: one
#: ``await()`` so crc_ok lands an instant after inpkt (see module
#: docstring), and a type-correct ``(unsigned short)`` cast — Figure 2's
#: ``(int)`` reads 4 bytes from the 2-byte ``crc`` field, i.e. past the
#: end of the union, which is undefined behaviour in C and reads
#: whatever object is allocated next under our byte-accurate model.
CHECKCRC_ECL = """\
module checkcrc (input pure reset,
        input packet_t inpkt, output bool crc_ok)
{
    int i;
    unsigned int crc;

    while (1) {
        do {
            await (inpkt);
            await ();   /* deliver crc_ok one instant later */
            for (i = 0, crc = 0; i < PKTSIZE; i++) {
                crc = (crc ^ inpkt.raw.packet[i]) << 1;
            }
            emit_v (crc_ok,
                    (crc & 0xffff) == (unsigned short) inpkt.cooked.crc);
        } abort (reset);
    }
}
"""

PROCHDR_ECL = """\
module prochdr (input pure reset, input bool crc_ok,
        input packet_t inpkt, output pure addr_match)
{
    signal pure kill_check;   /* local signal */
    bool match_ok;
    int j;

    while (1) {
        do {
            await (inpkt);
            par {
                do {
                    /* some lengthy computation, determining the
                       value of match_ok (multi-instant, so the
                       kill_check abort can take effect) */
                    match_ok = 1;
                    for (j = 0; j < HDRSIZE; j++) {
                        await ();
                        if (inpkt.cooked.header[j] != ((MYADDR + j) & 0xff)) {
                            match_ok = 0;
                        }
                    }
                } abort (kill_check);
                {
                    await (crc_ok);
                    if (~crc_ok) emit (kill_check);
                    /* else just wait for both to complete */
                }
            }
            /* now both branches have terminated */
            if (crc_ok && match_ok) {
                emit (addr_match);
            }
        } abort (reset);
    }
}
"""

TOPLEVEL_ECL = """\
module toplevel (input pure reset,
        input byte in_byte, output pure addr_match)
{
    signal packet_t packet;
    signal bool crc_ok;

    par {
        assemble (reset, in_byte, packet);
        checkcrc (reset, packet, crc_ok);
        prochdr (reset, crc_ok, packet, addr_match);
    }
}
"""

PROTOCOL_STACK_ECL = "\n".join(
    [HEADER_ECL, ASSEMBLE_ECL, CHECKCRC_ECL, PROCHDR_ECL, TOPLEVEL_ECL]
)

#: The figures exactly as printed (checkcrc without the delta instant),
#: used by the artifact tests that compile each listing.
PROTOCOL_STACK_FIGURES_ECL = "\n".join(
    [HEADER_ECL, ASSEMBLE_ECL, CHECKCRC_FIGURE2_ECL, PROCHDR_ECL,
     TOPLEVEL_ECL]
)

DOOR_CTRL_ECL = """\
/* Elevator door + motor interlock (the verification-workflow design:
   examples/verification_workflow.py, examples/coverage_campaign.py and
   the repro.verify campaign tests all drive it). */

module door_ctrl (input pure tick, input pure call_btn,
                  output pure door_open, output pure motor_on)
{
    while (1) {
        await (call_btn);
        /* close the door, then run the motor for two ticks */
        await (tick);
        emit (motor_on);
        await (tick);
        emit (motor_on);
        await (tick);
        /* arrived: open the door */
        emit (door_open);
        await (tick);
    }
}

/* Observer: the motor must never run while the door is open. */
module interlock (input pure door_open, input pure motor_on,
                  output pure error)
{
    while (1) {
        await (door_open & motor_on);
        emit (error);
    }
}
"""

#: The classic bug: the motor keeps running while the door opens.
DOOR_CTRL_BUGGY_ECL = DOOR_CTRL_ECL.replace(
    "/* arrived: open the door */\n        emit (door_open);",
    "/* arrived: open the door */\n        emit (door_open);"
    " emit (motor_on);")

AUDIO_BUFFER_ECL = """\
/* Audio buffer controller of a voice-mail pager (reconstruction of the
   paper's second Table 1 design; see repro.designs docstring). */

#define FIFODEPTH 16
#define HIGHWATER 12

typedef unsigned char byte;

/* Codec-side sampler: two warm-up frames after reset, then one sample
   pushed to the FIFO per ADC event. */
module sampler (input pure reset, input pure rec_tick,
        input byte adc_in, output byte sample)
{
    while (1) {
        do {
            await (rec_tick);   /* codec power-up */
            await (rec_tick);   /* PLL settle */
            while (1) {
                await (adc_in);
                emit_v (sample, adc_in);
            }
        } abort (reset);
    }
}

/* FIFO manager: byte storage, watermark flag, level exported by value. */
module fifo_ctrl (input pure reset, input byte sample, input pure pop,
        output int fifo_level, output byte dac_out,
        output pure almost_full)
{
    byte buf[FIFODEPTH];
    int head;
    int tail;
    int level;

    while (1) {
        do {
            head = 0; tail = 0; level = 0;
            emit_v (fifo_level, 0);
            while (1) {
                await (sample | pop);
                present (sample) {
                    if (level < FIFODEPTH) {
                        buf[tail] = sample;
                        tail = (tail + 1) % FIFODEPTH;
                        level = level + 1;
                    }
                }
                present (pop) {
                    if (level > 0) {
                        emit_v (dac_out, buf[head]);
                        head = (head + 1) % FIFODEPTH;
                        level = level - 1;
                    }
                }
                emit_v (fifo_level, level);
                if (level >= HIGHWATER) {
                    emit (almost_full);
                }
            }
        } abort (reset);
    }
}

/* Playback sequencer: two warm-up frames, then a two-phase drain cycle
   (request on one tick, hold on the next).  Reads the FIFO level as a
   value — previous-instant semantics, like a registered flag. */
module drain_ctrl (input pure reset, input pure play_tick,
        input int fifo_level, output pure pop)
{
    while (1) {
        do {
            await (play_tick);  /* DAC power-up */
            await (play_tick);  /* anti-pop ramp */
            while (1) {
                await (play_tick);
                if (fifo_level > 0) {
                    emit (pop);
                }
                await (play_tick);  /* hold phase */
            }
        } abort (reset);
    }
}

module audio_buffer (input pure reset, input pure rec_tick,
        input byte adc_in, input pure play_tick,
        output byte dac_out, output pure almost_full)
{
    signal byte sample;
    signal pure pop;
    signal int fifo_level;

    par {
        sampler (reset, rec_tick, adc_in, sample);
        drain_ctrl (reset, play_tick, fifo_level, pop);
        fifo_ctrl (reset, sample, pop, fifo_level, dac_out, almost_full);
    }
}
"""
