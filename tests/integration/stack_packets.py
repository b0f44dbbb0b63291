"""Packets for the paper's protocol stack (``repro.designs``): the
header, size and CRC rules its ``assemble``/``checkcrc``/``prochdr``
modules check, shared by the integration tests that drive it."""

HDRSIZE = 6
PKTSIZE = 64
MYADDR = 0x40


def crc_of(packet):
    crc = 0
    for byte in packet:
        crc = ((crc ^ byte) << 1) & 0xFFFFFFFF
    return crc


def make_packet(good_header=True, good_crc=True):
    header = [(MYADDR + j) & 0xFF if good_header else 0x77
              for j in range(HDRSIZE)]
    body = [0] * (PKTSIZE - HDRSIZE - 2)
    if good_crc:
        for c0 in range(256):
            for c1 in range(256):
                candidate = header + body + [c0, c1]
                if crc_of(candidate) & 0xFFFF == c0 | (c1 << 8):
                    return candidate
        raise AssertionError("no CRC trailer")
    packet = header + body + [0xAB, 0xCD]
    assert crc_of(packet) & 0xFFFF != 0xAB | (0xCD << 8)
    return packet
