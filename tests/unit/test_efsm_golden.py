"""Golden EFSM digests: the symbolic builder's output, pinned byte for byte.

Each digest is the sha256 of one canonical rendering of a built EFSM:
``Efsm.describe()`` (state numbering, every test, action, emission and
leaf target in tree order) followed by the ``repr`` of every state's
residue.  Any change to exploration order, path choice, ``_merge``'s
interning order or the residues themselves changes a digest.

The designs are the ten modules of the paper's three designs plus two
resized revisions of the kind servebench's ``cold_compile`` workload
compiles (the stack with ``DATASIZE 40``, the audio buffer with
``FIFODEPTH 24``/``HIGHWATER 18``).  A digest may only change together
with an intended change of the EFSMs themselves.
"""

import functools
import hashlib

import pytest

from repro.designs import AUDIO_BUFFER_ECL, DOOR_CTRL_ECL, PROTOCOL_STACK_ECL
from repro.pipeline import Pipeline

SOURCES = {
    "stack": PROTOCOL_STACK_ECL,
    "audio": AUDIO_BUFFER_ECL,
    "door": DOOR_CTRL_ECL,
    "stack_datasize40": PROTOCOL_STACK_ECL.replace(
        "#define DATASIZE 56", "#define DATASIZE 40"),
    "audio_fifodepth24": AUDIO_BUFFER_ECL.replace(
        "#define FIFODEPTH 16", "#define FIFODEPTH 24").replace(
        "#define HIGHWATER 12", "#define HIGHWATER 18"),
}

GOLDEN = {
    ("audio", "audio_buffer"):
        "a730653db8787c7821d1ccf3fea819e8c7df52f6ec56ad19b318120ead06b009",
    ("audio", "drain_ctrl"):
        "d73c40590cc35d2ebe8dc428b7e75903f558bb9073e6b45d7597e38bb59c76de",
    ("audio", "fifo_ctrl"):
        "6eb8f0165d1444709c390eecac7659c7bf825bf38b5de4ec82177bc6dfac0d7a",
    ("audio", "sampler"):
        "3108f8cc6b5e9ec7cc5e91624bf3fac517913d5604da7ad9b636652197f89933",
    ("audio_fifodepth24", "audio_buffer"):
        "c14b759142039c59ce639a8f16e303ecab6799e49320c113f110b08a02b6f19e",
    ("audio_fifodepth24", "drain_ctrl"):
        "d73c40590cc35d2ebe8dc428b7e75903f558bb9073e6b45d7597e38bb59c76de",
    ("audio_fifodepth24", "fifo_ctrl"):
        "f74bbbf3d9bed049243a747413d7e6a7a51f122fad2333737c2f03ab92c96c18",
    ("audio_fifodepth24", "sampler"):
        "3108f8cc6b5e9ec7cc5e91624bf3fac517913d5604da7ad9b636652197f89933",
    ("door", "door_ctrl"):
        "12bc34e5377fdd9aa674b5402d4f16e6036ee24bd399129bb72a583a1650e57d",
    ("door", "interlock"):
        "519435cd87a4e1f450316fa0fecc6a699fd2004a26741df25a676cddcec9f387",
    ("stack", "assemble"):
        "06460d7990167972274d641e63358a203e9261607d8f950745d790c64ed21870",
    ("stack", "checkcrc"):
        "a776beea25e07ed2bfed3c58be960cb4a570d09f8061793515f8ee7cc0729925",
    ("stack", "prochdr"):
        "245e40ebd911defa633f0f802e9d50c2eb8878d512b79bbcd9fc907fb7f8ba57",
    ("stack", "toplevel"):
        "17cb0e178b5fa01cb07547c6fe44fe033ec31682124dbc9709abe340fe8e39ae",
    ("stack_datasize40", "assemble"):
        "52a982c180b97a908bb83d3bdfbfb86bb2ab14a133c8b7e0015644774d813c2f",
    ("stack_datasize40", "checkcrc"):
        "0339b1042ac4a74d81b534fed80e1bf067bd7357a2d1c14d929fc8441f138333",
    ("stack_datasize40", "prochdr"):
        "245e40ebd911defa633f0f802e9d50c2eb8878d512b79bbcd9fc907fb7f8ba57",
    ("stack_datasize40", "toplevel"):
        "ed5e75633479d4340c29d94eee98c22333af31e8413b168ce435235e47ae0885",
}


def efsm_digest(efsm):
    """sha256 of ``describe()`` plus every state's residue ``repr``."""
    text = "\n".join([efsm.describe()] + [
        "residue %d: %r" % (state.index, state.residue)
        for state in efsm.states])
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _build(label):
    return Pipeline().compile_text(SOURCES[label])


def test_resized_revisions_differ_from_their_design():
    assert SOURCES["stack_datasize40"] != SOURCES["stack"]
    assert SOURCES["audio_fifodepth24"] != SOURCES["audio"]


def test_every_module_is_pinned():
    pinned = {(label, name) for label, name in GOLDEN}
    for label in SOURCES:
        for name in _build(label).module_names:
            assert (label, name) in pinned


@pytest.mark.parametrize("label, name", sorted(GOLDEN),
                         ids=["%s-%s" % key for key in sorted(GOLDEN)])
def test_efsm_matches_golden_digest(label, name):
    handle = _build(label).module(name)
    handle.check()
    assert efsm_digest(handle.efsm()) == GOLDEN[label, name]
