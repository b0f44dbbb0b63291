"""Memoized structural hashes of AST and kernel terms.

Terms keep their hash after the first call, but the memo must never
cross a process boundary: string hashes depend on the hash seed, so a
term pickled under one seed and loaded under another would compare
equal to a fresh term yet hash differently, and dict lookups (EFSM
state interning, the artifact cache's payloads) would silently miss.
"""

import os
import pickle
import subprocess
import sys
import textwrap

from repro.esterel import kernel as k
from repro.lang import ast

SRC_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "src")


def _term():
    cond = ast.SigAnd(left=ast.SigRef(name="go"),
                      right=ast.SigNot(operand=ast.SigRef(name="stop")))
    return k.Seq((k.Emit("out", ast.Name(id="value")),
                  k.AbortActive(k.Halt(), cond, None, False)))


class TestMemo:
    def test_hash_is_stable_and_structural(self):
        first, second = _term(), _term()
        assert first is not second
        assert hash(first) == hash(first) == hash(second)
        assert {first: 1}[second] == 1

    def test_memo_lives_in_a_slot_not_the_instance_dict(self):
        term = _term()
        hash(term)
        assert "_hash" not in term.__dict__
        assert term._hash == hash(term)

    def test_pickle_drops_the_memo(self):
        term = _term()
        hash(term)
        loaded = pickle.loads(pickle.dumps(term))
        assert loaded == term
        assert not hasattr(loaded, "_hash")
        assert hash(loaded) == hash(term)


_STORE = """
from repro.designs import DOOR_CTRL_ECL
from repro.pipeline import ArtifactCache, Pipeline
pipe = Pipeline(cache=ArtifactCache.persistent(root=ROOT))
handle = pipe.compile_text(DOOR_CTRL_ECL).module("door_ctrl")
handle.check()
efsm = handle.efsm()
assert {state.residue for state in efsm.states}
"""

_LOAD = """
from repro.designs import DOOR_CTRL_ECL
from repro.pipeline import ArtifactCache, Pipeline
cache = ArtifactCache.persistent(root=ROOT)
handle = Pipeline(cache=cache).compile_text(DOOR_CTRL_ECL).module(
    "door_ctrl")
handle.check()
loaded = handle.efsm()
assert cache.stats.disk_hits > 0, cache.stats.as_dict()
fresh = Pipeline().compile_text(DOOR_CTRL_ECL).module("door_ctrl")
fresh.check()
index_of = {s.residue: s.index for s in fresh.efsm().states}
for state in loaded.states:
    assert hash(state.residue) == hash(fresh.efsm().states[
        state.index].residue)
    assert index_of[state.residue] == state.index
print("ok")
"""


def _run(script, root, seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.path.abspath(SRC_ROOT))
    code = "ROOT = %r\n%s" % (str(root), textwrap.dedent(script))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cached_efsm_residues_hash_fresh_under_another_seed(tmp_path):
    stored = _run(_STORE, tmp_path, seed=1)
    assert stored.returncode == 0, stored.stderr
    loaded = _run(_LOAD, tmp_path, seed=2)
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout.strip() == "ok"
