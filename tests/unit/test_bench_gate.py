"""The benchmark-regression gate (``benchmarks/check_regression.py``):
every committed baseline passes against itself, and every gated leaf
fails just past its band or bound, passes just inside it, and fails
when missing; a floor below its minimum core count is skipped out
loud."""

import copy
import importlib.util
import json
import os

import pytest

BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")
BASELINES = os.path.join(BENCHMARKS, "baselines")

_spec = importlib.util.spec_from_file_location(
    "check_regression", os.path.join(BENCHMARKS, "check_regression.py"))
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

#: Relative nudge past / inside a band or bound.
EPS = 1e-6


def baseline(name):
    with open(os.path.join(BASELINES, name)) as handle:
        return json.load(handle)


def set_leaf(document, path, value):
    """Set (or, for ``None``, delete) the leaf at a gate path."""
    *parents, last = path.split("/")
    node = document
    for part in parents:
        if isinstance(node, list):
            node = next(item for item in node if item.get("name") == part)
        else:
            node = node.setdefault(part, {})
    if value is None:
        del node[last]
    else:
        node[last] = value


def gated_leaves():
    """``(artifact, row, concrete path, baseline value or None)`` for
    every leaf the table gates on the committed baselines."""
    for name, rows in gate.GATES.items():
        flat = gate.leaves(baseline(name))
        for row in rows:
            for path in gate.matches(flat, row[0]) or [row[0]]:
                yield name, row, path, flat.get(path)


CASES = list(gated_leaves())
IDS = ["%s:%s" % (name, path) for name, _row, path, _ref in CASES]


def nudged(row, reference, outside):
    """A value just outside (or just inside) the row's band or bound."""
    _glob, rule, bound, _cores = row
    step = 1 + EPS if outside else 1 - EPS
    if rule == "higher":
        return reference / bound / step
    if rule == "lower":
        return reference * bound * step
    if rule == ">=":
        return bound / step if outside else bound
    return bound if outside else bound * step  # "<" ceiling


def run(name, row, path, value):
    current = copy.deepcopy(baseline(name))
    if row[3]:
        current["cores"] = row[3]
    set_leaf(current, path, value)
    return gate.check(name, current, baseline(name))


@pytest.mark.parametrize("name", sorted(gate.GATES))
def test_baseline_against_itself_passes(name):
    assert gate.check(name, baseline(name), baseline(name)) == []


def test_gate_over_committed_baselines_passes(capsys):
    assert gate.main(["--out", BASELINES, "--baselines", BASELINES]) == 0
    assert "gate: ok" in capsys.readouterr().out


@pytest.mark.parametrize("name, row, path, reference", CASES, ids=IDS)
def test_leaf_just_past_its_bound_fails(name, row, path, reference):
    failures = run(name, row, path, nudged(row, reference, outside=True))
    assert len(failures) == 1
    assert path in failures[0]


@pytest.mark.parametrize("name, row, path, reference", CASES, ids=IDS)
def test_leaf_just_inside_its_bound_passes(name, row, path, reference):
    assert run(name, row, path, nudged(row, reference, outside=False)) == []


@pytest.mark.parametrize(
    "name, row, path, reference",
    [case for case in CASES if case[3] is not None],
    ids=[i for i, case in zip(IDS, CASES) if case[3] is not None])
def test_missing_leaf_fails(name, row, path, reference):
    failures = run(name, row, path, None)
    assert failures == ["%s: %s missing from current results" % (name, path)]


def test_missing_current_file_fails(tmp_path, capsys):
    assert gate.main(["--out", str(tmp_path), "--baselines", BASELINES]) == 1
    out = capsys.readouterr().out
    for name in gate.GATES:
        assert "%s missing" % os.path.join(str(tmp_path), name) in out


@pytest.mark.parametrize("name, leaf", [
    ("BENCH_serve_scale.json", "process_vs_thread"),
    ("BENCH_farm.json", "speedup"),
])
def test_floor_below_its_core_count_is_skipped(name, leaf, capsys):
    current = copy.deepcopy(baseline(name))
    current["cores"] = 1
    current[leaf] = 0.0  # far below the floor, but not enforceable
    assert gate.check(name, current, baseline(name)) == []
    out = capsys.readouterr().out
    assert leaf in out and "skipped: 1 cores < " in out
    # a bench checking its own fresh data skips it the same way
    assert gate.check(name, current) == []
    assert "skipped: 1 cores < " in capsys.readouterr().out
