"""Unit tests for EFSM introspection helpers (describe / dot edges)."""

import pytest

from repro.efsm import count_leaves, to_dot, walk_reaction
from repro.efsm.machine import DoEmit, Leaf, TestSignal
from repro.pipeline import Pipeline

SRC = """
module gate (input pure open_cmd, input pure close_cmd,
             output pure opened, output pure closed)
{
    while (1) {
        await (open_cmd);
        emit (opened);
        await (close_cmd);
        emit (closed);
    }
}
"""


@pytest.fixture(scope="module")
def efsm():
    return Pipeline().compile_text(SRC).module("gate").efsm()


class TestDescribe:
    def test_header_counts(self, efsm):
        text = efsm.describe()
        assert text.startswith("efsm gate: %d states" % efsm.state_count)

    def test_every_state_listed(self, efsm):
        text = efsm.describe()
        for state in efsm.states:
            assert "state %d:" % state.index in text

    def test_initial_marked(self, efsm):
        assert "(initial)" in efsm.describe()

    def test_emissions_shown(self, efsm):
        text = efsm.describe()
        assert "emit opened" in text
        assert "emit closed" in text


class TestWalkAndCount:
    def test_walk_visits_all_kinds(self, efsm):
        kinds = set()
        for state in efsm.states:
            for node in walk_reaction(state.reaction):
                kinds.add(type(node))
        assert Leaf in kinds
        assert TestSignal in kinds
        assert DoEmit in kinds

    def test_count_leaves_matches_transition_count(self, efsm):
        assert efsm.transition_count() == sum(
            count_leaves(s.reaction) for s in efsm.states)

    def test_interface_queries(self, efsm):
        assert efsm.tested_inputs() <= {"open_cmd", "close_cmd"}
        assert efsm.emitted_signals() == {"opened", "closed"}


class TestDot:
    def test_every_state_is_a_dot_node(self, efsm):
        dot = to_dot(efsm)
        for state in efsm.states:
            assert "s%d [label" % state.index in dot

    def test_guards_and_emissions_on_edges(self, efsm):
        dot = to_dot(efsm)
        assert "open_cmd" in dot
        assert "/ opened" in dot

    def test_long_labels_truncated(self, efsm):
        dot = to_dot(efsm, max_label_length=10)
        for line in dot.splitlines():
            if 'label="' in line and "->" in line:
                label = line.split('label="')[1].rsplit('"', 1)[0]
                assert len(label) <= 13  # 10 + "..."
