"""Unit tests for post-hoc synchronous product exploration."""

import pytest

from repro.efsm import Connection, product_reachable_size
from repro.errors import CompileError
from repro.pipeline import Pipeline

PING = """
module ping (input pure kick, output pure out_a)
{
    while (1) { await (kick); emit (out_a); await (kick); }
}
"""

PONG = """
module pong (input pure in_a, output pure out_b)
{
    while (1) { await (in_a); emit (out_b); }
}
"""


def efsm_of(src, name):
    return Pipeline().compile_text(src).module(name).efsm()


class TestProductSize:
    def test_independent_machines_multiply(self):
        # Two copies of ping driven by *different* inputs: every state
        # pair is reachable.
        a = efsm_of(PING, "ping")
        b = efsm_of(PING.replace("kick", "kick2")
                        .replace("out_a", "out_c"), "ping")
        info = product_reachable_size([Connection(a), Connection(b)])
        # Both machines leave their start-up state in the same instant,
        # so the joint space is that shared transient plus the full
        # cross product of the steady-state cycles.
        steady = (a.state_count - 1) * (b.state_count - 1)
        assert info.reachable_states == 1 + steady
        assert info.sum_states == a.state_count + b.state_count
        assert info.product_bound == a.state_count * b.state_count

    def test_pipeline_constrains_product(self):
        # pong only moves when ping feeds it: fewer joint states than
        # the full product bound.
        a = efsm_of(PING, "ping")
        b = efsm_of(PONG, "pong")
        info = product_reachable_size([
            Connection(a),
            Connection(b, binding={"in_a": "out_a"}),
        ])
        assert info.reachable_states <= info.product_bound
        assert info.components == ("ping", "pong")

    def test_binding_renames_signals(self):
        a = efsm_of(PING, "ping")
        b = efsm_of(PONG, "pong")
        connection = Connection(b, binding={"in_a": "out_a"})
        assert connection.network_name("in_a") == "out_a"
        assert connection.network_name("out_b") == "out_b"

    def test_state_budget(self):
        a = efsm_of(PING, "ping")
        b = efsm_of(PING.replace("kick", "kick2")
                        .replace("out_a", "out_c"), "ping")
        with pytest.raises(CompileError):
            product_reachable_size([Connection(a), Connection(b)],
                                   max_states=2)

    def test_paper_stack_product_info(self):
        from repro.designs import PROTOCOL_STACK_ECL
        design = Pipeline().compile_text(PROTOCOL_STACK_ECL)
        connections = [
            Connection(design.module("assemble").efsm(),
                       binding={"outpkt": "packet"}),
            Connection(design.module("checkcrc").efsm(),
                       binding={"inpkt": "packet"}),
            Connection(design.module("prochdr").efsm(),
                       binding={"inpkt": "packet"}),
        ]
        info = product_reachable_size(connections)
        # The joint exploration stays well under the naive bound and is
        # in the same range as the translator's inlined product (9).
        assert info.reachable_states <= info.product_bound
        assert info.reachable_states >= max(info.state_counts)
