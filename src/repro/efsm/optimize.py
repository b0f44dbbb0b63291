"""EFSM optimization passes.

The paper leans on "a battery of logic optimization algorithms" being
applicable once the control structure is an (E)FSM.  Gate-level logic
synthesis is out of scope for an automaton represented as decision trees,
but the structural equivalents are here:

* **reachability pruning** — drop states the initial state cannot reach
  (arises after composition/ablation experiments);
* **reaction-tree simplification** — collapse test nodes whose branches
  are identical, and share structurally equal subtrees (the dominant
  code-size lever for generated software);
* **state merging** — states whose simplified reactions are structurally
  identical (up to target renumbering) are merged, a bisimulation-style
  reduction iterated to a fixed point.

All passes preserve the reaction relation; the property-based tests
check optimized and unoptimized machines against random input traces.
"""

from __future__ import annotations

from .machine import (
    DoAction,
    DoEmit,
    Efsm,
    Leaf,
    State,
    TERMINATED,
    TestData,
    TestSignal,
    walk_reaction,
)


def optimize(efsm, merge_states=True):
    """Run all passes; returns a new, equivalent Efsm."""
    machine = prune_unreachable(efsm)
    machine = simplify_reactions(machine)
    if merge_states:
        machine = merge_equivalent_states(machine)
        machine = simplify_reactions(machine)
    return machine


# ----------------------------------------------------------------------
# Reachability


def reachable_states(efsm):
    """Indices of states reachable from the initial state."""
    seen = {efsm.initial}
    frontier = [efsm.initial]
    while frontier:
        index = frontier.pop()
        for node in walk_reaction(efsm.state(index).reaction):
            if isinstance(node, Leaf) and node.target != TERMINATED:
                if node.target not in seen:
                    seen.add(node.target)
                    frontier.append(node.target)
    return seen


def prune_unreachable(efsm):
    """Drop unreachable states, renumbering the survivors."""
    keep = sorted(reachable_states(efsm))
    if len(keep) == len(efsm.states):
        return efsm
    renumber = {old: new for new, old in enumerate(keep)}
    states = []
    for old in keep:
        source = efsm.state(old)
        states.append(State(
            index=renumber[old],
            reaction=_retarget(source.reaction, renumber),
            residue=source.residue,
            label=source.label,
        ))
    return Efsm(
        name=efsm.name,
        states=states,
        initial=renumber[efsm.initial],
        inputs=efsm.inputs,
        outputs=efsm.outputs,
        locals=efsm.locals,
        module=efsm.module,
    )


def _retarget(node, mapping):
    """``node``'s reaction tree with every leaf target mapped through
    ``mapping`` (old state index -> new)."""
    if isinstance(node, Leaf):
        if node.target == TERMINATED:
            return node
        return Leaf(target=mapping[node.target], delta=node.delta)
    if isinstance(node, TestSignal):
        return TestSignal(node.signal,
                          _retarget(node.then, mapping),
                          _retarget(node.otherwise, mapping))
    if isinstance(node, TestData):
        return TestData(node.cond,
                        _retarget(node.then, mapping),
                        _retarget(node.otherwise, mapping))
    if isinstance(node, DoAction):
        return DoAction(node.stmt, _retarget(node.next, mapping))
    if isinstance(node, DoEmit):
        return DoEmit(node.signal, node.value, _retarget(node.next, mapping))
    raise TypeError("unknown reaction node %r" % (node,))


# ----------------------------------------------------------------------
# Tree simplification


def simplify_reactions(efsm):
    # One cache across every state: structurally equal subtrees become the
    # *same object*, which the C back-end and the cost model treat as
    # shared code (the Esterel automaton generators did the same with
    # shared labels).
    cache = {}
    states = [
        State(index=s.index, reaction=simplify_tree(s.reaction, cache),
              residue=s.residue, label=s.label)
        for s in efsm.states
    ]
    return Efsm(name=efsm.name, states=states, initial=efsm.initial,
                inputs=efsm.inputs, outputs=efsm.outputs,
                locals=efsm.locals, module=efsm.module)


def simplify_tree(node, _cache=None):
    """Collapse no-op tests and hash-cons identical subtrees."""
    cache = _cache if _cache is not None else {}

    def intern(built):
        return cache.setdefault(built, built)

    if isinstance(node, Leaf):
        return intern(node)
    if isinstance(node, (TestSignal, TestData)):
        then = simplify_tree(node.then, cache)
        otherwise = simplify_tree(node.otherwise, cache)
        if then is otherwise or then == otherwise:
            # The test does not influence the reaction: drop it.
            return then
        if isinstance(node, TestSignal):
            return intern(TestSignal(node.signal, then, otherwise))
        return intern(TestData(node.cond, then, otherwise))
    if isinstance(node, DoAction):
        return intern(DoAction(node.stmt, simplify_tree(node.next, cache)))
    if isinstance(node, DoEmit):
        return intern(DoEmit(node.signal, node.value,
                             simplify_tree(node.next, cache)))
    raise TypeError("unknown reaction node %r" % (node,))


# ----------------------------------------------------------------------
# State merging


def merge_equivalent_states(efsm):
    """Bisimulation minimization by partition refinement.

    All states start in one block; a block is split whenever two of its
    states have different reaction signatures once leaf targets are
    read modulo the current partition.  At the fixed point, states in
    one block are behaviourally indistinguishable (same tests, actions,
    emissions, and block-level successors) and are merged.
    """
    block = {s.index: 0 for s in efsm.states}
    while True:
        mapping = {index: block[index] for index in block}
        mapping[TERMINATED] = TERMINATED
        groups = {}
        for state in efsm.states:
            signature = (block[state.index],
                         _signature(state.reaction, mapping))
            groups.setdefault(signature, []).append(state.index)
        # Blocks number in order of their lowest state: the final
        # machine depends only on the partition, whose representatives
        # are each block's lowest state.
        new_block = {}
        for new_id, members in enumerate(groups.values()):
            for index in members:
                new_block[index] = new_id
        if new_block == block:
            break
        block = new_block
    representatives = {}
    for state in efsm.states:
        representatives.setdefault(block[state.index], state.index)
    if len(representatives) == len(efsm.states):
        return efsm
    ordered = sorted(representatives.values())
    renumber = {old: new for new, old in enumerate(ordered)}
    final = {index: renumber[representatives[block[index]]]
             for index in block}
    representatives = ordered
    states = []
    for old in representatives:
        source = efsm.state(old)
        states.append(State(
            index=renumber[old],
            reaction=_retarget(source.reaction, final),
            residue=source.residue,
            label=source.label,
        ))
    return Efsm(
        name=efsm.name,
        states=states,
        initial=final[efsm.initial],
        inputs=efsm.inputs,
        outputs=efsm.outputs,
        locals=efsm.locals,
        module=efsm.module,
    )


def _signature(node, mapping):
    if isinstance(node, Leaf):
        target = TERMINATED if node.target == TERMINATED \
            else mapping[node.target]
        return ("leaf", target, node.delta)
    if isinstance(node, TestSignal):
        return ("sig", node.signal, _signature(node.then, mapping),
                _signature(node.otherwise, mapping))
    if isinstance(node, TestData):
        return ("data", node.cond, _signature(node.then, mapping),
                _signature(node.otherwise, mapping))
    if isinstance(node, DoAction):
        return ("act", node.stmt, _signature(node.next, mapping))
    if isinstance(node, DoEmit):
        return ("emit", node.signal, node.value,
                _signature(node.next, mapping))
    raise TypeError("unknown reaction node %r" % (node,))
