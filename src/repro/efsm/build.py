"""EFSM construction by symbolic per-instant execution.

For every reachable kernel residue (= control state) the builder runs the
shared SOS semantics (:func:`repro.esterel.react.react`) with a context
that *records* data actions instead of executing them and *forks* on any
test it cannot resolve:

* presence of an **input** signal — a real runtime branch;
* a **data** condition — a real runtime branch (evaluated at the point it
  is reached, which matters when actions precede it);
* presence of a **local/output** signal not yet emitted — an
  *assumption*, validated at the end of the instant: a completed path is
  kept only if every assumed presence matches what the path actually
  emitted.  This is the logical-coherence semantics; for a fixed
  input/data decision vector, zero valid assumption sets means a
  causality deadlock, two or more means nondeterminism — both rejected,
  exactly as the Esterel compiler rejects non-constructive programs.
  A signal outside the state's :func:`~repro.esterel.kernel.instant_emits`
  set is absent without a fork: a path assuming it present could never
  be coherent, so it is never run.

A fork runs in place: the test takes its true branch at once, and the
false branch's decision prefix goes on the explorer's stack, to be
replayed from the state's residue when popped.  Each complete path of
an instant therefore runs exactly once, in true-first depth-first order.

Valid paths of one state are merged into a decision tree (assumption
tests collapse — local signals are compiled away), and every leaf's
residue becomes a new state for the worklist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import CausalityError, CompileError, NondeterminismError
from ..esterel import kernel as k
from ..esterel.react import ReactContext, react
from ..lang import ast
from ..lang.printer import Printer
from ..lang.types import INT
from .machine import (
    DoAction,
    DoEmit,
    Efsm,
    Leaf,
    State,
    TERMINATED,
    TestData,
    TestSignal,
)

_DEFAULT_MAX_STATES = 4096


@dataclass
class _Path:
    """One completed symbolic execution of an instant."""

    events: Tuple[tuple, ...]   # ordered trace (tests, actions, emits)
    decisions: Tuple[tuple, ...]  # external decisions only (group key)
    assumptions: dict            # local/output name -> assumed presence
    emitted: frozenset
    code: int
    residue: object
    delta: bool


class _SymbolicContext(ReactContext):
    """ReactContext that records and forks.

    A path-local constant store propagates values assigned *within the
    current instant* (``cnt = 0`` at a loop head, ``cnt++`` steps, ...).
    Data tests that the store fully resolves do not fork and emit no
    runtime test — the variables hold exactly those values whenever this
    path executes, because the same recorded actions precede the test.
    Without this, the builder would explore infeasible paths such as
    "``cnt = 0`` then ``cnt < PKTSIZE`` false" and misdiagnose the
    paper's Figure 1 loop as instantaneous.
    """

    def __init__(self, oracle, pending, builder, emittable):
        self.trail = list(oracle)
        self.replay = len(oracle)
        self.pending = pending
        self.position = 0
        self.input_names = builder.input_names
        self.signal_dirs = builder.signal_dirs
        self.var_types = builder.var_types
        self.write_sets = builder.write_sets
        self.emittable = emittable
        self.store = {}
        self.events = []
        self.emitted = set()
        self.assumptions = {}
        self.delta = False

    def _decide(self, kind, key):
        """Replay the oracle; past its end, fork in place.

        A new test takes its true branch now and leaves the false one
        (the decisions so far plus ``False``) on the explorer's stack, so
        each complete path runs once, in true-first depth-first order.
        """
        trail = self.trail
        position = self.position
        self.position = position + 1
        if position < self.replay:
            o_kind, o_key, value = trail[position]
            if o_kind != kind or o_key is not key and o_key != key:
                raise CompileError(
                    "symbolic replay diverged (internal error): "
                    "expected %s %r, got %s %r"
                    % (o_kind, o_key, kind, key))
            return value
        self.pending.append(tuple(trail) + ((kind, key, False),))
        trail.append((kind, key, True))
        return True

    def signal_status(self, name):
        if name in self.input_names:
            value = self._decide("sig", name)
            self.events.append(("sig", name, value))
            return value
        direction = self.signal_dirs.get(name)
        if direction is None:
            raise CompileError("presence test of unknown signal %r" % name)
        if name in self.emitted:
            return True
        if name in self.assumptions:
            return self.assumptions[name]
        if name in self.emittable:
            value = self._decide("assume", name)
        else:
            value = False  # no emit of it can run in this instant
        self.assumptions[name] = value
        self.events.append(("assume", name, value))
        return value

    def data_test(self, expr):
        folded = self._const_eval(expr)
        if folded is not None:
            return folded != 0
        value = self._decide("data", expr)
        self.events.append(("data", expr, value))
        return value

    def emit(self, name, value_expr):
        self.emitted.add(name)
        self.events.append(("emit", name, value_expr))

    def action(self, stmt):
        self.events.append(("act", stmt))
        self._update_store(stmt)

    # -- constant propagation ------------------------------------------

    def _update_store(self, stmt):
        """Track constant variable values through a recorded action."""
        if isinstance(stmt, ast.ExprStmt):
            expr = stmt.expr
            if isinstance(expr, ast.Assign) and \
                    isinstance(expr.target, ast.Name):
                name = expr.target.id
                var_type = self.var_types.get(name)
                if var_type is None:
                    self._invalidate(stmt)
                    return
                if expr.op == "=":
                    value = self._const_eval(expr.value)
                else:
                    current = self.store.get(name)
                    operand = self._const_eval(expr.value)
                    value = None
                    if current is not None and operand is not None:
                        value = _fold_binary(expr.op[:-1], current, operand)
                if value is not None:
                    self.store[name] = var_type.wrap(value)
                else:
                    self.store.pop(name, None)
                return
            if isinstance(expr, ast.IncDec) and \
                    isinstance(expr.target, ast.Name):
                name = expr.target.id
                var_type = self.var_types.get(name)
                current = self.store.get(name)
                if var_type is not None and current is not None:
                    step = 1 if expr.op == "++" else -1
                    self.store[name] = var_type.wrap(current + step)
                else:
                    self.store.pop(name, None)
                return
        self._invalidate(stmt)

    def _invalidate(self, stmt):
        """Drop knowledge about anything the statement might write."""
        try:
            written = self.write_sets[stmt]
        except KeyError:
            written = self.write_sets[stmt] = _write_set(stmt)
        if written is None:
            self.store.clear()
        else:
            for name in written:
                self.store.pop(name, None)

    def _const_eval(self, expr):
        """Evaluate ``expr`` from the constant store; None if unknown.

        Arithmetic is folded with C ``int`` wrap-around (counters in the
        paper's loops are ints); anything outside this fragment — signal
        values, unknown variables, calls — stays symbolic.
        """
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.Name):
            return self.store.get(expr.id)
        if isinstance(expr, ast.Unary):
            operand = self._const_eval(expr.operand)
            if operand is None:
                return None
            if expr.op == "-":
                return INT.wrap(-operand)
            if expr.op == "+":
                return operand
            if expr.op == "!":
                return 0 if operand else 1
            if expr.op == "~":
                return INT.wrap(~operand)
            return None
        if isinstance(expr, ast.Binary):
            if expr.op == "&&":
                left = self._const_eval(expr.left)
                if left is None:
                    return None
                if left == 0:
                    return 0
                right = self._const_eval(expr.right)
                return None if right is None else (1 if right else 0)
            if expr.op == "||":
                left = self._const_eval(expr.left)
                if left is None:
                    return None
                if left != 0:
                    return 1
                right = self._const_eval(expr.right)
                return None if right is None else (1 if right else 0)
            left = self._const_eval(expr.left)
            right = self._const_eval(expr.right)
            if left is None or right is None:
                return None
            return _fold_binary(expr.op, left, right)
        return None

    def delta_pause(self):
        self.delta = True


class EfsmBuilder:
    """Compiles a :class:`~repro.ecl.module.KernelModule` to an
    :class:`~repro.efsm.machine.Efsm`."""

    def __init__(self, module, max_states=_DEFAULT_MAX_STATES):
        self.module = module
        self.max_states = max_states
        self.signal_dirs = module.signal_directions()
        self.input_names = frozenset(
            p.name for p in module.params if p.direction == "input")
        self.var_types = dict(module.variables)
        # Action statement -> names it may write, or None for "anything".
        self.write_sets = {}

    def build(self):
        efsm = Efsm(
            name=self.module.name,
            inputs=tuple(p.name for p in self.module.input_params),
            outputs=tuple(p.name for p in self.module.output_params),
            locals=tuple(n for n, _t in self.module.local_signals),
            module=self.module,
        )
        index_of = {}
        worklist = []

        def intern(residue):
            if residue in index_of:
                return index_of[residue]
            if len(efsm.states) >= self.max_states:
                raise CompileError(
                    "EFSM for module %s exceeds %d states; the control "
                    "space explodes (consider the asynchronous "
                    "partitioning, Section 4 of the paper)"
                    % (self.module.name, self.max_states))
            index = len(efsm.states)
            index_of[residue] = index
            efsm.states.append(State(index=index, residue=residue))
            worklist.append(index)
            return index

        intern(self.module.body)
        while worklist:
            index = worklist.pop(0)
            state = efsm.states[index]
            paths = self._explore(state.residue, index)
            state.reaction = self._merge(paths, 0, intern, index)
        return efsm

    # ------------------------------------------------------------------

    def _explore(self, residue, state_index):
        """All valid instant executions from ``residue``."""
        pending = [()]
        raw_paths = []
        emittable = k.instant_emits(residue)
        while pending:
            ctx = _SymbolicContext(pending.pop(), pending, self, emittable)
            code, next_residue = react(residue, ctx)
            valid = all(
                (name in ctx.emitted) == assumed
                for name, assumed in ctx.assumptions.items()
            )
            if not valid:
                continue
            decisions = tuple(
                (kind, key, value) for kind, key, value in
                ((e[0], e[1], e[2]) for e in ctx.events
                 if e[0] in ("sig", "data"))
            )
            raw_paths.append(_Path(
                events=tuple(ctx.events),
                decisions=decisions,
                assumptions=dict(ctx.assumptions),
                emitted=frozenset(ctx.emitted),
                code=code,
                residue=next_residue if code == 1 else k.NOTHING,
                delta=ctx.delta,
            ))
        if not raw_paths:
            raise CausalityError(
                "state %d of module %s has no causally consistent "
                "behaviour" % (state_index, self.module.name))
        by_decisions = {}
        for path in raw_paths:
            by_decisions.setdefault(path.decisions, []).append(path)
        chosen = []
        for decisions, group in by_decisions.items():
            chosen.append(self._constructive_choice(group, decisions,
                                                    state_index))
        return chosen

    def _constructive_choice(self, group, decisions, state_index):
        """Pick the least solution among logically coherent ones.

        ``present (p) emit(p)`` is coherent with p both present and
        absent; Esterel's constructive semantics (and our interpreter's
        absent-until-emitted fixed point) selects the minimal emission
        set.  Solutions that are not totally ordered by their
        assumed-present sets are genuine nondeterminism and rejected.
        """
        if len(group) == 1:
            return group[0]
        def true_set(path):
            return frozenset(n for n, v in path.assumptions.items() if v)
        ordered = sorted(group, key=lambda p: len(true_set(p)))
        minimal = ordered[0]
        base = true_set(minimal)
        for other in ordered[1:]:
            if not base <= true_set(other):
                raise NondeterminismError(
                    "state %d of module %s: incomparable signal "
                    "assignments under the same inputs (decisions: %s)"
                    % (state_index, self.module.name,
                       _decisions_text(decisions)))
        return minimal

    # ------------------------------------------------------------------

    def _merge(self, paths, position, intern, state_index):
        """Merge path event suffixes (from ``position``) into a tree."""
        if not paths:
            raise CausalityError(
                "state %d of module %s: an input combination has no "
                "consistent behaviour" % (state_index, self.module.name))
        head = paths[0]
        if position >= len(head.events):
            # All paths in this group are spent: exactly one remains.
            if len(paths) != 1:
                raise NondeterminismError(
                    "state %d of module %s: indistinguishable paths with "
                    "different outcomes" % (state_index, self.module.name))
            if head.code == 0:
                return Leaf(target=TERMINATED, delta=head.delta)
            return Leaf(target=intern(head.residue), delta=head.delta)
        event = head.events[position]
        kind = event[0]
        if kind in ("sig", "data"):
            taken = [p for p in paths if p.events[position][2]]
            not_taken = [p for p in paths if not p.events[position][2]]
            then = self._merge(taken, position + 1, intern, state_index)
            otherwise = self._merge(not_taken, position + 1, intern,
                                    state_index)
            if kind == "sig":
                return TestSignal(event[1], then, otherwise)
            return TestData(event[1], then, otherwise)
        if kind == "assume":
            # Locals are determined: after validation every surviving
            # path in this group carries the same (forced) assumption, so
            # no runtime test is emitted.
            taken = [p for p in paths if p.events[position][2]]
            not_taken = [p for p in paths if not p.events[position][2]]
            if taken and not_taken:
                raise NondeterminismError(
                    "state %d of module %s: local signal %r admits two "
                    "consistent statuses" % (state_index, self.module.name,
                                             event[1]))
            return self._merge(paths, position + 1, intern, state_index)
        if kind == "act":
            return DoAction(event[1],
                            self._merge(paths, position + 1, intern,
                                        state_index))
        if kind == "emit":
            return DoEmit(event[1], event[2],
                          self._merge(paths, position + 1, intern,
                                      state_index))
        raise CompileError("unknown symbolic event %r" % (event,))


def _write_set(stmt):
    """Variable names ``stmt`` may write, or None if it may write any
    (a call, or a store through something other than a named variable)."""
    written = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            return None  # a call may write through pointers
        if isinstance(node, (ast.Assign, ast.IncDec)):
            base = node.target
            while isinstance(base, (ast.Index, ast.Member)):
                base = base.base
            if not isinstance(base, ast.Name):
                return None
            written.add(base.id)
        if isinstance(node, ast.Unary) and node.op == "&" and \
                isinstance(node.operand, ast.Name):
            # Address taken: the variable may be written anywhere.
            written.add(node.operand.id)
    return frozenset(written)


def _fold_binary(op, left, right):
    """C-int folding for the constant store; None when undefined."""
    if op in ("/", "%") and right == 0:
        return None
    table = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: abs(a) // abs(b) * (1 if (a < 0) == (b < 0)
                                              else -1),
        "%": lambda a, b: a - (abs(a) // abs(b) * (1 if (a < 0) == (b < 0)
                                                   else -1)) * b,
        "&": lambda a, b: a & b,
        "|": lambda a, b: a | b,
        "^": lambda a, b: a ^ b,
        "<<": lambda a, b: a << (b & 31),
        ">>": lambda a, b: a >> (b & 31),
        "==": lambda a, b: 1 if a == b else 0,
        "!=": lambda a, b: 1 if a != b else 0,
        "<": lambda a, b: 1 if a < b else 0,
        ">": lambda a, b: 1 if a > b else 0,
        "<=": lambda a, b: 1 if a <= b else 0,
        ">=": lambda a, b: 1 if a >= b else 0,
    }
    handler = table.get(op)
    if handler is None:
        return None
    result = handler(left, right)
    if op in ("==", "!=", "<", ">", "<=", ">="):
        return result
    return INT.wrap(result)


def _decisions_text(decisions):
    printer = Printer()
    parts = []
    for kind, key, value in decisions:
        if kind == "sig":
            parts.append("%s%s" % ("" if value else "~", key))
        else:
            parts.append("%s(%s)" % ("" if value else "!",
                                     printer.expr(key)))
    return " & ".join(parts) or "(none)"


def build_efsm(module, max_states=_DEFAULT_MAX_STATES):
    """Compile a KernelModule into an Efsm."""
    return EfsmBuilder(module, max_states).build()
