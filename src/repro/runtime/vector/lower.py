"""Vector lowering: one EFSM state -> one masked numpy step function.

The scalar native engine (:mod:`repro.runtime.native`) lowers each
state's reaction tree to straight-line Python over flat ``P``/``S``
arrays and a ``bytearray`` ``D``.  This module lowers the *same* trees
a second time into functions that advance **all instances currently in
that state** at once:

* ``P`` becomes a ``(k, n_signals)`` uint8 presence matrix, ``S`` a
  ``(k, n_slots)`` int64 value matrix and ``D`` a ``(k, width)`` uint8
  memory matrix — one row per instance in the group;
* control flow becomes mask algebra: every branch computes a boolean
  lane mask from its condition, and every store is a masked
  ``np.where`` so inactive lanes keep their old values.  Branch bodies
  are guarded by ``if _any(mask):`` so groups that never take a path
  pay nothing for it;
* each leaf writes its compile-time-constant ``(next_state,
  emitted_mask, packed)`` triple into the ``NS``/``EM``/``PK`` result
  arrays under the path's mask — the masks of a reaction tree
  partition the group, so every lane is written exactly once;
* faults (array bounds, division by zero) are *checked* vectorized: a
  guard tests the active lanes and raises :class:`VectorFault` when
  any would fault.  The caller then re-runs that group through the
  scalar engine, which reproduces the exact per-instance
  :class:`~repro.errors.EvalError` — the vector functions only ever
  mutate gathered copies, so abandoning a half-run function is free.
  Lanes that are merely *inactive* get their addresses sanitized to 0
  and their divisors to 1, so garbage in masked-off lanes can never
  fault;
* anything outside the vector subset (loop ``break``/``continue``,
  dynamic aggregate copies, evaluator fallbacks) marks the whole state
  scalar: the engine runs those groups per-instance through the
  resident :class:`~repro.runtime.native.NativeReactor`.

All arithmetic runs in int64.  C types are at most 4 bytes wide
(``repro.lang.types``), so int64 intermediates are exact for ``+ - *
& | ^ << >>`` up to the final type wrap, and comparisons compare exact
values.  C truncating division is the sign trick over numpy's floor
division (see ``_vdiv``/``_vrem`` in :mod:`repro.runtime.vector.reactor`).

Transition ids are numbered by the same then-before-otherwise walk as
the scalar lowerer, so ``packed >> 1`` indexes the same
:meth:`~repro.efsm.machine.Efsm.transition_table` rows and coverage
bitmaps merge across engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ...efsm.machine import (
    DoAction,
    DoEmit,
    Leaf,
    TestData,
    TestSignal,
    walk_reaction,
)
from ...errors import EvalError
from ...lang import ast
from ...lang.types import BoolType, IntType, PureType, StructType, UnionType
from ..native import (
    _ATOM,
    _COMPARE_OPS,
    _INT_LITERAL,
    _INTEGERS,
    _PLAIN_BINOPS,
    GeneratedCode,
    NativeCode,
    Unlowerable,
    _Lowerer,
    compile_native,
)


class VectorFault(Exception):
    """Raised by generated vector code when an *active* lane would
    fault; the engine re-runs the group scalar to get the exact
    per-instance :class:`~repro.errors.EvalError`."""


@dataclass
class VectorCode(GeneratedCode):
    """Picklable result of :func:`compile_vector` — the vector twin of
    :class:`~repro.runtime.native.NativeCode`.

    ``source`` defines one ``_vs<N>(k, P, S, D, NS, EM, PK, R)``
    function per vector-lowered state plus a ``VSTATE_FUNCS`` list with
    ``None`` placeholders for the states in ``scalar_states`` (those
    run per-instance through the scalar engine).
    """

    module: str
    initial: int
    state_count: int
    source: str
    #: Memory-backed entities referenced by the generated code:
    #: ``(pyname, kind, name)`` bound to base addresses at reactor init.
    bases: Tuple[tuple, ...] = ()
    #: States the vector subset cannot express (run scalar per lane).
    scalar_states: Tuple[int, ...] = ()
    vector_ops: int = 0
    scalar_ops: int = 0

    def describe(self):
        vec = self.state_count - len(self.scalar_states)
        return "vector %s: %d/%d states vectorized, %d/%d tree ops" % (
            self.module,
            vec,
            self.state_count,
            self.vector_ops,
            self.vector_ops + self.scalar_ops,
        )


class _VectorLowerer(_Lowerer):
    """Re-lowers reaction trees as masked full-width numpy expressions.

    Inherits the scalar lowerer's typing environment, slot layout,
    transition-id walk and expression plumbing; overrides every method
    whose generated text differs under vectorization.  Memory
    locations grow a fourth element: ``("mem", addr, ctype, dyn)``
    where ``dyn`` marks a per-lane (vector) address needing
    row-indexed ``D[R, addr]`` access.
    """

    def __init__(self, efsm):
        super().__init__(efsm)
        self.mask = "m0"
        self._maskn = 0

    def _new_mask(self):
        self._maskn += 1
        return "m%d" % self._maskn

    def _guard(self, tb):
        """Fault when any *active* lane trips the condition ``tb``."""
        if self.mask == "m0":
            self.emit("if _any(%s): raise _VF" % tb)
        else:
            self.emit("if _any((%s) & (%s)): raise _VF" % (self.mask, tb))

    def _narrow(self, outer, tc, invert=False):
        """``outer & tc`` (or ``outer & ~tc``) as text — ``m0`` is the
        all-ones root mask, so narrowing it is the condition itself."""
        if outer == "m0":
            return ("~(%s)" if invert else "(%s)") % tc
        return ("(%s) & ~(%s)" if invert else "(%s) & (%s)") % (outer, tc)

    # -- value wrapping ------------------------------------------------

    def wrap(self, text, ctype):
        if isinstance(ctype, BoolType):
            return "(((%s) != 0) * 1)" % text
        if isinstance(ctype, IntType):
            mask = (1 << (8 * ctype.size)) - 1
            if not ctype.signed:
                return "((%s) & %d)" % (text, mask)
            offset = 1 << (8 * ctype.size - 1)
            return "((((%s) + %d) & %d) - %d)" % (text, offset, mask, offset)
        raise Unlowerable("cannot wrap to %s" % ctype)

    # -- locations -----------------------------------------------------

    def location(self, expr):
        """("slot", i, t) | ("local", py, t) | ("mem", addr, t, dyn)."""
        if isinstance(expr, ast.Name):
            loc = self._resolve(expr.id)
            if loc[0] == "mem":
                return loc + (False,)
            return loc
        if isinstance(expr, ast.Member):
            if expr.arrow:
                raise Unlowerable("pointer member access")
            _kind, addr, ctype, dyn = self._memory_location(expr.base)
            if not isinstance(ctype, (StructType, UnionType)):
                raise Unlowerable("member access on non-aggregate")
            member = ctype.field_named(expr.name)
            return ("mem", self._offset(addr, member.offset), member.type, dyn)
        if isinstance(expr, ast.Index):
            return self._index_location(expr)
        raise Unlowerable("expression is not a lowerable l-value")

    def _memory_location(self, expr):
        loc = self.location(expr)
        if loc[0] != "mem":
            raise Unlowerable("aggregate access on slot-backed value")
        return loc

    def _index_location(self, expr):
        # Evaluator order: index first, then base.
        index = self.expr(expr.index)
        _kind, addr, ctype, dyn = self._memory_location(expr.base)
        from ...lang.types import ArrayType

        if not isinstance(ctype, ArrayType):
            raise Unlowerable("indexing non-array storage")
        element = ctype.element
        length = ctype.length
        if _INT_LITERAL.fullmatch(index):
            value = int(index)
            if value < 0 or value >= length:
                # Every active lane faults, exactly like the scalar
                # compile-time check firing when the line executes.
                self.emit("if _any(%s): raise _VF" % self.mask)
            return ("mem", self._offset(addr, value * element.size), element, dyn)
        ti = self.temp()
        self.emit("%s = %s" % (ti, index))
        tb = self.temp()
        self.emit("%s = ((%s) < 0) | ((%s) >= %d)" % (tb, ti, ti, length))
        self._guard(tb)
        # Sanitize faulting *inactive* lanes so gathers stay in bounds.
        self.emit("%s = _w(%s, 0, %s)" % (ti, tb, ti))
        if element.size == 1:
            dynpart = ti
        else:
            dynpart = "%s * %d" % (ti, element.size)
        return ("mem", "%s + %s" % (addr, dynpart), element, True)

    # -- loads / stores ------------------------------------------------

    def load(self, loc):
        kind, where, ctype = loc[0], loc[1], loc[2]
        if kind == "slot":
            return "S[:, %d]" % where
        if kind == "local":
            return where
        return self._mem_read(where, ctype, dyn=loc[3] if len(loc) > 3 else False)

    def store(self, loc, value):
        """Masked store of ``value`` under the current lane mask.
        View-backed destinations (slot / presence / memory columns) use
        the in-place ``_st`` (``np.copyto(..., where=mask)``) — one
        masked write instead of an allocate-and-merge; locals keep the
        merge form because a temp may alias a loaded view."""
        kind, where, ctype = loc[0], loc[1], loc[2]
        if kind == "slot":
            self.emit("_st(S[:, %d], %s, %s)" % (where, value, self.mask))
        elif kind == "local":
            self.emit("%s = _w(%s, %s, %s)" % (where, self.mask, value, where))
        else:
            dyn = loc[3] if len(loc) > 3 else False
            self._mem_write(where, ctype, value, dyn=dyn)

    def _col(self, addr, dyn):
        return ("D[R, %s]" if dyn else "D[:, %s]") % addr

    def _mem_read(self, addr, ctype, dyn=False):
        if isinstance(ctype, BoolType):
            return "((%s != 0) * 1)" % self._col(addr, dyn)
        if not isinstance(ctype, IntType):
            raise Unlowerable("cannot read %s natively" % ctype)
        if ctype.size == 1:
            if not ctype.signed:
                return "_i8(%s)" % self._col(addr, dyn)
            t = self.temp()
            self.emit("%s = _i8(%s)" % (t, self._col(addr, dyn)))
            return "(%s - ((%s > 127) * 256))" % (t, t)
        ta = self.temp()
        self.emit("%s = %s" % (ta, addr))
        parts = ["_i8(%s)" % self._col(ta, dyn)]
        for j in range(1, ctype.size):
            col = self._col("%s + %d" % (ta, j), dyn)
            parts.append("(_i8(%s) << %d)" % (col, 8 * j))
        combined = " | ".join(parts)
        if not ctype.signed:
            return "(%s)" % combined
        t = self.temp()
        self.emit("%s = %s" % (t, combined))
        half = (1 << (8 * ctype.size - 1)) - 1
        return "(%s - ((%s > %d) * %d))" % (t, t, half, 1 << (8 * ctype.size))

    def _mem_write(self, addr, ctype, value, dyn=False):
        if isinstance(ctype, BoolType) or (
            isinstance(ctype, IntType) and ctype.size == 1
        ):
            col = self._col(addr, dyn)
            if dyn:
                # ``D[R, addr]`` is a fancy-indexed copy, not a view —
                # only the merge-and-assign form writes through.
                self.emit(
                    "%s = _w(%s, (%s) & 255, %s)" % (col, self.mask, value, col)
                )
            else:
                self.emit("_st(%s, (%s) & 255, %s)" % (col, value, self.mask))
            return
        if not isinstance(ctype, IntType):
            raise Unlowerable("cannot write %s natively" % ctype)
        mask = (1 << (8 * ctype.size)) - 1
        ta = self.temp()
        self.emit("%s = %s" % (ta, addr))
        tv = self.temp()
        self.emit("%s = (%s) & %d" % (tv, value, mask))
        for j in range(ctype.size):
            col = self._col("%s + %d" % (ta, j) if j else ta, dyn)
            byte = "(%s >> %d) & 255" % (tv, 8 * j) if j else "(%s) & 255" % tv
            if dyn:
                self.emit("%s = _w(%s, %s, %s)" % (col, self.mask, byte, col))
            else:
                self.emit("_st(%s, %s, %s)" % (col, byte, self.mask))

    def _copy_aggregate(self, dst_addr, dst_type, value_expr, dyn=False):
        src_type = self._type_of(value_expr)
        if not isinstance(src_type, (StructType, UnionType)):
            raise Unlowerable("aggregate copy source %s" % src_type)
        _kind, src_addr, _stype, src_dyn = self._memory_location(value_expr)
        if dyn or src_dyn:
            # Per-lane aggregate addresses would need a strided gather;
            # leave those states to the scalar engine.
            raise Unlowerable("dynamic aggregate copy")
        dst = self.temp()
        src = self.temp()
        self.emit("%s = %s" % (dst, dst_addr))
        self.emit("%s = %s" % (src, src_addr))
        n = min(dst_type.size, src_type.size)
        # _stc copies the source range first when the byte ranges
        # overlap (base addresses are plain ints at run time).
        self.emit("_stc(D, %s, %s, %d, %s)" % (dst, src, n, self.mask))
        if n < dst_type.size:
            self.emit(
                "_st(D[:, %s + %d:%s + %d], 0, (%s)[:, None])"
                % (dst, n, dst, dst_type.size, self.mask)
            )

    def _aggregate_assign_stmt(self, expr):
        loc = self.location(expr.target)
        if loc[0] != "mem" or not isinstance(loc[2], (StructType, UnionType)):
            raise Unlowerable("aggregate assignment target")
        self._copy_aggregate(loc[1], loc[2], expr.value, dyn=loc[3])

    # -- expressions ---------------------------------------------------

    def _unary(self, expr):
        if expr.op == "!":
            return "(((%s) == 0) * 1)" % self.expr(expr.operand)
        if expr.op in ("&", "*"):
            raise Unlowerable("pointer operation")
        from ..ceval import _promote

        operand_type = self._type_of(expr.operand)
        operand = self.expr(expr.operand)
        if expr.op == "+":
            return operand
        if expr.op == "-":
            return self.wrap("-(%s)" % operand, _promote(operand_type))
        if expr.op == "~":
            if isinstance(operand_type, BoolType):
                return "(((%s) == 0) * 1)" % operand
            return self.wrap("~(%s)" % operand, _promote(operand_type))
        raise Unlowerable("unary %r" % expr.op)

    def _binary(self, expr):
        op = expr.op
        if op in ("&&", "||"):
            return self._short_circuit(expr)
        if op == ",":
            left = self.expr(expr.left)
            if not _ATOM.fullmatch(left):
                self.emit(left)  # faults already guarded in the prelude
            return self.expr(expr.right)
        left_type = self._type_of(expr.left)
        right_type = self._type_of(expr.right)
        if not isinstance(left_type, _INTEGERS):
            raise Unlowerable("non-integer binary operand")
        if not isinstance(right_type, _INTEGERS):
            raise Unlowerable("non-integer binary operand")
        left = self.expr(expr.left)
        right = self.expr(expr.right)
        if op in _COMPARE_OPS:
            return "(((%s) %s (%s)) * 1)" % (left, op, right)
        result_type = self._type_of(expr)
        return self.wrap(self._arith(op, left, right), result_type)

    def _arith(self, op, left, right):
        if op in ("/", "%"):
            td = self.temp()
            self.emit("%s = %s" % (td, right))
            tb = self.temp()
            self.emit("%s = (%s) == 0" % (tb, td))
            self._guard(tb)
            self.emit("%s = _w(%s, 1, %s)" % (td, tb, td))
            fn = "_vdiv" if op == "/" else "_vrem"
            return "%s(%s, %s)" % (fn, left, td)
        if op == "<<":
            return "(%s) << ((%s) & 31)" % (left, right)
        if op == ">>":
            return "(%s) >> ((%s) & 31)" % (left, right)
        if op in _PLAIN_BINOPS:
            return "(%s) %s (%s)" % (left, op, right)
        raise Unlowerable("binary %r" % op)

    def _short_circuit(self, expr):
        op = expr.op
        left = self.expr(expr.left)
        tl = self.temp()
        self.emit("%s = (%s) != 0" % (tl, left))
        outer = self.mask
        inner = self._new_mask()
        self.emit(
            "%s = %s" % (inner, self._narrow(outer, tl, invert=op != "&&"))
        )
        self.mask = inner
        try:
            right = self.expr(expr.right)
        finally:
            self.mask = outer
        joiner = "&" if op == "&&" else "|"
        return "(((%s) %s ((%s) != 0)) * 1)" % (tl, joiner, right)

    def _cond_expr(self, expr):
        cond = self.expr(expr.cond)
        tc = self.temp()
        self.emit("%s = (%s) != 0" % (tc, cond))
        outer = self.mask
        m_then = self._new_mask()
        m_else = self._new_mask()
        self.emit("%s = %s" % (m_then, self._narrow(outer, tc)))
        self.emit("%s = %s" % (m_else, self._narrow(outer, tc, invert=True)))
        self.mask = m_then
        try:
            then = self.expr(expr.then)
        finally:
            self.mask = outer
        tt = self.temp()
        self.emit("%s = %s" % (tt, then))
        self.mask = m_else
        try:
            other = self.expr(expr.otherwise)
        finally:
            self.mask = outer
        return "_w(%s, %s, %s)" % (tc, tt, other)

    def _cast(self, expr):
        target = expr.type
        operand_type = self._type_of(expr.operand)
        if operand_type.is_aggregate() and target.is_scalar():
            _kind, addr, _ctype, dyn = self._memory_location(expr.operand)
            if isinstance(target, BoolType):
                return "((%s != 0) * 1)" % self._col(addr, dyn)
            if isinstance(target, IntType):
                return self._mem_read(addr, target, dyn=dyn)
            raise Unlowerable("aggregate cast target %s" % target)
        if not isinstance(target, _INTEGERS):
            raise Unlowerable("cast target %s" % target)
        return self.wrap(self.expr(expr.operand), target)

    # -- statements ----------------------------------------------------

    def stmt(self, stmt):
        if isinstance(stmt, (ast.Break, ast.Continue)):
            raise Unlowerable("loop escape in vector mode")
        super().stmt(stmt)

    def _if(self, stmt):
        cond = self.expr(stmt.cond)
        tc = self.temp()
        self.emit("%s = (%s) != 0" % (tc, cond))
        outer = self.mask
        m_then = self._new_mask()
        self.emit("%s = %s" % (m_then, self._narrow(outer, tc)))
        self.emit("if _any(%s):" % m_then)
        self.indent += 1
        mark = len(self.lines)
        self.mask = m_then
        try:
            self.stmt(stmt.then)
        finally:
            self.mask = outer
        if len(self.lines) == mark:
            self.emit("pass")
        self.indent -= 1
        if stmt.otherwise is not None:
            m_else = self._new_mask()
            self.emit("%s = %s" % (m_else, self._narrow(outer, tc, invert=True)))
            self.emit("if _any(%s):" % m_else)
            self.indent += 1
            mark = len(self.lines)
            self.mask = m_else
            try:
                self.stmt(stmt.otherwise)
            finally:
                self.mask = outer
            if len(self.lines) == mark:
                self.emit("pass")
            self.indent -= 1

    def _loop(self, cond_first, cond, body, step=None):
        """Shared mask-narrowing loop: lanes drop out as their condition
        goes false; the loop exits when no lane remains."""
        outer = self.mask
        lm = self._new_mask()
        self.emit("%s = %s" % (lm, outer))
        self.emit("while True:")
        self.indent += 1
        self.mask = lm
        try:
            if cond_first and cond is not None:
                text = self.expr(cond)
                self.emit("%s = (%s) & ((%s) != 0)" % (lm, lm, text))
                self.emit("if not _any(%s): break" % lm)
            mark = len(self.lines)
            self.stmt(body)
            if step is not None:
                text = self.expr(step)
                if not _ATOM.fullmatch(text):
                    self.emit(text)
            if not cond_first:
                text = self.expr(cond)
                self.emit("%s = (%s) & ((%s) != 0)" % (lm, lm, text))
                self.emit("if not _any(%s): break" % lm)
            elif cond is None:
                raise Unlowerable("unconditional loop in vector mode")
            if len(self.lines) == mark:
                self.emit("pass")
        finally:
            self.mask = outer
        self.indent -= 1

    def _while(self, stmt):
        self._loop(True, stmt.cond, stmt.body)

    def _dowhile(self, stmt):
        from ..native import _contains_loop_escape

        if _contains_loop_escape(stmt.body, ast.Continue):
            raise Unlowerable("continue inside do-while")
        self._loop(False, stmt.cond, stmt.body)

    def _for(self, stmt):
        self._push_scope()
        try:
            if stmt.init is not None:
                self.stmt(stmt.init)
            self._loop(True, stmt.cond, stmt.body, step=stmt.step)
        finally:
            self._pop_scope()

    # -- emits ---------------------------------------------------------

    def _lower_emit_value(self, name, value_expr):
        ctype = self.sig_types[name]
        if isinstance(ctype, PureType):
            raise Unlowerable("valued emit of a pure signal")
        if name in self.sig_slot:
            value = self.wrap(self.expr(value_expr), ctype)
            sidx = self.sig_slot[name]
            self.emit("_st(S[:, %d], %s, %s)" % (sidx, value, self.mask))
        elif isinstance(ctype, _INTEGERS):
            value = self.wrap(self.expr(value_expr), ctype)
            self._mem_write(self.base_name("sig", name), ctype, value)
        elif isinstance(ctype, (StructType, UnionType)):
            self._copy_aggregate(self.base_name("sig", name), ctype, value_expr)
        else:
            raise Unlowerable("aggregate emit")

    # -- states --------------------------------------------------------

    def lower_vector_state(self, state):
        self.lines.append("def _vs%d(k, P, S, D, NS, EM, PK, R):" % state.index)
        self.indent = 1
        self.mask = "m0"
        self.emit("m0 = _ones(k)")
        self._node(state.reaction, 0)
        self.lines.append("")

    def _node(self, node, em):
        if isinstance(node, Leaf):
            packed = (1 if node.delta else 0) | (self.next_tid << 1)
            self.next_tid += 1
            m = self.mask
            self.emit("NS[%s] = %d" % (m, node.target))
            if em:
                # The caller pre-zeroes EM for the live prefix, so the
                # common emit-free leaf skips the masked store.
                self.emit("EM[%s] = %d" % (m, em))
            self.emit("PK[%s] = %d" % (m, packed))
            self.lowered_ops += 1
        elif isinstance(node, TestSignal):
            outer = self.mask
            tc = self.temp()
            self.emit("%s = P[:, %d] != 0" % (tc, self.pindex[node.signal]))
            self._split(outer, tc, node.then, node.otherwise, em)
        elif isinstance(node, TestData):
            cond = self.expr(node.cond)
            self.lowered_ops += 1
            outer = self.mask
            tc = self.temp()
            self.emit("%s = (%s) != 0" % (tc, cond))
            self._split(outer, tc, node.then, node.otherwise, em)
        elif isinstance(node, DoAction):
            self.stmt(node.stmt)
            self.lowered_ops += 1
            self._node(node.next, em)
        elif isinstance(node, DoEmit):
            name = node.signal
            if node.value is not None:
                self._lower_emit_value(name, node.value)
            pidx = self.pindex[name]
            self.emit("_st(P[:, %d], 1, %s)" % (pidx, self.mask))
            self.lowered_ops += 1
            self._node(node.next, em | self.output_bits.get(name, 0))
        else:
            raise EvalError("corrupt reaction tree node %r" % (node,))

    def _split(self, outer, tc, then_node, else_node, em):
        m_then = self._new_mask()
        self.emit("%s = %s" % (m_then, self._narrow(outer, tc)))
        self.emit("if _any(%s):" % m_then)
        self.indent += 1
        self.mask = m_then
        self._node(then_node, em)
        self.mask = outer
        self.indent -= 1
        m_else = self._new_mask()
        self.emit("%s = %s" % (m_else, self._narrow(outer, tc, invert=True)))
        self.emit("if _any(%s):" % m_else)
        self.indent += 1
        self.mask = m_else
        self._node(else_node, em)
        self.mask = outer
        self.indent -= 1


def _leaf_count(state):
    return sum(1 for node in walk_reaction(state.reaction) if isinstance(node, Leaf))


def _tree_ops(state):
    return sum(
        1
        for node in walk_reaction(state.reaction)
        if isinstance(node, (TestData, DoAction, DoEmit, Leaf))
    )


def compile_vector(efsm, code=None):
    """Lower every state of ``efsm`` into a :class:`VectorCode` bundle.

    ``code`` is the module's scalar :class:`NativeCode` (compiled when
    omitted); the vector lowerer derives the identical slot layout from
    the EFSM and the bundle is validated against it, so the matrices
    the generated functions index match the scalar engine's arrays
    column for column.
    """
    if code is None:
        code = compile_native(efsm)
    if not isinstance(code, NativeCode):
        raise EvalError("compile_vector needs the scalar NativeCode bundle")
    lowerer = _VectorLowerer(efsm)
    if tuple(lowerer.presence) != tuple(code.presence) or tuple(
        (n, k, str(t)) for n, k, t in lowerer.value_slots
    ) != tuple((n, k, str(t)) for n, k, t in code.value_slots):
        raise EvalError(
            "vector slot layout diverged from the native bundle of %r" % efsm.name
        )
    header = '"""Vector step functions for ECL module %s (numpy backend)."""'
    lowerer.lines.append(header % efsm.name)
    lowerer.lines.append("")
    scalar_states = []
    scalar_ops = 0
    base_scopes = len(lowerer.tenv._scopes)
    for state in efsm.states:
        mark = len(lowerer.lines)
        tid0 = lowerer.next_tid
        ops0 = lowerer.lowered_ops
        try:
            lowerer.lower_vector_state(state)
        except Unlowerable:
            del lowerer.lines[mark:]
            del lowerer.tenv._scopes[base_scopes:]
            lowerer._locals.clear()
            lowerer.indent = 1
            lowerer.next_tid = tid0 + _leaf_count(state)
            lowerer.lowered_ops = ops0
            scalar_states.append(state.index)
            scalar_ops += _tree_ops(state)
    assert lowerer.next_tid == efsm.transition_count(), (
        "vector transition-id walk diverged from the machine tables"
    )
    scalar_set = set(scalar_states)
    names = ", ".join(
        "None" if state.index in scalar_set else "_vs%d" % state.index
        for state in efsm.states
    )
    lowerer.lines.append("VSTATE_FUNCS = [%s]" % names)
    source = "\n".join(lowerer.lines) + "\n"
    ordered = sorted(lowerer.bases.items(), key=lambda item: item[1])
    bases = tuple((pyname, kind, name) for (kind, name), pyname in ordered)
    return VectorCode(
        module=efsm.name,
        initial=efsm.initial,
        state_count=len(efsm.states),
        source=source,
        bases=bases,
        scalar_states=tuple(scalar_states),
        vector_ops=lowerer.lowered_ops,
        scalar_ops=scalar_ops,
    )
