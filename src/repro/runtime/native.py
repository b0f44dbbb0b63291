"""Native reaction engine: closure-compiled EFSMs.

This module is the software analogue of the paper's phase 3: instead of
*interpreting* the EFSM decision tree node by node on every instant
(:class:`repro.codegen.py_backend.EfsmReactor`) and re-walking every C
expression through the tree-walking
:class:`~repro.runtime.ceval.Evaluator`, it lowers each state's
reaction tree **once** to straight-line Python source — one function
per state — and runs that natively:

* presence tests become integer-indexed reads of a flat presence array
  ``P`` (one slot per signal);
* scalar variables and scalar signal values live in a flat slot array
  ``S`` (plain Python ints, wrapped to their C type on every store);
* aggregates (structs, unions, arrays) keep their byte-accurate storage
  in the module's :class:`~repro.runtime.memory.AddressSpace`; the
  generated code reads and writes the backing ``bytearray`` directly at
  compile-time-resolved offsets, with the same bounds checks the
  interpreted :class:`~repro.runtime.memory.LValue` performs;
* ``TestData`` / ``DoAction`` / ``DoEmit`` expressions are compiled
  once via :func:`compile` into the state functions; constructs outside
  the lowerable subset (pointer arithmetic, function calls, aggregate
  copies, ...) fall back to closures over the reference evaluator, so
  behaviour is always *identical* to the interpreted engines — only
  faster;
* aggregate-to-aggregate copies (``emit_v(outpkt, buffer)`` and plain
  struct/union assignment) lower to ``bytearray`` slice moves between
  the two compile-time-resolved regions — what used to be the protocol
  stack's evaluator residue is now native;
* each state function returns ``(next_state, emitted_mask, packed)``;
  the mask has one bit per output signal, decoded (and cached) into the
  instant's :class:`~repro.runtime.reactor.ReactorOutput`; ``packed``
  carries the leaf's delta flag in bit 0 and its machine-wide
  transition id (:meth:`repro.efsm.machine.Efsm.transition_table`) in
  the remaining bits, so the coverage bitmaps of :mod:`repro.verify` mark
  transitions at the cost of one shift — and zero cost when coverage is
  not enabled.

The result of lowering is a picklable :class:`NativeCode` bundle, which
the pipeline content-addresses in its ``ArtifactCache`` (stage
``native``) — warm runs skip codegen entirely.  Binding a
:class:`NativeReactor` to a code bundle is cheap: the bundle keeps its
compiled code object (:class:`GeneratedCode`), so a simulation farm
instantiates thousands of reactors per worker without re-compiling
anything.

Deliberate deviation: the native engine does not report per-operation
:class:`~repro.cost.model.CycleCounter` classes (that bookkeeping *is*
the interpretation overhead being removed); a supplied counter still
counts ``react`` instants.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import List, Tuple

from ..efsm.machine import (
    TERMINATED,
    DoAction,
    DoEmit,
    Leaf,
    TestData,
    TestSignal,
    walk_reaction,
)
from ..errors import EvalError
from ..lang import ast
from ..lang.types import (
    ArrayType,
    BoolType,
    IntType,
    PureType,
    StructType,
    UnionType,
)
from .ceval import Env, Evaluator, _c_div, _c_rem, _promote
from .memory import AddressSpace, Variable
from .reactor import ReactorOutput
from .signals import SignalSlot, SignalTable


class Unlowerable(Exception):
    """Internal: this expression/statement is outside the native subset."""


# ----------------------------------------------------------------------
# Slot-backed runtime objects.
#
# The evaluator only ever touches variables and signals through a small
# duck-typed surface (``.type``, ``.load()``, ``.store()``, ``.lvalue``),
# so a slot-backed implementation keeps the fallback evaluator and the
# generated code coherent: both read and write the same flat arrays.


class SlotLValue:
    """A typed location inside the flat slot array."""

    __slots__ = ("slots", "index", "type")

    def __init__(self, slots, index, ctype):
        self.slots = slots
        self.index = index
        self.type = ctype

    def load(self):
        return self.slots[self.index]

    def store(self, value):
        self.slots[self.index] = self.type.wrap(value)

    def __repr__(self):
        return "<SlotLValue #%d %s>" % (self.index, self.type)


class SlotVariable:
    """A module variable mirrored into the slot array (scalar, never
    address-taken — the analysis in :func:`compile_native` guarantees
    no pointer can alias it)."""

    __slots__ = ("name", "type", "lvalue")

    def __init__(self, name, ctype, slots, index):
        self.name = name
        self.type = ctype
        self.lvalue = SlotLValue(slots, index, ctype)

    def load(self):
        return self.lvalue.load()

    def store(self, value):
        self.lvalue.store(value)

    def __repr__(self):
        return "<SlotVariable %s: %s>" % (self.name, self.type)


class NativeSignal:
    """Runtime face of one signal: presence in ``P``, value either in
    the slot array (scalar) or in byte-accurate storage (aggregate)."""

    __slots__ = (
        "name",
        "type",
        "direction",
        "pidx",
        "sidx",
        "_presence",
        "_slots",
        "_storage",
    )

    def __init__(
        self, name, ctype, direction, pidx, presence, slots, sidx=-1, storage=None
    ):
        self.name = name
        self.type = ctype
        self.direction = direction
        self.pidx = pidx
        self.sidx = sidx
        self._presence = presence
        self._slots = slots
        self._storage = storage

    @property
    def is_pure(self):
        return isinstance(self.type, PureType)

    @property
    def present(self):
        return bool(self._presence[self.pidx])

    @property
    def lvalue(self):
        if self.sidx >= 0:
            return SlotLValue(self._slots, self.sidx, self.type)
        if self._storage is not None:
            return self._storage.lvalue
        return None

    def load(self):
        if self.sidx >= 0:
            return self._slots[self.sidx]
        if self._storage is not None:
            return self._storage.load()
        raise EvalError("pure signal %r has no value (presence-only)" % self.name)

    def store(self, value):
        if self.sidx >= 0:
            self._slots[self.sidx] = self.type.wrap(value)
        elif self._storage is not None:
            self._storage.store(value)
        else:
            raise EvalError("cannot write a value to pure signal %r" % self.name)

    def __repr__(self):
        return "<NativeSignal %s>" % self.name


class NativeSignalTable(SignalTable):
    """A :class:`SignalTable` holding :class:`NativeSignal` slots — the
    shared ``require_input`` diagnostics apply verbatim."""


# ----------------------------------------------------------------------
# The compiled-code bundle.


class GeneratedCode:
    """Base of the picklable payloads that carry generated Python
    source (native reaction code, trace drivers, vector code, monitor
    bundles).

    :meth:`compiled` compiles a source once per payload object and
    keeps the code object in the payload, so compiled code lives
    exactly as long as the artifact that holds it: the artifact
    cache's memory layer and a worker's resident builds bound both.
    Pickling drops it (code objects and exec'd functions never cross
    processes); an unpickled payload compiles again on first use.
    """

    def compiled(self, source=None):
        """The code object of ``source`` (default: this payload's own
        ``source``).  Two threads racing the first call both compile
        and one result is kept."""
        if source is None:
            source = self.source
        memo = self.__dict__.setdefault("_code", {})
        code = memo.get(source)
        if code is None:
            code = memo[source] = compile(source, "<ecl-generated>", "exec")
        return code

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_code", None)
        state.pop("_drive", None)
        return state


@dataclass
class NativeCode(GeneratedCode):
    """Picklable result of lowering one EFSM (see :func:`compile_native`).

    ``source`` defines one function per state plus a ``STATE_FUNCS``
    list; ``fallbacks`` carries the AST nodes the lowerer left to the
    reference evaluator (bound to closures per reactor); the remaining
    fields describe the slot layout the generated code assumes.
    """

    module: str
    initial: int
    state_count: int
    source: str
    #: S-array layout: ``(name, kind, ctype)`` with kind var|signal.
    value_slots: Tuple[tuple, ...] = ()
    #: P-array layout: signal names, params first, then locals.
    presence: Tuple[str, ...] = ()
    #: Memory-backed entities referenced by the generated code:
    #: ``(pyname, kind, name)`` bound to base addresses at reactor init.
    bases: Tuple[tuple, ...] = ()
    #: Evaluator-bound residue: ("action", stmt) | ("cond", expr) |
    #: ("emit", signal, value_expr_or_None, bit).
    fallbacks: Tuple[tuple, ...] = ()
    #: Output-signal mask bits: ``(name, bit)``.
    output_bits: Tuple[tuple, ...] = ()
    lowered_ops: int = 0
    fallback_ops: int = 0

    def describe(self):
        total = self.lowered_ops + self.fallback_ops
        text = "native %s: %d states, %d/%d tree ops lowered, %d fallbacks"
        return text % (
            self.module,
            self.state_count,
            self.lowered_ops,
            max(1, total),
            self.fallback_ops,
        )


def _oob(index, length, type_text):
    raise EvalError("array index %d out of bounds for %s" % (index, type_text))


# ----------------------------------------------------------------------
# Static analysis: which names can live in the flat slot array.


def _walk_ast(root):
    """Every dataclass node reachable from ``root`` (exprs and stmts)."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if isinstance(node, (tuple, list)):
            stack.extend(node)
            continue
        if not hasattr(node, "__dataclass_fields__"):
            continue
        yield node
        for name in node.__dataclass_fields__:
            if name == "span":
                continue
            stack.append(getattr(node, name, None))


def _data_roots(efsm):
    """Every C expression/statement embedded in the reaction trees plus
    the module's C function bodies."""
    for state in efsm.states:
        for node in walk_reaction(state.reaction):
            if isinstance(node, TestData):
                yield node.cond
            elif isinstance(node, DoAction):
                yield node.stmt
            elif isinstance(node, DoEmit) and node.value is not None:
                yield node.value
    for function in (efsm.module.functions or {}).values():
        if hasattr(function, "__dataclass_fields__"):
            yield function


def _address_taken(efsm):
    """Names whose address is taken anywhere — those must keep real
    byte storage so pointers into them stay meaningful."""
    names = set()
    for root in _data_roots(efsm):
        for node in _walk_ast(root):
            if not isinstance(node, ast.Unary) or node.op != "&":
                continue
            if isinstance(node.operand, ast.Name):
                names.add(node.operand.id)
    return names


def _slot_eligible(ctype, name, pinned):
    return isinstance(ctype, (IntType, BoolType)) and name not in pinned


# ----------------------------------------------------------------------
# The lowerer: C AST -> Python source.

_ATOM = re.compile(r"[A-Za-z_]\w*|-?\d+|S\[\d+\]|P\[\d+\]")
_INT_LITERAL = re.compile(r"-?\d+")

_PLAIN_BINOPS = {"+", "-", "*", "&", "|", "^"}
_COMPARE_OPS = ("==", "!=", "<", ">", "<=", ">=")
_INTEGERS = (IntType, BoolType)


class _Lowerer:
    """Lowers one EFSM's reaction trees into per-state Python functions.

    Expressions lower to Python expression strings whose side effects
    (assignments, bounds checks, short-circuit preludes) are emitted as
    preceding statement lines; anything outside the subset raises
    :class:`Unlowerable` and the enclosing tree op becomes an evaluator
    closure instead.
    """

    def __init__(self, efsm):
        self.efsm = efsm
        #: Next transition id: leaf occurrences are numbered in the
        #: exact order _node() visits them, which is the order of
        #: Efsm.transition_table() — both walk then-before-otherwise.
        self.next_tid = 0
        module = efsm.module
        self.pinned = _address_taken(efsm)

        # Typing environment: real declarations, used only for .type.
        space = AddressSpace("<native-typing>")
        table = SignalTable()
        presence = []
        self.sig_types = {}
        for param in module.params:
            table.add(SignalSlot(param.name, param.type, space, param.direction))
            presence.append(param.name)
            self.sig_types[param.name] = param.type
        for name, sig_type in module.local_signals:
            table.add(SignalSlot(name, sig_type, space, "local"))
            presence.append(name)
            self.sig_types[name] = sig_type
        self.presence = tuple(presence)
        self.pindex = {name: i for i, name in enumerate(presence)}

        functions = dict(module.functions)
        self.tenv = Env(space=space, functions=functions, signal_resolver=table.get)
        for name, var_type in module.variables:
            self.tenv.declare(name, var_type)
        self.types = Evaluator(self.tenv)

        # Slot layout: scalar signal values first, then scalar variables.
        self.value_slots = []
        self.sig_slot = {}
        self.var_slot = {}
        for name in presence:
            ctype = self.sig_types[name]
            if isinstance(ctype, PureType):
                continue
            if _slot_eligible(ctype, name, self.pinned):
                self.sig_slot[name] = len(self.value_slots)
                self.value_slots.append((name, "signal", ctype))
        self.var_types = {}
        for name, var_type in module.variables:
            self.var_types[name] = var_type
            if _slot_eligible(var_type, name, self.pinned):
                self.var_slot[name] = len(self.value_slots)
                self.value_slots.append((name, "var", var_type))

        # Output mask bits.
        self.output_bits = {}
        for param in module.params:
            if param.direction == "output":
                self.output_bits[param.name] = 1 << len(self.output_bits)

        self.bases = {}  # (kind, name) -> pyname
        self.fallbacks = []
        self.lines: List[str] = []
        self.indent = 1
        self._tmp = 0
        self._locals: List[dict] = []
        self.lowered_ops = 0
        self.fallback_ops = 0

    # -- plumbing ------------------------------------------------------

    def temp(self):
        self._tmp += 1
        return "t%d" % self._tmp

    def emit(self, text):
        self.lines.append("    " * self.indent + text)

    def _type_of(self, expr):
        try:
            return self.types.type_of(expr)
        except EvalError:
            raise Unlowerable("untypable expression")

    def base_name(self, kind, name):
        key = (kind, name)
        pyname = self.bases.get(key)
        if pyname is None:
            pyname = "A%d" % len(self.bases)
            self.bases[key] = pyname
        return pyname

    def _lookup_local(self, name):
        for scope in reversed(self._locals):
            if name in scope:
                return scope[name]
        return None

    # -- wrapping ------------------------------------------------------

    def wrap(self, text, ctype):
        """Reduce ``text`` to the representable range of ``ctype`` —
        the inline equivalent of ``IntType.wrap``."""
        if isinstance(ctype, BoolType):
            return "(1 if %s else 0)" % text
        if isinstance(ctype, IntType):
            mask = (1 << (8 * ctype.size)) - 1
            if not ctype.signed:
                return "((%s) & %d)" % (text, mask)
            offset = 1 << (8 * ctype.size - 1)
            return "((((%s) + %d) & %d) - %d)" % (text, offset, mask, offset)
        raise Unlowerable("cannot wrap to %s" % ctype)

    # -- locations -----------------------------------------------------

    def location(self, expr):
        """A writable location: ("slot", i, t) | ("local", py, t) |
        ("mem", addr_expr, t)."""
        if isinstance(expr, ast.Name):
            return self._resolve(expr.id)
        if isinstance(expr, ast.Member):
            if expr.arrow:
                raise Unlowerable("pointer member access")
            _kind, addr, ctype = self._memory_location(expr.base)
            if not isinstance(ctype, (StructType, UnionType)):
                raise Unlowerable("member access on non-aggregate")
            member = ctype.field_named(expr.name)
            return ("mem", self._offset(addr, member.offset), member.type)
        if isinstance(expr, ast.Index):
            return self._index_location(expr)
        raise Unlowerable("expression is not a lowerable l-value")

    def _index_location(self, expr):
        # Evaluator order: index first, then base.
        index = self.expr(expr.index)
        _kind, addr, ctype = self._memory_location(expr.base)
        if not isinstance(ctype, ArrayType):
            raise Unlowerable("indexing non-array storage")
        element = ctype.element
        length = ctype.length
        if _INT_LITERAL.fullmatch(index):
            value = int(index)
            if value < 0 or value >= length:
                check = "_oob(%d, %d, %r)"
                self.emit(check % (value, length, str(ctype)))
            return ("mem", self._offset(addr, value * element.size), element)
        ti = self.temp()
        self.emit("%s = %s" % (ti, index))
        check = "if %s < 0 or %s >= %d: _oob(%s, %d, %r)"
        self.emit(check % (ti, ti, length, ti, length, str(ctype)))
        if element.size == 1:
            dyn = ti
        else:
            dyn = "%s * %d" % (ti, element.size)
        return ("mem", "%s + %s" % (addr, dyn), element)

    def _memory_location(self, expr):
        loc = self.location(expr)
        if loc[0] != "mem":
            raise Unlowerable("aggregate access on slot-backed value")
        return loc

    @staticmethod
    def _offset(addr, offset):
        if offset == 0:
            return addr
        return "%s + %d" % (addr, offset)

    def _resolve(self, name):
        local = self._lookup_local(name)
        if local is not None:
            return ("local", local[0], local[1])
        if name in self.var_slot:
            return ("slot", self.var_slot[name], self.var_types[name])
        if name in self.var_types:
            return ("mem", self.base_name("var", name), self.var_types[name])
        if name in self.sig_types:
            ctype = self.sig_types[name]
            if isinstance(ctype, PureType):
                raise Unlowerable("pure signal used as a value")
            if name in self.sig_slot:
                return ("slot", self.sig_slot[name], ctype)
            return ("mem", self.base_name("sig", name), ctype)
        raise Unlowerable("unresolvable name %r" % name)

    def load(self, loc):
        kind, where, ctype = loc
        if kind == "slot":
            return "S[%d]" % where
        if kind == "local":
            return where
        return self._mem_read(where, ctype)

    def store(self, loc, value):
        """Store ``value`` (already wrapped to the location's type)."""
        kind, where, ctype = loc
        if kind == "slot":
            self.emit("S[%d] = %s" % (where, value))
        elif kind == "local":
            self.emit("%s = %s" % (where, value))
        else:
            self._mem_write(where, ctype, value)

    def _mem_read(self, addr, ctype):
        if isinstance(ctype, BoolType):
            return "(1 if D[%s] else 0)" % addr
        if not isinstance(ctype, IntType):
            raise Unlowerable("cannot read %s natively" % ctype)
        if ctype.size == 1:
            if not ctype.signed:
                return "D[%s]" % addr
            t = self.temp()
            self.emit("%s = D[%s]" % (t, addr))
            return "(%s - 256 if %s > 127 else %s)" % (t, t, t)
        ta = self.temp()
        self.emit("%s = %s" % (ta, addr))
        reader = '_fb(D[%s:%s + %d], "little", signed=%r)'
        return reader % (ta, ta, ctype.size, ctype.signed)

    def _mem_write(self, addr, ctype, value):
        if isinstance(ctype, BoolType):
            self.emit("D[%s] = %s" % (addr, value))
            return
        if not isinstance(ctype, IntType):
            raise Unlowerable("cannot write %s natively" % ctype)
        if ctype.size == 1:
            self.emit("D[%s] = (%s) & 255" % (addr, value))
            return
        mask = (1 << (8 * ctype.size)) - 1
        ta = self.temp()
        self.emit("%s = %s" % (ta, addr))
        writer = 'D[%s:%s + %d] = ((%s) & %d).to_bytes(%d, "little")'
        self.emit(writer % (ta, ta, ctype.size, value, mask, ctype.size))

    # -- expressions ---------------------------------------------------

    def expr(self, expr):
        """Lower to a side-effect-free Python expression string; side
        effects land as prelude lines at the current indent."""
        if isinstance(expr, ast.IntLit):
            return repr(expr.value)
        if isinstance(expr, ast.Name):
            loc = self._resolve(expr.id)
            if loc[0] == "mem" and not loc[2].is_scalar():
                raise Unlowerable("aggregate value")
            return self.load(loc)
        if isinstance(expr, ast.Unary):
            return self._unary(expr)
        if isinstance(expr, ast.IncDec):
            return self._incdec(expr)
        if isinstance(expr, ast.Binary):
            return self._binary(expr)
        if isinstance(expr, ast.Assign):
            return self._assign(expr)
        if isinstance(expr, ast.Cond):
            return self._cond_expr(expr)
        if isinstance(expr, (ast.Index, ast.Member)):
            loc = self.location(expr)
            if not loc[2].is_scalar():
                raise Unlowerable("aggregate value")
            return self.load(loc)
        if isinstance(expr, ast.Cast):
            return self._cast(expr)
        if isinstance(expr, ast.SizeofType):
            return repr(expr.type.size)
        if isinstance(expr, ast.SizeofExpr):
            return repr(self._type_of(expr.operand).size)
        raise Unlowerable("expression %s" % type(expr).__name__)

    def _unary(self, expr):
        if expr.op == "!":
            return "(0 if %s else 1)" % self.expr(expr.operand)
        if expr.op in ("&", "*"):
            raise Unlowerable("pointer operation")
        operand_type = self._type_of(expr.operand)
        operand = self.expr(expr.operand)
        if expr.op == "+":
            return operand
        if expr.op == "-":
            return self.wrap("-(%s)" % operand, _promote(operand_type))
        if expr.op == "~":
            if isinstance(operand_type, BoolType):
                return "(0 if %s else 1)" % operand
            return self.wrap("~(%s)" % operand, _promote(operand_type))
        raise Unlowerable("unary %r" % expr.op)

    def _capture(self, expr):
        """Lower ``expr`` one indent deeper, capturing its prelude."""
        mark = len(self.lines)
        self.indent += 1
        try:
            text = self.expr(expr)
        finally:
            self.indent -= 1
        prelude = self.lines[mark:]
        del self.lines[mark:]
        return prelude, text

    def _binary(self, expr):
        op = expr.op
        if op in ("&&", "||"):
            return self._short_circuit(expr)
        if op == ",":
            left = self.expr(expr.left)
            if not _ATOM.fullmatch(left):
                self.emit(left)  # preserve faults (e.g. division by zero)
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
            return "(1 if (%s) %s (%s) else 0)" % (left, op, right)
        result_type = self._type_of(expr)
        return self.wrap(self._arith(op, left, right), result_type)

    def _short_circuit(self, expr):
        op = expr.op
        left = self.expr(expr.left)
        prelude, right = self._capture(expr.right)
        if not prelude:
            joiner = "and" if op == "&&" else "or"
            return "(1 if (%s) %s (%s) else 0)" % (left, joiner, right)
        t = self.temp()
        if op == "&&":
            self.emit("%s = 0" % t)
            self.emit("if %s:" % left)
        else:
            self.emit("%s = 1" % t)
            self.emit("if not (%s):" % left)
        self.lines.extend(prelude)
        pad = "    " * (self.indent + 1)
        self.lines.append(pad + "%s = 1 if (%s) else 0" % (t, right))
        return t

    @staticmethod
    def _arith(op, left, right):
        if op == "/":
            return "_c_div(%s, %s)" % (left, right)
        if op == "%":
            return "_c_rem(%s, %s)" % (left, right)
        if op == "<<":
            return "(%s) << ((%s) & 31)" % (left, right)
        if op == ">>":
            return "(%s) >> ((%s) & 31)" % (left, right)
        if op in _PLAIN_BINOPS:
            return "(%s) %s (%s)" % (left, op, right)
        raise Unlowerable("binary %r" % op)

    def _copy_aggregate(self, dst_addr, dst_type, value_expr):
        """Aggregate-to-aggregate copy as a ``bytearray`` slice move —
        observably identical to the evaluator's load-bytes/store pair
        (zero-pad when the source is shorter, truncate when longer;
        the slice RHS snapshots, so overlap behaves the same too)."""
        src_type = self._type_of(value_expr)
        if not isinstance(src_type, (StructType, UnionType)):
            raise Unlowerable("aggregate copy source %s" % src_type)
        _kind, src_addr, _stype = self._memory_location(value_expr)
        dst = self.temp()
        src = self.temp()
        self.emit("%s = %s" % (dst, dst_addr))
        self.emit("%s = %s" % (src, src_addr))
        n = min(dst_type.size, src_type.size)
        self.emit("D[%s:%s + %d] = D[%s:%s + %d]" % (dst, dst, n, src, src, n))
        if n < dst_type.size:
            self.emit(
                "D[%s + %d:%s + %d] = bytes(%d)"
                % (dst, n, dst, dst_type.size, dst_type.size - n)
            )

    def _aggregate_assign_stmt(self, expr):
        """``a = b;`` on structs/unions (statement context only — the
        evaluator's byte-string result value has no cheap native
        equivalent, so value uses stay fallbacks)."""
        kind, dst_addr, dst_type = self.location(expr.target)
        if kind != "mem" or not isinstance(dst_type, (StructType, UnionType)):
            raise Unlowerable("aggregate assignment target")
        self._copy_aggregate(dst_addr, dst_type, expr.value)

    def _assign(self, expr):
        loc = self.location(expr.target)  # evaluator order: lvalue first
        ctype = loc[2]
        if not ctype.is_scalar():
            raise Unlowerable("aggregate assignment")
        if expr.op == "=":
            value = self.expr(expr.value)
            t = self.temp()
            self.emit("%s = %s" % (t, self.wrap(value, ctype)))
            self.store(loc, t)
            return t
        told = self.temp()  # snapshot before the RHS runs (evaluator order)
        self.emit("%s = %s" % (told, self.load(loc)))
        value = self.expr(expr.value)
        t = self.temp()
        combined = self._arith(expr.op[:-1], told, value)
        self.emit("%s = %s" % (t, self.wrap(combined, ctype)))
        self.store(loc, t)
        return t

    def _incdec(self, expr):
        loc = self.location(expr.target)
        ctype = loc[2]
        if not isinstance(ctype, _INTEGERS):
            raise Unlowerable("++/-- on non-integer")
        step = "+ 1" if expr.op == "++" else "- 1"
        told = self.temp()
        self.emit("%s = %s" % (told, self.load(loc)))
        tnew = self.temp()
        self.emit("%s = %s" % (tnew, self.wrap("%s %s" % (told, step), ctype)))
        self.store(loc, tnew)
        return told if expr.postfix else tnew

    def _cond_expr(self, expr):
        cond = self.expr(expr.cond)
        then_prelude, then = self._capture(expr.then)
        other_prelude, other = self._capture(expr.otherwise)
        if not then_prelude and not other_prelude:
            return "((%s) if (%s) else (%s))" % (then, cond, other)
        t = self.temp()
        pad = "    " * (self.indent + 1)
        self.emit("if %s:" % cond)
        self.lines.extend(then_prelude)
        self.lines.append(pad + "%s = %s" % (t, then))
        self.emit("else:")
        self.lines.extend(other_prelude)
        self.lines.append(pad + "%s = %s" % (t, other))
        return t

    def _cast(self, expr):
        target = expr.type
        operand_type = self._type_of(expr.operand)
        if operand_type.is_aggregate() and target.is_scalar():
            # Reinterpret leading bytes (README, "Semantics and deviations").
            _kind, addr, _ctype = self._memory_location(expr.operand)
            if isinstance(target, BoolType):
                return "(1 if D[%s] else 0)" % addr
            if isinstance(target, IntType):
                return self._mem_read(addr, target)
            raise Unlowerable("aggregate cast target %s" % target)
        if not isinstance(target, _INTEGERS):
            raise Unlowerable("cast target %s" % target)
        return self.wrap(self.expr(expr.operand), target)

    # -- statements ----------------------------------------------------

    def stmt(self, stmt):
        if isinstance(stmt, ast.ExprStmt):
            expr = stmt.expr
            if (
                isinstance(expr, ast.Assign)
                and expr.op == "="
                and isinstance(self._type_of(expr.target), (StructType, UnionType))
            ):
                self._aggregate_assign_stmt(expr)
                return
            text = self.expr(expr)
            if not _ATOM.fullmatch(text):
                self.emit(text)  # preserve faults of pure expressions
        elif isinstance(stmt, ast.VarDecl):
            self._vardecl(stmt)
        elif isinstance(stmt, ast.Block):
            self._push_scope()
            try:
                for child in stmt.body:
                    self.stmt(child)
            finally:
                self._pop_scope()
        elif isinstance(stmt, ast.If):
            self._if(stmt)
        elif isinstance(stmt, ast.While):
            self._while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._dowhile(stmt)
        elif isinstance(stmt, ast.For):
            self._for(stmt)
        elif isinstance(stmt, ast.Break):
            self.emit("break")
        elif isinstance(stmt, ast.Continue):
            self.emit("continue")
        else:
            raise Unlowerable("statement %s" % type(stmt).__name__)

    def _push_scope(self):
        self._locals.append({})
        self.tenv.push_scope()

    def _pop_scope(self):
        self._locals.pop()
        self.tenv.pop_scope()

    def _vardecl(self, stmt):
        if not isinstance(stmt.type, _INTEGERS):
            raise Unlowerable("non-integer local declaration")
        if not self._locals:
            raise Unlowerable("declaration outside a block")
        pyname = "v%d_%s" % (self._tmp, stmt.name)
        self._tmp += 1
        if stmt.init is not None:
            value = self.wrap(self.expr(stmt.init), stmt.type)
        else:
            value = "0"  # storage is zero-initialized
        self.emit("%s = %s" % (pyname, value))
        self._locals[-1][stmt.name] = (pyname, stmt.type)
        self.tenv.declare(stmt.name, stmt.type)

    def _if(self, stmt):
        cond = self.expr(stmt.cond)
        self.emit("if %s:" % cond)
        self.indent += 1
        mark = len(self.lines)
        self.stmt(stmt.then)
        if len(self.lines) == mark:
            self.emit("pass")
        self.indent -= 1
        if stmt.otherwise is not None:
            self.emit("else:")
            self.indent += 1
            mark = len(self.lines)
            self.stmt(stmt.otherwise)
            if len(self.lines) == mark:
                self.emit("pass")
            self.indent -= 1

    def _lower_loop_body(self, body):
        mark = len(self.lines)
        self.stmt(body)
        if len(self.lines) == mark:
            self.emit("pass")

    def _while(self, stmt):
        prelude, cond = self._capture(stmt.cond)
        if not prelude:
            self.emit("while %s:" % cond)
            self.indent += 1
            self._lower_loop_body(stmt.body)
            self.indent -= 1
            return
        self.emit("while True:")
        self.indent += 1
        self.lines.extend(prelude)
        self.emit("if not (%s): break" % cond)
        self._lower_loop_body(stmt.body)
        self.indent -= 1

    def _dowhile(self, stmt):
        if _contains_loop_escape(stmt.body, ast.Continue):
            # C continue jumps to the condition; Python's would re-run
            # the body.  Leave this rarity to the evaluator.
            raise Unlowerable("continue inside do-while")
        self.emit("while True:")
        self.indent += 1
        self._lower_loop_body(stmt.body)
        cond = self.expr(stmt.cond)  # prelude lands inside the loop
        self.emit("if not (%s): break" % cond)
        self.indent -= 1

    def _for(self, stmt):
        has_continue = _contains_loop_escape(stmt.body, ast.Continue)
        if stmt.step is not None and has_continue:
            raise Unlowerable("continue inside for-with-step")
        self._push_scope()
        try:
            if stmt.init is not None:
                self.stmt(stmt.init)
            self.emit("while True:")
            self.indent += 1
            if stmt.cond is not None:
                cond = self.expr(stmt.cond)
                self.emit("if not (%s): break" % cond)
            self._lower_loop_body(stmt.body)
            if stmt.step is not None:
                text = self.expr(stmt.step)
                if not _ATOM.fullmatch(text):
                    self.emit(text)
            self.indent -= 1
        finally:
            self._pop_scope()

    # -- tree ops ------------------------------------------------------

    def _guarded(self, work):
        """Run ``work`` (which emits lines); on Unlowerable, roll back
        every emitted line, typing scope and the indent level so the
        caller can emit a fallback closure instead."""
        line_mark = len(self.lines)
        scope_mark = len(self.tenv._scopes)
        local_mark = len(self._locals)
        indent_mark = self.indent
        try:
            work()
            return True
        except Unlowerable:
            del self.lines[line_mark:]
            del self.tenv._scopes[scope_mark:]
            del self._locals[local_mark:]
            self.indent = indent_mark
            return False

    def add_fallback(self, entry):
        self.fallbacks.append(entry)
        self.fallback_ops += 1
        return len(self.fallbacks) - 1

    def lower_action(self, stmt):
        if self._guarded(lambda: self.stmt(stmt)):
            self.lowered_ops += 1
        else:
            self.emit("A[%d]()" % self.add_fallback(("action", stmt)))

    def lower_test(self, cond):
        """Returns the ``if`` condition text (may emit prelude)."""
        holder = {}

        def work():
            holder["text"] = self.expr(cond)

        if self._guarded(work):
            self.lowered_ops += 1
            return holder["text"]
        return "A[%d]()" % self.add_fallback(("cond", cond))

    def lower_emit(self, node):
        name = node.signal
        bit = self.output_bits.get(name, 0)
        pidx = self.pindex[name]

        def work():
            if node.value is not None:
                self._lower_emit_value(name, node.value)
            self.emit("P[%d] = 1" % pidx)
            if bit:
                self.emit("m |= %d" % bit)

        if self._guarded(work):
            self.lowered_ops += 1
        else:
            index = self.add_fallback(("emit", name, node.value, bit))
            if bit:
                self.emit("m |= A[%d]()" % index)
            else:
                self.emit("A[%d]()" % index)

    def _lower_emit_value(self, name, value_expr):
        ctype = self.sig_types[name]
        if isinstance(ctype, PureType):
            raise Unlowerable("valued emit of a pure signal")
        if name in self.sig_slot:
            value = self.wrap(self.expr(value_expr), ctype)
            self.emit("S[%d] = %s" % (self.sig_slot[name], value))
        elif isinstance(ctype, _INTEGERS):
            value = self.wrap(self.expr(value_expr), ctype)
            self._mem_write(self.base_name("sig", name), ctype, value)
        elif isinstance(ctype, (StructType, UnionType)):
            self._copy_aggregate(self.base_name("sig", name), ctype, value_expr)
        else:
            raise Unlowerable("aggregate emit")

    # -- states --------------------------------------------------------

    def lower_state(self, state):
        self.lines.append("def _s%d(P=P, S=S, D=D, A=A):" % state.index)
        self.indent = 1
        self.emit("m = 0")
        self._node(state.reaction)
        self.lines.append("")

    def _node(self, node):
        if isinstance(node, Leaf):
            packed = (1 if node.delta else 0) | (self.next_tid << 1)
            self.next_tid += 1
            self.emit("return (%d, m, %d)" % (node.target, packed))
        elif isinstance(node, TestSignal):
            self.emit("if P[%d]:" % self.pindex[node.signal])
            self.indent += 1
            self._node(node.then)
            self.indent -= 1
            self.emit("else:")
            self.indent += 1
            self._node(node.otherwise)
            self.indent -= 1
        elif isinstance(node, TestData):
            cond = self.lower_test(node.cond)
            self.emit("if %s:" % cond)
            self.indent += 1
            self._node(node.then)
            self.indent -= 1
            self.emit("else:")
            self.indent += 1
            self._node(node.otherwise)
            self.indent -= 1
        elif isinstance(node, DoAction):
            self.lower_action(node.stmt)
            self._node(node.next)
        elif isinstance(node, DoEmit):
            self.lower_emit(node)
            self._node(node.next)
        else:
            raise EvalError("corrupt reaction tree node %r" % (node,))


def _contains_loop_escape(stmt, kind):
    """True when ``stmt`` contains a ``kind`` escape binding to *this*
    loop (nested loops capture their own)."""
    stack = [stmt]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if isinstance(node, kind):
            return True
        if isinstance(node, (ast.While, ast.DoWhile, ast.For)):
            continue  # inner loop re-binds break/continue
        if isinstance(node, ast.Block):
            stack.extend(node.body)
        elif isinstance(node, ast.If):
            stack.append(node.then)
            stack.append(node.otherwise)
    return False


def compile_native(efsm):
    """Lower every state of ``efsm`` into a :class:`NativeCode` bundle."""
    lowerer = _Lowerer(efsm)
    header = '"""Reaction functions for ECL module %s (native backend)."""'
    lowerer.lines.append(header % efsm.name)
    lowerer.lines.append("")
    for state in efsm.states:
        lowerer.lower_state(state)
    assert lowerer.next_tid == efsm.transition_count(), (
        "transition-id walk diverged from the machine tables"
    )
    names = ", ".join("_s%d" % state.index for state in efsm.states)
    lowerer.lines.append("STATE_FUNCS = [%s]" % names)
    source = "\n".join(lowerer.lines) + "\n"
    ordered = sorted(lowerer.bases.items(), key=lambda item: item[1])
    bases = tuple((pyname, kind, name) for (kind, name), pyname in ordered)
    return NativeCode(
        module=efsm.name,
        initial=efsm.initial,
        state_count=len(efsm.states),
        source=source,
        value_slots=tuple(lowerer.value_slots),
        presence=lowerer.presence,
        bases=bases,
        fallbacks=tuple(lowerer.fallbacks),
        output_bits=tuple(lowerer.output_bits.items()),
        lowered_ops=lowerer.lowered_ops,
        fallback_ops=lowerer.fallback_ops,
    )


# ----------------------------------------------------------------------
# The runtime.


class NativeReactor:
    """Drop-in alternative to
    :class:`~repro.codegen.py_backend.EfsmReactor` running the
    closure-compiled reaction functions."""

    def __init__(self, efsm, code=None, counter=None, builtins=None):
        self.efsm = efsm
        module = efsm.module
        self.module = module
        if code is None:
            code = compile_native(efsm)
        self.code = code
        self.space = AddressSpace(module.name)
        functions = dict(module.functions)
        if builtins:
            functions.update(builtins)

        slots = [0] * len(code.value_slots)
        presence = [0] * len(code.presence)
        self._slots = slots
        self._present = presence
        self._pzero = [0] * len(code.presence)
        self._szero = [0] * len(code.value_slots)
        pindex = {name: i for i, name in enumerate(code.presence)}
        sig_slot = {}
        var_slot = {}
        for i, (name, kind, _ctype) in enumerate(code.value_slots):
            if kind == "signal":
                sig_slot[name] = i
            else:
                var_slot[name] = i

        # Signals: params then locals (allocation order matters for the
        # compile-time-resolved aggregate offsets).
        self.signals = NativeSignalTable()
        declared = [(p.name, p.type, p.direction) for p in module.params]
        for name, ctype in module.local_signals:
            declared.append((name, ctype, "local"))
        for name, ctype, direction in declared:
            storage = None
            sidx = sig_slot.get(name, -1)
            if sidx < 0 and not isinstance(ctype, PureType):
                storage = Variable("<sig:%s>" % name, ctype, self.space)
            signal = NativeSignal(
                name,
                ctype,
                direction,
                pindex[name],
                presence,
                slots,
                sidx=sidx,
                storage=storage,
            )
            self.signals.add(signal)

        self.env = Env(
            space=self.space,
            functions=functions,
            signal_resolver=self.signals.get,
            counter=counter,
        )
        for name, var_type in module.variables:
            index = var_slot.get(name)
            if index is not None:
                mirrored = SlotVariable(name, var_type, slots, index)
                self.env._scopes[0][name] = mirrored
            else:
                self.env.declare(name, var_type)
        self._evaluator = Evaluator(self.env)

        namespace = {
            "P": presence,
            "S": slots,
            "D": self.space._data,
            "_c_div": _c_div,
            "_c_rem": _c_rem,
            "_oob": _oob,
            "_fb": int.from_bytes,
        }
        for pyname, kind, name in code.bases:
            if kind == "var":
                namespace[pyname] = self.env.lookup(name).lvalue.address
            else:
                namespace[pyname] = self.signals[name].lvalue.address
        namespace["A"] = [self._bind_fallback(entry) for entry in code.fallbacks]
        exec(code.compiled(), namespace)
        self._funcs = namespace["STATE_FUNCS"]

        self._input_slots = {s.name: s for s in self.signals.inputs()}
        self._mask_cache = {}
        self.coverage = None
        self._cov_emit_probe = ()
        self.state = code.initial
        self.terminated = False
        self.instants = 0
        # The just-constructed memory image, for restore().
        self._data0 = bytes(self.space._data)
        self._next0 = self.space._next
        self._allocated0 = self.space.allocated_bytes
        self._scope0 = dict(self.env._scopes[0])

    def restore(self):
        """Return to the just-constructed state, so a worker can bind
        one reactor per module and reuse it per job: slots, presence,
        the C memory bytes and bump pointer, the scope chain, coverage
        and the control state all reset; the compiled state functions
        stay bound."""
        self._slots[:] = self._szero
        self._present[:] = self._pzero
        space = self.space
        # In place: the state functions hold the bytearray as ``D``.
        space._data[:] = self._data0
        space._next = self._next0
        space.allocated_bytes = self._allocated0
        scopes = self.env._scopes
        del scopes[1:]
        scopes[0].clear()
        scopes[0].update(self._scope0)
        self.coverage = None
        self.reset()

    # ------------------------------------------------------------------

    def _bind_fallback(self, entry):
        evaluator = self._evaluator
        if entry[0] == "action":
            stmt = entry[1]
            return lambda: evaluator.exec_stmt(stmt)
        if entry[0] == "cond":
            cond = entry[1]
            return lambda: evaluator.eval_bool(cond)
        _tag, name, value_expr, bit = entry
        signal = self.signals[name]
        presence = self._present
        pidx = signal.pidx

        def run_emit():
            value = None
            if value_expr is not None:
                value = evaluator.eval(value_expr)
            presence[pidx] = 1
            if value is not None:
                signal.store(value)
            return bit

        return run_emit

    def _decode_mask(self, mask):
        names = []
        valued = []
        for name, bit in self.code.output_bits:
            if mask & bit:
                names.append(name)
                signal = self.signals[name]
                if not signal.is_pure:
                    valued.append(signal)
        entry = (tuple(names), tuple(valued))
        self._mask_cache[mask] = entry
        return entry

    def _inject(self, name, value):
        slot = self._input_slots.get(name)
        if slot is None or (value is not None and slot.is_pure):
            # Route through the shared diagnostics.
            self.signals.require_input(name, self.module.name, value=value)
        self._present[slot.pidx] = 1
        if value is not None:
            slot.store(value)

    # ------------------------------------------------------------------

    def enable_coverage(self, coverage):
        """Attach a :class:`repro.verify.coverage.CoverageMap` (or any
        object with ``states``/``transitions`` bitmaps and a
        ``mark_emit`` method): every subsequent instant marks the entry
        state, the taken transition and emitted signals."""
        self.coverage = coverage
        probe = []
        for signal in self.signals:
            if signal.direction != "input":
                probe.append((signal.pidx, signal.name))
        self._cov_emit_probe = tuple(probe)

    def _mark_coverage(self, cov, entry, packed):
        cov.states[entry] = 1
        cov.transitions[packed >> 1] = 1
        present = self._present
        for pidx, name in self._cov_emit_probe:
            if present[pidx]:
                cov.mark_emit(name)

    def react(self, inputs=None, values=None):
        """Run one instant through the compiled reaction function."""
        if self.terminated:
            return ReactorOutput(terminated=True)
        self._present[:] = self._pzero
        if values:
            for name, value in values.items():
                self._inject(name, value)
        if inputs:
            values = values or {}
            for name in inputs:
                if name not in values:
                    self._inject(name, None)
        self.env.count("react")
        entry = self.state
        target, mask, packed = self._funcs[entry]()
        self.instants += 1
        cov = self.coverage
        if cov is not None:
            self._mark_coverage(cov, entry, packed)
        if target == TERMINATED:
            self.terminated = True
        else:
            self.state = target
        return self._output(mask, packed & 1)

    def _output(self, mask, delta):
        if mask:
            entry = self._mask_cache.get(mask)
            if entry is None:
                entry = self._decode_mask(mask)
            names, valued = entry
            return ReactorOutput(
                emitted=set(names),
                values={s.name: s.load() for s in valued},
                terminated=self.terminated,
                delta_requested=bool(delta),
                rounds=1,
            )
        return ReactorOutput(
            terminated=self.terminated,
            delta_requested=bool(delta),
            rounds=1,
        )

    def react_many(self, instants):
        """Batched instants: ``instants`` is a list of dicts mapping
        present input names to a value (or None for pure presence) —
        the farm's stimulus currency.  Runs until the list is exhausted
        or the module terminates; returns one :class:`ReactorOutput`
        per executed instant.  Hoists the per-call bookkeeping out of
        the loop, which is what makes farm workloads cheap."""
        outputs = []
        if self.terminated:
            return outputs
        present = self._present
        pzero = self._pzero
        funcs = self._funcs
        inject = self._inject
        count = self.env.count
        output = self._output
        cov = self.coverage
        for instant in instants:
            present[:] = pzero
            for name, value in instant.items():
                inject(name, value)
            count("react")
            target, mask, packed = funcs[self.state]()
            self.instants += 1
            if cov is not None:
                self._mark_coverage(cov, self.state, packed)
            if target == TERMINATED:
                self.terminated = True
                outputs.append(output(mask, packed & 1))
                break
            self.state = target
            outputs.append(output(mask, packed & 1))
        return outputs

    # Same convenience surface as the other reactors.

    def input_signals(self):
        """Names of the module's declared input signals (sorted)."""
        return sorted(self._input_slots)

    def signal_value(self, name):
        return self.signals[name].load()

    def variable(self, name):
        var = self.env.lookup(name)
        if var is None:
            message = "module %s has no variable %r"
            raise EvalError(message % (self.module.name, name))
        return var.load()

    def data_bytes(self):
        return self.space.allocated_bytes

    def run_trace(self, driver, seed):
        """Run one compiled whole-trace driver (see
        :func:`compile_trace_driver`) with the job's derived ``seed``;
        returns one entry per executed instant: a farm-format record
        from a dict-sink driver, a canonical ledger line (in a
        :class:`TraceLines`) from a line-sink one."""
        if self.terminated:
            return TraceLines() if driver.sink == SINK_LINES else []
        import random

        return driver.function()(random.Random(seed), self)

    def reset(self):
        self.state = self.code.initial
        self.terminated = False
        self.instants = 0


# ----------------------------------------------------------------------
# Whole-trace drivers: the react_many idea lifted to traces.
#
# A driver is generated once per (design, stimulus-spec) pair: the
# random-stimulus draws are inlined per input signal with the slot
# indices burned in, so the farm's inner loop performs zero per-instant
# dict handling on the injection side — presence writes are P[i] = 1,
# scalar values go straight into the slot array, and the rng is
# consumed in exactly the order StimulusSpec.materialize consumes it
# (trace-for-trace identical to the step()/react_many paths).  A value
# draw is ``randint``'s own rejection loop over ``getrandbits`` with
# the range's width burned in: bit-identical to random.Random.randint,
# which the vector engine's Mersenne Twister emulation mirrors too.
#
# Each driver writes its instants to one of two sinks, burned into its
# source.  The dict sink appends one farm record per instant (what
# monitors, VCD rendering and every explicit caller consume).  The
# line sink appends the instant's canonical ledger line instead — byte
# for byte ``canonical_json(make_record(...))`` — from static
# fragments (the sorted input keys, and per emitted mask its sorted
# name list and value keys), and counts the emitted events: a trace
# whose records go only to the ledger is encoded once, inside the
# drive.

#: The two record sinks of a trace driver.
SINK_DICT = "dict"
SINK_LINES = "lines"


class TraceLines(list):
    """A line-sink driver's output: one canonical ledger line per
    executed instant, plus the emitted events of those instants."""

    emitted = 0


@dataclass
class TraceDriverCode(GeneratedCode):
    """Picklable compiled driver for one (module, stimulus-spec) pair."""

    module: str
    source: str
    #: instants drawn from the rng (spec length clipped to the budget).
    length: int = 0
    #: total instants including empty horizon padding.
    budget: int = 0
    #: drivable alphabet burned into the source: ``(name, is_pure)``.
    alphabet: Tuple[tuple, ...] = ()
    present_prob: float = 0.5
    value_range: Tuple[int, int] = (0, 255)
    #: :data:`SINK_DICT` (farm records) or :data:`SINK_LINES`
    #: (canonical ledger lines in a :class:`TraceLines`).
    sink: str = SINK_DICT

    def function(self):
        """The exec'd ``_drive`` function, once per payload (kept
        beside the code object, dropped with it on pickling)."""
        func = self.__dict__.get("_drive")
        if func is None:
            namespace = {
                "_hex_loader": _hex_loader,
                "_value_text": _value_text,
                "_str": _json_str,
                "TraceLines": TraceLines,
            }
            exec(self.compiled(), namespace)
            func = self._drive = namespace["_drive"]
        return func

    def describe(self):
        return "trace-driver %s: %d drawn + %d padded instants, %d inputs" % (
            self.module,
            self.length,
            self.budget - self.length,
            len(self.alphabet),
        )


#: JSON text of a string, as ``canonical_json`` writes it.
_json_str = json.encoder.encode_basestring_ascii


def _hex_loader(signal):
    def load():
        return "0x" + bytes(signal.load()).hex()

    return load


def _value_text(signal):
    """A line-sink loader: the JSON text of a valued output's current
    value — the int of a scalar, the ``"0x…"`` string of an aggregate
    (what ``canonical_json`` writes for the dict sink's value)."""
    load = signal.load
    if signal.type.is_scalar():
        return lambda: "%d" % load()
    return lambda: '"0x' + bytes(load()).hex() + '"'


#: The per-reactor prologue of every generated driver: hot references
#: hoisted into locals.
_DRIVER_HOISTS = '''\
    random = rng.random
    getrandbits = rng.getrandbits
    P = reactor._present
    PZERO = reactor._pzero
    S = reactor._slots
    F = reactor._funcs
    signals = reactor.signals
    counter = reactor.env.counter
    cov = reactor.coverage
    mark = reactor._mark_coverage
    state = reactor.state
    mask_cache = {}
'''

#: The dict sink's prologue: the record list and the emitted-mask
#: decoder.
_DICT_PRELUDE = '''\
    records = []
    append = records.append

    def _decode(m):
        names = []
        valued = []
        for bit, name in OUT_BITS:
            if m & bit:
                names.append(name)
                s = signals[name]
                if not s.is_pure:
                    if s.type.is_scalar():
                        valued.append((name, s.load))
                    else:
                        valued.append((name, _hex_loader(s)))
        names.sort()
        entry = (names, tuple(valued))
        mask_cache[m] = entry
        return entry
'''

#: The line sink's prologue: the line list, the emitted count, and a
#: decoder from an emitted mask to its static line fragments.
_LINES_PRELUDE = '''\
    lines = TraceLines()
    append = lines.append
    emitted = 0

    def _decode(m):
        names = []
        valued = []
        for bit, name in OUT_BITS:
            if m & bit:
                names.append(name)
                s = signals[name]
                if not s.is_pure:
                    valued.append((name, _str(name) + ": ", _value_text(s)))
        names.sort()
        valued.sort()
        head = '{"emitted": [' + ", ".join(map(_str, names)) + '], "inputs": {'
        entry = (head, tuple((key, ld) for _n, key, ld in valued), len(names))
        mask_cache[m] = entry
        return entry
'''

#: The per-instant reaction: run the state function and mark coverage.
#: Indented for the driver's instant loop body.
_DRIVER_STEP = '''\
        if counter is not None:
            counter.count("react", 1)
        entry = state
        target, m, packed = F[entry]()
        reactor.instants += 1
        if cov is not None:
            mark(cov, entry, packed)
'''

#: The dict sink's per-instant record and termination.
_DICT_RECORD = '''\
        if m:
            e = mask_cache.get(m)
            if e is None:
                e = _decode(m)
            names, valued = e
            if valued:
                values = {}
                for n, ld in valued:
                    values[n] = ld()
                append({"inputs": inputs, "emitted": list(names), "values": values})
            else:
                append({"inputs": inputs, "emitted": list(names), "values": {}})
        else:
            append({"inputs": inputs, "emitted": [], "values": {}})
        if target < 0:
            reactor.terminated = True
            reactor.state = state
            return records
        state = target
'''

#: The line sink's per-instant line and termination (``ins``: the
#: instant's sorted input members).
_LINES_RECORD = '''\
        if m:
            e = mask_cache.get(m)
            if e is None:
                e = _decode(m)
            head, valued, n = e
            emitted += n
            if valued:
                append(head + ins + '}, "values": {'
                       + ", ".join([key + ld() for key, ld in valued]) + "}}")
            else:
                append(head + ins + '}, "values": {}}')
        else:
            append('{"emitted": [], "inputs": {' + ins + '}, "values": {}}')
        if target < 0:
            reactor.terminated = True
            reactor.state = state
            lines.emitted = emitted
            return lines
        state = target
'''


def _wrap_text(text, ctype):
    """Inline ``IntType.wrap`` (mirrors :meth:`_Lowerer.wrap`)."""
    if isinstance(ctype, BoolType):
        return "(1 if %s else 0)" % text
    mask = (1 << (8 * ctype.size)) - 1
    if not ctype.signed:
        return "(%s) & %d" % (text, mask)
    offset = 1 << (8 * ctype.size - 1)
    return "(((%s) + %d) & %d) - %d" % (text, offset, mask, offset)


def _driver_alphabet(module, code):
    """Drivable inputs in declaration order (the order the farm's
    ``input_alphabet`` exposes and the rng consumes): ``(name, pure,
    pidx, sidx, ctype)`` with sidx < 0 for mem-backed values."""
    pindex = {name: i for i, name in enumerate(code.presence)}
    slot_index = {}
    for i, (name, kind, _ctype) in enumerate(code.value_slots):
        if kind == "signal":
            slot_index[name] = i
    types = {param.name: param.type for param in module.params}
    entries = []
    for name, pure in module.drivable_inputs():
        if pure:
            entries.append((name, True, pindex[name], -1, None))
        else:
            sidx = slot_index.get(name, -1)
            entries.append((name, False, pindex[name], sidx, types[name]))
    return entries


def _sorted_inputs(alphabet):
    """The line sink's statements that join the drawn members ``_x<k>``
    (declaration index ``k``, ``""`` when absent) in sorted name order
    into ``ins``."""
    order = sorted(range(len(alphabet)), key=lambda k: alphabet[k][0])
    members = ["_x%d" % k for k in order]
    if not members:
        return ['        ins = ""']
    statements = ["        ins = %s" % members[0]]
    for member in members[1:]:
        statements.append("        if %s:" % member)
        statements.append(
            '            ins = ins + ", " + %s if ins else %s' % (member, member)
        )
    return statements


def compile_trace_driver(
    efsm, code, length, present_prob, value_range, budget=0, sink=SINK_DICT
):
    """Generate the whole-trace driver source for one stimulus shape.

    ``length``/``present_prob``/``value_range`` mirror a random
    :class:`~repro.farm.jobs.StimulusSpec`; ``budget`` is the job's
    instant budget (horizon): when larger than ``length`` the driver
    appends empty instants, when smaller it clips the drawn prefix.
    ``sink`` picks what the driver returns per instant: a farm record
    (:data:`SINK_DICT`) or its canonical ledger line
    (:data:`SINK_LINES`).
    """
    lines_sink = sink == SINK_LINES
    budget = budget if budget > 0 else length
    drawn = min(length, budget)
    low, high = value_range
    if not (isinstance(low, int) and isinstance(high, int) and low <= high):
        # The inlined rejection loop would never end on an empty range.
        raise EvalError(
            "value range %r is not two integers low <= high" % (value_range,)
        )
    width = high - low + 1
    draw_bits = width.bit_length()
    alphabet = _driver_alphabet(efsm.module, code)
    bits = ["(%d, %r), " % (bit, name) for name, bit in code.output_bits]
    lines = [
        '"""Whole-trace driver for ECL module %s (native backend)."""' % efsm.name,
        "",
        "OUT_BITS = (%s)" % "".join(bits),
        "",
        "",
        "def _drive(rng, reactor):",
    ]
    lines.extend(_DRIVER_HOISTS.splitlines())
    lines.extend((_LINES_PRELUDE if lines_sink else _DICT_PRELUDE).splitlines())
    record = _DRIVER_STEP + (_LINES_RECORD if lines_sink else _DICT_RECORD)
    for name, _pure, _pidx, sidx, ctype in alphabet:
        if sidx < 0 and ctype is not None:
            lines.append("    _st_%s = signals[%r].store" % (name, name))
    if drawn:
        lines.append("    for _i in range(%d):" % drawn)
        lines.append("        P[:] = PZERO")
        if not lines_sink:
            lines.append("        inputs = {}")
        for k, (name, pure, pidx, sidx, ctype) in enumerate(alphabet):
            key = _json_str(name) + ": "
            lines.append("        if random() < %r:" % present_prob)
            if pure:
                lines.append("            P[%d] = 1" % pidx)
                if lines_sink:
                    lines.append("            _x%d = %r" % (k, key + "null"))
                else:
                    lines.append("            inputs[%r] = None" % name)
            else:
                lines.append("            v = getrandbits(%d)" % draw_bits)
                lines.append("            while v >= %d:" % width)
                lines.append("                v = getrandbits(%d)" % draw_bits)
                if low:
                    lines.append("            v += %d" % low)
                lines.append("            P[%d] = 1" % pidx)
                if sidx >= 0:
                    store = "            S[%d] = %s"
                    lines.append(store % (sidx, _wrap_text("v", ctype)))
                else:
                    lines.append("            _st_%s(v)" % name)
                if lines_sink:
                    lines.append("            _x%d = %r %% v" % (k, key + "%d"))
                else:
                    lines.append("            inputs[%r] = v" % name)
            if lines_sink:
                lines.append("        else:")
                lines.append('            _x%d = ""' % k)
        if lines_sink:
            lines.extend(_sorted_inputs(alphabet))
        lines.extend(record.splitlines())
    if budget > drawn:
        if lines_sink:
            lines.append('    ins = ""')
        lines.append("    for _i in range(%d):" % (budget - drawn))
        lines.append("        P[:] = PZERO")
        if not lines_sink:
            lines.append("        inputs = {}")
        lines.extend(record.splitlines())
    lines.append("    reactor.state = state")
    if lines_sink:
        lines.append("    lines.emitted = emitted")
        lines.append("    return lines")
    else:
        lines.append("    return records")
    source = "\n".join(lines) + "\n"
    return TraceDriverCode(
        module=efsm.name,
        source=source,
        length=drawn,
        budget=budget,
        alphabet=tuple((name, pure) for name, pure, _p, _s, _t in alphabet),
        present_prob=present_prob,
        value_range=(low, high),
        sink=sink,
    )
