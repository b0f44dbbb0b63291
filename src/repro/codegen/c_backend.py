"""C software synthesis from an EFSM (the paper's phase 3, software leg).

Generates a self-contained C translation unit per module:

* the user's type definitions (typedefs/struct/union) reproduced,
* a context struct holding the automaton state, every hoisted module
  variable, and a presence bit + value slot per signal,
* the extracted data functions (paper: "data loops ... are compiled into
  separate C (inlined) functions called by the Esterel code"), their
  bodies preserved verbatim modulo the ``ctx->`` redirection,
* plain C functions from the ECL file, emitted verbatim,
* ``<module>_reset`` and ``<module>_react`` — the EFSM dispatch: a
  ``switch`` over the state with nested ``if``s mirroring each state's
  decision tree, exactly the shape the Esterel v5 automaton code
  generator produced.

The generated code is also the basis of the cost model's code-size
estimate (README, "Semantics and deviations"):
:meth:`repro.cost.CostModel.efsm_code_bytes` counts the same constructs
the generator emits.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from ..ecl.rename import rewrite_name_reads
from ..efsm.machine import (
    DoAction,
    DoEmit,
    Leaf,
    TERMINATED,
    TestData,
    TestSignal,
)
from ..errors import CodegenError, EvalError
from ..lang import ast
from ..lang.printer import (
    _PRECEDENCE,
    Printer,
    type_definition_text,
    type_text,
)
from ..lang.types import BoolType, IntType, PureType
from ..runtime.ceval import Env, Evaluator
from ..runtime.memory import AddressSpace
from ..runtime.signals import SignalSlot, SignalTable

_INDENT = "    "

#: Operators whose binary operands of another operator are printed in
#: parentheses, as gcc's -Wparentheses asks (``(64 + j) & 255``).
_PAREN_PARENTS = frozenset(("||", "|", "^", "&", "<<", ">>"))

#: Reads an aggregate's leading bytes as a scalar (ECL's
#: aggregate-to-scalar cast, see the README's "Semantics and
#: deviations"): one static helper per target type the module uses.
_LEAD_HELPER = """\
static %(ctype)s %(name)s(const void *object)
{
    %(load)s value;
    memcpy(&value, object, sizeof value);
    return %(result)s;
}
"""


class CPrinter(Printer):
    """The ECL printer plus the parentheses ``gcc -Wall`` asks for
    around mixed-precedence operands.  It lives here, not in
    :mod:`repro.lang.printer`, so the ``c`` emitter's fingerprint (its
    module source) changes with it."""

    def _expr(self, node):
        if not (isinstance(node, ast.Binary)
                and node.op in _PAREN_PARENTS):
            return super()._expr(node)
        precedence = _PRECEDENCE[node.op]
        left, right = (
            "(%s)" % self.expr(side)
            if isinstance(side, ast.Binary) and side.op != node.op
            else self.expr(side, precedence + bump)
            for side, bump in ((node.left, 0), (node.right, 1)))
        return "%s %s %s" % (left, node.op, right), precedence


@dataclass
class CModule:
    """Generated C artifacts for one module."""

    name: str
    header: str
    source: str


class CBackend:
    """Generates C for one compiled module's EFSM."""

    def __init__(self, efsm, types=None):
        self.efsm = efsm
        self.module = efsm.module
        self.types = types if types is not None else self.module.types
        self.printer = CPrinter()
        self._module_names = self._context_names()
        self._leads = {}

    def _context_names(self):
        names = {name for name, _t in self.module.variables}
        names.update(p.name for p in self.module.params)
        names.update(name for name, _t in self.module.local_signals)
        return names

    # ------------------------------------------------------------------

    def generate(self):
        """Produce header + source text."""
        return CModule(
            name=self.module.name,
            header=self._header(),
            source=self._source(),
        )

    # ------------------------------------------------------------------
    # Header

    def _header(self):
        name = self.module.name
        guard = "ECL_%s_H" % name.upper()
        lines = [
            "/* Generated by the ECL compiler (reproduction) — module %s. */"
            % name,
            "/* Assumes a little-endian target, the memory model's byte "
            "order. */",
            "#ifndef %s" % guard,
            "#define %s" % guard,
            "",
            "#include <stdbool.h>",
            "",
        ]
        lines.extend(self._type_definitions())
        lines.append("typedef struct {")
        lines.append(_INDENT + "int __state;")
        lines.append(_INDENT + "unsigned char __terminated;")
        lines.append(_INDENT + "unsigned char __delta;")
        for param in self.module.params:
            lines.extend(self._signal_fields(param.name, param.type))
        for sig_name, sig_type in self.module.local_signals:
            lines.extend(self._signal_fields(sig_name, sig_type))
        for var_name, var_type in self.module.variables:
            lines.append(_INDENT + type_text(var_type, var_name) + ";")
        lines.append("} %s_ctx_t;" % name)
        lines.append("")
        lines.append("void %s_reset(%s_ctx_t *ctx);" % (name, name))
        lines.append("void %s_react(%s_ctx_t *ctx);" % (name, name))
        lines.append("")
        lines.append("#endif /* %s */" % guard)
        return "\n".join(lines) + "\n"

    def _type_definitions(self):
        lines = []
        for typedef_name, target in self.types.typedefs.items():
            lines.append(type_definition_text(target, typedef_name)
                         if target.is_aggregate()
                         else "typedef %s;" % type_text(target, typedef_name))
        for tag, tag_type in self.types.tags.items():
            alias = getattr(tag_type, "typedef_alias", None)
            if alias is None:
                lines.append(type_definition_text(tag_type))
        if lines:
            lines.append("")
        return lines

    def _signal_fields(self, sig_name, sig_type):
        fields = [_INDENT + "unsigned char %s_present;" % sig_name]
        if not isinstance(sig_type, PureType):
            fields.append(_INDENT + type_text(sig_type, "%s_value" % sig_name)
                          + ";")
        return fields

    # ------------------------------------------------------------------
    # Source

    def _source(self):
        body = []
        for function in self._plain_functions():
            body.append(self.printer.function(
                self._lower(function, function.params)))
            body.append("")
        for block in self.module.data_blocks:
            body.extend(self._data_function(block))
            body.append("")
        body.extend(self._reset_function())
        body.append("")
        body.extend(self._react_function())
        lines = ['#include "%s.h"' % self.module.name]
        if self._leads:
            lines.append("#include <string.h>")
        lines.append("")
        lines.extend(self._leads.values())
        return "\n".join(lines + body) + "\n"

    def _plain_functions(self):
        return [f for f in self.module.functions.values()
                if isinstance(f, ast.FuncDef)]

    def _redirect(self, node):
        """Rewrite module-scope identifier uses to ctx-> accesses."""
        node = self._lower(node)

        def rewrite(identifier):
            if identifier not in self._module_names:
                return None
            if identifier in {n for n, _t in self.module.variables}:
                return _ctx_field(identifier)
            # Signal read in a C expression = its value (paper, stmt 4).
            return _ctx_field(identifier + "_value")
        return rewrite_name_reads(node, rewrite)

    def _lower(self, node, params=()):
        """Rewrite what C would read differently from ECL (README,
        "Semantics and deviations"), typing operands in the module's
        scope: ``~`` on a bool prints as ``!`` (ECL's logical negation;
        C's ``~`` on a bool is never 0), and a cast of an aggregate to
        an integer or bool reads the aggregate's leading bytes through a
        helper (C would cast the array's decayed address)."""
        if not any(isinstance(child, ast.Cast)
                   or isinstance(child, ast.Unary) and child.op == "~"
                   for child in ast.walk(node)):
            return node
        space = AddressSpace("<c-typing>")
        signals = SignalTable()
        for param in self.module.params:
            signals.add(SignalSlot(param.name, param.type, space,
                                   param.direction))
        for name, sig_type in self.module.local_signals:
            signals.add(SignalSlot(name, sig_type, space, "local"))
        env = Env(space=space, functions=dict(self.module.functions),
                  signal_resolver=signals.get)
        for name, var_type in self.module.variables:
            env.declare(name, var_type)
        # The parameters and every local of ``node`` share one inner
        # scope: of two same-named locals, the first declared types both.
        local_types = {}
        for decl in tuple(params) + tuple(
                child for child in ast.walk(node)
                if isinstance(child, ast.VarDecl)):
            local_types.setdefault(decl.name, decl.type)
        env.push_scope()
        for name, local_type in local_types.items():
            env.declare(name, local_type)
        return _lower(node, Evaluator(env), self._lead)

    def _lead(self, target, operand_type):
        """Name of the helper reading ``target`` from an aggregate of
        ``operand_type``, registering it on first use."""
        if target.size > operand_type.size:
            raise CodegenError(
                "module %s: cast of a %d-byte %s to %d-byte %s would "
                "read past the object in C"
                % (self.module.name, operand_type.size, operand_type,
                   target.size, target))
        ctype = type_text(target)
        name = "ecl_lead_" + ctype.replace(" ", "_")
        if name not in self._leads:
            boolean = isinstance(target, BoolType)
            self._leads[name] = _LEAD_HELPER % {
                "ctype": ctype, "name": name,
                "load": "unsigned char" if boolean else ctype,
                "result": "value != 0" if boolean else "value"}
        return name

    def _data_function(self, block):
        name = self.module.name
        lines = ["static void %s(%s_ctx_t *ctx)" % (block.name, name), "{"]
        body = self._redirect(block.stmt)
        for line in self.printer.stmt(body, 1):
            lines.append(line)
        lines.append("}")
        return lines

    def _reset_function(self):
        name = self.module.name
        lines = [
            "void %s_reset(%s_ctx_t *ctx)" % (name, name),
            "{",
            _INDENT + "ctx->__state = %d;" % self.efsm.initial,
            _INDENT + "ctx->__terminated = 0;",
            _INDENT + "ctx->__delta = 0;",
            "}",
        ]
        return lines

    def _react_function(self):
        """The dispatch function.

        Reaction subtrees shared between states (hash-consed by the
        optimizer) are emitted once, after the switch, behind a label;
        every referencing site jumps there — the shared-code shape the
        Esterel automaton back-ends produced, and what the cost model's
        count-each-subtree-once estimate assumes.  Every path ends in a
        leaf that jumps to the common epilogue.
        """
        name = self.module.name
        self._labels = self._collect_shared_nodes()
        lines = [
            "void %s_react(%s_ctx_t *ctx)" % (name, name),
            "{",
            _INDENT + "if (ctx->__terminated) return;",
            _INDENT + "ctx->__delta = 0;",
        ]
        for param in self.module.output_params:
            lines.append(_INDENT + "ctx->%s_present = 0;" % param.name)
        for sig_name, _t in self.module.local_signals:
            lines.append(_INDENT + "ctx->%s_present = 0;" % sig_name)
        lines.append(_INDENT + "switch (ctx->__state) {")
        for state in self.efsm.states:
            lines.append(_INDENT + "case %d:" % state.index)
            lines.extend(self._node(state.reaction, 2))
        lines.append(_INDENT + "}")
        for node_id, label in self._labels.items():
            node = self._label_nodes[node_id]
            lines.append(_INDENT + "%s:" % label)
            lines.extend(self._node(node, 2, inline_root=True))
        lines.append(_INDENT + "ecl_done:")
        for param in self.module.input_params:
            lines.append(_INDENT + "ctx->%s_present = 0;" % param.name)
        lines.append(_INDENT + "return;")
        lines.append("}")
        return lines

    def _collect_shared_nodes(self):
        """Label every non-leaf subtree referenced from 2+ sites."""
        from ..efsm.machine import walk_reaction

        unique = {}
        refs = {}
        for state in self.efsm.states:
            refs[id(state.reaction)] = refs.get(id(state.reaction), 0) + 1
            for node in walk_reaction(state.reaction):
                if id(node) in unique:
                    continue
                unique[id(node)] = node
        for node in unique.values():
            children = []
            if isinstance(node, (TestSignal, TestData)):
                children = [node.then, node.otherwise]
            elif isinstance(node, (DoAction, DoEmit)):
                children = [node.next]
            for child in children:
                refs[id(child)] = refs.get(id(child), 0) + 1
        labels = {}
        self._label_nodes = {}
        counter = 0
        for node_id, node in unique.items():
            if refs.get(node_id, 0) >= 2 and not isinstance(node, Leaf):
                labels[node_id] = "ecl_shared_%d" % counter
                self._label_nodes[node_id] = node
                counter += 1
        return labels

    def _node(self, node, depth, inline_root=False):
        pad = _INDENT * depth
        if not inline_root and id(node) in self._labels:
            return [pad + "goto %s;" % self._labels[id(node)]]
        if isinstance(node, Leaf):
            lines = []
            if node.delta:
                lines.append(pad + "ctx->__delta = 1;")
            if node.target == TERMINATED:
                lines.append(pad + "ctx->__terminated = 1;")
            else:
                lines.append(pad + "ctx->__state = %d;" % node.target)
            lines.append(pad + "goto ecl_done;")
            return lines
        if isinstance(node, TestSignal):
            lines = [pad + "if (ctx->%s_present) {" % node.signal]
            lines.extend(self._node(node.then, depth + 1))
            lines.append(pad + "} else {")
            lines.extend(self._node(node.otherwise, depth + 1))
            lines.append(pad + "}")
            return lines
        if isinstance(node, TestData):
            cond = self.printer.expr(self._redirect(node.cond))
            lines = [pad + "if (%s) {" % cond]
            lines.extend(self._node(node.then, depth + 1))
            lines.append(pad + "} else {")
            lines.extend(self._node(node.otherwise, depth + 1))
            lines.append(pad + "}")
            return lines
        if isinstance(node, DoAction):
            lines = list(self._action_lines(node.stmt, depth))
            lines.extend(self._node(node.next, depth))
            return lines
        if isinstance(node, DoEmit):
            lines = [pad + "ctx->%s_present = 1;" % node.signal]
            if node.value is not None:
                value = self.printer.expr(self._redirect(node.value), 1)
                lines.append(pad + "ctx->%s_value = %s;"
                             % (node.signal, value))
            lines.extend(self._node(node.next, depth))
            return lines
        raise CodegenError("unknown reaction node %r" % (node,))

    def _action_lines(self, stmt, depth):
        pad = _INDENT * depth
        block = self._block_for(stmt)
        if block is not None:
            return [pad + "%s(ctx);" % block.name]
        return self.printer.stmt(self._redirect(stmt), depth)

    def _block_for(self, stmt):
        for block in self.module.data_blocks:
            if block.stmt == stmt or block.stmt is stmt:
                return block
        return None


def _lower(node, typer, lead):
    """``node`` with every ``~`` whose operand ``typer`` types as bool
    turned into ``!``, and every cast of an aggregate to an integer or
    bool into a call of the helper ``lead(target, operand_type)`` names
    (an untypable operand keeps its operator)."""
    if isinstance(node, tuple):
        return tuple(_lower(item, typer, lead) for item in node)
    if not isinstance(node, ast.Node):
        return node
    updates = {}
    for field_info in fields(node):
        value = getattr(node, field_info.name)
        if field_info.name != "span" and isinstance(value, (ast.Node, tuple)):
            new_value = _lower(value, typer, lead)
            if new_value is not value:
                updates[field_info.name] = new_value
    if isinstance(node, ast.Unary) and node.op == "~":
        if isinstance(_type_of(typer, node.operand), BoolType):
            updates["op"] = "!"
    elif isinstance(node, ast.Cast) \
            and isinstance(node.type, (IntType, BoolType)):
        operand_type = _type_of(typer, node.operand)
        if operand_type is not None and operand_type.is_aggregate():
            operand = updates.get("operand", node.operand)
            return ast.Call(func=lead(node.type, operand_type),
                            args=(ast.Unary(op="&", operand=operand),))
    return replace(node, **updates) if updates else node


def _type_of(typer, node):
    try:
        return typer.type_of(node)
    except EvalError:
        return None


def _ctx_field(field_name):
    return ast.Member(base=ast.Name(id="ctx"), name=field_name, arrow=True)


def generate_c(efsm, types=None):
    """Generate the C header/source pair for a compiled module."""
    return CBackend(efsm, types).generate()


from ..pipeline.registry import backend as _backend  # noqa: E402


@_backend("c", requires=("efsm", "types"), extensions=(".h", ".c"),
          description="C software synthesis (paper phase 3, software)")
def _emit_c(build):
    bundle = generate_c(build.efsm, build.types)
    return {
        build.name + ".h": bundle.header,
        build.name + ".c": bundle.source,
    }
