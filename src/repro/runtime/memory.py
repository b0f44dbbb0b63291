"""Byte-accurate storage for C data.

Every module instance (and every data-function frame) allocates its
variables inside an :class:`AddressSpace` — a flat, zero-initialized,
little-endian byte array with a bump allocator.  This gives the simulator
real C storage semantics:

* ``union`` members alias each other byte-for-byte, which is exactly what
  the paper's Figure 1 relies on (``packet_view_1_t`` vs
  ``packet_view_2_t`` views of the same packet);
* pointers are plain integer addresses into the space;
* casting an aggregate to an integer reinterprets its leading bytes
  (README, "Semantics and deviations"), making Figure 2's
  ``(int) inpkt.cooked.crc`` meaningful;
* ``sizeof``-accurate data-memory accounting for the cost model falls out
  of the allocator's high-water mark.

Memory is deterministically zero-initialized (a documented deviation from
C's indeterminate locals) so simulations are reproducible.
"""

from __future__ import annotations

from ..errors import EvalError
from ..lang.types import ArrayType, BoolType, IntType, PointerType

#: Addresses start above zero so that 0 can serve as the null pointer.
_BASE_ADDRESS = 16


class AddressSpace:
    """A flat little-endian byte store with a bump allocator."""

    def __init__(self, name="mem"):
        self.name = name
        self._data = bytearray()
        self._next = _BASE_ADDRESS
        #: High-water mark of allocated bytes (excludes the null page).
        self.allocated_bytes = 0

    # ------------------------------------------------------------------
    # Allocation

    def alloc(self, size, align=1):
        """Reserve ``size`` bytes aligned to ``align``; return the address."""
        if size < 0:
            raise EvalError("cannot allocate %d bytes" % size)
        align = max(1, align)
        remainder = self._next % align
        if remainder:
            self._next += align - remainder
        address = self._next
        self._next += size
        self._ensure(self._next)
        self.allocated_bytes = self._next - _BASE_ADDRESS
        return address

    def alloc_var(self, ctype):
        """Allocate storage for one value of ``ctype``."""
        return self.alloc(ctype.size, ctype.align)

    def _ensure(self, end):
        if end > len(self._data):
            self._data.extend(b"\x00" * (end - len(self._data)))

    # ------------------------------------------------------------------
    # Raw byte access

    def read_bytes(self, address, size):
        if address < 0 or size < 0:
            raise EvalError("invalid memory read at %d (+%d)" % (address, size))
        if address == 0 and size > 0:
            raise EvalError("null pointer dereference (read)")
        self._ensure(address + size)
        return bytes(self._data[address:address + size])

    def write_bytes(self, address, data):
        if address < 0:
            raise EvalError("invalid memory write at %d" % address)
        if address == 0 and data:
            raise EvalError("null pointer dereference (write)")
        self._ensure(address + len(data))
        self._data[address:address + len(data)] = data

    # ------------------------------------------------------------------
    # Typed access

    def read_scalar(self, address, ctype):
        raw = self.read_bytes(address, ctype.size)
        return decode_scalar(raw, ctype)

    def write_scalar(self, address, ctype, value):
        self.write_bytes(address, encode_scalar(value, ctype))

    def snapshot(self):
        """A restorable copy of the whole space (used by the reaction
        fixpoint, which may re-run an instant's data code)."""
        return bytes(self._data)

    def restore(self, snapshot):
        self._data = bytearray(snapshot)


def encode_scalar(value, ctype):
    """Encode a Python int as the little-endian bytes of ``ctype``."""
    if isinstance(ctype, BoolType):
        return bytes([1 if value else 0])
    if isinstance(ctype, PointerType):
        return int(value).to_bytes(ctype.size, "little", signed=False)
    if isinstance(ctype, IntType):
        wrapped = ctype.wrap(int(value))
        return wrapped.to_bytes(ctype.size, "little", signed=ctype.signed)
    raise EvalError("cannot encode scalar of type %s" % ctype)


def decode_scalar(raw, ctype):
    """Decode little-endian bytes into a Python int for ``ctype``."""
    if isinstance(ctype, BoolType):
        return 1 if raw[0] else 0
    if isinstance(ctype, PointerType):
        return int.from_bytes(raw, "little", signed=False)
    if isinstance(ctype, IntType):
        return int.from_bytes(raw[:ctype.size], "little", signed=ctype.signed)
    raise EvalError("cannot decode scalar of type %s" % ctype)


class LValue:
    """A typed location: (space, address, type)."""

    __slots__ = ("space", "address", "type")

    def __init__(self, space, address, ctype):
        self.space = space
        self.address = address
        self.type = ctype

    def load(self):
        """Read the value: an int for scalars, bytes for aggregates."""
        if self.type.is_scalar():
            return self.space.read_scalar(self.address, self.type)
        return self.space.read_bytes(self.address, self.type.size)

    def store(self, value):
        """Write an int (scalar) or bytes (aggregate, size-checked)."""
        if self.type.is_scalar():
            self.space.write_scalar(self.address, self.type, value)
            return
        if not isinstance(value, (bytes, bytearray)):
            raise EvalError(
                "cannot store scalar into aggregate of type %s" % self.type)
        data = bytes(value)
        if len(data) < self.type.size:
            data = data + b"\x00" * (self.type.size - len(data))
        self.space.write_bytes(self.address, data[:self.type.size])

    def field(self, name):
        """LValue of a struct/union member."""
        member = self.type.field_named(name)
        return LValue(self.space, self.address + member.offset, member.type)

    def element(self, index):
        """LValue of an array element (bounds-checked)."""
        if not isinstance(self.type, ArrayType):
            raise EvalError("indexing non-array type %s" % self.type)
        if index < 0 or index >= self.type.length:
            raise EvalError(
                "array index %d out of bounds for %s" % (index, self.type))
        element = self.type.element
        return LValue(self.space, self.address + index * element.size, element)

    def __repr__(self):
        return "<LValue %s @%d>" % (self.type, self.address)


class Variable:
    """A named variable bound to storage in an address space."""

    __slots__ = ("name", "type", "lvalue")

    def __init__(self, name, ctype, space):
        self.name = name
        self.type = ctype
        self.lvalue = LValue(space, space.alloc_var(ctype), ctype)

    def load(self):
        return self.lvalue.load()

    def store(self, value):
        self.lvalue.store(value)

    def __repr__(self):
        return "<Variable %s: %s>" % (self.name, self.type)
