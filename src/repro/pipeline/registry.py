"""Pluggable back-end registry (entry-point style).

Back-ends are *emitters*: given an :class:`EmitInput` snapshot of one
compiled module they return a ``{filename: text}`` mapping.  They
register themselves with the :func:`backend` decorator::

    from repro.pipeline.registry import backend

    @backend("c", requires=("efsm", "types"),
             description="C software synthesis")
    def emit_c(build):
        bundle = generate_c(build.efsm, build.types)
        return {build.name + ".c": bundle.source, ...}

The registry loads its built-in entry points (the modules under
:mod:`repro.codegen`) lazily on first query, so importing the pipeline
costs nothing and third-party emitters can register before or after the
built-ins.  ``eclc compile --emit`` choices are derived from
:meth:`BackendRegistry.names`, never hardcoded.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..errors import CompileError

#: Built-in emitter entry points, imported on first registry query.
#: Each module registers one Backend via the :func:`backend` decorator.
ENTRY_POINTS = (
    "repro.codegen.c_backend",
    "repro.codegen.py_backend",
    "repro.codegen.native_backend",
    "repro.codegen.vhdl_backend",
    "repro.codegen.verilog_backend",
    "repro.codegen.esterel_backend",
    "repro.codegen.dot_backend",
)

#: Artifact kinds an emitter may request in ``requires``.
EMIT_INPUTS = ("source", "types", "kernel", "efsm")


@dataclass
class EmitInput:
    """Snapshot of one module's compilation products handed to an
    emitter.  Only the fields named in the backend's ``requires`` are
    populated; the rest stay None.  Every field derives from the
    preprocessed text the artifact key digests, so an emitter never
    reads input its key does not cover."""

    name: str                    # module name
    source: str = ""             # preprocessed translation-unit text
    types: object = None         # the design's TypeTable
    kernel: object = None        # phase-1 KernelModule
    efsm: object = None          # phase-2 automaton (per-options variant)


@dataclass(frozen=True)
class Backend:
    """One registered emitter."""

    name: str
    emit: Callable[[EmitInput], Dict[str, str]]
    requires: Tuple[str, ...] = ("efsm",)
    description: str = ""
    extensions: Tuple[str, ...] = ()
    #: Hardware back-ends only apply when the module's data part is
    #: empty; batch builds report their refusals as skips, not failures.
    hardware: bool = False
    #: Module that defined the emitter (set by the decorator) — lets a
    #: custom registry inherit exactly its entry points' backends.
    module: str = ""

    @functools.cached_property
    def fingerprint(self):
        """Hex digest identifying this emitter's behaviour: its
        metadata plus (best effort) the source of the module defining
        the emit function.  Folded into emit-stage cache keys so
        replacing a backend under the same name, or fixing the
        generator behind it, invalidates its persisted artifacts."""
        try:
            body = inspect.getsource(
                inspect.getmodule(self.emit) or self.emit)
        except (OSError, TypeError):
            body = "%s.%s" % (getattr(self.emit, "__module__", ""),
                              getattr(self.emit, "__qualname__",
                                      repr(self.emit)))
        text = "\x1f".join((self.name, self.module, repr(self.requires),
                            repr(self.extensions), repr(self.hardware),
                            body))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


class BackendRegistry:
    """Name → :class:`Backend` mapping with lazy entry-point loading."""

    def __init__(self, entry_points=()):
        self._entry_points = tuple(entry_points)
        self._backends: Dict[str, Backend] = {}
        self._loaded = False
        self._lock = threading.Lock()
        # Separate from _lock: held across the entry-point imports,
        # during which the imported modules re-enter register().
        self._load_lock = threading.Lock()

    def register(self, backend: Backend):
        """Register (or replace) a backend; returns it for chaining."""
        for requirement in backend.requires:
            if requirement not in EMIT_INPUTS:
                raise CompileError(
                    "backend %r requires unknown input %r (choose from %s)"
                    % (backend.name, requirement, ", ".join(EMIT_INPUTS)))
        with self._lock:
            self._backends[backend.name] = backend
        return backend

    def backend(self, name, requires=("efsm",), description="",
                extensions=(), hardware=False):
        """Decorator form of :meth:`register`."""
        def wrap(func):
            self.register(Backend(
                name=name, emit=func, requires=tuple(requires),
                description=description, extensions=tuple(extensions),
                hardware=hardware,
                module=getattr(func, "__module__", "") or ""))
            return func
        return wrap

    def get(self, name) -> Backend:
        self.load_entry_points()
        try:
            return self._backends[name]
        except KeyError:
            raise CompileError(
                "unknown backend %r (available: %s)"
                % (name, ", ".join(self.names()) or "none")) from None

    def __contains__(self, name):
        self.load_entry_points()
        return name in self._backends

    def names(self):
        """Sorted backend names (drives ``eclc --emit`` choices)."""
        self.load_entry_points()
        return sorted(self._backends)

    def backends(self):
        self.load_entry_points()
        return [self._backends[name] for name in self.names()]

    def load_entry_points(self):
        """Import the built-in emitter modules exactly once.

        Concurrent first queries block until the imports finish, so no
        caller ever observes a partially-populated registry; a failed
        import leaves ``_loaded`` False and is retried next query.
        """
        if self._loaded:
            return
        with self._load_lock:
            if self._loaded:
                return
            for module_name in self._entry_points:
                importlib.import_module(module_name)
            # Decorator registrations land in DEFAULT_REGISTRY; a
            # custom registry inherits the backends its entry-point
            # modules defined (its own registrations take precedence).
            if self is not DEFAULT_REGISTRY and self._entry_points:
                wanted = set(self._entry_points)
                with DEFAULT_REGISTRY._lock:
                    inherited = [b for b in
                                 DEFAULT_REGISTRY._backends.values()
                                 if b.module in wanted]
                with self._lock:
                    for entry in inherited:
                        self._backends.setdefault(entry.name, entry)
            self._loaded = True


#: The process-wide registry the decorator and the CLI use.
DEFAULT_REGISTRY = BackendRegistry(entry_points=ENTRY_POINTS)


def backend(name, requires=("efsm",), description="", extensions=(),
            hardware=False):
    """Register an emitter into the default registry (decorator)."""
    return DEFAULT_REGISTRY.backend(
        name, requires=requires, description=description,
        extensions=extensions, hardware=hardware)
