"""Exception hierarchy for the ECL reproduction.

Every error raised by the library derives from :class:`EclError`, so client
code can catch one type.  Errors that point at a source location carry a
:class:`repro.lang.source.Span` in ``span`` and render it in their message.
"""

from __future__ import annotations


class EclError(Exception):
    """Base class of every error raised by this library."""

    def __init__(self, message, span=None):
        self.message = message
        self.span = span
        if span is not None:
            message = "%s: %s" % (span, message)
        super().__init__(message)


class PreprocessorError(EclError):
    """Malformed preprocessor directive or macro usage."""


class LexError(EclError):
    """Input text that cannot be tokenized."""


class ParseError(EclError):
    """Token stream that does not form a valid ECL program."""


class TypeError_(EclError):
    """Static type violation (named with a trailing underscore to avoid
    shadowing the builtin)."""


class ScopeError(EclError):
    """Undeclared identifier, duplicate declaration, or the paper's
    footnote-2 restriction on global/static variables."""


class SplitError(EclError):
    """The reactive/data splitter cannot classify a construct."""


class TranslationError(EclError):
    """ECL AST construct with no Esterel-kernel translation."""


class CausalityError(EclError):
    """No consistent presence assignment exists for an instant (the
    synchronous program deadlocks on its own feedback)."""


class NondeterminismError(EclError):
    """More than one consistent presence assignment exists for an instant."""


class InstantaneousLoopError(EclError):
    """A reactive loop body may terminate without passing an instant
    boundary; the Esterel compiler rejects such programs."""


class EvalError(EclError):
    """Runtime failure while evaluating C data code (bad index, division by
    zero, uninitialized function, ...)."""


class RtosError(EclError):
    """Misuse of the simulated RTOS API (double start, unknown task, ...)."""


class CodegenError(EclError):
    """A back-end met a construct it cannot emit."""


class CompileError(EclError):
    """Driver-level failure wrapping one of the phase errors."""


class EngineUnavailable(EclError):
    """A requested execution engine cannot run in this environment
    (e.g. the ``vector`` engine without numpy installed).  ``engine``
    names the engine and ``reason`` carries the missing prerequisite so
    callers can report capabilities without string-parsing."""

    def __init__(self, engine, reason, span=None):
        self.engine = engine
        self.reason = reason
        message = "engine %r unavailable: %s" % (engine, reason)
        super().__init__(message, span=span)


class QueueFullError(EclError):
    """A submission exceeded a bounded queue depth (HTTP 429).  Batch
    spec expansion raises it too, before building a batch that could
    never fit; ``jobs`` then counts the jobs it had reached."""

    def __init__(self, message, jobs=0):
        super().__init__(message)
        self.jobs = jobs
