"""Content-addressed artifacts: the currency of the staged pipeline.

Every stage of the compilation pipeline produces an :class:`Artifact` —
a typed payload tagged with an :class:`ArtifactKey` that names exactly
which computation produced it: the digest of the preprocessed
translation unit (the text the parser reads, so included files,
include paths and predefined macros count exactly as far as they reach
it), the digest of the compile options, the stage name, and (for
per-module stages) the module name.  Two compilations with the same key
are guaranteed to produce the same payload, which is what makes the
persistent :class:`repro.pipeline.cache.ArtifactCache` sound: a key is
a proof of equivalence, not a heuristic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

#: Bumped whenever the meaning of a stage payload changes, so persistent
#: caches from older layouts can never serve stale artifacts.
SCHEMA_VERSION = "1"


def digest_text(text):
    """Stable hex digest of a piece of source text."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


def digest_options(options):
    """Stable hex digest of a dataclass of compile options.

    Field order is canonicalised by name so the digest survives field
    reordering; the schema version and library version are mixed in so
    artifacts never cross incompatible releases.
    """
    from .. import __version__

    parts = ["schema=%s" % SCHEMA_VERSION, "version=%s" % __version__]
    for f in sorted(fields(options), key=lambda f: f.name):
        parts.append("%s=%r" % (f.name, getattr(options, f.name)))
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ArtifactKey:
    """Identity of one stage output: (source, options, stage, module)."""

    source: str            # digest of the preprocessed translation unit
    options: str           # digest of the CompileOptions
    stage: str             # stage name, e.g. "translate" or "emit:c"
    module: str = ""       # module name; "" for design-level stages

    @property
    def cache_id(self):
        """Single hex id addressing this key in a content store."""
        text = "\x1f".join((self.source, self.options, self.stage,
                            self.module))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def __str__(self):
        scope = self.module or "<design>"
        return "%s/%s@%s" % (scope, self.stage, self.cache_id[:12])


@dataclass
class Artifact:
    """One stage output: a typed payload under a content address."""

    key: ArtifactKey
    payload: object
    kind: str = ""               # "kernel", "efsm", "files", ...
    meta: dict = field(default_factory=dict)
    from_cache: bool = False

    def __repr__(self):
        return "Artifact(%s, kind=%r, from_cache=%r)" % (
            self.key, self.kind, self.from_cache)
