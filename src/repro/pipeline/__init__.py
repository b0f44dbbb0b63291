"""Staged compilation pipeline with pluggable back-ends and caching.

The driver layer of the reproduction, redesigned around three ideas:

* **Stages and artifacts** — parse, check, split, translate, EFSM
  build, optimize and each emitter are named stages producing typed,
  content-addressed artifacts (:mod:`repro.pipeline.stages`,
  :mod:`repro.pipeline.artifacts`);
* **Pluggable back-ends** — emitters register into a
  :class:`BackendRegistry` via the :func:`backend` decorator
  (:mod:`repro.pipeline.registry`), so ``eclc --emit`` choices are
  derived, never hardcoded;
* **Artifact caching and batching** — a persistent
  :class:`ArtifactCache` keyed on (digest of the preprocessed text,
  options digest, stage, module) makes warm recompiles near-free: one
  preprocess, no parse.  :meth:`Pipeline.compile_design` compiles a
  whole design and returns a structured :class:`BuildReport`.

It is the one compile API: ``Pipeline(options).compile_text(...)``
returns a :class:`DesignBuild`, whose :class:`ModuleHandle` objects
run the checker, the three phases and every registered emitter.
"""

from .artifacts import (
    Artifact,
    ArtifactKey,
    SCHEMA_VERSION,
    digest_options,
    digest_text,
)
from .cache import ArtifactCache, CacheStats, default_cache_root
from .registry import (
    Backend,
    BackendRegistry,
    DEFAULT_REGISTRY,
    EmitInput,
    backend,
)
from .report import BuildReport, ModuleBuild, StageTiming
from .stages import CompileOptions, STAGES, Stage, stage_named
from .pipeline import DesignBuild, ModuleHandle, Pipeline

__all__ = [
    "Artifact",
    "ArtifactKey",
    "ArtifactCache",
    "Backend",
    "BackendRegistry",
    "BuildReport",
    "CacheStats",
    "CompileOptions",
    "DEFAULT_REGISTRY",
    "DesignBuild",
    "EmitInput",
    "ModuleBuild",
    "ModuleHandle",
    "Pipeline",
    "SCHEMA_VERSION",
    "STAGES",
    "Stage",
    "StageTiming",
    "backend",
    "default_cache_root",
    "digest_options",
    "digest_text",
    "stage_named",
]
