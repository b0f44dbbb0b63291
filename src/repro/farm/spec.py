"""Batch spec files for ``eclc farm run`` (and everything else).

A spec is a JSON document declaring the designs and the job matrix in
one place, so a CI job or a verification flow can version-control its
whole simulation campaign::

    {
      "spec_version": 2,
      "workers": 8,
      "ledger": "traces",
      "designs": {"stack": "protocol_stack.ecl"},
      "jobs": [
        {"design": "stack", "modules": ["toplevel"],
         "engine": "vector", "n_instances": 1000,
         "length": 64, "horizon": 96}
      ]
    }

Documents carry a ``spec_version`` envelope.  Version 1 (or an absent
field) is the original schema and is accepted unchanged — version 2 is
a backward-compatible superset, so v1 documents upconvert for free.
Version 2 adds two per-entry spellings: ``engine`` (one engine as a
string, exclusive with the ``engines`` list) and ``n_instances`` (how
many stimulus instances to sweep — an alias of ``traces`` named for
the vector engine, where the worker fuses all instances into one numpy
sweep).  Anything newer than :data:`SPEC_VERSION` is rejected, with
identical validation wherever a spec document enters the system:
``eclc farm run --spec``, ``eclc verify run --spec``, ``eclc submit``
and the serving layer all parse through this module.

``designs`` maps batch labels to ECL file paths (relative to the spec
file) or to inline source objects ``{"text": "module ..."}`` — the
inline form is what the serving layer's HTTP API accepts (a remote
service cannot resolve client-side paths; ``eclc submit`` inlines the
files before sending).  Each ``jobs`` entry is a matrix: every listed
module x engine x trace replicate becomes one
:class:`~repro.farm.jobs.SimJob`;
``modules`` may be omitted to mean "every module of the design".
Optional per-entry keys: ``seed``, ``horizon``, ``present_prob``,
``value_range``, ``vcd`` (record waveforms), ``tasks`` (rtos
partitions, ``[[task, module, priority, {formal: network}], ...]``
with priority and the binding map optional), ``task_engine``
("efsm", "native" or "interp" — what runs inside each rtos task) and
``deadline_s`` (serving QoS: max seconds a job may wait in the service
queue before it is refused; ignored by local farm runs and excluded
from job identity).  Farm-level keys: ``workers``, ``chunk_size``,
``ledger`` and ``cache_dir`` (persistent shared code cache, resolved
against the spec location); the serving layer additionally honors a
top-level ``ttl_s`` (batch time-to-live once admitted).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from ..engines import get_engine
from ..errors import EclError
from .jobs import SimJob, StimulusSpec, value_range_of

#: Newest spec schema this build understands.  Older documents are
#: upconverted on read; newer ones are rejected up front.
SPEC_VERSION = 2


def check_version(document, origin="<request>"):
    """Validate a document's ``spec_version`` envelope and return the
    declared version (1 when the field is absent).  One gate for every
    entry point, so a spec rejected by ``eclc farm run`` is rejected
    identically by ``eclc verify run``, ``eclc submit`` and the
    service."""
    version = document.get("spec_version", 1)
    if isinstance(version, bool) or not isinstance(version, int) or version < 1:
        raise EclError(
            'farm spec %s: "spec_version" must be a positive integer, '
            "got %r" % (origin, version)
        )
    if version > SPEC_VERSION:
        raise EclError(
            "farm spec %s: spec_version %d is newer than this build "
            "supports (%d)" % (origin, version, SPEC_VERSION)
        )
    return version


def load_spec(path):
    """Parse a spec file: returns ``(designs, jobs, settings)`` where
    ``designs`` maps labels to source text, ``jobs`` is the expanded
    job list and ``settings`` holds farm-level options (workers,
    chunk_size, ledger root resolved against the spec location)."""
    document = read_document(path)
    base = os.path.dirname(os.path.abspath(path))
    designs = load_designs(document.get("designs"), base, path)
    jobs = expand_document(document, designs, path)
    settings = {
        "workers": document.get("workers"),
        "chunk_size": document.get("chunk_size"),
        "ledger": _resolve(base, document.get("ledger")),
        "cache_dir": _resolve(base, document.get("cache_dir")),
    }
    return designs, jobs, settings


def read_document(path):
    """Load and type-check one spec file's JSON document."""
    with open(path) as handle:
        try:
            document = json.load(handle)
        except ValueError as error:
            raise EclError("bad farm spec %s: %s" % (path, error))
    if not isinstance(document, dict):
        raise EclError("bad farm spec %s: expected a JSON object" % path)
    return document


def expand_document(document, designs, origin="<request>"):
    """Expand an already-loaded spec document's job matrix against
    ``designs`` (labels to source text).  This is the single expansion
    path shared by ``eclc farm run --spec``, the serving layer and
    ``eclc submit`` — which is what makes a service batch reproduce a
    local farm run job-for-job (same indices, same derived seeds)."""
    check_version(document, origin)
    return _expand_entries(document.get("jobs"), designs, origin)


def inline_spec(path):
    """The spec document at ``path`` with every design entry replaced
    by its inline ``{"text": ...}`` form — the submission payload for
    a (possibly remote) simulation service."""
    document = read_document(path)
    check_version(document, path)
    base = os.path.dirname(os.path.abspath(path))
    designs = load_designs(document.get("designs"), base, path)
    document = dict(document)
    document["designs"] = {
        label: {"text": text} for label, text in designs.items()
    }
    return document


def _resolve(base, path):
    if path is None:
        return None
    if os.path.isabs(path):
        return path
    return os.path.join(base, path)


def load_designs(section, base, spec_path, allow_paths=True) -> Dict[str, str]:
    """``label -> source text`` from a spec's ``designs`` section.

    String entries are file paths resolved against ``base``; object
    entries ``{"text": ...}`` carry the source inline.  A service
    passes ``allow_paths=False``: it must never resolve client-side
    paths against its own filesystem.
    """
    if not isinstance(section, dict) or not section:
        raise EclError(
            'farm spec %s: "designs" must map labels to ECL file paths '
            'or inline {"text": ...} objects' % spec_path
        )
    designs = {}
    for label, entry in section.items():
        if isinstance(entry, dict):
            text = entry.get("text")
            if not isinstance(text, str):
                raise EclError(
                    'farm spec %s: design %r: inline form wants '
                    '{"text": "<ECL source>"}' % (spec_path, label)
                )
            designs[label] = text
            continue
        if not allow_paths:
            raise EclError(
                "farm spec %s: design %r must be inline "
                '({"text": ...}) — the service does not resolve '
                "file paths" % (spec_path, label)
            )
        full = _resolve(base, entry)
        try:
            with open(full) as handle:
                designs[label] = handle.read()
        except OSError as error:
            raise EclError("farm spec %s: design %r: %s" % (spec_path, label, error))
    return designs


def _module_names(source, label):
    """Module names of a design source (compile-light: parse only)."""
    from ..pipeline import Pipeline

    build = Pipeline().compile_text(source, filename=label)
    return list(build.module_names)


def _expand_entries(entries, designs, spec_path) -> List[SimJob]:
    if not isinstance(entries, list) or not entries:
        raise EclError('farm spec %s: "jobs" must be a non-empty list' % spec_path)
    jobs: List[SimJob] = []
    index = 0
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise EclError(
                "farm spec %s: jobs[%d] must be an object" % (spec_path, position)
            )
        label = entry.get("design")
        if label not in designs:
            raise EclError(
                "farm spec %s: jobs[%d] names unknown design %r"
                % (spec_path, position, label)
            )
        where = "farm spec %s: jobs[%d]" % (spec_path, position)
        modules = _names(entry, "modules", where)
        modules = modules or _module_names(designs[label], label)
        engines = _names(entry, "engines", where)
        if "engine" in entry:  # v2 singular spelling
            if engines:
                raise EclError(
                    'farm spec %s: jobs[%d] gives both "engine" and '
                    '"engines" — pick one' % (spec_path, position)
                )
            engines = [str(entry["engine"])]
        engines = engines or ["efsm"]
        traces_key = "traces"
        if "n_instances" in entry:  # v2 sweep-oriented spelling
            if entry.get("traces") is not None:
                raise EclError(
                    '%s gives both "traces" and "n_instances" — they are '
                    "the same knob" % where
                )
            traces_key = "n_instances"
        traces = _number(entry, traces_key, 1, int, where)
        horizon = _number(entry, "horizon", 0, int, where)
        stimulus = StimulusSpec.random(
            length=_number(entry, "length", 32, int, where),
            present_prob=_number(
                entry, "present_prob", 0.5, float, where, minimum=None
            ),
            value_range=value_range_of(entry.get("value_range", (0, 255)), where),
            salt=_number(entry, "seed", 0, int, where, minimum=None),
        )
        tasks = _task_specs(entry.get("tasks"), where)
        record_vcd = entry.get("vcd")
        if record_vcd is None:
            record_vcd = False
        elif not isinstance(record_vcd, bool):
            raise EclError(
                '%s: "vcd" must be true or false, got %r' % (where, record_vcd)
            )
        task_engine = str(entry.get("task_engine", "") or "")
        deadline_s = _number(entry, "deadline_s", 0, float, where)
        for module in modules:
            for engine in engines:
                runs_tasks = "tasks" in get_engine(engine).capabilities()
                for _ in range(traces):
                    jobs.append(
                        SimJob(
                            design=label,
                            module=module,
                            engine=engine,
                            stimulus=stimulus,
                            horizon=horizon,
                            index=index,
                            record_vcd=record_vcd,
                            tasks=tasks,
                            task_engine=task_engine if runs_tasks else "",
                            deadline_s=deadline_s,
                        )
                    )
                    index += 1
    return jobs


def _number(entry, key, default, convert, where, minimum=0):
    """``convert(entry[key])`` (``default`` when absent or null); an
    EclError naming the field when the value does not convert or lies
    below ``minimum``."""
    value = entry.get(key)
    if value is None:
        return convert(default)
    try:
        number = convert(value)
    except (TypeError, ValueError, OverflowError):
        raise EclError('%s: "%s" must be a number, got %r' % (where, key, value))
    if minimum is not None and number < minimum:
        raise EclError(
            '%s: "%s" must be >= %s, got %r' % (where, key, minimum, value)
        )
    return number


def _names(entry, key, where) -> List[str]:
    """``entry[key]`` as a list of names (empty when absent or null);
    an EclError naming the field for anything but a list of strings."""
    value = entry.get(key)
    if value is None:
        return []
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise EclError('%s: "%s" must be a list of names, got %r' % (where, key, value))
    return value


def _task_specs(section, where) -> Tuple[tuple, ...]:
    if not section:
        return ()
    if not isinstance(section, list):
        raise EclError('%s: "tasks" must be a list, got %r' % (where, section))
    tasks = []
    for item in section:
        try:
            if not isinstance(item, list) or not 2 <= len(item) <= 4:
                raise ValueError
            name, module = item[0], item[1]
            priority = int(item[2]) if len(item) > 2 else 1
            if len(item) > 3:
                bindings = tuple(
                    sorted(
                        (str(formal), str(network))
                        for formal, network in dict(item[3]).items()
                    )
                )
                tasks.append((str(name), str(module), priority, bindings))
            else:
                tasks.append((str(name), str(module), priority))
        except (TypeError, ValueError):
            raise EclError(
                '%s: "tasks" entries must be [task, module, priority, '
                "{formal: network}] lists (priority and bindings optional), "
                "got %r" % (where, item)
            )
    return tuple(tasks)
