"""Spec documents: farm batches, service submissions and verify campaigns.

The one place that knows the spec format.  Each key is a :class:`Field` of
:data:`ENTRY` (one ``jobs`` entry), :data:`ENVELOPE` (batch-level keys) or
:data:`CAMPAIGN` (``eclc verify run``), checked by :func:`parse`; README.md's
"Spec reference" lists them all.  Null means absent; unknown keys are ignored.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from typing import Callable, Dict, List, NamedTuple

from ..engines import adapter_names, engine_names, names_with
from ..errors import EclError, QueueFullError, SpecError
from .jobs import SimJob, expand_jobs, value_range_of
from .ledger import TENANT_NAME

#: Newest spec schema this build understands.  Version 2 adds the ``engine``
#: and ``n_instances`` spellings; older documents are read unchanged.
SPEC_VERSION = 2

#: Tenant of a submission that names none.
DEFAULT_TENANT = "default"


class Field(NamedTuple):
    """One spec key.  ``kind`` converts its JSON value or raises ValueError
    stating the rule; the bounds (``low``/``high`` inclusive, ``above``
    exclusive) and ``choices``, the names the value may use (or a function
    ``(values, designs)`` giving them), apply next.  A callable ``default``
    derives the value from the fields before it; ``excludes`` names a key
    that may not be given alongside."""

    key: str
    kind: Callable
    default: object = None
    low: float = None
    high: float = None
    above: float = None
    choices: object = None
    required: bool = False
    excludes: str = None


def parse(document, fields, where, designs=None) -> Dict[str, object]:
    """``{key: value}`` for every field of ``fields`` (absent keys at their
    defaults), or a :class:`~repro.errors.SpecError` naming the first bad
    one; ``designs`` (labels to source) backs the design and module enums."""
    if not isinstance(document, dict):
        raise EclError("%s must be a JSON object" % where)
    values = {}
    for field in fields:
        raw = document.get(field.key)
        try:
            if raw is None:
                value = field.default
                if callable(value):
                    value = value(values, designs)
                if value is None and field.required:
                    raise ValueError("is required")
            elif field.excludes and document.get(field.excludes) is not None:
                raise ValueError('cannot be given with "%s"' % field.excludes)
            else:
                value = _check(field, field.kind(raw), values, designs)
        except ValueError as bad:
            got = "" if raw is None else ", got %.80r" % (raw,)
            message = '%s: "%s" %s%s' % (where, field.key, bad, got)
            raise SpecError(message, field.key) from None
        values[field.key] = value
    return values


def _check(field, value, values, designs):
    if field.low is not None and value < field.low:
        raise ValueError("must be >= %s" % field.low)
    if field.high is not None and value > field.high:
        raise ValueError("must be <= %s" % field.high)
    if field.above is not None and value <= field.above:
        raise ValueError("must be > %s" % field.above)
    if field.choices is not None:
        allowed = field.choices
        if callable(allowed):
            allowed = allowed(values, designs)
        # a name, a list of names, or rtos tasks (module is item 1)
        for name in [value] if isinstance(value, str) else value:
            name = name if isinstance(name, str) else name[1]
            if name not in allowed:
                allowed = ", ".join(allowed)
                raise ValueError("names unknown %r (one of: %s)" % (name, allowed))
    return value


# -- kinds: raw JSON value -> value, or ValueError stating the rule ---------


def _kind(test, rule, convert=None):
    """The kind of the values ``test`` passes (as ``convert(value)``)."""

    def kind(value):
        if not test(value):
            raise ValueError(rule)
        return value if convert is None else convert(value)

    return kind


def _strings(items):
    return all(isinstance(item, str) for item in items)


def _is_design(entry):
    if isinstance(entry, dict):
        return isinstance(entry.get("text"), str)
    return isinstance(entry, str)


def _is_trace(trace):
    return isinstance(trace, list) and all(isinstance(i, dict) for i in trace)


_int = _kind(lambda v: type(v) is int, "must be an integer")
_str = _kind(lambda v: type(v) is str, "must be a string")
_bool = _kind(lambda v: type(v) is bool, "must be true or false")
_names = _kind(lambda v: type(v) is list and _strings(v), "must be a list of names")
_entries = _kind(lambda v: type(v) is list and v != [], "must be a non-empty list")
# NaN, the infinities and ints past the float range all fail the bound
_finite = _kind(
    lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    "must be a finite number",
    float,
)
_tenant = _kind(
    lambda v: type(v) is str and TENANT_NAME.match(v) is not None,
    "must be 1-64 chars of [A-Za-z0-9._-], not starting with '.' or '-'",
)
_design_section = _kind(
    lambda v: type(v) is dict and v != {} and all(map(_is_design, v.values())),
    'must map labels to ECL file paths or inline {"text": ...} objects',
)
_version = _kind(
    lambda v: type(v) is int and 1 <= v <= SPEC_VERSION,
    "must be a positive integer, no newer than this build's %d" % SPEC_VERSION,
)
_seeds = _kind(
    lambda v: type(v) is list and all(map(_is_trace, v)),
    "must be a list of traces (lists of instant objects)",
    lambda v: [[dict(instant) for instant in trace] for trace in v],
)


def _value_range(value):
    try:
        return value_range_of(value)
    except EclError:
        raise ValueError("must be two integers [low, high] with low <= high") from None


def _is_task(item):
    return (
        type(item) is list
        and 2 <= len(item) <= 4
        and _strings(item[:2])
        and type((item + [1])[2]) is int
        and (len(item) < 4 or type(item[3]) is dict and _strings(item[3].values()))
    )


def _task(item):
    task = (item[0], item[1], item[2] if len(item) > 2 else 1)
    return task + (tuple(sorted(item[3].items())),) if len(item) > 3 else task


_tasks = _kind(
    lambda v: type(v) is list and all(map(_is_task, v)),
    "must be a list of [task, module, priority, {formal: network}] rows "
    "(priority and bindings optional)",
    lambda v: tuple(map(_task, v)),
)


def _properties(value):
    from ..verify.props import parse_property

    if not isinstance(value, list):
        raise ValueError("must be a list of property objects")
    try:
        return tuple(parse_property(spec) for spec in value)
    except EclError as error:
        raise ValueError("holds a bad property (%s)" % error) from None


@functools.lru_cache(maxsize=64)
def module_names(source, label):
    """Module names of a design source (parse only), memoised by
    ``(source, label)`` so a warm submission re-parses nothing."""
    from ..pipeline import Pipeline

    return tuple(Pipeline().compile_text(source, filename=label).module_names)


def _modules(values, designs):
    return module_names(designs[values["design"]], values["design"])


def _instances_or_one(values, designs):
    return 1 if values["n_instances"] is None else values["n_instances"]


def _only_design(values, designs):
    return next(iter(designs)) if len(designs) == 1 else None


_ENGINES = engine_names()
_VERSION = Field("spec_version", _version, 1)
_DESIGNS = Field("designs", _design_section, required=True)
_JOBS = Field("jobs", _entries, required=True)
_WORKERS = Field("workers", _int, low=1)
_LEDGER = Field("ledger", _str)
_LENGTH = Field("length", _int, 32, low=1)
_PRESENT_PROB = Field("present_prob", _finite, 0.5, low=0, high=1)
_VALUE_RANGE = Field("value_range", _value_range, (0, 255))
_SEED = Field("seed", _int, 0)
_TASK_ENGINE = Field("task_engine", _str, "", choices=("",) + names_with("step"))

#: One ``jobs`` entry: every module x engine x trace replicate it names
#: becomes one SimJob.
ENTRY = (
    Field("design", _str, required=True, choices=lambda _, d: tuple(d)),
    Field("modules", _names, _modules, choices=_modules),
    Field("engine", _str, choices=_ENGINES, excludes="engines"),
    Field("engines", _names, lambda v, _: [v["engine"] or "efsm"], choices=_ENGINES),
    Field("n_instances", _int, low=0, excludes="traces"),
    Field("traces", _int, _instances_or_one, low=0),
    _LENGTH,
    Field("horizon", _int, 0, low=0),
    _PRESENT_PROB,
    _VALUE_RANGE,
    _SEED,
    Field("vcd", _bool, False),
    Field("tasks", _tasks, (), choices=_modules),
    _TASK_ENGINE,
    Field("deadline_s", _finite, 0.0, low=0),
)

#: Batch-level keys of a farm spec file or a service submission (where
#: ``tenant`` and ``priority`` come from the request body).
ENVELOPE = (
    _VERSION,
    _DESIGNS,
    _JOBS,
    _WORKERS,
    _LEDGER,
    Field("cache_dir", _str),
    Field("ttl_s", _finite, above=0),
    Field("tenant", _tenant, DEFAULT_TENANT),
    Field("priority", _int, 0),
)

#: An ``eclc verify run`` / ``eclc cover`` campaign.
CAMPAIGN = (
    _VERSION,
    _DESIGNS,
    Field("design", _str, _only_design, choices=lambda _, d: tuple(d), required=True),
    Field("module", _str, required=True, choices=_modules),
    Field("engine", _str, "native", choices=adapter_names()),
    _TASK_ENGINE,
    Field("properties", _properties, ()),
    Field("rounds", _int, 6, low=1),
    Field("jobs_per_round", _int, 16, low=1),
    _LENGTH,
    _PRESENT_PROB,
    _VALUE_RANGE,
    _WORKERS,
    _LEDGER,
    Field("target", _finite, 100.0, low=0),
    Field("seeds", _seeds, ()),
    _SEED,
    Field("stop_on_violation", _bool, True),
)


def check_version(document, origin="<request>"):
    """The document's ``spec_version`` (1 when absent), or a SpecError."""
    return parse(document, (_VERSION,), "farm spec %s" % origin)["spec_version"]


def read_document(path):
    """Load one spec file's JSON document."""
    with open(path) as handle:
        try:
            document = json.load(handle)
        except ValueError as error:
            raise EclError("bad farm spec %s: %s" % (path, error))
    if not isinstance(document, dict):
        raise EclError("bad farm spec %s: expected a JSON object" % path)
    return document


def load_spec(path):
    """``(designs, jobs, settings)`` of a spec file: designs as label to
    source text, the expanded jobs, and the :data:`ENVELOPE` values with
    ``ledger`` and ``cache_dir`` resolved against the spec location."""
    base = os.path.dirname(os.path.abspath(path))
    return load_batch(read_document(path), base, path)


def load_batch(document, base, origin):
    """:func:`load_spec` of an already-loaded document; relative paths
    resolve against ``base``."""
    settings = parse(document, ENVELOPE, "farm spec %s" % origin)
    designs = load_designs(document["designs"], base, origin)
    for key in ("ledger", "cache_dir"):
        settings[key] = _resolve(base, settings[key])
    return designs, expand_document(document, designs, origin), settings


def submission(document, tenant, priority, origin):
    """The :data:`ENVELOPE` values of one service submission: the request
    body's ``tenant`` and ``priority`` over the document's keys."""
    if not isinstance(document, dict):
        raise EclError("batch submission must be a JSON object")
    overlay = dict(document, tenant=tenant, priority=priority)
    return parse(overlay, ENVELOPE, "farm spec %s" % origin)


def load_campaign(document, base, origin):
    """The :class:`~repro.verify.VerifyCampaign` arguments of a campaign
    document; relative paths resolve against ``base``."""
    designs = load_designs(document.get("designs"), base, origin)
    values = parse(document, CAMPAIGN, "campaign spec %s" % origin, designs)
    del values["spec_version"]
    ledger_root = _resolve(base, values.pop("ledger"))
    values.update(designs=designs, ledger_root=ledger_root, salt=values.pop("seed"))
    return values


def expand_document(document, designs, origin="<request>", limit=None):
    """Expand a spec document's job matrix against ``designs`` (labels to
    source text), in entry, module, engine, trace order.  This is the one
    expansion path of ``eclc farm run``, ``eclc submit`` and the service,
    which is what makes a service batch reproduce a local farm run
    job-for-job (same indices, same derived seeds).

    ``limit`` bounds the batch: once the entries' running total of
    modules x engines x traces passes it, :class:`~repro.errors.
    QueueFullError` is raised before any job is built."""
    where = "farm spec %s" % origin
    entries = parse(document, (_VERSION, _JOBS), where)["jobs"]
    matrices = []
    total = 0
    for position, entry in enumerate(entries):
        values = parse(entry, ENTRY, "%s: jobs[%d]" % (where, position), designs)
        total += len(values["modules"]) * len(values["engines"]) * values["traces"]
        if limit is not None and total > limit:
            raise QueueFullError(
                "queue_full: %s expands to at least %d jobs, more than "
                "the queue depth %d" % (origin, total, limit),
                total,
            )
        matrices.append(values)
    jobs: List[SimJob] = []
    for values in matrices:
        if values["traces"]:  # expand_jobs runs at least one
            jobs += expand_jobs(
                [(values["design"], module) for module in values["modules"]],
                engines=values["engines"],
                traces=values["traces"],
                length=values["length"],
                horizon=values["horizon"],
                present_prob=values["present_prob"],
                value_range=values["value_range"],
                record_vcd=values["vcd"],
                start_index=len(jobs),
                salt=values["seed"],
                task_engine=values["task_engine"],
                tasks=values["tasks"],
                deadline_s=values["deadline_s"],
            )
    return jobs


def inline_spec(path):
    """The spec document at ``path`` with every design entry replaced
    by its inline ``{"text": ...}`` form — the submission payload for
    a (possibly remote) simulation service."""
    document = read_document(path)
    check_version(document, path)
    base = os.path.dirname(os.path.abspath(path))
    designs = load_designs(document.get("designs"), base, path)
    document["designs"] = {label: {"text": text} for label, text in designs.items()}
    return document


def _resolve(base, path):
    if path is None or os.path.isabs(path):
        return path
    return os.path.join(base, path)


def load_designs(section, base, spec_path, allow_paths=True) -> Dict[str, str]:
    """``label -> source text`` from a spec's ``designs`` section.

    String entries are file paths resolved against ``base``; object
    entries ``{"text": ...}`` carry the source inline.  A service
    passes ``allow_paths=False``: it must never resolve client-side
    paths against its own filesystem.
    """
    where = "farm spec %s" % spec_path
    section = parse({"designs": section}, (_DESIGNS,), where)["designs"]
    designs = {}
    for label, entry in section.items():
        if isinstance(entry, dict):
            designs[label] = entry["text"]
            continue
        if not allow_paths:
            raise EclError(
                "%s: design %r must be inline "
                '({"text": ...}) — the service does not resolve '
                "file paths" % (where, label)
            )
        try:
            with open(_resolve(base, entry)) as handle:
                designs[label] = handle.read()
        except OSError as error:
            raise EclError("%s: design %r: %s" % (where, label, error))
    return designs
