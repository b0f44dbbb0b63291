"""JSON campaign specs for ``eclc verify run`` / ``eclc cover``.

A spec declares the whole verification campaign in one versionable
document::

    {
      "designs": {"door": "door_ctrl.ecl"},
      "design": "door",
      "module": "door_ctrl",
      "engine": "native",
      "properties": [
        {"kind": "never", "pred": {"all": ["door_open", "motor_on"]}},
        {"kind": "within", "trigger": "call_btn",
         "expect": "door_open", "limit": 8}
      ],
      "rounds": 6, "jobs_per_round": 16, "length": 48,
      "target": 100, "workers": 4, "ledger": "traces",
      "seeds": [[{"call_btn": null}, {"tick": null}, {"tick": null}]]
    }

``designs`` follows the farm batch-spec schema
(:mod:`repro.farm.spec`): labels map to ECL file paths (relative to
the spec file) or inline ``{"text": ...}`` objects, and the document
carries the same versioned ``spec_version`` envelope — one schema,
validated identically across ``eclc farm run``, ``eclc verify run``
and ``eclc submit``.  ``seeds`` is an optional corpus of explicit
stimuli (instant dicts, ``null`` = pure presence).  Property objects
follow :func:`repro.verify.props.parse_property`.
"""

from __future__ import annotations

import os

from ..errors import EclError
from ..farm.spec import check_version, load_designs, read_document
from .campaign import VerifyCampaign
from .props import parse_property


def load_campaign_spec(path):
    """Parse a campaign spec file into a :class:`VerifyCampaign`."""
    document = read_document(path)
    check_version(document, path)
    base = os.path.dirname(os.path.abspath(path))
    designs = load_designs(document.get("designs"), base, path)
    design = document.get("design")
    if design is None and len(designs) == 1:
        design = next(iter(designs))
    module = document.get("module")
    if not design or not module:
        raise EclError(
            'campaign spec %s: "design" and "module" are required' % path
        )
    properties = tuple(
        parse_property(spec) for spec in document.get("properties", [])
    )
    seeds = _parse_seeds(document.get("seeds"), path)
    ledger = document.get("ledger")
    if ledger is not None and not os.path.isabs(ledger):
        ledger = os.path.join(base, ledger)
    return VerifyCampaign(
        designs,
        design,
        module,
        engine=document.get("engine", "native"),
        task_engine=str(document.get("task_engine", "") or ""),
        properties=properties,
        rounds=int(document.get("rounds", 6)),
        jobs_per_round=int(document.get("jobs_per_round", 16)),
        length=int(document.get("length", 32)),
        present_prob=float(document.get("present_prob", 0.5)),
        value_range=document.get("value_range", (0, 255)),
        workers=document.get("workers"),
        chunk_size=document.get("chunk_size"),
        ledger_root=ledger,
        target=float(document.get("target", 100.0)),
        seeds=seeds,
        salt=int(document.get("seed", 0)),
        stop_on_violation=bool(document.get("stop_on_violation", True)),
    )


def _parse_seeds(section, spec_path):
    if not section:
        return []
    seeds = []
    for number, trace in enumerate(section):
        if not isinstance(trace, list):
            raise EclError(
                "campaign spec %s: seeds[%d] must be a list of instants"
                % (spec_path, number)
            )
        seeds.append([dict(instant) for instant in trace])
    return seeds
