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
from ..farm.spec import _number, check_version, load_designs, read_document
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
    where = "campaign spec %s" % path
    return VerifyCampaign(
        designs,
        design,
        module,
        engine=document.get("engine", "native"),
        task_engine=str(document.get("task_engine", "") or ""),
        properties=properties,
        rounds=_number(document, "rounds", 6, int, where),
        jobs_per_round=_number(document, "jobs_per_round", 16, int, where),
        length=_number(document, "length", 32, int, where),
        present_prob=_number(document, "present_prob", 0.5, float, where, maximum=1),
        value_range=document.get("value_range", (0, 255)),
        workers=document.get("workers"),
        ledger_root=ledger,
        target=_number(document, "target", 100.0, float, where),
        seeds=seeds,
        salt=_number(document, "seed", 0, int, where, minimum=None),
        stop_on_violation=bool(document.get("stop_on_violation", True)),
    )


def _parse_seeds(section, spec_path):
    if not section:
        return []
    if not isinstance(section, list):
        raise EclError(
            'campaign spec %s: "seeds" must be a list of traces' % spec_path
        )
    seeds = []
    for number, trace in enumerate(section):
        if not (isinstance(trace, list) and all(isinstance(i, dict) for i in trace)):
            raise EclError(
                "campaign spec %s: seeds[%d] must be a list of instant "
                "objects" % (spec_path, number)
            )
        seeds.append([dict(instant) for instant in trace])
    return seeds
