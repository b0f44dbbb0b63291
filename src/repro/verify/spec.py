"""JSON campaign specs for ``eclc verify run`` / ``eclc cover``.

A campaign document holds the ``CAMPAIGN`` keys of :mod:`repro.farm.spec`,
listed in README.md's "Spec reference".
"""

from __future__ import annotations

import os

from ..farm.spec import load_campaign, read_document
from .campaign import VerifyCampaign


def load_campaign_spec(path):
    """Parse a campaign spec file into a :class:`VerifyCampaign`."""
    base = os.path.dirname(os.path.abspath(path))
    return campaign_from_document(read_document(path), base, path)


def campaign_from_document(document, base, origin, **given):
    """A :class:`VerifyCampaign` of a campaign document; relative paths
    resolve against ``base`` and ``given`` constructor arguments (such as
    flag-built properties) win over the document's."""
    return VerifyCampaign(**dict(load_campaign(document, base, origin), **given))
