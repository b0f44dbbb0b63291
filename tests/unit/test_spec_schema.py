"""The spec field table: README coverage and the module-name memo."""

import os
import re

import pytest

from repro.designs import DOOR_CTRL_ECL
from repro.errors import SpecError
from repro.farm.spec import (CAMPAIGN, ENTRY, ENVELOPE, expand_document,
                             module_names, parse)

README = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                      "README.md")


def readme_keys(table):
    """Keys of the README "Spec reference" table headed ``(`table`)``."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("### Spec reference", 1)[1].split("\n## ", 1)[0]
    for part in section.split("\n#### ")[1:]:
        if part.split("\n", 1)[0].endswith("(`%s`)" % table):
            return re.findall(r"^\| `(\w+)` \|", part, re.M)
    raise AssertionError("README has no Spec reference table for %s" % table)


@pytest.mark.parametrize("table, fields", [
    ("ENTRY", ENTRY), ("ENVELOPE", ENVELOPE), ("CAMPAIGN", CAMPAIGN)])
def test_readme_lists_every_key_of_the_table(table, fields):
    assert readme_keys(table) == [field.key for field in fields]


def test_module_names_are_memoised_across_batches():
    document = {"jobs": [{"design": "d", "modules": ["door_ctrl"]}]}
    designs = {"d": DOOR_CTRL_ECL}
    expand_document(document, designs)
    misses = module_names.cache_info().misses
    for _ in range(3):
        expand_document(document, designs)
    assert module_names.cache_info().misses == misses


@pytest.mark.parametrize("entry, field", [
    ({"design": "d", "modules": ["nope"]}, "modules"),
    ({"design": "d", "tasks": [["t", "nope"]]}, "tasks"),
    ({"design": "d", "engine": "native", "engines": ["efsm"]}, "engine"),
    ({"design": "d", "traces": 2, "n_instances": 2}, "n_instances"),
    ({"design": "d", "present_prob": 10 ** 400}, "present_prob"),
    ({"design": "e"}, "design"),
])
def test_bad_entry_names_its_field(entry, field):
    with pytest.raises(SpecError, match='"%s"' % field) as caught:
        parse(entry, ENTRY, "probe", {"d": DOOR_CTRL_ECL})
    assert caught.value.field == field


def test_defaults_derive_from_earlier_fields():
    values = parse({"design": "d", "engine": "vector", "n_instances": 8},
                   ENTRY, "probe", {"d": DOOR_CTRL_ECL})
    assert values["engines"] == ["vector"]
    assert values["traces"] == 8
    assert values["modules"] == ("door_ctrl", "interlock")
