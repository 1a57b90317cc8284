"""Every machine document that a test writes through ``redpair.cli`` is
also written by ``json.dumps`` with the options the writer stands in for,
and the two texts must be equal."""

import json

import pytest

from redpair import cli


@pytest.fixture(autouse=True)
def json_documents(monkeypatch):
    """The documents checked so far in this test, in order."""
    write = cli._json
    checked = []

    def compared(value, *indent):
        text = write(value, *indent)
        if not indent:    # a whole document; the nested calls pass an indent
            expected = json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)
            if text != expected:
                # the first difference only: a full diff of a long document is slow
                at = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
                          min(len(text), len(expected)))
                near = slice(max(0, at - 40), at + 40)
                pytest.fail(f"the writer differs from json.dumps at character {at}: "
                            f"{text[near]!r} != {expected[near]!r}")
            checked.append(value)
        return text

    monkeypatch.setattr(cli, "_json", compared)
    return checked
