"""The machine-output writer ``cli._json`` against ``json.dumps(...,
sort_keys=True, indent=2, ensure_ascii=False)``, on crafted values and on
the documents of real jobs (the ``json_documents`` fixture of conftest.py
compares every document a test writes through the CLI)."""

import json
from fractions import Fraction

import pytest

from redpair import cli


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)


CRAFTED = [
    {}, [], (), "", 0, 1, -1, True, False, None,
    {"a": {}}, {"a": []}, [[]], [{}], [[], {}, [[]], {"x": {}}],
    {"outer": {"inner": {"deep": [1, [2, [3, []]]]}}},
    "ρ_n ⊂ 𝔨, é, 日本",
    {"ключ": "значение", "é": ["ü"]},
    'a "quoted" word', "back\\slash", "\\\"", "/",
    "\n\t\r\b\f", "\x00\x01\x1f\x7f", "  ", "퟿￿",
    [True, 1, False, 0], {"t": True, "one": 1, "f": False, "zero": 0, "n": None},
    [None, [None], {"none": None}],
    10 ** 100, -10 ** 60, [2 ** 64, -(2 ** 63) - 1],
    {"b": 1, "a": 2, "B": 3, "": 4, "aa": 5, "a b": 6, "é": 7, "Z": 8},
    ("1/2", ("-3", "0")), {"rows": [("1", "2"), ("3/4",)]},
]


@pytest.mark.parametrize("value", CRAFTED, ids=range(len(CRAFTED)))
def test_crafted_values_match_json_dumps(value, json_documents):
    assert cli._json(value) == dumps(value)
    assert json_documents == [value]


@pytest.mark.parametrize("value", [Fraction(1, 2), object(), {1, 2}, b"bytes"])
def test_values_that_are_no_json_are_refused(value):
    with pytest.raises(TypeError):
        cli._json(value)
    with pytest.raises(TypeError):
        cli._json({"key": [value]})


CONFIGS = [
    "lie_type = E8\nk = levi\nnodes = [1, 2]\ncommand = pair-info\n",
    "lie_type = F4\nk = levi\nnodes = [1, 2]\ncommand = parabolic\nmu = [0, 0, 0, 0]\n",
    "lie_type = A2\nk = sl2\nlabels = [2, 2]\ncommand = fundseries\nnu = -3\ncutoff = 169/8\n",
    "lie_type = A4\nk = sl2\nlabels = [2, 0, 0, 2]\ncommand = generic-check\nmu = 0\n",
    "lie_type = A2\nk = sl2\nlabels = [2, 2]\ncommand = verify\nnu = -3\ncutoff = 169/8\n",
    "lie_type = B3\nk = explicit\nrestriction = [[1/2, 1, 0]]\nk_simple_roots = []\n"
    "k_coroots = []\ncommand = pair-info\n",
    "lie_type = G2\nk = cartan\ncommand = sl2-threshold\n",
]


@pytest.mark.parametrize("text", CONFIGS, ids=range(len(CONFIGS)))
def test_job_documents_match_json_dumps(text, tmp_path, capsys, json_documents):
    path = tmp_path / "job.cfg"
    path.write_text(text, encoding="utf-8")
    code = cli.main(["--config", str(path), "--emit", "machine"])
    out = capsys.readouterr().out
    if code == 0:
        # the fixture compared the document; stdout is that text and a newline
        assert len(json_documents) == 1
        assert out == dumps(json_documents[0]) + "\n"
    else:
        assert json_documents == [] and out == ""
