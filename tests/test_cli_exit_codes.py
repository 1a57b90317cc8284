"""Property test of the CLI's exit codes: a valid job with one key
replaced, dropped or added ends in 0, 2, 3 or 4, a failure is reported
on one line of stderr with its values written as rationals, and a parse
error (exit 2) is made before any root system is built."""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from redpair import cli
from redpair.cli import COMMANDS, CONFIG_KEYS, main

# (config, cutoff flag): one valid job per verb, over A1, A2, B2, G2, A1xA1;
# only the verbs that draw a table take the flag
TEMPLATES = [
    ({"lie_type": "A2", "k": "sl2", "labels": "[2, 2]", "command": "fundseries",
      "nu": "-3"}, "169/8"),
    ({"lie_type": "B2", "k": "sl2", "labels": "[2, 2]", "command": "verify",
      "nu": "-6"}, "64/5"),
    ({"lie_type": "A2", "k": "levi", "nodes": "[1]", "command": "verify",
      "nu": "[0, 0]", "nu_basis": "fundamental"}, "20"),
    ({"lie_type": "G2", "k": "sl2", "labels": "[2, 2]", "command": "generic-check",
      "mu": "5"}, None),
    ({"lie_type": "A1xA1", "k": "cartan", "command": "parabolic",
      "lambda": "[1, 2]"}, None),
    ({"lie_type": "A1", "k": "sl2", "labels": "[2]", "command": "sl2-threshold"}, None),
    ({"lie_type": "A2", "k": "explicit", "restriction": "[[2, 2]]",
      "k_simple_roots": "[[2]]", "k_coroots": "[[1]]", "command": "pair-info"}, None),
    ({"lie_type": "B2", "k": "levi", "nodes": "[2]", "command": "parabolic",
      "mu": "[1, 1]", "max_weyl": "2"}, None),
]

NUMBERS = st.one_of(
    st.integers(-12, 12).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-12, 12), st.integers(1, 6)),
)
WORDS = st.sampled_from(["A1", "A2", "B2", "G2", "A1xA1", "A0", "sl2", "levi", "cartan",
                         "explicit", "simple", "fundamental", "foo", *COMMANDS])
ARRAYS = st.lists(NUMBERS, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]")
NESTED = st.lists(ARRAYS, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]")
VALUES = st.one_of(NUMBERS, WORDS, ARRAYS, NESTED)
KEYS = st.sampled_from(CONFIG_KEYS + ("cutof", "matrix"))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli") / "job.cfg"


def test_templates_succeed(config_path):
    for job, cutoff in TEMPLATES:
        code, _, err, built = run(config_path, job, cutoff)
        assert code == 0 and built, err


def run(path, job, cutoff, flags=("--max-weyl", "100")):
    """Exit code, stdout and stderr of one job, and whether it built a root system."""
    path.write_text("".join(f"{k} = {v}\n" for k, v in job.items()), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.object(
            cli, "build_root_system", wraps=cli.build_root_system) as spy:
        code = main(["--config", str(path), *flags, "--emit", "machine"]
                    + (["--cutoff", cutoff] if cutoff is not None else []))
    return code, out.getvalue(), err.getvalue(), spy.called


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(template=st.sampled_from(TEMPLATES), edit=st.sampled_from(["replace", "drop", "add"]),
       pick=st.integers(0, 10), key=KEYS, value=VALUES)
def test_one_key_edit_ends_in_a_documented_exit_code(config_path, template, edit, pick,
                                                     key, value):
    job, cutoff = template
    job = dict(job)
    if edit == "add":
        job[key] = value
    else:
        chosen = list(job)[pick % len(job)]
        if edit == "drop":
            del job[chosen]
        else:
            job[chosen] = value
    code, out, err, built = run(config_path, job, cutoff)
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), err
    assert not (code == 2 and built), err   # a parse error builds nothing
    if code != 0:
        assert out == ""
        assert err.endswith("\n") and "\n" not in err[:-1], err
        assert "Fraction(" not in err, err


A2_MARKS_23 = {"lie_type": "A2", "k": "sl2", "labels": "[2, 3]"}
A20_EXPLICIT = {"lie_type": "A20", "k": "explicit", "command": "pair-info",
                "restriction": "[[" + ", ".join(["1"] * 20) + "]]"}


@pytest.mark.parametrize("job, message", [
    ({"lie_type": "A20", "k": "cartan", "command": "pair-info", "max_weyl": "0"},
     "the Weyl group cap must be at least 1, got 0"),
    ({"lie_type": "A20", "k": "sl2", "command": "pair-info"},
     "missing required config key 'labels'"),
    ({**A2_MARKS_23, "command": "generic-check"}, "missing required config key 'mu'"),
    ({**A2_MARKS_23, "command": "parabolic", "mu": "1", "lambda": "1"},
     "the parabolic command needs exactly one of 'lambda' and 'mu'"),
    ({**A2_MARKS_23, "command": "fundseries", "nu": "1", "nu_basis": "simple"},
     "config key 'nu_basis' is not read with a scalar nu"),
    ({"lie_type": "A20", "k": "cartan", "command": "generic-check", "mu": "[1, 2]"},
     "'mu' must have 20 coordinates"),
    ({"lie_type": "A20", "k": "sl2", "labels": "[2, 2]", "command": "pair-info"},
     "expected 20 labels, got 2"),
    ({"lie_type": "A20", "k": "levi", "nodes": "[3, 21]", "command": "pair-info"},
     "simple-root index 21 outside 1..20"),
    ({**A20_EXPLICIT, "restriction": "[[1, 2]]", "k_simple_roots": "[]", "k_coroots": "[]"},
     "restriction must be rank_t x 20"),
    ({**A20_EXPLICIT, "k_simple_roots": "[[2, 1/2]]", "k_coroots": "[[1]]"},
     "k-simple root [2, 1/2] has wrong rank"),
], ids=["cap-floor", "labels", "mu", "lambda-and-mu", "nu-basis", "mu-length",
        "labels-length", "nodes-range", "restriction-rows", "k-data-length"])
def test_a_config_fault_is_refused_before_an_oversized_type_or_a_bad_mark(
        config_path, job, message):
    # A20 is over the root cap (exit 4) and the mark 3 is invalid (exit 3),
    # but the config fault next to each is found first, from the text alone
    code, out, err, built = run(config_path, job, None, flags=())
    assert (code, out, err, built) == (2, "", f"parse error: {message}\n", False)
