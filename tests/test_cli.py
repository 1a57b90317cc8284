import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from redpair import cli
from redpair.cli import COMMANDS, ConfigError, main, parse_config


def write_config(tmp_path, text, name="job.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


A2_FUNDSERIES = """
lie_type = A2
k = sl2
labels = [2, 2]
command = fundseries
nu = -3
cutoff = 169/8
"""


# ---------------------------------------------------------------------------
# config parsing


def test_parse_scalars_and_arrays():
    job = parse_config("""
# comment
lie_type = A2    # trailing comment
mu = 3
cutoff = 169/8
labels = [2, 0]
matrix = [[1, 0], [0, 1/2]]
""")
    assert job["lie_type"] == "A2"
    assert job["mu"] == Fraction(3)
    assert job["cutoff"] == Fraction(169, 8)
    assert job["labels"] == [Fraction(2), Fraction(0)]
    assert job["matrix"] == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 2)]]


def test_parse_rejects_floats():
    with pytest.raises(ConfigError):
        parse_config("cutoff = 1.5\n")


def test_parse_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_config("just a line without equals\n")
    with pytest.raises(ConfigError):
        parse_config("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config("x = [1, 2\n")


# ---------------------------------------------------------------------------
# commands end to end


def test_generic_check_job(tmp_path, capsys):
    cfg = write_config(tmp_path, """
lie_type = A2
k = sl2
labels = [2, 2]
command = generic-check
mu = 3
""")
    code, out, err = run_main(capsys, ["--config", cfg, "--emit", "machine"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["genericity"]["holds"] is True
    assert doc["genericity"]["mu"] == ["3"]


def test_threshold_job_statement(tmp_path, capsys):
    cfg = write_config(tmp_path, """
lie_type = B2
k = sl2
labels = [2, 2]
command = sl2-threshold
""")
    code, out, err = run_main(capsys, ["--config", cfg, "--emit", "machine"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["threshold"]["value"] == 7
    assert doc["threshold"]["statement"] == "generic iff m >= 6"


def test_fundseries_job_table(tmp_path, capsys):
    cfg = write_config(tmp_path, A2_FUNDSERIES)
    code, out, err = run_main(capsys, ["--config", cfg, "--emit", "machine"])
    assert code == 0, err
    doc = json.loads(out)
    table = doc["table"]
    assert table["s"] == 1 and table["r"] == 2
    got = {entry["delta"][0]: entry["mult"] for entry in table["entries"]}
    assert got == {"3": 1, "5": 1, "7": 2, "9": 2, "11": 3}


def test_verify_job(tmp_path, capsys):
    cfg = write_config(tmp_path, """
lie_type = B2
k = sl2
labels = [2, 2]
command = verify
nu = -6
cutoff = 256/20
""")
    code, out, err = run_main(capsys, ["--config", cfg, "--emit", "machine"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["verify"]["all_ok"] is True
    assert doc["verify"]["generic"] is True
    assert doc["verify"]["rho_identity_ok"] is True
    assert doc["verify"]["degree_sum_ok"] is True


def test_pair_info_job(tmp_path, capsys):
    cfg = write_config(tmp_path, """
lie_type = A2
k = cartan
command = pair-info
""")
    code, out, err = run_main(capsys, ["--config", cfg, "--emit", "machine"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["pair"]["rank_t"] == 2
    assert len(doc["pair"]["delta_t"]) == 6


def test_parabolic_job(tmp_path, capsys):
    cfg = write_config(tmp_path, """
lie_type = A2
k = sl2
labels = [2, 2]
command = parabolic
mu = 3
""")
    code, out, err = run_main(capsys, ["--config", cfg, "--emit", "machine"])
    assert code == 0, err
    doc = json.loads(out)
    parab = doc["parabolic"]
    assert parab["lambda"] == ["5"]
    assert parab["s"] == 1 and parab["r"] == 2
    assert parab["rho_n"] == ["4"] and parab["rho_n_perp"] == ["3"]


def test_levi_and_explicit_jobs(tmp_path, capsys):
    cfg = write_config(tmp_path, """
lie_type = A2
k = levi
nodes = [1]
command = pair-info
""")
    code, out, _ = run_main(capsys, ["--config", cfg, "--emit", "machine"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pair"]["k_positive_roots"] == [["1", "0"]]

    cfg2 = write_config(tmp_path, """
lie_type = A2
k = explicit
restriction = [[2, 2]]
k_simple_roots = [[2]]
k_coroots = [[1]]
command = pair-info
""", name="job2.cfg")
    code2, out2, _ = run_main(capsys, ["--config", cfg2, "--emit", "machine"])
    assert code2 == 0
    doc2 = json.loads(out2)
    assert doc2["pair"]["rho"] == ["1"]


def test_fundseries_rank_two_levi(tmp_path, capsys):
    # the chamber is found by the fixpoint iteration: nu = 0 gives
    # mu = (1, 2) and entries at mu and mu + (1, 1)
    cfg = write_config(tmp_path, """
lie_type = A2
k = levi
nodes = [1]
command = fundseries
nu = [0, 0]
cutoff = 20
""")
    code, out, err = run_main(capsys, ["--config", cfg, "--emit", "machine"])
    assert code == 0, err
    doc = json.loads(out)
    got = {tuple(entry["delta"]): entry["mult"] for entry in doc["table"]["entries"]}
    assert got == {("1", "2"): 1, ("2", "3"): 1}
    assert doc["table"]["mu"] == ["1", "2"]


def test_fundamental_basis_input(tmp_path, capsys):
    # nu given in fundamental coordinates: (0, 0) is still zero
    cfg = write_config(tmp_path, """
lie_type = A2
k = levi
nodes = [1]
command = fundseries
nu = [0, 0]
nu_basis = fundamental
cutoff = 20
""")
    code, out, err = run_main(capsys, ["--config", cfg, "--emit", "machine"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["table"]["mu"] == ["1", "2"]


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_parse_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "lie_type = A2\nmu = 1.5\n")
    code, _, err = run_main(capsys, ["generic-check", "--config", cfg])
    assert code == 2
    assert "parse error" in err


def test_exit_code_missing_config(tmp_path, capsys):
    code, _, err = run_main(capsys, ["generic-check", "--config",
                                     str(tmp_path / "absent.cfg")])
    assert code == 2


def test_config_not_utf8_is_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("lie_type = A2\n# caf\u00e9\n".encode("latin-1"))
    code, _, err = run_main(capsys, ["pair-info", "--config", str(path)])
    assert code == 2
    assert "parse error" in err and "UTF-8" in err


def test_exit_code_validation_error(tmp_path, capsys):
    # non-integral mu for the rank-one subalgebra
    cfg = write_config(tmp_path, """
lie_type = A2
k = sl2
labels = [2, 2]
command = generic-check
mu = 1/2
""")
    code, _, err = run_main(capsys, ["--config", cfg])
    assert code == 3
    assert "validation error" in err


@pytest.mark.parametrize("text, message", [
    ("lie_type = A2\nk = sl2\nlabels = [2, 2]\ncommand = generic-check\nmu = -1\n",
     "k-simple root [2] is negative"),
    (A2_FUNDSERIES + "lambda = 0\n", "the chamber weight [0] is irregular"),
])
def test_validation_message_prints_weights_as_rationals(tmp_path, capsys, text, message):
    code, out, err = run_main(capsys, ["--config", write_config(tmp_path, text)])
    assert code == 3
    assert message in err
    assert "Fraction(" not in err
    assert out == ""


def test_exit_code_cap_exceeded(tmp_path, capsys):
    cfg = write_config(tmp_path, """
lie_type = A2
k = sl2
labels = [2, 2]
command = generic-check
mu = 3
""")
    code, _, err = run_main(capsys, ["--config", cfg, "--max-weyl", "1"])
    assert code == 4
    assert "cap" in err


@pytest.mark.parametrize("exc", [RuntimeError("boom\nsecond line"), KeyError("x"),
                                 TypeError("bad")])
def test_any_other_exception_is_a_one_line_internal_error(tmp_path, capsys, monkeypatch,
                                                          exc):
    def broken(job, args):
        raise exc
    monkeypatch.setattr("redpair.cli.run_job", broken)
    cfg = write_config(tmp_path, A2_FUNDSERIES)
    code, out, err = run_main(capsys, ["--config", cfg, "--emit", "machine"])
    assert code == 1
    assert out == ""
    assert err == f"internal error: {exc!r}\n"


def test_non_generalized_cartan_k_data_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, """
lie_type = A2
k = explicit
restriction = [[1, 0], [0, 1]]
k_simple_roots = [[1, 0], [0, 1]]
k_coroots = [[2, -1], [0, 2]]
command = pair-info
""")
    code, out, err = run_main(capsys, ["--config", cfg])
    assert code == 3
    assert out == ""
    assert err == ("validation error: k Cartan entry (1, 2) is 0 but (2, 1) is -1: "
                   "not a generalized Cartan matrix\n")


def test_cap_from_config_key(tmp_path, capsys):
    cfg = write_config(tmp_path, """
lie_type = A2
k = sl2
labels = [2, 2]
command = generic-check
mu = 3
max_weyl = 1
""")
    code, _, err = run_main(capsys, ["--config", cfg])
    assert code == 4
    # the command-line flag takes precedence
    code2, out, _ = run_main(capsys, ["--config", cfg, "--max-weyl", "10",
                                      "--emit", "machine"])
    assert code2 == 0
    assert json.loads(out)["genericity"]["holds"] is True


@pytest.mark.parametrize("cap,expected", [(51839, 4), (51840, 0)])
def test_cap_compares_the_weyl_order_without_enumerating(tmp_path, capsys, cap, expected):
    # the Levi subalgebra on nodes 1..6 of E7 has Weyl group W(E6), of
    # order 51840; its order is read off the root heights
    cfg = write_config(tmp_path, """
lie_type = E7
k = levi
nodes = [1, 2, 3, 4, 5, 6]
command = pair-info
""")
    code, out, err = run_main(capsys, ["--config", cfg, "--max-weyl", str(cap),
                                       "--emit", "machine"])
    assert code == expected
    if expected == 4:
        assert out == ""
        assert "cap of 51839 elements" in err
    else:
        assert len(json.loads(out)["pair"]["k_positive_roots"]) == 36


def _assert_full_e8_levi_hits_the_default_cap(tmp_path, command):
    # |W(E8)| = 696729600 exceeds rootsystem.MAX_WEYL; the job must exit 4
    # without walking (and storing) a million orbit points
    cfg = write_config(tmp_path, "lie_type = E8\nk = levi\nnodes = [1, 2, 3, 4, 5, 6, 7, 8]\n"
                                 f"command = {command}\nnu = [0, 0, 0, 0, 0, 0, 0, 0]\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run([sys.executable, "-m", "redpair.cli", "--config", cfg,
                          "--emit", "machine"], capture_output=True, text=True,
                         timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 4
    assert run.stdout == ""
    assert "cap of 1000000 elements" in run.stderr


def test_full_e8_levi_fundseries_hits_the_default_cap_at_once(tmp_path):
    _assert_full_e8_levi_hits_the_default_cap(tmp_path, "fundseries")


def test_full_e8_levi_verify_hits_the_default_cap_at_once(tmp_path):
    # the table's own W_k check stops verify before its condition-2 search
    _assert_full_e8_levi_hits_the_default_cap(tmp_path, "verify")


def test_unbounded_table_walk_exits_at_the_point_cap(tmp_path):
    # nu = 10^20 and cutoff = 10^41 put about 10^20 lattice points under
    # the level cap; the walk stops at MAX_TABLE_POINTS
    cfg = write_config(tmp_path, "lie_type = A2\nk = sl2\nlabels = [2, 2]\n"
                                 "command = fundseries\nnu = 100000000000000000000\n"
                                 f"cutoff = {10 ** 41}\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run([sys.executable, "-m", "redpair.cli", "--config", cfg],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 4
    assert run.stdout == ""
    assert run.stderr == ("resource cap exceeded: the k-type table walk exceeds the cap "
                          "of 1000000 lattice points\n")


def test_e7_levi_generic_check_finishes_within_the_timeout(tmp_path):
    # mu = 8 restrict(rho_tilde): the rank-7 condition-2 scan covers the 63
    # weights of ch_t n and finds no violation
    cfg = write_config(tmp_path, "lie_type = E7\nk = levi\nnodes = [1, 2, 3, 4, 5]\n"
                                 "command = generic-check\n"
                                 "mu = [136, 196, 264, 384, 300, 208, 108]\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run([sys.executable, "-m", "redpair.cli", "--config", cfg,
                          "--emit", "machine"], capture_output=True, text=True,
                         timeout=10, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["genericity"]["holds"] is True


def test_successive_main_calls_share_no_state(tmp_path, capsys):
    # the parser is built once; a flag given to one call must not reach the next
    cfg = write_config(tmp_path, A2_FUNDSERIES)
    first = run_main(capsys, ["--config", cfg, "--emit", "machine", "--cutoff", "50"])
    second = run_main(capsys, ["--config", cfg, "--emit", "machine"])
    assert first[0] == second[0] == 0
    assert json.loads(first[1])["table"]["cutoff"] == "50"
    assert json.loads(second[1])["table"]["cutoff"] == "169/8"
    assert first[1] != second[1]
    third = run_main(capsys, ["pair-info", "--config", write_config(
        tmp_path, "lie_type = A2\nk = cartan\n", "info.cfg")])
    assert third[0] == 0 and third[1].startswith("[job]")
    assert run_main(capsys, ["--config", cfg, "--emit", "machine"]) == second


@pytest.mark.parametrize("source", ["flag", "key"])
@pytest.mark.parametrize("cap", [0, -1])
def test_cap_below_one_is_parse_error(tmp_path, capsys, source, cap):
    text = "lie_type = A2\nk = sl2\nlabels = [2, 2]\ncommand = pair-info\n"
    argv = ["--config"]
    if source == "key":
        text += f"max_weyl = {cap}\n"
    else:
        argv = ["--max-weyl", str(cap), "--config"]
    code, out, err = run_main(capsys, argv + [write_config(tmp_path, text)])
    assert code == 2
    assert out == ""
    assert "parse error" in err and "at least 1" in err


@pytest.mark.parametrize("token", ["1e1", "1_0", "+-1", "1/2/3", "0x10"])
def test_parse_rejects_non_rational_numerals(token):
    with pytest.raises(ConfigError):
        parse_config(f"mu = {token}\n")


@pytest.mark.parametrize("token", ["1e1", "1_0"])
def test_config_numeral_grammar_is_parse_error(tmp_path, capsys, token):
    # Fraction() reads both as 10; the config grammar accepts only p/q
    cfg = write_config(tmp_path, f"""
lie_type = A2
k = sl2
labels = [2, 2]
command = generic-check
mu = {token}
""")
    code, out, err = run_main(capsys, ["--config", cfg])
    assert code == 2
    assert "parse error" in err and token in err
    assert out == ""


def test_cutoff_flag_numeral_grammar_is_parse_error(tmp_path, capsys):
    cfg = write_config(tmp_path, A2_FUNDSERIES)
    code, out, err = run_main(capsys, ["--config", cfg, "--cutoff", "1e2"])
    assert code == 2
    assert "parse error" in err
    assert out == ""
    code, out, _ = run_main(capsys, ["--config", cfg, "--cutoff", "169/8",
                                     "--emit", "machine"])
    assert code == 0
    assert json.loads(out)["table"]["cutoff"] == "169/8"


@pytest.mark.parametrize("verb, extra", [
    ("pair-info", ""), ("parabolic", "mu = 3\n"), ("generic-check", "mu = 3\n"),
    ("sl2-threshold", ""),
])
def test_cutoff_flag_on_a_verb_without_a_table_is_parse_error(tmp_path, capsys, verb, extra):
    # the flag is refused like the config key, not silently dropped
    cfg = write_config(tmp_path, f"lie_type = A2\nk = sl2\nlabels = [2, 2]\n"
                                 f"command = {verb}\n{extra}")
    assert run_main(capsys, ["--config", cfg])[0] == 0
    code, out, err = run_main(capsys, ["--config", cfg, "--cutoff", "7"])
    assert code == 2
    assert out == ""
    assert err == f"parse error: option '--cutoff' is not read by {verb}\n"


EXPLICIT ="k = explicit\nrestriction = {}\nk_simple_roots = {}\nk_coroots = {}"


@pytest.mark.parametrize("key, body", [
    ("labels", "k = sl2\nlabels = 2"),
    ("nodes", "k = levi\nnodes = [[1]]"),
    ("restriction", EXPLICIT.format("[1, 2]", "[[2]]", "[[1]]")),
    ("k_simple_roots", EXPLICIT.format("[[2, 2]]", "[2]", "[[1]]")),
    ("k_coroots", EXPLICIT.format("[[2, 2]]", "[[2]]", "[[[1]]]")),
])
def test_array_key_shape_is_parse_error(tmp_path, capsys, key, body):
    cfg = write_config(tmp_path, f"lie_type = A2\ncommand = pair-info\n{body}\n")
    code, out, err = run_main(capsys, ["--config", cfg])
    assert code == 2
    assert f"parse error: config key {key!r}" in err
    assert out == ""


@pytest.mark.parametrize("depth", [3, 3000])
def test_deep_array_nesting_is_parse_error(tmp_path, capsys, depth):
    body = "[" * depth + "2" + "]" * depth
    cfg = write_config(tmp_path, f"lie_type = A2\nk = sl2\nlabels = {body}\n")
    code, out, err = run_main(capsys, ["pair-info", "--config", cfg])
    assert code == 2
    assert "parse error: config key 'labels' nests arrays" in err
    assert out == ""


def test_irregular_chamber_weight_is_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path, A2_FUNDSERIES + "lambda = 0\n")
    code, out, err = run_main(capsys, ["--config", cfg])
    assert code == 3
    assert err.startswith("validation error: the chamber weight")
    assert "is irregular" in err
    assert out == ""


def test_command_conflict_is_parse_error(tmp_path, capsys):
    cfg = write_config(tmp_path, """
lie_type = A2
k = sl2
labels = [2, 2]
command = parabolic
mu = 3
""")
    code, _, err = run_main(capsys, ["generic-check", "--config", cfg])
    assert code == 2


def test_unknown_config_key_is_parse_error(tmp_path, capsys):
    # a misspelt cutoff must not fall back to the default cutoff
    cfg = write_config(tmp_path, A2_FUNDSERIES.replace("cutoff", "cutof"))
    code, out, err = run_main(capsys, ["--config", cfg])
    assert code == 2
    assert err == "parse error: unknown config key 'cutof'\n"
    assert out == ""


SL2_A2 = "lie_type = A2\nk = sl2\nlabels = [2, 2]\n"


@pytest.mark.parametrize("text, flags, key", [
    (A2_FUNDSERIES.replace("169/8", "foo"), ["--cutoff", "169/8"], "cutoff"),
    (SL2_A2 + "command = sl2-threshold\nmu = foo\nnu = [[1]]\n", [], "mu"),
    (SL2_A2 + "command = fundseries\nnu = -3\nnu_basis = sideways\n", [], "nu_basis"),
    (SL2_A2 + "command = fundseries\nnu = -3\nnu_basis = simple\n", [], "nu_basis"),
    ("lie_type = A2\nk = cartan\ncommand = pair-info\nlabels = foo\nnodes = [[x]]\n", [],
     "labels"),
    ("lie_type = A2\nk = levi\nnodes = [1]\ncommand = generic-check\nmu = [1, 2]\n"
     "lambda = bar\ncutoff = [1]\n", [], "lambda"),
    (SL2_A2 + "command = pair-info\nmax_weyl = foo\n", ["--max-weyl", "10"], "max_weyl"),
    (SL2_A2 + "command = parabolic\nlambda = 1\nmu = 1\n", [], "lambda"),
    (A2_FUNDSERIES + "mu = 1\n", [], "mu"),
], ids=["cutoff-shape", "threshold-mu", "nu-basis-word", "scalar-nu-basis", "cartan-labels",
        "levi-lambda", "max-weyl-shape", "parabolic-lambda-and-mu", "fundseries-mu"])
def test_malformed_or_unread_key_is_parse_error(tmp_path, capsys, text, flags, key):
    # every key is parsed to its shape, and a key the job does not read is
    # refused, before any work runs; flags do not excuse the config key
    cfg = write_config(tmp_path, text)
    code, out, err = run_main(capsys, ["--config", cfg] + flags)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ") and repr(key) in err
    assert err.endswith("\n") and "\n" not in err[:-1]


def test_root_count_over_the_cap_exits_at_once(tmp_path):
    # A99999 has about 5 * 10^9 positive roots; the count is known before
    # the closure runs, so the job exits 4 without building anything
    cfg = write_config(tmp_path, "lie_type = A99999\nk = cartan\ncommand = pair-info\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", "redpair.cli", "--config", cfg],
                         capture_output=True, text=True, timeout=30,
                         env={**os.environ, "PYTHONPATH": src})
    assert time.perf_counter() - start < 1
    assert run.returncode == 4
    assert run.stdout == ""
    assert run.stderr == ("resource cap exceeded: A99999 has 4999950000 positive roots, "
                          "over the cap of 200\n")


@pytest.mark.parametrize("text, message", [
    ("lie_type = A2\nk = levi\nnodes = 1\n",
     "config key 'nodes' must be an array of rationals, got 1"),
    ("lie_type = A2\nk = levi\nnodes = [1]\nmax_weyl = 1/2\n",
     "config key 'max_weyl' must be an integer, got 1/2"),
    ("lie_type = A2\nk = [1]\n", "config key 'k' must be a word, got [1]"),
    ("lie_type = [1]\nk = cartan\n", "config key 'lie_type' must be a word, got [1]"),
    ("lie_type = A2\nk = cartan\nmu = 1\n",
     "config key 'mu' is not read by pair-info with k = cartan"),
], ids=["nodes", "max_weyl", "k", "lie_type", "unread"])
def test_parse_messages_print_values_as_written(tmp_path, capsys, text, message):
    cfg = write_config(tmp_path, text)
    code, out, err = run_main(capsys, ["pair-info", "--config", cfg])
    assert code == 2
    assert err == f"parse error: {message}\n"
    assert "Fraction(" not in err
    assert out == ""


@pytest.mark.parametrize("text", [
    "lie_type = A2\nk = levi\nnodes = [1,]\n",
    "lie_type = A2\n" + EXPLICIT.format("[[2, 2],]", "[[2]]", "[[1]]") + "\n",
], ids=["nodes", "restriction"])
def test_trailing_comma_is_an_empty_array_element(tmp_path, capsys, text):
    # the last element is held to the same rule as every other one
    code, out, err = run_main(capsys, ["pair-info", "--config", write_config(tmp_path, text)])
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: empty array element in ")
    assert parse_config("nodes = [ ]\n") == {"nodes": []}


@pytest.mark.parametrize("value, expected", [
    ("1_0", 2), ("1e1", 2), ("10/1", 0), ("foo", 2), ("0", 2), (" 5 ", 0), ("[5]", 2),
])
def test_max_weyl_reads_the_same_as_a_flag_and_as_a_key(tmp_path, capsys, value, expected):
    # one grammar and one schema for the flag and the config key
    text = SL2_A2 + "command = pair-info\n"
    flag = run_main(capsys, ["--config", write_config(tmp_path, text), "--max-weyl", value])
    key = run_main(capsys, ["--config",
                            write_config(tmp_path, text + f"max_weyl = {value}\n", "key.cfg")])
    assert flag[0] == key[0] == expected
    assert flag == key


@pytest.mark.parametrize("argv", [
    ["--config", "{cfg}", "--bogus"],
    ["pair-info"],
    ["bogus", "--config", "{cfg}"],
    ["--config", "{cfg}", "--emit", "xml"],
    ["--config", "{cfg}", "--max-weyl", "foo"],
    ["--config", "{cfg}", "--max-weyl", "foo\nbar"],
], ids=["unknown-flag", "no-config", "bad-verb", "bad-emit", "max-weyl-word",
        "max-weyl-newline"])
def test_every_command_line_refusal_is_one_parse_error_line(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, SL2_A2 + "command = pair-info\n")
    code, out, err = run_main(capsys, [arg.format(cfg=cfg) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ")
    assert err.endswith("\n") and "\n" not in err[:-1]


def test_help_still_prints_the_verbs_and_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: redpair")
    assert all(verb in out for verb in COMMANDS)


# ---------------------------------------------------------------------------
# determinism and human/machine agreement


def test_machine_output_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, A2_FUNDSERIES)
    _, out1, _ = run_main(capsys, ["--config", cfg, "--emit", "machine"])
    _, out2, _ = run_main(capsys, ["--config", cfg, "--emit", "machine"])
    assert out1 == out2


def test_machine_output_byte_identical_subprocess(tmp_path):
    cfg = write_config(tmp_path, A2_FUNDSERIES)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    runs = [
        subprocess.run(
            [sys.executable, "-m", "redpair.cli", "--config", cfg,
             "--emit", "machine"],
            capture_output=True, check=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert json.loads(runs[0].decode("utf-8"))["table"]["cutoff"] == "169/8"


def test_human_and_machine_agree_on_table(tmp_path, capsys):
    cfg = write_config(tmp_path, A2_FUNDSERIES)
    _, human, _ = run_main(capsys, ["--config", cfg, "--emit", "human"])
    _, machine, _ = run_main(capsys, ["--config", cfg, "--emit", "machine"])
    doc = json.loads(machine)
    rows = [line.strip() for line in human.splitlines()
            if line.strip().startswith("[") and " : " in line]
    parsed = {}
    for row in rows:
        delta, mult, norm = [part.strip() for part in row.split(":")]
        parsed[delta] = (int(mult), norm)
    for entry in doc["table"]["entries"]:
        delta = "[" + ", ".join(entry["delta"]) + "]"
        assert parsed[delta] == (entry["mult"], entry["norm2_shifted"])
    assert len(parsed) == len(doc["table"]["entries"])


def test_human_emit_formats_no_json(tmp_path, capsys, monkeypatch):
    # the machine JSON is formatted only in the modes that write it: one
    # whole document per mode, counted at the writer's top level (its
    # nested calls pass an indent)
    cfg = write_config(tmp_path, A2_FUNDSERIES)
    write = cli._json
    calls = []

    def counted(value, *indent):
        if not indent:
            calls.append(value)
        return write(value, *indent)

    monkeypatch.setattr(cli, "_json", counted)
    out, made = {}, {}
    for mode in ("human", "machine", "both"):
        before = len(calls)
        code, out[mode], _ = run_main(capsys, ["--config", cfg, "--emit", mode])
        assert code == 0
        made[mode] = len(calls) - before
    assert made == {"human": 0, "machine": 1, "both": 1}
    assert out["both"] == out["human"] + "--- machine ---\n" + out["machine"]
