"""The one pair constructor of ``redpair.reductive`` against the four
factories that filled every field by hand (``pair_oracle``), and Levi
pairs re-entered as explicit embedding data against the Levi pairs."""

import dataclasses
import itertools
import json
import math
import re
from fractions import Fraction

import pytest

import pair_oracle
from kernel_oracle import identity
from redpair.cli import _pair_doc, _ser, main
from redpair.genericity import sl2_threshold
from redpair.reductive import (
    ReductivePair,
    make_cartan_pair,
    make_explicit_pair,
    make_levi_pair,
    make_sl2_pair,
)
from redpair.rootsystem import build_root_system
from redpair.weights import to_integers, vec

LEVI_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4",
              "A1xA1"]
SL2_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C4", "D4", "G2"]
# the higher-rank types of the benchmark's sl2 jobs, on a few mark vectors each
SL2_LARGE_TYPES = ["C6", "D6", "E6", "E7", "E8"]
# torus pairs (no k roots) with non-identity restrictions of rank 2 and 3
TORUS_PAIRS = [("A3", [[1, 0, 1], [0, 1, 0]]), ("B3", [[1, 1, 0], [0, 1, 2]]),
               ("G2", [["1/2", 0], [1, 3]]), ("C3", [[2, 1, 0], [0, 0, 1]]),
               ("A4", [[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 0]]),
               ("B4", [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, "1/3"]]),
               ("D4", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])]


def assert_same_pair(new, old):
    # tuples compare in order, so the order of k_positive_roots is checked too
    for field in dataclasses.fields(ReductivePair):
        assert getattr(new, field.name) == getattr(old, field.name), field.name
    assert new.k_weyl_order == len(old.k_weyl_group())


def assert_same_error(build, build_oracle):
    with pytest.raises(ValueError) as old:
        build_oracle()
    with pytest.raises(ValueError, match="^" + re.escape(str(old.value)) + "$"):
        build()


def levi_subsets(g):
    nodes = range(1, g.rank + 1)
    return [set(s) for size in range(g.rank + 1) for s in itertools.combinations(nodes, size)]


@pytest.mark.parametrize("name", LEVI_TYPES)
def test_levi_and_cartan_pairs_match_the_oracle(name):
    g = build_root_system(name)
    for nodes in levi_subsets(g):
        assert_same_pair(make_levi_pair(g, nodes), pair_oracle.make_levi_pair(g, nodes))
    assert_same_pair(make_cartan_pair(g), pair_oracle.make_cartan_pair(g))


@pytest.mark.parametrize("name", SL2_TYPES)
def test_sl2_pairs_match_the_oracle(name):
    g = build_root_system(name)
    for labels in itertools.product((0, 1, 2), repeat=g.rank):
        if any(labels):
            assert_same_pair(make_sl2_pair(g, list(labels)),
                             pair_oracle.make_sl2_pair(g, list(labels)))


def fraction_threshold(p):
    """The rank-one threshold as a Fraction sum over the restricted weights."""
    return math.floor(sum((abs(r[0]) for r in p.restricted_positive), Fraction(0)) / 2)


def _marks(rank):
    return [[2] * rank, [1] * rank, [2] + [0] * (rank - 1), [0] * (rank - 1) + [2],
            [1] + [0] * (rank - 2) + [2], [0, 1] * (rank // 2) + [1] * (rank % 2)]


@pytest.mark.parametrize("name", SL2_LARGE_TYPES)
def test_sl2_pairs_of_higher_rank_match_the_oracle(name):
    g = build_root_system(name)
    for labels in _marks(g.rank):
        p = make_sl2_pair(g, labels)
        assert_same_pair(p, pair_oracle.make_sl2_pair(g, labels))
        assert sl2_threshold(p) == fraction_threshold(p)


# rank-one restrictions with fractional entries, so that the restricted
# roots are int rows over a denominator D > 1
RANK_ONE_RESTRICTIONS = [("A2", [["1/2", 1]]), ("A3", [["1/2", 1, 0]]),
                         ("B3", [["1/3", "2/3", 1]]), ("C3", [[1, "3/2", "-1/4"]]),
                         ("G2", [["5/6", "1/2"]]), ("D4", [["1/2", 0, "1/2", "-3/2"]]),
                         ("E6", [["1/2", 1, 0, "3/2", 0, 1]])]


@pytest.mark.parametrize("name, restriction", RANK_ONE_RESTRICTIONS,
                         ids=[name for name, _ in RANK_ONE_RESTRICTIONS])
def test_rank_one_explicit_pairs_match_the_oracle_and_the_threshold(name, restriction):
    g = build_root_system(name)
    p = make_explicit_pair(g, restriction, [], [])
    assert_same_pair(p, pair_oracle.make_explicit_pair(g, restriction, [], []))
    assert to_integers(p.restriction)[1] > 1
    assert sl2_threshold(p) == fraction_threshold(p)


def test_delta_t_is_printed_in_fraction_order():
    # the document orders delta_t by its int rows; that is the order of
    # the Fraction weights
    pairs = [make_explicit_pair(build_root_system(name), restriction, [], [])
             for name, restriction in TORUS_PAIRS + RANK_ONE_RESTRICTIONS]
    for name in LEVI_TYPES:
        g = build_root_system(name)
        pairs += [make_levi_pair(g, nodes) for nodes in levi_subsets(g)]
    for p in pairs:
        assert _pair_doc(p)["delta_t"] == _ser(sorted(p.delta_t))


def test_explicit_pairs_match_the_oracle():
    a2 = build_root_system("A2")
    good = [([[2, 2]], [vec(2)], [(1,)]),
            (identity(2), [], []),
            (identity(2), [vec(1, 0)], [(2, -1)]),
            # D = 2: the k root 1/2 is the int row 1, the restriction of a simple root
            ([["1/2", "1/2"]], [vec("1/2")], [(4,)])]
    for args in good:
        assert_same_pair(make_explicit_pair(a2, *args),
                         pair_oracle.make_explicit_pair(a2, *args))
    for name, restriction in TORUS_PAIRS:
        g = build_root_system(name)
        pair = make_explicit_pair(g, restriction, [], [])
        assert pair.rank_t in (2, 3) and pair.restriction != g.simple_roots
        assert_same_pair(pair, pair_oracle.make_explicit_pair(g, restriction, [], []))
    bad = [([[2, 2]], [vec(3)], [("2/3",)]),
           ([[1, 1], [2, 2]], [], []),
           ([[2, 2]], [vec(2)], [("1/3",)]),
           ([[2, 2]], [vec(2)], [(2,)]),
           (identity(2), [vec(1, 0), vec(0, 1)], [(2, 1), (1, 2)]),
           (identity(2), [vec(1, 0)], [(2, 17)]),
           # D root = 1/2 is no int row: refused, not rounded onto one
           ([[2, 2]], [vec("1/2")], [(4,)])]
    for args in bad:
        assert_same_error(lambda: make_explicit_pair(a2, *args),
                          lambda: pair_oracle.make_explicit_pair(a2, *args))


def test_explicit_pairs_take_exact_rationals_only():
    a2 = build_root_system("A2")
    for args in ([[[0.5, 0.5]], [], []], [[[2, 2]], [vec(2)], [(0.5,)]],
                 [identity(2), [vec(1, 0)], [(2.0, -1)]]):
        with pytest.raises(TypeError, match="^not an exact rational: "):
            make_explicit_pair(a2, *args)
    # ints, Fractions and "p/q" strings are read as before
    for args in ([[["1/2", 1]], [], []], [[[Fraction(1, 2), 1]], [], []],
                 [[[2, 2]], [vec(2)], [("1",)]], [[[2, 2]], [vec(2)], [(Fraction(1),)]],
                 [identity(2), [vec(1, 0)], [(2, -1)]],
                 [[[1, 0], [0, 1]], [vec(1, 0)], [("2", "-1")]]):
        assert_same_pair(make_explicit_pair(a2, *args),
                         pair_oracle.make_explicit_pair(a2, *args))


def test_non_generalized_cartan_k_data_is_refused():
    # <sigma_1, sigma_2-coroot> = 0 but <sigma_2, sigma_1-coroot> = -1
    a2 = build_root_system("A2")
    with pytest.raises(ValueError, match=r"^k Cartan entry \(1, 2\) is 0 but \(2, 1\) is -1: "
                                         r"not a generalized Cartan matrix$"):
        make_explicit_pair(a2, identity(2), [vec(1, 0), vec(0, 1)], [(2, -1), (0, 2)])
    # the oracle, which has no such check, refuses the same data later
    with pytest.raises(ValueError, match="isometry"):
        pair_oracle.make_explicit_pair(a2, identity(2), [vec(1, 0), vec(0, 1)],
                                       [(2, -1), (0, 2)])


def test_factory_errors_match_the_oracle():
    a2 = build_root_system("A2")
    for labels in ([3, 0], [0, 0], [2]):
        assert_same_error(lambda: make_sl2_pair(a2, labels),
                          lambda: pair_oracle.make_sl2_pair(a2, labels))
    for nodes in ({0}, {3}):
        assert_same_error(lambda: make_levi_pair(a2, nodes),
                          lambda: pair_oracle.make_levi_pair(a2, nodes))


def _vec(values):
    return "[" + ", ".join(str(v) for v in values) + "]"


def _documents(tmp_path, capsys, lines, rank):
    """The machine documents of pair-info and of parabolic at mu = 0."""
    out = {}
    for verb, extra in (("pair-info", []), ("parabolic", ["mu = " + _vec([0] * rank)])):
        path = tmp_path / "job.cfg"
        path.write_text("\n".join(lines + extra) + "\n", encoding="utf-8")
        assert main(["--config", str(path), "--emit", "machine", verb]) == 0
        out[verb] = json.loads(capsys.readouterr().out)
    return out


@pytest.mark.parametrize("name", LEVI_TYPES)
def test_levi_pairs_reentered_as_explicit_give_the_same_documents(name, tmp_path, capsys):
    # identity restriction, the chosen simple roots, and the Cartan-matrix
    # columns as coroots
    g = build_root_system(name)
    rows = [[int(i == j) for j in range(g.rank)] for i in range(g.rank)]
    for nodes in levi_subsets(g):
        chosen = sorted(nodes)
        simple = [rows[i - 1] for i in chosen]
        coroots = [[g.cartan[j][i - 1] for j in range(g.rank)] for i in chosen]
        explicit = make_explicit_pair(g, rows, [vec(*s) for s in simple], coroots)
        assert_same_pair(explicit, pair_oracle.make_explicit_pair(
            g, rows, [vec(*s) for s in simple], coroots))

        levi = _documents(tmp_path, capsys, [
            f"lie_type = {name}", "k = levi", "nodes = " + _vec(chosen)], g.rank)
        reentered = _documents(tmp_path, capsys, [
            f"lie_type = {name}", "k = explicit",
            "restriction = " + _vec(_vec(r) for r in rows),
            "k_simple_roots = " + _vec(_vec(s) for s in simple),
            "k_coroots = " + _vec(_vec(c) for c in coroots)], g.rank)
        for docs, kind in ((levi, "levi"), (reentered, "explicit")):
            for doc in docs.values():
                assert doc["job"].pop("k") == kind
            assert docs["pair-info"]["pair"].pop("embedding") == kind
        assert levi == reentered
