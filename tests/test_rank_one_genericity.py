"""Condition 2 in rank one, decided in closed form, against the pruned
depth-first scan (still the higher-rank path) and the unpruned
size-by-size scan of ``witness_oracle``."""

from fractions import Fraction
from itertools import product

import pytest

from redpair.genericity import _Condition2Search, is_generic, sl2_threshold
from redpair.parabolic import split_roots
from redpair.reductive import make_explicit_pair, make_sl2_pair
from redpair.rootsystem import build_root_system
from redpair.weights import WeightMultiset, vec
from condition2_oracle import scan_weights
from witness_oracle import minimal_witness


def dfs_witness(search):
    """The depth-first scan's smallest failing submultiset, size by size."""
    for size in range(1, sum(search.mults) + 1):
        counts = search._first_violation(size)
        if counts is not None:
            ms = WeightMultiset(
                {b: n for b, n in zip(scan_weights(search), counts) if n}, rank=1)
            return ms, ms.half_sum()
    return None


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_exceptional_principal_threshold(name):
    g = build_root_system(name)
    p = make_sl2_pair(g, [2] * g.rank)
    threshold = sl2_threshold(p)
    below = is_generic(p, vec(threshold - 2))
    _, _, ch_t_n = split_roots(p, below.lam)
    assert not below.condition2_ok
    assert below.witness_submultiset == ch_t_n
    assert below.witness_rho_s == ch_t_n.half_sum() == below.rho_n
    assert is_generic(p, vec(threshold - 1)).holds


@pytest.mark.parametrize("restriction", [
    [[-2, -2]], [[1, 3]], [[-1, 2]], [[2, -1]],
])
def test_a2_torus_pairs_at_negative_grading_weight(restriction):
    # no k-roots, so rho = 0 and lam = mu may be negative, and in thirds
    # the witness's goal 2 |lam| lies between two integers
    p = make_explicit_pair(build_root_system("A2"), restriction, [], [])
    violations = 0
    for m in (Fraction(k, 3) for k in range(-27, 0)):
        report = is_generic(p, vec(m))
        _, _, ch_t_n = split_roots(p, report.lam)
        search = _Condition2Search(p, report.lam, ch_t_n)
        expected = minimal_witness(search)
        assert expected == dfs_witness(search), m
        assert search.find_violation() == (search._first_violation() is not None)
        assert report.condition2_ok == (expected is None), m
        if expected is not None:
            violations += 1
            assert (report.witness_submultiset, report.witness_rho_s) == expected
    assert violations > 0


def test_empty_character_holds_vacuously():
    p = make_sl2_pair(build_root_system("A2"), [2, 2])
    search = _Condition2Search(p, vec(3), WeightMultiset(rank=1))
    assert not search.find_violation()


@pytest.mark.parametrize("name", [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2",
])
def test_verdict_matches_threshold_for_every_mark_vector(name):
    g = build_root_system(name)
    for labels in product((0, 1, 2), repeat=g.rank):
        if not any(labels):
            continue
        p = make_sl2_pair(g, list(labels))
        threshold = sl2_threshold(p)
        for m in range(threshold + 2):
            assert is_generic(p, vec(m)).holds == (m + 1 >= threshold), (labels, m)
