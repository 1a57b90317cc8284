"""The pruned condition-2 search against the unpruned size-by-size scan it
replaced: equal (witness, rho_S) and equal violation verdicts for rank-one
subalgebras just below their genericity threshold, where the witnesses
are largest."""

from itertools import product

import pytest

from redpair.genericity import _Condition2Search, is_generic, sl2_threshold
from redpair.parabolic import split_roots
from redpair.reductive import make_sl2_pair
from redpair.rootsystem import build_root_system
from redpair.weights import vec
from witness_oracle import minimal_witness


def check_against_oracle(p, m) -> bool:
    """Compare the library with the oracle at mu = m; True iff condition 2
    fails there."""
    report = is_generic(p, vec(m))
    _, _, ch_t_n = split_roots(p, report.lam)
    search = _Condition2Search(p, report.lam, ch_t_n)
    expected = minimal_witness(search)
    assert search.find_violation() == (expected is not None), m
    if expected is None:
        assert report.condition2_ok, m
        assert report.witness_submultiset is None and report.witness_rho_s is None
        return False
    assert not report.condition2_ok, m
    assert (report.witness_submultiset, report.witness_rho_s) == expected, m
    return True


@pytest.mark.parametrize("name, reports, witnesses", [
    ("A1", 1, 0),
    ("A2", 17, 9),
    ("A3", 73, 47),
    ("B2", 21, 13),
    ("B3", 77, 51),
    ("C3", 78, 52),
    ("G2", 24, 16),
])
def test_every_mark_vector_below_threshold(name, reports, witnesses):
    g = build_root_system(name)
    seen = found = 0
    for labels in product((0, 1, 2), repeat=g.rank):
        if not any(labels):
            continue
        p = make_sl2_pair(g, list(labels))
        threshold = sl2_threshold(p)
        for m in range(max(threshold - 3, 0), threshold):
            seen += 1
            found += check_against_oracle(p, m)
    assert (seen, found) == (reports, witnesses)


def sweep_classes(g, max_roots=14):
    """One mark vector per set of restricted root values (equal values give
    the same search), keeping those with at most max_roots nonzero values."""
    classes = {}
    for marks in product((0, 1, 2), repeat=g.rank):
        if not any(marks):
            continue
        values = tuple(sorted(sum(c * m for c, m in zip(root, marks))
                              for root in g.positive_roots))
        if sum(1 for v in values if v) <= max_roots:
            classes.setdefault(values, marks)
    return [classes[values] for values in sorted(classes)]


@pytest.mark.parametrize("name, classes", [
    ("A4", 44), ("B4", 32), ("C4", 32), ("D4", 29),
])
def test_rank_four_mark_classes_two_and_three_below_threshold(name, classes):
    g = build_root_system(name)
    marks_list = sweep_classes(g)
    assert len(marks_list) == classes
    for marks in marks_list:
        p = make_sl2_pair(g, list(marks))
        threshold = sl2_threshold(p)
        for m in (threshold - 3, threshold - 2):
            assert check_against_oracle(p, max(m, 0)), marks


def test_f4_principal_witness_is_all_of_ch_t_n():
    # the oracle takes about 16 s here; the witness is known directly
    p = make_sl2_pair(build_root_system("F4"), [2, 2, 2, 2])
    report = is_generic(p, vec(sl2_threshold(p) - 2))
    _, _, ch_t_n = split_roots(p, report.lam)
    assert ch_t_n.size() == 24
    assert not report.condition2_ok
    assert report.witness_submultiset == ch_t_n
    assert report.witness_rho_s == ch_t_n.half_sum() == report.rho_n
