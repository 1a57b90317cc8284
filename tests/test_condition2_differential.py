"""The condition-2 search in rank >= 2 against its exact-rational oracle
and against the unpruned size-by-size scan: equal count vectors for the
whole scan and for every exact size, and equal genericity reports, over
the dominant regular weights of a small box on Cartan and Levi pairs."""

from itertools import product

import pytest

from redpair.genericity import _Condition2Search, is_generic
from redpair.parabolic import is_regular, split_roots
from redpair.reductive import make_cartan_pair, make_levi_pair
from redpair.rootsystem import build_root_system
from redpair.weights import WeightMultiset, add, scale, vec
from condition2_oracle import first_violation, scan_weights
from witness_oracle import minimal_witness


def box_weights(p):
    """Dominant integral mu with every coordinate in 0..3 and mu + 2 rho
    regular."""
    for coords in product(range(4), repeat=p.rank_t):
        mu = vec(*coords)
        if p.is_dominant_integral(mu) and is_regular(p, add(mu, scale(2, p.rho))):
            yield mu


@pytest.mark.parametrize("name, nodes, weights, failing", [
    ("A2", None, 13, 7),
    ("B2", None, 5, 4),
    ("G2", None, 3, 3),
    ("A3", None, 29, 26),
    ("B3", None, 5, 5),
    ("A3", {1, 3}, 26, 17),
    ("B3", {1, 2}, 8, 7),
    ("C3", {2, 3}, 3, 3),
], ids=["A2", "B2", "G2", "A3", "B3", "A3-levi-13", "B3-levi-12", "C3-levi-23"])
def test_search_matches_the_rational_oracle(name, nodes, weights, failing):
    g = build_root_system(name)
    p = make_cartan_pair(g) if nodes is None else make_levi_pair(g, nodes)
    seen = found = 0
    for mu in box_weights(p):
        seen += 1
        report = is_generic(p, mu)
        _, _, ch_t_n = split_roots(p, report.lam)
        search = _Condition2Search(p, report.lam, ch_t_n)
        # the branch order: decreasing pairing with lam, ties by weight
        assert scan_weights(search) == sorted(ch_t_n.support(),
                                        key=lambda b: (-p.t_pair(report.lam, b), b))
        violation = first_violation(search)
        assert search._first_violation() == violation, mu
        sizes = range(1, ch_t_n.size() + 1)
        sized = [first_violation(search, size) for size in sizes]
        assert [search._first_violation(size) for size in sizes] == sized, mu
        expected = minimal_witness(search)
        assert (violation is None) == (expected is None), mu
        assert report.condition2_ok == (violation is None), mu
        assert report.holds == (report.condition1_ok and violation is None), mu
        if expected is None:
            assert report.witness_submultiset is None and report.witness_rho_s is None
            continue
        found += 1
        counts = next(c for c in sized if c is not None)
        ms = WeightMultiset({b: n for b, n in zip(scan_weights(search), counts) if n},
                            rank=p.rank_t)
        assert expected == (ms, ms.half_sum()), mu
        assert (report.witness_submultiset, report.witness_rho_s) == expected, mu
        assert repr(report.witness_rho_s) == repr(expected[1]), mu
    assert (seen, found) == (weights, failing)
