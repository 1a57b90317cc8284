import dataclasses
from fractions import Fraction
from itertools import product

import pytest

from redpair.genericity import (
    _Condition2Search,
    is_generic,
    norm2_shifted,
    sl2_threshold,
)
from redpair.parabolic import is_regular, split_roots
from redpair.reductive import make_cartan_pair, make_levi_pair, make_sl2_pair
from redpair.rootsystem import build_root_system
from redpair.weights import WeightMultiset, add, scale, sub, vec
from submultiset_oracle import iter_submultisets


def brute_force_generic(p, mu):
    """Conditions (1) and (2) by direct enumeration, no pruning, no reuse
    of the library's search."""
    lam = add(mu, scale(2, p.rho))
    _, _, ch_t_n = split_roots(p, lam)
    shifted = sub(lam, ch_t_n.half_sum())
    cond1 = all(p.t_pair(shifted, alpha) >= 0
                for alpha in p.k_positive_multiset().support())
    cond2 = True
    for entries in iter_submultisets(ch_t_n):
        rho_s = WeightMultiset(entries, rank=p.rank_t).half_sum()
        if p.t_pair(sub(lam, rho_s), rho_s) <= 0:
            cond2 = False
            break
    return cond1 and cond2


@pytest.fixture(scope="module")
def a2_principal():
    return make_sl2_pair(build_root_system("A2"), [2, 2])


@pytest.fixture(scope="module")
def b2_principal():
    return make_sl2_pair(build_root_system("B2"), [2, 2])


def test_norm2_shifted(a2_principal):
    p = a2_principal
    assert norm2_shifted(p, vec(0)) == 4 * p.t_pair(vec(1), vec(1))
    assert norm2_shifted(p, vec(-2)) == 0
    cartan = make_cartan_pair(build_root_system("A2"))
    x = vec(1, "1/2")
    assert norm2_shifted(cartan, x) == cartan.t_pair(x, x)


def test_a2_threshold_matches_known_inequality(a2_principal):
    assert sl2_threshold(a2_principal) == 4
    for m in range(0, 3):
        assert not is_generic(a2_principal, vec(m)).holds
    for m in range(3, 11):
        assert is_generic(a2_principal, vec(m)).holds


def test_b2_threshold_matches_known_inequality(b2_principal):
    assert sl2_threshold(b2_principal) == 7
    for m in range(0, 6):
        assert not is_generic(b2_principal, vec(m)).holds
    for m in range(6, 13):
        assert is_generic(b2_principal, vec(m)).holds


def test_sl2_on_itself_always_generic():
    p = make_sl2_pair(build_root_system("A1"), [2])
    assert sl2_threshold(p) == 1
    for m in range(0, 7):
        assert is_generic(p, vec(m)).holds


def test_m2_witness_is_full_multiset(a2_principal):
    report = is_generic(a2_principal, vec(2))
    assert report.condition1_ok
    assert not report.condition2_ok
    assert report.witness_submultiset == WeightMultiset({vec(2): 2, vec(4): 1})
    assert report.witness_rho_s == vec(4)
    assert report.witness_root is None


def test_condition1_witness_populated_when_it_fails(a2_principal):
    # at m = 0 the shifted weight m + 2 - rho_n = -2 pairs negatively
    # with the k root
    report = is_generic(a2_principal, vec(0))
    assert not report.condition1_ok
    assert report.witness_root == vec(2)
    assert not report.condition2_ok
    assert report.witness_submultiset == WeightMultiset({vec(4): 1})
    assert report.witness_rho_s == vec(2)


def test_is_generic_validates_input(a2_principal):
    with pytest.raises(ValueError):
        is_generic(a2_principal, vec(-1))
    with pytest.raises(ValueError):
        is_generic(a2_principal, vec("1/2"))
    cartan = make_cartan_pair(build_root_system("A1"))
    with pytest.raises(ValueError):
        is_generic(cartan, vec(0))  # mu + 2 rho = 0 is irregular


def test_threshold_requires_rank_one():
    with pytest.raises(ValueError):
        sl2_threshold(make_cartan_pair(build_root_system("A2")))


def test_threshold_floor_on_formal_mark_vector():
    # marks (1, 1) are not a genuine characteristic; the half-sum of the
    # positive restricted values is 7/2, and the integer threshold 3 is
    # the one matching the search at every m
    p = make_sl2_pair(build_root_system("B2"), [1, 1])
    assert sl2_threshold(p) == 3
    for m in range(0, 9):
        assert is_generic(p, vec(m)).holds == (m + 1 >= 3)


def test_threshold_on_product_type():
    p = make_sl2_pair(build_root_system("A1xA1"), [2, 2])
    assert sl2_threshold(p) == 2
    assert not is_generic(p, vec(0)).holds
    for m in range(1, 6):
        assert is_generic(p, vec(m)).holds


def test_monotonicity_along_dominant_ray():
    for name in ("A2", "B2", "G2"):
        p = make_sl2_pair(build_root_system(name), [2] * build_root_system(name).rank)
        verdicts = [is_generic(p, vec(m)).holds for m in range(0, sl2_threshold(p) + 5)]
        # once generic, always generic
        assert verdicts == sorted(verdicts)


def test_search_agrees_with_exhaustive_enumeration():
    # branch-and-bound vs direct enumeration over every submultiset
    pairs = []
    for name in ("A2", "A3", "B2", "B3", "G2"):
        g = build_root_system(name)
        for labels in product([0, 1, 2], repeat=g.rank):
            if any(labels):
                pairs.append(make_sl2_pair(g, list(labels)))
    count = 0
    for p in pairs:
        threshold = sl2_threshold(p)
        for m in range(0, threshold + 4):
            mu = vec(m)
            lib = is_generic(p, mu).holds
            brute = brute_force_generic(p, mu)
            assert lib == brute, (p.g.lie_type, p.restriction, m)
            count += 1
    assert count > 200


def test_search_agrees_on_rank_two():
    cartan = make_cartan_pair(build_root_system("A2"))
    for a in range(0, 4):
        for b in range(0, 4):
            mu = vec(a, b)
            lam = mu  # rho = 0
            if any(cartan.t_pair(lam, s) == 0 for s in cartan.delta_t):
                continue
            assert is_generic(cartan, mu).holds == brute_force_generic(cartan, mu)


def test_search_agrees_on_rank_two_levi():
    # nontrivial k inside a rank-three algebra: the search must handle
    # genuinely multi-dimensional weights with mixed-sign pairings
    for name, nodes in [("A3", {1, 3}), ("B3", {1, 2})]:
        p = make_levi_pair(build_root_system(name), nodes)
        checked = 0
        for a in range(0, 4):
            for b in range(0, 4):
                for c in range(0, 4):
                    mu = vec(a, b, c)
                    if not p.is_dominant_integral(mu):
                        continue
                    lam = add(mu, scale(2, p.rho))
                    if not is_regular(p, lam):
                        continue
                    assert is_generic(p, mu).holds == brute_force_generic(p, mu)
                    checked += 1
        assert checked >= 5, (name, checked)


def test_verdict_invariant_under_form_scaling(a2_principal):
    # multiplying the induced form by a positive constant flips no sign
    for c in (Fraction(3), Fraction(1, 7)):
        scaled = dataclasses.replace(
            a2_principal,
            t_gram=tuple(tuple(c * x for x in row) for row in a2_principal.t_gram),
        )
        for m in range(0, 8):
            assert is_generic(scaled, vec(m)).holds == \
                is_generic(a2_principal, vec(m)).holds


def test_iter_submultisets_counts():
    ms = WeightMultiset({vec(2): 2, vec(4): 1})
    subs = list(iter_submultisets(ms))
    assert len(subs) == (2 + 1) * (1 + 1) - 1
    assert {tuple(sorted(s.items())) for s in subs} == {
        ((vec(2), 1),),
        ((vec(2), 2),),
        ((vec(4), 1),),
        ((vec(2), 1), (vec(4), 1)),
        ((vec(2), 2), (vec(4), 1)),
    }


def test_minimal_witness_has_minimal_size():
    # hand-built search on a failing case: every violation found by full
    # enumeration is at least as large as the reported witness
    p = make_sl2_pair(build_root_system("B2"), [2, 2])
    mu = vec(3)
    lam = add(mu, scale(2, p.rho))
    _, _, ch_t_n = split_roots(p, lam)
    search = _Condition2Search(p, lam, ch_t_n)
    assert search.find_violation()
    witness, rho_s = search.minimal_witness()
    assert p.t_pair(sub(lam, rho_s), rho_s) <= 0
    sizes = []
    for entries in iter_submultisets(ch_t_n):
        ms = WeightMultiset(entries, rank=1)
        r = ms.half_sum()
        if p.t_pair(sub(lam, r), r) <= 0:
            sizes.append(ms.size())
    assert witness.size() == min(sizes)
