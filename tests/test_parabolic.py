from fractions import Fraction

import pytest

from redpair.parabolic import compatible_parabolic, is_regular, split_roots
from redpair.reductive import make_cartan_pair, make_levi_pair, make_sl2_pair
from redpair.rootsystem import build_root_system
from redpair.weights import WeightMultiset, add, scale, vec, zero


@pytest.fixture(scope="module")
def a2_principal():
    return make_sl2_pair(build_root_system("A2"), [2, 2])


@pytest.fixture(scope="module")
def b2_principal():
    return make_sl2_pair(build_root_system("B2"), [2, 2])


def test_regularity(a2_principal):
    assert is_regular(a2_principal, vec(5))
    assert not is_regular(a2_principal, vec(0))
    cartan = make_cartan_pair(build_root_system("A2"))
    assert is_regular(cartan, cartan.g.rho_tilde)
    assert not is_regular(cartan, vec(1, -1))  # pairs to zero with a1 + a2
    assert not is_regular(cartan, zero(2))


def test_a2_parabolic_m3(a2_principal):
    parab = compatible_parabolic(a2_principal, vec(5))
    assert parab.ch_t_n == WeightMultiset({vec(2): 2, vec(4): 1})
    assert parab.ch_t_n_cap_k == WeightMultiset({vec(2): 1})
    assert parab.ch_t_n_cap_kperp == WeightMultiset({vec(2): 1, vec(4): 1})
    assert parab.rho_n == vec(4)
    assert parab.rho_n_perp == vec(3)
    assert (parab.s, parab.r) == (1, 2)
    assert parab.minimal
    assert parab.m_roots == ()


def test_b2_parabolic(b2_principal):
    parab = compatible_parabolic(b2_principal, vec(8))
    assert parab.ch_t_n == WeightMultiset({vec(2): 2, vec(4): 1, vec(6): 1})
    assert parab.rho_n == vec(7)
    assert parab.rho_n_perp == vec(6)
    assert (parab.s, parab.r) == (1, 3)
    assert parab.minimal


def test_cartan_a1_parabolic():
    p = make_cartan_pair(build_root_system("A1"))
    parab = compatible_parabolic(p, vec(1))
    assert parab.n_roots == (vec(1),)
    assert (parab.s, parab.r) == (0, 1)
    assert parab.rho_n == vec("1/2")
    assert parab.rho_n_perp == vec("1/2")


def test_root_partition(a2_principal, b2_principal):
    for p, lam in [(a2_principal, vec(5)), (b2_principal, vec(8)),
                   (make_sl2_pair(build_root_system("B2"), [2, 0]), vec(3))]:
        parab = compatible_parabolic(p, lam)
        n_count = len(parab.n_roots)
        m_count = len(parab.m_roots)
        assert 2 * n_count + m_count == 2 * len(p.g.positive_roots)
        assert m_count % 2 == 0
        # n-roots pair strictly positively, m-roots pair to zero
        for root in parab.n_roots:
            assert p.t_pair(lam, p.restrict(root)) > 0
        for root in parab.m_roots:
            assert p.t_pair(lam, p.restrict(root)) == 0


def test_rho_identity_on_grid():
    # rho_n = rho + rho_n_perp for every b_k dominant regular lam = mu + 2 rho
    cases = [
        make_sl2_pair(build_root_system("A2"), [2, 2]),
        make_sl2_pair(build_root_system("B2"), [2, 2]),
        make_sl2_pair(build_root_system("B3"), [2, 2, 2]),
        make_levi_pair(build_root_system("A2"), {1}),
        make_levi_pair(build_root_system("B2"), {2}),
        make_cartan_pair(build_root_system("A2")),
    ]
    grids = {
        1: [vec(m) for m in range(0, 7)],
        2: [vec(a, b) for a in range(0, 4) for b in range(0, 4)],
        3: [vec(a, b, c) for a in (0, 1, 2) for b in (0, 1) for c in (0, 1)],
    }
    checked = 0
    for p in cases:
        for mu in grids[p.rank_t]:
            if not p.is_dominant_integral(mu):
                continue
            lam = add(mu, scale(2, p.rho))
            if not is_regular(p, lam):
                continue
            parab = compatible_parabolic(p, lam)
            assert parab.rho_n == add(p.rho, parab.rho_n_perp)
            assert parab.s + parab.r == parab.ch_t_n.size()
            checked += 1
    assert checked > 20


def test_positive_scaling_gives_same_decomposition(a2_principal):
    one = compatible_parabolic(a2_principal, vec(5))
    for c in (2, Fraction(1, 3), Fraction(7, 5)):
        other = compatible_parabolic(a2_principal, scale(c, vec(5)))
        assert set(other.n_roots) == set(one.n_roots)
        assert set(other.m_roots) == set(one.m_roots)
        assert other.ch_t_n == one.ch_t_n


def test_irregular_lambda_reports_nonminimal():
    # (1, -1) pairs to zero with a1 + a2, so the parabolic is not minimal
    # but the decomposition is still returned
    p = make_cartan_pair(build_root_system("A2"))
    parab = compatible_parabolic(p, vec(1, -1))
    assert not parab.minimal
    assert (parab.s, parab.r) == (0, 2)
    assert set(parab.m_roots) == {vec(1, 1), vec(-1, -1)}


def test_inconsistent_split_reports_offending_weight():
    # formal mark vector: no ambient root restricts to 2, so the k-positive
    # multiset cannot embed
    p = make_sl2_pair(build_root_system("A3"), [1, 0, 0])
    with pytest.raises(ValueError, match="2"):
        compatible_parabolic(p, vec(3))
    # but the bare decomposition still works
    _, _, ch_t_n = split_roots(p, vec(3))
    assert ch_t_n == WeightMultiset({vec(1): 3})


def test_m_positive_roots_choice():
    p = make_sl2_pair(build_root_system("B2"), [2, 0])
    parab = compatible_parabolic(p, vec(1))
    # alpha2 spans the reductive part; the tie-break keeps the ambient
    # positive representative
    assert parab.m_positive_roots() == (vec(0, 1),)
