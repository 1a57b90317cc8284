"""The reflection-orbit walk against the matrix enumeration it replaced:
equal multisets of (length, w x) for the Weyl groups of root systems,
for the small Weyl groups of pairs, and for the Kostant weights."""

from fractions import Fraction

import pytest

from redpair.fundseries import kostant_weights
from redpair.reductive import (
    make_cartan_pair,
    make_explicit_pair,
    make_levi_pair,
    make_sl2_pair,
)
from redpair.rootsystem import CapExceeded, build_root_system, reflection_orbit, weyl_group
from redpair.weights import add, scale, sub, vec, zero
from weyl_oracle import images, k_group, root_system_group

ROOT_SYSTEMS = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "B4", "F4"]


def off_chamber(rank):
    """A point outside the dominant chamber, with negative, fractional and
    zero coordinates."""
    pattern = [Fraction(-3), Fraction(1, 2), Fraction(0), Fraction(2)]
    return tuple(pattern[i % 4] for i in range(rank))


@pytest.mark.parametrize("name", ROOT_SYSTEMS)
def test_weyl_group_matches_matrix_oracle(name):
    rs = build_root_system(name)
    oracle = root_system_group(rs)
    group = weyl_group(rs)
    assert len(group) == len(oracle)
    # each word, read right to left, carries rho_tilde to its orbit point
    orbit = reflection_orbit(rs.rho_tilde, rs.simple_roots, rs.coroot_functionals)
    assert [w.apply(rs.rho_tilde) for w in group] == [y for _, y in orbit]
    for x in (rs.rho_tilde, off_chamber(rs.rank)):
        assert sorted((w.length, w.apply(x)) for w in group) == images(oracle, x)


def levi(lie, nodes):
    return make_levi_pair(build_root_system(lie), nodes)


def levi_as_explicit(lie, nodes):
    p = levi(lie, nodes)
    return make_explicit_pair(p.g, p.restriction, list(p.k_simple_roots),
                              list(p.k_coroot_functionals))


PAIRS = {
    "A2-principal": lambda: make_sl2_pair(build_root_system("A2"), [2, 2]),
    "A3-marks-101": lambda: make_sl2_pair(build_root_system("A3"), [1, 0, 1]),
    "A2-cartan": lambda: make_cartan_pair(build_root_system("A2")),
    "A3-levi-13": lambda: levi("A3", {1, 3}),
    "B3-levi-12": lambda: levi("B3", {1, 2}),
    "C3-levi-23": lambda: levi("C3", {2, 3}),
    "G2-levi-12": lambda: levi("G2", {1, 2}),
    "B4-levi-234": lambda: levi("B4", {2, 3, 4}),
    "B3-levi-12-explicit": lambda: levi_as_explicit("B3", {1, 2}),
    "C3-levi-123-explicit": lambda: levi_as_explicit("C3", {1, 2, 3}),
}


@pytest.mark.parametrize("case", sorted(PAIRS))
def test_k_weyl_group_and_kostant_weights_match_matrix_oracle(case):
    p = PAIRS[case]()
    oracle = k_group(p)
    group = p.k_weyl_group()
    assert len(group) == len(oracle)
    for x in (p.rho, off_chamber(p.rank_t)):
        assert sorted((w.length, w.apply(x)) for w in group) == images(oracle, x)
    for delta in (zero(p.rank_t), p.restrict(scale(2, p.g.rho_tilde))):
        assert p.is_dominant_integral(delta)
        expected = [(length, sub(y, p.rho))
                    for length, y in images(oracle, add(delta, p.rho))]
        assert kostant_weights(p, delta) == expected


def test_orbit_needs_a_strictly_dominant_base_point(monkeypatch):
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        reflection_orbit(vec(1, 0), rs.simple_roots, rs.coroot_functionals)
    orbit = reflection_orbit(rs.rho_tilde, rs.simple_roots, rs.coroot_functionals)
    assert [len(word) for word, _ in orbit] == [0, 1, 1, 2, 2, 3]

    # |W(E7)| = 2903040 exceeds MAX_WEYL: refused by its order, not walked
    def no_walk(*args):
        raise AssertionError("the Weyl walk ran")

    p = make_levi_pair(build_root_system("E7"), set(range(1, 8)))
    monkeypatch.setattr("redpair.rootsystem._coroot_walk", no_walk)
    with pytest.raises(CapExceeded, match="cap of 1000000 elements"):
        p.k_weyl_group()
