"""The k-type candidate search against the path-walk oracle, and the long
Levi tables pinned from that oracle."""

from fractions import Fraction

import pytest

from candidate_oracle import walk_candidates
from redpair.fundseries import inducing_module, ktype_table, series_parabolic
from table_oracle import _candidate_ktypes
from redpair.genericity import norm2_shifted
from redpair.parabolic import compatible_parabolic
from redpair.reductive import (
    make_cartan_pair,
    make_explicit_pair,
    make_levi_pair,
    make_sl2_pair,
)
from redpair.rootsystem import build_root_system
from redpair.weights import vec


def cli_chamber(p):
    """Inducing data for nu = 0 with the chamber resolved as the CLI does."""
    return series_parabolic(p, (Fraction(0),) * p.g.rank)


def principal(lie, nu):
    g = build_root_system(lie)
    p = make_sl2_pair(g, [2] * g.rank)
    parab = compatible_parabolic(p, vec(1))
    return p, parab, inducing_module(p, parab, p.lift_weight(vec(nu)))


def sl2_marks(lie, marks):
    p = make_sl2_pair(build_root_system(lie), marks)
    return (p, *cli_chamber(p))


def levi(lie, nodes):
    p = make_levi_pair(build_root_system(lie), nodes)
    return (p, *cli_chamber(p))


def cartan(lie):
    p = make_cartan_pair(build_root_system(lie))
    return (p, *cli_chamber(p))


def levi_as_explicit(lie, nodes):
    levi_pair = make_levi_pair(build_root_system(lie), nodes)
    p = make_explicit_pair(levi_pair.g, levi_pair.restriction,
                           list(levi_pair.k_simple_roots),
                           list(levi_pair.k_coroot_functionals))
    return (p, *cli_chamber(p))


def nongeneric_a2():
    # the m = 2 input of test_verify_reports_failure_for_nongeneric_input
    p = make_sl2_pair(build_root_system("A2"), [2, 2])
    parab = compatible_parabolic(p, vec(4))
    return p, parab, inducing_module(p, parab, p.lift_weight(vec(-4)))


# (case, extra): the cutoff is the minimal norm plus extra
CASES = [
    pytest.param(lambda: principal("A2", -3), 60, id="A2-principal"),
    pytest.param(lambda: principal("B2", -8), 80, id="B2-principal"),
    pytest.param(lambda: principal("A3", -12), 80, id="A3-principal"),
    pytest.param(lambda: principal("G2", -24), 30, id="G2-principal"),
    pytest.param(lambda: sl2_marks("A3", [1, 0, 1]), 40, id="A3-marks-101"),
    pytest.param(lambda: levi("A2", {1}), 20, id="A2-levi-1"),
    pytest.param(lambda: levi("B2", {1}), 20, id="B2-levi-1"),
    pytest.param(lambda: levi("B2", {2}), 20, id="B2-levi-2"),
    pytest.param(lambda: levi("A3", {1, 3}), 10, id="A3-levi-13"),
    pytest.param(lambda: levi("G2", {1}), 10, id="G2-levi-1"),
    pytest.param(lambda: cartan("A2"), 12, id="A2-cartan"),
    pytest.param(lambda: sl2_marks("A1xA1", [2, 2]), 40, id="A1xA1"),
    pytest.param(lambda: levi_as_explicit("B2", {1}), 20,
                 id="B2-levi-1-explicit"),
    pytest.param(nongeneric_a2, 40, id="A2-nongeneric"),
]


@pytest.mark.parametrize("case, extra", CASES)
def test_candidates_match_walk_oracle(case, extra):
    p, parab, e = case()
    cutoff = norm2_shifted(p, e.mu) + extra
    expected = walk_candidates(p, parab, e, cutoff)
    assert expected
    assert _candidate_ktypes(p, parab, e, cutoff) == expected
    # cutoffs on the norm of a candidate, where the ball bound is tight
    for tight in (norm2_shifted(p, expected[0]), norm2_shifted(p, expected[-1])):
        inside = [d for d in expected if norm2_shifted(p, d) <= tight]
        assert _candidate_ktypes(p, parab, e, tight) == inside


# frozen from the walk oracle, which takes 20 s to 3 min on each of them
LONG_LEVI = [
    ("C3", {2, 3}, 10, [(6, 6, 3)]),
    ("C3", {2, 3}, 40, [(6, 6, 3), (7, 8, 4), (8, 8, 4), (8, 10, 5),
                        (9, 10, 5), (9, 12, 6), (10, 10, 5)]),
    ("B3", {1, 2}, 10, [(3, 6, 9)]),
    ("B3", {1, 2}, 40, [(3, 6, 9), (4, 7, 10), (4, 8, 11), (4, 8, 12),
                        (5, 8, 11), (5, 9, 12), (5, 9, 13), (5, 10, 13),
                        (6, 9, 12)]),
]


@pytest.mark.parametrize("lie, nodes, extra, deltas", LONG_LEVI,
                         ids=["C3-23-10", "C3-23-40", "B3-12-10", "B3-12-40"])
def test_long_levi_tables(lie, nodes, extra, deltas):
    p, parab, e = levi(lie, nodes)
    table = ktype_table(p, parab, e, norm2_shifted(p, e.mu) + extra)
    assert table.entries == {vec(*d): 1 for d in deltas}
