"""The integer partition counter against the ``Fraction`` recursion it
replaced: equal counts on the point-query shapes of the benchmark, at
the zero target, at negative levels, off the lattice, and for a pair
whose generators have non-integer coordinates."""

from collections import Counter
from fractions import Fraction

import pytest

from redpair.fundseries import PartitionCounter, inducing_module, kostant_weights
from redpair.parabolic import compatible_parabolic
from redpair.reductive import make_cartan_pair, make_explicit_pair, make_sl2_pair
from redpair.rootsystem import build_root_system
from redpair.weights import add, scale, sub, vec, zero
from partition_oracle import PartitionCounter as OracleCounter

# targets x = delta - mu of the Cartan point queries; A2 and A3 also take
# the reversed x, the image under the diagram automorphism
CARTAN_SHAPES = {
    "A2": [(4, 16), (8, 12), (10, 10), (13, 9), (16, 5), (7, 21), (14, 14), (20, 9)],
    "B2": [(3, 12), (5, 10), (8, 8), (10, 5), (12, 4), (4, 8), (6, 6), (9, 4)],
    "G2": [(2, 10), (4, 8), (6, 6), (8, 4), (10, 2), (3, 6), (5, 5), (7, 3)],
    "A3": [(3, 4, 3), (2, 5, 3), (4, 2, 4), (5, 3, 2), (2, 3, 5), (3, 3, 3)],
    "B3": [(2, 3, 3), (3, 3, 2), (4, 2, 2), (2, 2, 4), (3, 2, 3)],
}
# delta = mu + 2 j for the principal rank-one pairs in the chamber of lam = 5
PRINCIPAL_STEPS = {"A2": [80, 90, 100, 110], "B2": [50, 60, 70, 80]}


def cartan_counters(lie):
    """The counter and the oracle of a Cartan point query, with their
    generators."""
    p = make_cartan_pair(build_root_system(lie))
    parab = compatible_parabolic(p, p.g.rho_tilde)
    args = (p, parab.ch_t_n_cap_kperp, parab.lam)
    return PartitionCounter(*args), OracleCounter(*args), parab.ch_t_n_cap_kperp


def assert_equal_counts(counter, oracle, targets):
    for target in targets:
        assert counter.count(target) == oracle.count(target), target


@pytest.mark.parametrize("lie", sorted(CARTAN_SHAPES))
def test_cartan_point_queries_match_oracle(lie):
    counter, oracle, _ = cartan_counters(lie)
    shapes = CARTAN_SHAPES[lie]
    if lie in ("A2", "A3"):
        shapes = shapes + [x[::-1] for x in shapes]
    assert_equal_counts(counter, oracle, [vec(*x) for x in shapes])
    assert counter.count(vec(*shapes[0])) > 0


@pytest.mark.parametrize("lie", sorted(PRINCIPAL_STEPS))
def test_principal_point_queries_match_oracle(lie):
    g = build_root_system(lie)
    p = make_sl2_pair(g, [2] * g.rank)
    parab = compatible_parabolic(p, vec(5))
    args = (p, parab.ch_t_n_cap_kperp, parab.lam)
    counter, oracle = PartitionCounter(*args), OracleCounter(*args)
    e = inducing_module(p, parab, p.lift_weight(vec(-3)))
    targets = []
    for j in PRINCIPAL_STEPS[lie]:
        delta = add(e.mu, vec(2 * j))
        targets += [sub(w, e.mu) for _, w in kostant_weights(p, delta)]
    assert_equal_counts(counter, oracle, targets)


@pytest.mark.parametrize("lie", ["A2", "B2", "G2", "B3"])
def test_zero_negative_and_off_lattice_targets(lie):
    counter, oracle, generators = cartan_counters(lie)
    rank = counter.rank
    assert counter.count(zero(rank)) == oracle.count(zero(rank)) == 1
    beta = generators.support()[0]
    negative = [sub(zero(rank), beta), tuple(Fraction(-1) for _ in range(rank)),
                sub(beta, scale(3, beta))]
    half = tuple(Fraction(1, 2) if i == 0 else Fraction(3) for i in range(rank))
    off_lattice = [half, add(beta, half), tuple(Fraction(5, 3) for _ in range(rank))]
    for target in negative + off_lattice:
        assert counter.count(target) == oracle.count(target) == 0, target


def tally_combinations(p, generators, grading, bound):
    """Every N-combination of the generators with level <= bound, counted."""
    tally = Counter()

    def walk(i, current):
        if i == len(generators):
            tally[current] += 1
            return
        while p.t_pair(grading, current) <= bound:
            walk(i + 1, current)
            current = add(current, generators[i])

    walk(0, zero(p.rank_t))
    return tally


def test_non_integral_generators_match_enumeration():
    # restricted B2 roots with coordinates in (1/2)Z x (1/3)Z and a Gram
    # matrix that is not diagonal, so D = 6 and ell has mixed signs
    p = make_explicit_pair(build_root_system("B2"),
                           [[Fraction(1, 2), 0], [0, Fraction(1, 3)]], [], [])
    grading = vec(3, 1)
    generators = compatible_parabolic(p, grading).ch_t_n
    assert all(any(c.denominator > 1 for c in b) for b in generators.support())
    bound = Fraction(24)
    tally = tally_combinations(p, generators.support(), grading, bound)
    counter = PartitionCounter(p, generators, grading)
    oracle = OracleCounter(p, generators, grading)
    checked = Counter()
    for a in range(-4, 17):
        for b in range(-12, 25):
            target = vec(Fraction(a, 4), Fraction(b, 6))
            if p.t_pair(grading, target) > bound:
                continue
            expected = tally.get(target, 0)
            assert counter.count(target) == oracle.count(target) == expected, target
            checked[expected > 0] += 1
    assert checked[True] > 20 and checked[False] > 100


def test_count_rejects_wrong_rank():
    counter, oracle, generators = cartan_counters("A2")
    for target in (vec(1), vec(1, 2, 3)):
        with pytest.raises(ValueError):
            counter.count(target)
        with pytest.raises(ValueError):
            oracle.count(target)
    p = make_cartan_pair(build_root_system("A2"))
    with pytest.raises(ValueError):
        PartitionCounter(p, generators, vec(1))
