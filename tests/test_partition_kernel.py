"""The partition counter's sweep against the two memoized recursions of
partition_oracle, in ``Fraction`` and in integer coordinates: equal
counts on the point-query shapes of the benchmark, at the zero target,
at negative levels, off the lattice, for a pair whose generators have
non-integer coordinates, for generators of multiplicity > 1 in rank
one and two, for gradings outside the standard chamber, where the walk's
orthant prune is partial, and for many targets counted at once.  The
counter's walk is refused past the table's point cap at exactly the size
of the pruned walk."""

from collections import Counter
from fractions import Fraction

import pytest

from redpair import fundseries
from redpair.fundseries import (PartitionCounter, inducing_module, kostant_weights,
                                ktype_table, series_parabolic)
from redpair.genericity import norm2_shifted
from redpair.parabolic import compatible_parabolic
from redpair.reductive import (make_cartan_pair, make_explicit_pair, make_levi_pair,
                               make_sl2_pair)
from redpair.rootsystem import CapExceeded, build_root_system
from redpair.weights import add, scale, sub, vec, zero
from partition_oracle import IntegerCounter
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


def counters(p, generators, grading):
    """The counter and its two oracles for one generator multiset."""
    args = (p, generators, grading)
    return PartitionCounter(*args), (OracleCounter(*args), IntegerCounter(*args))


def cartan_counters(lie):
    """The counter and the oracles of a Cartan point query, with their
    generators."""
    p = make_cartan_pair(build_root_system(lie))
    parab = compatible_parabolic(p, p.g.rho_tilde)
    return (*counters(p, parab.ch_t_n_cap_kperp, parab.lam), parab.ch_t_n_cap_kperp)


def assert_equal_counts(counter, oracles, targets):
    for target in targets:
        value = counter.count(target)
        assert all(oracle.count(target) == value for oracle in oracles), target


@pytest.mark.parametrize("lie", sorted(CARTAN_SHAPES))
def test_cartan_point_queries_match_oracle(lie):
    counter, oracles, _ = cartan_counters(lie)
    shapes = CARTAN_SHAPES[lie]
    if lie in ("A2", "A3"):
        shapes = shapes + [x[::-1] for x in shapes]
    assert_equal_counts(counter, oracles, [vec(*x) for x in shapes])
    assert counter.count(vec(*shapes[0])) > 0


@pytest.mark.parametrize("lie", sorted(PRINCIPAL_STEPS))
def test_principal_point_queries_match_oracle(lie):
    g = build_root_system(lie)
    p = make_sl2_pair(g, [2] * g.rank)
    parab = compatible_parabolic(p, vec(5))
    counter, oracles = counters(p, parab.ch_t_n_cap_kperp, parab.lam)
    e = inducing_module(p, parab, p.lift_weight(vec(-3)))
    targets = []
    for j in PRINCIPAL_STEPS[lie]:
        delta = add(e.mu, vec(2 * j))
        targets += [sub(w, e.mu) for _, w in kostant_weights(p, delta)]
    assert_equal_counts(counter, oracles, targets)


def test_repeated_generators_in_rank_two():
    # restriction (a, b, c) -> (a + c, b) of A3 with no k-roots: the
    # weights (1, 0) and (1, 1) of ch_t n each come from two roots
    p = make_explicit_pair(build_root_system("A3"), [[1, 0, 1], [0, 1, 0]], [], [])
    generators = compatible_parabolic(p, vec(3, 1)).ch_t_n
    assert generators.entries[vec(1, 0)] == generators.entries[vec(1, 1)] == 2
    counter, oracles = counters(p, generators, vec(3, 1))
    assert_equal_counts(counter, oracles,
                        [vec(a, b) for a in range(-2, 13) for b in range(-2, 13)])
    # (2, 1) once, (1, 1) + (1, 0) in 2 * 2 ways, 2 (1, 1) + (0, -1) in 3
    assert counter.count(vec(2, 1)) == 8


def test_repeated_generators_of_a_rank_one_pair():
    p = make_sl2_pair(build_root_system("D4"), [0, 2, 0, 0])
    generators = compatible_parabolic(p, vec(5)).ch_t_n_cap_kperp
    assert generators.entries == {vec(2): 7, vec(4): 1}
    counter, oracles = counters(p, generators, vec(5))
    assert_equal_counts(counter, oracles, [vec(n) for n in range(-3, 81)])


def test_e6_principal_counts_match_the_integer_recursion():
    p = make_sl2_pair(build_root_system("E6"), [2] * 6)
    generators = compatible_parabolic(p, vec(5)).ch_t_n_cap_kperp
    counter = PartitionCounter(p, generators, vec(5))
    oracle = IntegerCounter(p, generators, vec(5))
    assert max(generators.entries.values()) > 1
    assert_equal_counts(counter, [oracle], [vec(j) for j in range(201)])


@pytest.mark.parametrize("lie", ["A2", "B2", "G2", "B3"])
def test_zero_negative_and_off_lattice_targets(lie):
    counter, oracles, generators = cartan_counters(lie)
    rank = counter.rank
    assert_equal_counts(counter, oracles, [zero(rank)])
    assert counter.count(zero(rank)) == 1
    beta = generators.support()[0]
    negative = [sub(zero(rank), beta), tuple(Fraction(-1) for _ in range(rank)),
                sub(beta, scale(3, beta))]
    half = tuple(Fraction(1, 2) if i == 0 else Fraction(3) for i in range(rank))
    off_lattice = [half, add(beta, half), tuple(Fraction(5, 3) for _ in range(rank))]
    assert_equal_counts(counter, oracles, negative + off_lattice)
    assert not any(counter.count(target) for target in negative + off_lattice)


@pytest.mark.parametrize("lie, nodes", [("B3", {1, 2}), ("C3", {2, 3})])
def test_counts_match_per_target_oracles_on_levi_kostant_targets(lie, nodes):
    # the Kostant targets of the five largest deltas of a small table, in
    # one call, mixed with repeats and with targets that count 0: off the
    # lattice, at a negative level, and at a positive level outside the
    # generators' orthant
    p = make_levi_pair(build_root_system(lie), nodes)
    parab, e = series_parabolic(p, zero(p.g.rank))
    table = ktype_table(p, parab, e, norm2_shifted(p, e.mu) + 100)
    deltas = [delta for delta, _ in table.sorted_entries()[-5:]]
    targets = [sub(w, e.mu) for delta in deltas for _, w in kostant_weights(p, delta)]
    beta = parab.ch_t_n_cap_kperp.support()[0]
    zeros = [add(beta, vec(Fraction(1, 2), 0, 0)), sub(zero(3), beta), vec(-1, 9, 9)]
    assert p.t_pair(parab.lam, zeros[2]) > 0
    mixed = targets[:7] + zeros + targets[7:] + zeros + targets[:4]
    counter, oracles = counters(p, parab.ch_t_n_cap_kperp, parab.lam)
    values = counter.counts(mixed)
    for oracle in oracles:
        assert values == [oracle.count(t) for t in mixed]
    assert values == [counter.count(t) for t in mixed]
    assert all(t in targets for t, v in zip(mixed, values) if v)
    assert sum(map(bool, values)) > 10
    assert not any(v for t, v in zip(mixed, values) if t in zeros)


def test_targets_that_count_0_are_not_walked(monkeypatch):
    # off the lattice, at a negative level, and at a positive level
    # outside the generators' orthant: no point is walked for any of them
    counter, oracles, generators = cartan_counters("B3")
    p = make_cartan_pair(build_root_system("B3"))
    targets = [vec(Fraction(1, 2), 3, 3), sub(zero(3), generators.support()[0]),
               vec(-1, 3, 3), vec(3, 3, -1)]
    assert all(p.t_pair(p.g.rho_tilde, t) > 0 for t in targets[2:])
    assert all(oracle.count(t) == 0 for oracle in oracles for t in targets)
    monkeypatch.setattr(fundseries, "MAX_TABLE_POINTS", 0)
    assert counter.counts(targets) == [0, 0, 0, 0]
    assert counter.counts([]) == []
    with pytest.raises(CapExceeded, match="cap of 0 lattice points"):
        counter.counts(targets + [zero(3)])


@pytest.mark.parametrize("lie", ["A2", "B2", "G2"])
def test_counts_graded_outside_the_standard_chamber(lie):
    # graded by s_1 rho, the generators are the positive roots of its
    # chamber: -alpha_1 is one of them, so the first coordinate takes both
    # signs and only the other half-spaces prune the walk
    p = make_cartan_pair(build_root_system(lie))
    rho = p.g.rho_tilde
    grading = sub(rho, vec(1, 0))                # s_1 rho = rho - alpha_1
    generators = compatible_parabolic(p, grading).ch_t_n_cap_kperp
    support = generators.support()
    assert {b[0] > 0 for b in support if b[0]} == {True, False}
    assert all(b[1] >= 0 for b in support)
    counter, oracles = counters(p, generators, grading)
    targets = [vec(a, b) for a in range(-8, 9) for b in range(-2, 13)]
    values = counter.counts(targets)
    for oracle in oracles:
        assert values == [oracle.count(t) for t in targets]
    assert any(v for t, v in zip(targets, values) if t[0] < 0)
    assert not any(v for t, v in zip(targets, values) if t[1] < 0)


def tally_combinations(p, generators, grading, bound, below=None):
    """Every N-combination x of the generators with level <= bound,
    counted.  With ``below`` given, only the x for which below - x lies in
    every coordinate half-space {s y_i >= 0} that holds all generators,
    leaving out a half-space whose functional is a positive multiple of
    the level y -> t_pair(grading, y)."""
    tally = Counter()
    rank = p.rank_t
    level_of_axis = [p.t_pair(grading, tuple(Fraction(int(j == i)) for j in range(rank)))
                     for i in range(rank)]
    half_spaces = [(i, s) for i in range(rank) for s in (1, -1)
                   if all(s * b[i] >= 0 for b in generators)
                   and not (s * level_of_axis[i] > 0
                            and sum(c != 0 for c in level_of_axis) == 1)]

    def walk(i, current):
        if i == len(generators):
            if below is None or all(s * (below[j] - current[j]) >= 0
                                    for j, s in half_spaces):
                tally[current] += 1
            return
        while p.t_pair(grading, current) <= bound:
            walk(i + 1, current)
            current = add(current, generators[i])

    walk(0, zero(rank))
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
    counter, oracles = counters(p, generators, grading)
    checked = Counter()
    for a in range(-4, 17):
        for b in range(-12, 25):
            target = vec(Fraction(a, 4), Fraction(b, 6))
            if p.t_pair(grading, target) > bound:
                continue
            expected = tally.get(target, 0)
            assert counter.count(target) == expected, target
            assert_equal_counts(counter, oracles, [target])
            checked[expected > 0] += 1
    assert checked[True] > 20 and checked[False] > 100


def test_count_rejects_wrong_rank():
    counter, oracles, generators = cartan_counters("A2")
    for target in (vec(1), vec(1, 2, 3)):
        for c in (counter, *oracles):
            with pytest.raises(ValueError):
                c.count(target)
    p = make_cartan_pair(build_root_system("A2"))
    with pytest.raises(ValueError):
        PartitionCounter(p, generators, vec(1))


@pytest.mark.parametrize("lie, x", [("A2", (7, 21)), ("B2", (5, 10)), ("G2", (4, 8))])
def test_count_walk_fits_the_point_cap(monkeypatch, lie, x):
    # the walk of a count visits the distinct combinations x of level at
    # most the target's for which target - x stays in the generators'
    # orthant: it fits a cap of exactly that many points, is refused by
    # one fewer, and is smaller than the whole level slab
    p = make_cartan_pair(build_root_system(lie))
    grading = p.g.rho_tilde
    generators = compatible_parabolic(p, grading).ch_t_n_cap_kperp
    target = vec(*x)
    bound = p.t_pair(grading, target)
    size = len(tally_combinations(p, generators.support(), grading, bound, below=target))
    assert size < len(tally_combinations(p, generators.support(), grading, bound))
    counter, (oracle, _) = counters(p, generators, grading)
    monkeypatch.setattr(fundseries, "MAX_TABLE_POINTS", size)
    assert counter.count(target) == oracle.count(target) > 0
    monkeypatch.setattr(fundseries, "MAX_TABLE_POINTS", size - 1)
    with pytest.raises(CapExceeded, match=f"partition count walk exceeds the cap "
                                          f"of {size - 1} lattice points"):
        counter.count(target)
