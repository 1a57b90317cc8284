from collections import Counter
from fractions import Fraction

import pytest

import kernel_oracle
from redpair.fundseries import (
    InducingModule,
    PartitionCounter,
    euler_multiplicity,
    inducing_module,
    infinitesimal_character,
    kostant_weights,
    kostant_terms,
    ktype_table,
    series_parabolic,
    verify_minimal_ktype,
)
from redpair.genericity import norm2_shifted
from redpair.parabolic import compatible_parabolic
from redpair.reductive import make_cartan_pair, make_levi_pair, make_sl2_pair
from redpair.rootsystem import CapExceeded, build_root_system, weyl_group
from redpair.weights import WeightMultiset, add, scale, sub, vec, zero


def brute_force_partition_tally(p, generators, grading, bound):
    """Exhaustive tally of all N-combinations with grading value <= bound.

    A weight of multiplicity m is expanded into m independent slots, so
    the tally matches the coefficients of prod (1 - e^beta)^(-mult).
    """
    slots = []
    for w, m in generators.items():
        slots.extend([w] * m)
    tally: Counter = Counter()

    def rec(i, current):
        value = p.t_pair(grading, current)
        if value > bound:
            return
        if i == len(slots):
            tally[current] += 1
            return
        probe = current
        while p.t_pair(grading, probe) <= bound:
            rec(i + 1, probe)
            probe = add(probe, slots[i])

    rec(0, zero(p.rank_t))
    return tally


@pytest.fixture(scope="module")
def a2_setup():
    p = make_sl2_pair(build_root_system("A2"), [2, 2])
    parab = compatible_parabolic(p, vec(5))          # m = 3 chamber
    e = inducing_module(p, parab, p.lift_weight(vec(-3)))
    return p, parab, e


def test_partition_count_examples(a2_setup):
    p, parab, _ = a2_setup
    b = WeightMultiset({vec(2): 1, vec(4): 1})
    counter = PartitionCounter(p, b, vec(1))
    assert counter.count(zero(1)) == 1
    assert counter.count(vec(4)) == 2      # 4 and 2+2
    assert counter.count(vec(3)) == 0      # parity
    assert counter.count(vec(8)) == 3      # 44, 422, 2222
    assert counter.count(vec(-2)) == 0


def test_partition_count_multiplicity_two(a2_setup):
    p, _, _ = a2_setup
    # two independent generators of the same weight: n copies of 2 split
    # across them in n + 1 ways
    b = WeightMultiset({vec(2): 2})
    for n in range(6):
        assert PartitionCounter(p, b, vec(1)).count(vec(2 * n)) == n + 1


def test_partition_count_matches_bruteforce(a2_setup):
    p, parab, _ = a2_setup
    tally = brute_force_partition_tally(p, parab.ch_t_n_cap_kperp, vec(1),
                                        Fraction(40, 8))
    counter = PartitionCounter(p, parab.ch_t_n_cap_kperp, vec(1))
    for value in range(0, 41):
        target = vec(value)
        if p.t_pair(vec(1), target) <= Fraction(40, 8):
            assert counter.count(target) == tally.get(target, 0)


def test_partition_count_rank_two_bruteforce():
    cartan = make_cartan_pair(build_root_system("A2"))
    parab = compatible_parabolic(cartan, cartan.g.rho_tilde)
    generators = parab.ch_t_n
    grading = cartan.g.rho_tilde
    bound = Fraction(12)
    tally = brute_force_partition_tally(cartan, generators, grading, bound)
    counter = PartitionCounter(cartan, generators, grading)
    box = [vec(a, b) for a in range(0, 7) for b in range(0, 7)]
    for target in box:
        if cartan.t_pair(grading, target) <= bound:
            assert counter.count(target) == tally.get(target, 0)


def test_partition_count_rejects_bad_grading(a2_setup):
    p, _, _ = a2_setup
    b = WeightMultiset({vec(-2): 1})
    with pytest.raises(ValueError):
        PartitionCounter(p, b, vec(1)).count(vec(2))


def test_kostant_weights_sl2(a2_setup):
    p, _, _ = a2_setup
    for d in (0, 3, 7):
        assert kostant_weights(p, vec(d)) == [(0, vec(d)), (1, vec(-d - 2))]
    with pytest.raises(ValueError):
        kostant_weights(p, vec(-1))


def test_kostant_weights_cartan_trivial():
    cartan = make_cartan_pair(build_root_system("B2"))
    delta = vec(1, "1/2")
    assert kostant_weights(cartan, delta) == [(0, delta)]


def test_kostant_weights_full_levi():
    # k = the whole rank-two algebra; six elements, lengths 0..3,
    # weights w(rho) - rho at delta = 0
    g = build_root_system("A2")
    p = make_levi_pair(g, {1, 2})
    entries = kostant_weights(p, zero(2))
    assert len(entries) == 6
    assert sorted(e[0] for e in entries) == [0, 1, 1, 2, 2, 3]
    expected = {tuple(sub(w.apply(g.rho_tilde), g.rho_tilde)) for w in weyl_group(g)}
    assert {e[1] for e in entries} == expected
    assert (0, zero(2)) in entries


def test_kostant_weights_refuses_a_large_weyl_group_before_walking(monkeypatch):
    # |W(E7)| = 2903040 and |W(E8)| = 696729600 exceed MAX_WEYL: the order
    # is read off the k-root heights, so the orbit walk must never start
    def no_walk(*args, **kwargs):
        raise AssertionError("the orbit walk ran")

    monkeypatch.setattr("redpair.rootsystem._coroot_walk", no_walk)
    for name, rank in (("E7", 7), ("E8", 8)):
        p = make_levi_pair(build_root_system(name), set(range(1, rank + 1)))
        with pytest.raises(CapExceeded, match="cap of 1000000 elements"):
            kostant_weights(p, zero(rank))


def test_euler_multiplicity_examples(a2_setup):
    p, parab, e = a2_setup
    assert e.dim_e == 1
    assert e.mu == vec(3)
    assert euler_multiplicity(p, parab, e, vec(3)) == 1
    assert euler_multiplicity(p, parab, e, vec(7)) == 2
    assert euler_multiplicity(p, parab, e, vec(4)) == 0


def test_euler_requires_minimal_parabolic():
    cartan = make_cartan_pair(build_root_system("A2"))
    parab = compatible_parabolic(cartan, vec(1, -1))    # not minimal
    assert not parab.minimal
    e_try = lambda: inducing_module(cartan, parab, zero(2))
    e = e_try()
    with pytest.raises(ValueError):
        euler_multiplicity(cartan, parab, e, zero(2))


def test_euler_equals_alternating_sum_of_bounds(a2_setup):
    p, parab, e = a2_setup
    for d in (3, 5, 7, 9):
        delta = vec(d)
        total = sum((-1) ** i * kostant_terms(p, parab, e, delta).get(i, 0)
                    for i in range(0, 3))
        assert euler_multiplicity(p, parab, e, delta) == total


def test_multiplicity_bound_examples(a2_setup):
    p, parab, e = a2_setup
    assert kostant_terms(p, parab, e, e.mu).get(0, 0) == e.dim_e
    assert kostant_terms(p, parab, e, vec(7)).get(0, 0) == 2
    assert kostant_terms(p, parab, e, vec(7)).get(5, 0) == 0


def test_table_m3(a2_setup):
    p, parab, e = a2_setup
    table = ktype_table(p, parab, e, norm2_shifted(p, vec(11)))
    entries = {delta[0]: mult for delta, mult in table.entries.items()}
    assert entries == {3: 1, 5: 1, 7: 2, 9: 2, 11: 3}
    assert (table.s, table.r) == (1, 2)
    report = verify_minimal_ktype(table, e, p)
    assert report.all_ok


def test_table_rejects_low_cutoff(a2_setup):
    p, parab, e = a2_setup
    with pytest.raises(ValueError):
        ktype_table(p, parab, e, norm2_shifted(p, e.mu) - 1)


def test_table_cartan_degeneration():
    # k equal to the Cartan of sl(2): trivial Weyl group, s = 0, and the
    # table is the partition character of ch_t n shifted by mu
    p = make_cartan_pair(build_root_system("A1"))
    parab = compatible_parabolic(p, vec(1))
    e = inducing_module(p, parab, zero(1))
    assert e.mu == vec(1)       # 2 rho_n_perp = alpha
    cutoff = norm2_shifted(p, vec(9))
    table = ktype_table(p, parab, e, cutoff)
    assert (table.s, table.r) == (0, 1)
    counter = PartitionCounter(p, parab.ch_t_n, parab.lam)
    for delta, mult in table.entries.items():
        assert mult == counter.count(sub(delta, e.mu))
    # all nonnegative integer coordinates mu + n alpha inside the ball
    expected_keys = set()
    step = 0
    while True:
        delta = add(e.mu, scale(step, vec(1)))
        if norm2_shifted(p, delta) > cutoff:
            break
        expected_keys.add(delta)
        step += 1
    assert set(table.entries) == expected_keys
    assert all(v == 1 for v in table.entries.values())
    assert table.entries[e.mu] == 1


def test_b2_table_values():
    # frozen from the partition oracle: counts of delta - 6 into {2, 4, 6}
    p = make_sl2_pair(build_root_system("B2"), [2, 2])
    parab = compatible_parabolic(p, vec(8))             # m = 6
    e = inducing_module(p, parab, p.lift_weight(vec(-6)))
    assert e.mu == vec(6)
    table = ktype_table(p, parab, e, norm2_shifted(p, vec(14)))
    entries = {delta[0]: mult for delta, mult in table.entries.items()}
    assert entries == {6: 1, 8: 1, 10: 2, 12: 3, 14: 4}


def test_inducing_module_validation():
    g = build_root_system("B2")
    p = make_sl2_pair(g, [2, 0])
    # lam = 1 puts the short simple root in m; nu must be dominant
    # integral for that sl(2)
    parab = compatible_parabolic(p, vec(1))
    assert parab.m_positive_roots() == (vec(0, 1),)
    nu_bad = vec(0, "-1/2")
    with pytest.raises(ValueError):
        inducing_module(p, parab, nu_bad)
    nu_good = vec(0, "1/2")      # <nu, alpha2-coroot> = 1
    e = inducing_module(p, parab, nu_good)
    assert e.dim_e == 2
    assert e.omega == p.restrict(nu_good)


def test_inducing_module_dim_via_weyl_formula():
    # full Levi: the reductive part of the Borel-opposite chamber is
    # trivial, every root lands in n, so dim E is one
    p = make_sl2_pair(build_root_system("A2"), [2, 2])
    parab = compatible_parabolic(p, vec(5))
    e = inducing_module(p, parab, p.lift_weight(vec(-3)))
    assert e.dim_e == 1


def test_infinitesimal_character():
    g = build_root_system("A2")
    p = make_sl2_pair(g, [2, 2])
    parab = compatible_parabolic(p, vec(5))
    # nu = 0: the character of the trivial chamber, represented by rho_tilde
    e0 = inducing_module(p, parab, zero(2))
    assert infinitesimal_character(g, e0) == g.rho_tilde
    # nu + rho_tilde already dominant: the representative is nu + rho_tilde
    e1 = inducing_module(p, parab, vec(1, 1))
    assert infinitesimal_character(g, e1) == vec(2, 2)


def test_dominant_representative_orbit_invariance():
    # replacing nu by w(nu + rho_tilde) - rho_tilde never moves the character
    for lie, nu in (("A2", vec(2, 1)), ("B3", vec(1, "1/2", "-3/2")), ("G2", vec(-1, 3))):
        g = build_root_system(lie)
        x = add(nu, g.rho_tilde)

        def character(w):
            e = InducingModule(nu=sub(w.apply(x), g.rho_tilde), omega=(), dim_e=1, mu=())
            return infinitesimal_character(g, e)
        rep = kernel_oracle.fold_dominant(x, g.simple_roots, g.coroot_pairing)
        assert all(character(w) == rep for w in weyl_group(g))
        # antidominant input: the longest element maps it back
        w0 = max(weyl_group(g), key=lambda w: w.length)
        assert character(w0) == rep


def test_rank_two_levi_table_and_completeness():
    # k generated by one simple root of the rank-two algebra; nu = 0 gives
    # mu = (1, 2), which is generic, and exactly two entries fit under
    # cutoff |mu + 2 rho|^2 + 12
    g = build_root_system("A2")
    p = make_levi_pair(g, {1})
    parab = compatible_parabolic(p, vec(2, 2))
    e = inducing_module(p, parab, zero(2))
    assert e.mu == vec(1, 2)
    assert e.dim_e == 1
    cutoff = norm2_shifted(p, e.mu) + 12
    table = ktype_table(p, parab, e, cutoff)
    assert table.entries == {vec(1, 2): 1, vec(2, 3): 1}
    assert verify_minimal_ktype(table, e, p).all_ok

    # completeness: the Euler sum over an integer box around mu agrees
    # with the recorded table everywhere inside the ball
    for a in range(-3, 9):
        for b in range(-3, 9):
            delta = add(e.mu, vec(a, b))
            if not p.is_dominant_integral(delta):
                continue
            if norm2_shifted(p, delta) > cutoff:
                continue
            assert euler_multiplicity(p, parab, e, delta) == \
                table.entries.get(delta, 0)


def test_b2_table_completeness_on_lattice_box():
    p = make_sl2_pair(build_root_system("B2"), [2, 2])
    parab = compatible_parabolic(p, vec(8))
    e = inducing_module(p, parab, p.lift_weight(vec(-6)))
    cutoff = norm2_shifted(p, vec(14))
    table = ktype_table(p, parab, e, cutoff)
    for d in range(0, 17):
        delta = vec(d)
        if norm2_shifted(p, delta) > cutoff:
            continue
        assert euler_multiplicity(p, parab, e, delta) == \
            table.entries.get(delta, 0)


def test_composite_type_pair_through_the_stack():
    g = build_root_system("A1xA1")
    p = make_sl2_pair(g, [2, 2])
    parab = compatible_parabolic(p, vec(3))          # m = 1 chamber
    e = inducing_module(p, parab, p.lift_weight(vec(-1)))
    assert e.mu == vec(1)
    table = ktype_table(p, parab, e, norm2_shifted(p, vec(7)))
    counter = PartitionCounter(p, parab.ch_t_n_cap_kperp, parab.lam)
    for delta, mult in table.entries.items():
        expected = sum((-1) ** length * counter.count(sub(w_weight, e.mu))
                       for length, w_weight in kostant_weights(p, delta))
        assert mult == expected
    assert table.entries[e.mu] == 1


def test_verify_reports_failure_for_nongeneric_input():
    # m = 2 is not generic; the Euler characteristic can go negative
    p = make_sl2_pair(build_root_system("A2"), [2, 2])
    parab = compatible_parabolic(p, vec(4))
    e = inducing_module(p, parab, p.lift_weight(vec(-4)))
    assert e.mu == vec(2)
    table = ktype_table(p, parab, e, norm2_shifted(p, vec(12)))
    report = verify_minimal_ktype(table, e, p)
    assert report.minimal_entry_ok in (True, False)  # reported, not assumed


@pytest.mark.parametrize("lie, k, nu", [
    ("A2", [2, 2], -3), ("B3", {1, 2}, None), ("C3", {2, 3}, None), ("G2", {1}, None),
], ids=["A2-sl2-22", "B3-levi-12", "C3-levi-23", "G2-levi-1"])
def test_kostant_sum_alternates_under_the_k_weyl_group(lie, k, nu):
    # for every u in W_k, dim E sum_v (-1)^l(v) P(v(u(delta + rho)) - rho - mu)
    # is (-1)^l(u) times the Euler multiplicity of delta, on the six largest
    # entries of a table (by multiplicity, then by norm); nu = 0 on a Levi pair
    g = build_root_system(lie)
    p = make_sl2_pair(g, k) if isinstance(k, list) else make_levi_pair(g, k)
    parab, e = series_parabolic(p, zero(g.rank) if nu is None else p.lift_weight(vec(nu)))
    table = ktype_table(p, parab, e, norm2_shifted(p, e.mu) + 40)
    largest = sorted(table.entries, key=lambda d: (table.entries[d], table.norms[d]))[-6:]
    assert len(largest) == 6
    counter = PartitionCounter(p, parab.ch_t_n_cap_kperp, parab.lam)
    group = p.k_weyl_group()
    assert len(group) == p.k_weyl_order
    for delta in largest:
        euler = euler_multiplicity(p, parab, e, delta)
        assert euler == table.entries[delta]
        for u in group:
            moved = u.apply(add(delta, p.rho))
            counts = counter.counts([sub(sub(v.apply(moved), p.rho), e.mu) for v in group])
            total = e.dim_e * sum((-1) ** v.length * c for v, c in zip(group, counts))
            assert total == (-1) ** u.length * euler, (delta, u.word)
