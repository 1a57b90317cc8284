"""The integer kernels of the root and Weyl machinery against their
``Fraction`` versions in kernel_oracle: the orbit walk and the fold in
coroot coordinates, the integer-scaled solve against Gauss-Jordan inversion and
the product, the restrictions stored once per pair, and the root split
that reads them; and the root closure by raising reflections against the
one by root strings."""

import itertools
import random
import re
from fractions import Fraction

import pytest

import kernel_oracle
from redpair.cli import main
from redpair.fundseries import kostant_weights
from redpair.linalg import dot, mat_vec, solve
from redpair.parabolic import is_regular, split_roots
from redpair.reductive import (
    make_cartan_pair,
    make_explicit_pair,
    make_levi_pair,
    make_sl2_pair,
)
from redpair.rootsystem import (
    CapExceeded,
    _root_closure,
    build_root_system,
    enumerate_reflection_group,
    reflection_orbit,
    root_datum,
    weyl_fold,
    weyl_group,
    weyl_group_order,
)
from redpair.weights import add, sub, vec, zero
from test_weyl_orbit import PAIRS

ORBIT_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4"]
MARK_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2"]
ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "A1xA1", "B2xG2"]
)


def marks(rank):
    return [list(m) for m in itertools.product((0, 1, 2), repeat=rank) if any(m)]


@pytest.mark.parametrize("name", ORBIT_TYPES)
def test_weyl_group_walk_matches_fraction_walk(name):
    rs = build_root_system(name)
    expected = kernel_oracle.reflection_orbit(rs.rho_tilde, rs.simple_roots,
                                              rs.coroot_pairing)
    assert reflection_orbit(rs.rho_tilde, rs.simple_roots, rs.coroot_functionals) == expected
    assert [w.word for w in weyl_group(rs)] == [word for word, _ in expected]


@pytest.mark.parametrize("case", sorted(PAIRS))
def test_kostant_weights_match_fraction_walk(case):
    p = PAIRS[case]()
    for delta in (zero(p.rank_t), p.restrict(add(p.g.rho_tilde, p.g.rho_tilde))):
        x = add(delta, p.rho)
        expected = kernel_oracle.reflection_orbit(x, p.k_simple_roots, p.coroot_pairing)
        assert reflection_orbit(x, p.k_simple_roots, p.k_coroot_functionals) == expected
        assert kostant_weights(p, delta) == \
            sorted((len(word), sub(y, p.rho)) for word, y in expected)


def test_orbit_of_a_fractional_point_and_its_cap(monkeypatch):
    rs = build_root_system("B3")
    x = (Fraction(5, 2), Fraction(13, 3), Fraction(31, 6))
    assert all(rs.coroot_pairing(x, i) > 0 for i in range(3))
    expected = kernel_oracle.reflection_orbit(x, rs.simple_roots, rs.coroot_pairing)
    assert reflection_orbit(x, rs.simple_roots, rs.coroot_functionals) == expected
    # the group enumeration runs the same walk from x
    assert len(enumerate_reflection_group(rs.simple_roots, rs.coroot_functionals, x)) == 48

    # the cap of the group enumeration is checked by exact order, before
    # the walk: |W(E8)| = 696729600
    def no_walk(*args):
        raise AssertionError("the Weyl walk ran")

    p = make_levi_pair(build_root_system("E8"), set(range(1, 9)))
    monkeypatch.setattr("redpair.rootsystem._coroot_walk", no_walk)
    with pytest.raises(CapExceeded, match="cap of 1000000 elements"):
        p.k_weyl_group()


def test_orbit_needs_integral_pairings_between_simple_roots():
    # an A2 diagram with the coroots rescaled: A = [[2, -1/2], [-2, 2]]
    columns = ((Fraction(2), Fraction(-2)), (Fraction(-1, 2), Fraction(2)))
    simple = (vec(1, 0), vec(0, 1))
    with pytest.raises(ValueError, match="non-integral coroot pairing -1/2"):
        reflection_orbit(vec(2, 1), simple, columns)


SIMPLE_UP_TO_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4",
                  "F4", "G2"]
# every type of rank <= 4: the simple ones and every product of them
FOLD_TYPES = ["x".join(parts) for size in range(1, 5)
              for parts in itertools.combinations_with_replacement(SIMPLE_UP_TO_4, size)
              if sum(int(part[1:]) for part in parts) <= 4]


def _ambient_case(name):
    # integral weights from random fundamental-weight coordinates
    rs = build_root_system(name)
    return (rs.simple_roots, rs.coroot_functionals, rs.positive_roots, rs.pair,
            lambda rng: rs.from_fundamental([rng.randint(-6, 6) for _ in range(rs.rank)]))


def _k_case(p, square):
    # integral weights: random coroot coordinates when the functionals are
    # a basis of the dual, else random ints in the simple roots of g
    def sample(rng):
        if square:
            c = [(rng.randint(-6, 6),) for _ in range(p.rank_t)]
            return tuple(v for (v,) in solve(p.k_coroot_functionals, c))
        return vec(*(rng.randint(-4, 4) for _ in range(p.rank_t)))
    return p.k_simple_roots, p.k_coroot_functionals, p.k_positive_roots, p.t_pair, sample


FOLD_CASES = {name: (lambda name=name: _ambient_case(name)) for name in FOLD_TYPES}
FOLD_CASES.update({
    "A3-levi-13": lambda: _k_case(make_levi_pair(build_root_system("A3"), {1, 3}), False),
    "B3-levi-12": lambda: _k_case(make_levi_pair(build_root_system("B3"), {1, 2}), False),
    "C3-levi-23": lambda: _k_case(make_levi_pair(build_root_system("C3"), {2, 3}), False),
    "G2-levi-2": lambda: _k_case(make_levi_pair(build_root_system("G2"), {2}), False),
    "B2-sl2-22": lambda: _k_case(make_sl2_pair(build_root_system("B2"), [2, 2]), True),
    "A3-sl2-101": lambda: _k_case(make_sl2_pair(build_root_system("A3"), [1, 0, 1]), True),
    # the full Levi of A2 in doubled coordinates: functionals with denominator 2
    "A2-doubled-explicit": lambda: _k_case(make_explicit_pair(
        build_root_system("A2"), [[2, 0], [0, 2]], [vec(2, 0), vec(0, 2)],
        [vec(1, "-1/2"), vec("-1/2", 1)]), True),
})


@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_weyl_fold_matches_the_fraction_fold(case):
    # the int fold lands where the Fraction fold does, and reflects once per
    # positive root that pairs negatively with x, which is the length of the
    # folding element: for a regular x, the length of the word of x in the
    # orbit walk from its dominant point
    simple, functionals, positive, form, sample = FOLD_CASES[case]()
    cartan, rng, walked = root_datum(simple, functionals).cartan, random.Random(case), 0
    assert any(f.denominator == 2 for row in functionals for f in row) == ("doubled" in case)
    for _ in range(60):
        x = sample(rng)
        c = [dot(f, x) for f in functionals]
        assert all(v.denominator == 1 for v in c)
        a, count = weyl_fold([int(v) for v in c], cartan)
        z = tuple(u - dot(a, column) for u, column in zip(x, zip(*simple)))
        assert z == kernel_oracle.fold_dominant(
            x, simple, lambda y, i: dot(functionals[i], y))
        assert count == sum(form(x, beta) < 0 for beta in positive)
        if walked < 3 and all(dot(f, z) > 0 for f in functionals):
            words = [word for word, y in reflection_orbit(z, simple, functionals) if y == x]
            assert len(words) == 1 and len(words[0]) == count
            walked += 1
    assert walked == 3 or not simple


def test_coroot_pairing_is_the_gram_quotient():
    for name in ALL_TYPES:
        rs = build_root_system(name)
        x = tuple(Fraction(3 * j - 7, j + 2) for j in range(rs.rank))
        for i in range(rs.rank):
            col = [rs.gram[j][i] for j in range(rs.rank)]
            expected = 2 * sum(a * b for a, b in zip(x, col)) / rs.gram[i][i]
            assert rs.coroot_pairing(x, i) == expected


@pytest.mark.parametrize("name", ALL_TYPES)
def test_inverse_of_gram_and_cartan_matches_fraction_elimination(name):
    rs = build_root_system(name)
    for m in (rs.gram, rs.cartan, tuple(zip(*rs.cartan))):
        assert _inverse(m) == kernel_oracle.inverse(m)


def _inverse(a):
    return solve(a, kernel_oracle.identity(len(a)))


def _random_matrix(rng, rows, cols):
    return tuple(
        tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))
              if rng.random() < 0.7 else Fraction(0) for _ in range(cols))
        for _ in range(rows)
    )


def test_inverse_and_product_of_random_matrices():
    rng = random.Random(20)
    singular = 0
    for _ in range(800):
        n = rng.randint(0, 6)
        a = _random_matrix(rng, n, n)
        try:
            expected = kernel_oracle.inverse(a)
        except ValueError as exc:
            singular += 1
            with pytest.raises(ValueError, match=str(exc)):
                _inverse(a)
            continue
        assert _inverse(a) == expected
        b = _random_matrix(rng, n, rng.randint(0, 4))
        assert solve(a, b) == kernel_oracle.mat_mul(expected, b)
    assert singular > 20


def test_solve_equals_the_inverse_times_the_right_hand_side():
    rng = random.Random(21)
    solved = singular = 0
    for _ in range(600):
        n = rng.randint(1, 6)
        a = _random_matrix(rng, n, n)
        b = _random_matrix(rng, n, rng.randint(1, 3))
        try:
            a_inv = kernel_oracle.inverse(a)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError, match="^singular matrix$"):
                solve(a, b)
            continue
        solved += 1
        assert solve(a, b) == kernel_oracle.mat_mul(a_inv, b)
    assert solved > 300 and singular > 20
    with pytest.raises(ValueError, match="right-hand side has 1 rows"):
        solve(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))), ((Fraction(1),),))


def test_zero_restriction_row_has_no_lift(tmp_path, capsys):
    a2 = build_root_system("A2")
    for restriction in ([[0, 0]], [[1, 0], [0, 0]]):
        with pytest.raises(ValueError, match="^rank-deficient restriction: no lift exists$"):
            make_explicit_pair(a2, restriction, [], [])
    path = tmp_path / "job.cfg"
    path.write_text("lie_type = A2\nk = explicit\nrestriction = [[0, 0]]\n"
                    "k_simple_roots = []\nk_coroots = []\ncommand = pair-info\n",
                    encoding="utf-8")
    assert main(["--config", str(path)]) == 3
    assert capsys.readouterr().err == (
        "validation error: rank-deficient restriction: no lift exists\n")


def test_inverse_errors_are_unchanged():
    for bad in (((Fraction(1), Fraction(2)),), ((Fraction(1),), (Fraction(2),))):
        with pytest.raises(ValueError, match="inverse needs a square matrix"):
            _inverse(bad)
    with pytest.raises(ValueError, match="singular matrix"):
        _inverse(((Fraction(1), Fraction(2)), (Fraction(1, 2), Fraction(1))))
    a2 = build_root_system("A2")
    with pytest.raises(ValueError, match="rank-deficient restriction"):
        make_explicit_pair(a2, [[1, 1], [2, 2]], [], [])


def _pairs_of(name):
    g = build_root_system(name)
    pairs = [make_cartan_pair(g), make_sl2_pair(g, [2] * g.rank),
             make_sl2_pair(g, [1] + [0] * (g.rank - 1)),
             make_levi_pair(g, {1}), make_levi_pair(g, set(range(2, g.rank + 1)))]
    half = [[Fraction(i + 1, 2) if i == j else Fraction(0) for j in range(g.rank)]
            for i in range(g.rank)]
    pairs.append(make_explicit_pair(g, half, [], []))
    if g.rank > 1:
        pairs.append(make_explicit_pair(g, [[1] * g.rank, [0] * (g.rank - 1) + [3]],
                                        [], []))
    return pairs


@pytest.mark.parametrize("name", ["A1", "A3", "B3", "C4", "D5", "G2", "F4",
                                  "E6", "E7", "E8", "A1xA1", "B2xG2"])
def test_stored_restrictions_equal_restricting_each_root(name):
    for p in _pairs_of(name):
        assert p.restricted_positive == tuple(mat_vec(p.restriction, root)
                                              for root in p.g.positive_roots)
        assert p.delta_t == frozenset(
            r for root in p.g.positive_roots for r in
            (p.restrict(root), tuple(-c for c in p.restrict(root))) if any(r))


@pytest.mark.parametrize("name", MARK_TYPES)
def test_split_roots_matches_restricting_each_root(name):
    g = build_root_system(name)
    lams = [vec(v) for v in ("-5/2", -1, 0, "1/3", 2, 7)]
    for labels in marks(g.rank):
        p = make_sl2_pair(g, labels)
        for lam in lams:
            assert split_roots(p, lam) == kernel_oracle.split_roots(p, lam)
            assert is_regular(p, lam) == all(p.t_pair(lam, s) != 0 for s in p.delta_t)


def test_split_roots_on_levi_and_explicit_pairs():
    for name in ("A3", "B3", "G2"):
        for p in _pairs_of(name):
            for lam in (p.restrict(p.g.rho_tilde), vec(*range(-1, p.rank_t - 1))):
                assert split_roots(p, lam) == kernel_oracle.split_roots(p, lam)
                assert is_regular(p, lam) == all(p.t_pair(lam, s) != 0
                                                 for s in p.delta_t)


def test_k_weyl_order_equals_the_enumerated_group():
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4",
                 "A1xA1"):
        g = build_root_system(name)
        for size in range(g.rank + 1):
            for nodes in itertools.combinations(range(1, g.rank + 1), size):
                p = make_levi_pair(g, set(nodes))
                assert p.k_weyl_order == len(p.k_weyl_group())
        for labels in ([2] * g.rank, [1] * g.rank):
            p = make_sl2_pair(g, labels)
            assert p.k_weyl_order == len(p.k_weyl_group()) == 2
    p = PAIRS["C3-levi-123-explicit"]()
    assert p.k_weyl_order == len(p.k_weyl_group()) == 48


def test_weyl_group_order_of_exceptional_types():
    orders = {"G2": 12, "F4": 1152, "E6": 51840, "E7": 2903040, "E8": 696729600,
              "A1xA1": 4, "B2xG2": 96, "D8": 5160960}
    for name, order in orders.items():
        assert weyl_group_order(build_root_system(name).positive_roots) == order
    assert weyl_group_order(()) == 1


@pytest.mark.parametrize("name", ALL_TYPES + ["A19xA4", "G2xA1xB3xA1",
                                  pytest.param("x".join(["A1"] * 60), id="60xA1")])
def test_root_closure_matches_the_pairing_sum(name):
    # the same roots in the same order, each pairing carried from its parent
    a = [[int(v) for v in row] for row in build_root_system(name).cartan]
    assert _root_closure(a) == kernel_oracle.root_closure(a)


def _same_closure(a, max_roots):
    """Raising reflections and root strings give the same list, or both
    exceed max_roots; True when the lists are compared."""
    try:
        expected = kernel_oracle.root_closure(a, max_roots)
    except ValueError as exc:
        with pytest.raises(ValueError, match="^" + re.escape(str(exc)) + "$"):
            _root_closure(a, max_roots)
        return False
    assert _root_closure(a, max_roots) == expected
    return True


@pytest.mark.parametrize("name", ALL_TYPES)
def test_root_closure_of_the_transposed_cartan_matrix(name):
    # the dual root system: B and C trade places, and so do the
    # components' long and short roots
    rs = build_root_system(name)
    a = [[int(v) for v in column] for column in zip(*rs.cartan)]
    assert _same_closure(a, len(rs.positive_roots))
    assert _same_closure(a, 20) == (len(rs.positive_roots) <= 20)


def test_root_closure_of_every_small_generalized_cartan_matrix():
    # every GCM of rank 2 and 3 with off-diagonal entries in 0..-3: a_ij
    # and a_ji are zero together
    blocks = [(0, 0)] + [(x, y) for x in (-1, -2, -3) for y in (-1, -2, -3)]
    compared = capped = 0
    for rank in (2, 3):
        edges = list(itertools.combinations(range(rank), 2))
        for choice in itertools.product(blocks, repeat=len(edges)):
            a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
            for (i, j), (x, y) in zip(edges, choice):
                a[i][j], a[j][i] = x, y
            if _same_closure(a, 20):
                compared += 1
            else:
                capped += 1
    assert (compared, capped) == (37, 973)
