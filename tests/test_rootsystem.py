from fractions import Fraction

import pytest

import kernel_oracle
from redpair.rootsystem import (
    MAX_POSITIVE_ROOTS,
    MAX_WEYL,
    CapExceeded,
    LieType,
    _positive_root_count,
    _root_closure,
    _simple_gram,
    build_root_system,
    enumerate_reflection_group,
    reflection_orbit,
    weyl_dim,
    weyl_group,
)
from redpair.weights import add, vec, zero

CLASSICAL_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10,
    "B2": 4, "B3": 9, "C3": 9, "D4": 12,
    "G2": 6, "F4": 24, "E6": 36,
    "A1xA1": 2, "A2xB2": 7,
}


@pytest.mark.parametrize("name,count", sorted(CLASSICAL_COUNTS.items()))
def test_positive_root_counts(name, count):
    rs = build_root_system(name)
    assert len(rs.positive_roots) == count


GRAM_TYPES = ([f"A{n}" for n in range(1, 20)] + [f"B{n}" for n in range(2, 20)]
              + [f"C{n}" for n in range(2, 20)] + [f"D{n}" for n in range(3, 20)]
              + ["E6", "E7", "E8", "F4", "G2", "A1xA1", "B2xG2", "G2xA1xB3xA1"])


@pytest.mark.parametrize("name", GRAM_TYPES)
def test_gram_and_cartan_match_the_tables_written_out_by_family(name):
    # the Dynkin rule against the Gram matrices written out family by
    # family, block-diagonal over the components; the Cartan matrix and the
    # coroot functionals of every type under the root cap against 2 g_ij / g_jj
    lie_type = LieType.parse(name)
    rank = lie_type.rank
    expected = [[Fraction(0)] * rank for _ in range(rank)]
    offset = 0
    for family, n in lie_type.components:
        for i, row in enumerate(kernel_oracle.simple_gram(family, n)):
            expected[offset + i][offset:offset + n] = row
        offset += n
    assert _simple_gram(lie_type) == expected
    if _positive_root_count(lie_type) > MAX_POSITIVE_ROOTS:
        return
    rs = build_root_system(lie_type)
    cartan = [[2 * expected[i][j] / expected[j][j] for j in range(rank)] for i in range(rank)]
    assert rs.gram == tuple(map(tuple, expected))
    assert rs.cartan == tuple(map(tuple, cartan))
    assert all(type(v) is int for row in rs.cartan for v in row)
    assert rs.coroot_functionals == tuple(zip(*cartan))


def test_invalid_types_rejected():
    for bad in ("B1", "C1", "D2", "E9", "F5", "G3", "H2", "A0"):
        with pytest.raises(ValueError):
            build_root_system(bad)
    with pytest.raises(ValueError):
        LieType.parse("2A")


def test_a2_rho_tilde_and_pairings():
    rs = build_root_system("A2")
    assert rs.rho_tilde == vec(1, 1)
    a1, a2 = rs.simple_roots
    assert rs.pair(a1, a2) == -1
    assert rs.pair(a1, a1) == 2
    assert rs.pair(a1, zero(2)) == 0


def test_b2_structure():
    rs = build_root_system("B2")
    assert set(rs.positive_roots) == {vec(1, 0), vec(0, 1), vec(1, 1), vec(1, 2)}
    assert rs.rho_tilde == vec("3/2", 2)
    a1, a2 = rs.simple_roots
    assert rs.pair(a1, a1) == 2   # long
    assert rs.pair(a2, a2) == 1   # short
    assert rs.pair(a1, a2) == -1


def test_a1_normalization():
    rs = build_root_system("A1")
    assert len(rs.positive_roots) == 1
    assert rs.pair(rs.simple_roots[0], rs.simple_roots[0]) == 2


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "C3", "A1xA1"])
def test_long_roots_have_square_two_per_component(name):
    rs = build_root_system(name)
    offset = 0
    for _, n in rs.lie_type.components:
        block_roots = [
            r for r in rs.positive_roots
            if any(r[offset + i] != 0 for i in range(n))
        ]
        assert max(rs.pair(r, r) for r in block_roots) == 2
        offset += n


@pytest.mark.parametrize("name", ["A2", "B2", "B3", "G2", "D4"])
def test_positive_roots_sum_to_twice_rho(name):
    rs = build_root_system(name)
    total = zero(rs.rank)
    for r in rs.positive_roots:
        total = add(total, r)
    assert total == tuple(2 * c for c in rs.rho_tilde)


@pytest.mark.parametrize("name,order", [("A1", 2), ("A2", 6), ("A3", 24),
                                        ("B2", 8), ("G2", 12), ("A1xA1", 4)])
def test_weyl_group_orders(name, order):
    rs = build_root_system(name)
    assert len(weyl_group(rs)) == order


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_weyl_lengths_match_inversion_counts(name):
    # length = number of positive roots beta with <w(rho_tilde), beta> < 0
    rs = build_root_system(name)
    for w in weyl_group(rs):
        image = w.apply(rs.rho_tilde)
        inversions = sum(1 for b in rs.positive_roots if rs.pair(image, b) < 0)
        assert inversions == w.length


def test_weyl_longest_length_b2():
    assert max(w.length for w in weyl_group(build_root_system("B2"))) == 4


def test_weyl_words_are_reduced():
    rs = build_root_system("B2")
    elements = weyl_group(rs)
    assert sorted(w.length for w in elements).count(0) == 1
    # rho_tilde is regular, so distinct elements move it to distinct points
    by_image = {w.apply(rs.rho_tilde): w.length for w in elements}
    assert len(by_image) == 8


def test_weyl_rank_cap(monkeypatch):
    # the rank caps nothing: seven copies of A1 are walked; E7, E8 and D8
    # exceed MAX_WEYL and are refused by their exact order, with no walk
    assert MAX_WEYL == 1_000_000
    assert len(weyl_group(build_root_system("x".join(["A1"] * 7)))) == 128

    def no_walk(*args):
        raise AssertionError("the Weyl walk ran")

    monkeypatch.setattr("redpair.rootsystem._coroot_walk", no_walk)
    for name in ("E7", "E8", "D8"):
        with pytest.raises(CapExceeded, match="cap of 1000000 elements"):
            weyl_group(build_root_system(name))


def test_library_weyl_walks_refuse_over_the_cap_before_walking(monkeypatch):
    # both walk functions read the exact order off their root datum and
    # refuse it themselves, not only through their callers
    def no_walk(*args):
        raise AssertionError("the Weyl walk ran")

    monkeypatch.setattr("redpair.rootsystem._coroot_walk", no_walk)
    for name in ("E7", "E8", "D8"):
        rs = build_root_system(name)
        data = (rs.simple_roots, rs.coroot_functionals)
        for walk in (lambda: reflection_orbit(rs.rho_tilde, *data),
                     lambda: enumerate_reflection_group(*data, rs.rho_tilde)):
            with pytest.raises(CapExceeded,
                               match="^reflection group exceeds the cap of 1000000 elements$"):
                walk()


def test_positive_root_count_cap():
    # A19 x A4 has 190 + 10 positive roots; one A1 more is over the cap
    assert MAX_POSITIVE_ROOTS == 200
    assert len(build_root_system("A19xA4").positive_roots) == 200
    with pytest.raises(CapExceeded, match="A19xA4xA1 has 201 positive roots"):
        build_root_system("A19xA4xA1")


def test_root_closure_cap():
    # affine A1: the closure never ends
    with pytest.raises(ValueError, match="not of finite type"):
        _root_closure([[2, -2], [-2, 2]], max_roots=20)


def test_weyl_dim_basics():
    a1 = build_root_system("A1")
    fundamental = vec("1/2")  # <omega, coroot> = 1
    assert weyl_dim(a1, fundamental) == 2
    a2 = build_root_system("A2")
    assert weyl_dim(a2, vec(1, 1)) == 8    # adjoint
    assert weyl_dim(a2, zero(2)) == 1
    with pytest.raises(ValueError):
        weyl_dim(a2, vec(-1, 0))
    with pytest.raises(ValueError):
        weyl_dim(a2, vec("1/3", 0))


def test_weyl_dim_sl2_string():
    a1 = build_root_system("A1")
    for m in range(6):
        assert weyl_dim(a1, vec(Fraction(m, 2))) == m + 1


def test_exactness_everywhere():
    rs = build_root_system("G2")
    for r in rs.positive_roots:
        assert all(isinstance(c, Fraction) for c in r)
    assert all(isinstance(c, Fraction) for c in rs.rho_tilde)
    assert isinstance(rs.pair(rs.rho_tilde, rs.rho_tilde), Fraction)


def leading_minors_positive(matrix):
    n = len(matrix)
    for k in range(1, n + 1):
        sub = [row[:k] for row in matrix[:k]]
        # exact determinant by fraction-free-ish Gaussian elimination
        rows = [list(r) for r in sub]
        det = Fraction(1)
        for col in range(k):
            pivot = next((r for r in range(col, k) if rows[r][col] != 0), None)
            if pivot is None:
                return False
            if pivot != col:
                rows[col], rows[pivot] = rows[pivot], rows[col]
                det = -det
            det *= rows[col][col]
            inv = 1 / rows[col][col]
            for r in range(col + 1, k):
                f = rows[r][col] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
        if det <= 0:
            return False
    return True


@pytest.mark.parametrize("name", ["A1", "A3", "B2", "C3", "G2", "F4", "A1xA1"])
def test_form_positive_definite(name):
    assert leading_minors_positive(build_root_system(name).gram)


def test_fundamental_coordinate_conversion():
    rs = build_root_system("B2")
    for coords in [(1, 0), (0, 1), (2, 3)]:
        x = rs.from_fundamental(vec(*coords))
        assert [rs.coroot_pairing(x, i) for i in range(rs.rank)] == list(coords)
    # rho_tilde has all fundamental coordinates equal to one
    assert [rs.coroot_pairing(rs.rho_tilde, i) for i in range(rs.rank)] == [1, 1]


@pytest.mark.parametrize("x", [vec(1, 1, 1), vec(1)], ids=["too-long", "too-short"])
def test_a_weight_of_the_wrong_length_is_refused(x):
    # a zip over the shorter length misread these: weyl_dim((1, 1, 1)) read 8
    rs = build_root_system("A2")
    refusal = f"^expected a weight of rank 2, got length {len(x)}$"
    simple, functionals = rs.simple_roots, rs.coroot_functionals
    for call in (lambda: weyl_dim(rs, x), lambda: rs.coroot_pairing(x, 0),
                 lambda: weyl_group(rs)[3].apply(x), lambda: weyl_group(rs)[0].apply(x),
                 lambda: reflection_orbit(x, simple, functionals),
                 lambda: enumerate_reflection_group(simple, functionals, x)):
        with pytest.raises(ValueError, match=refusal):
            call()
