from fractions import Fraction

import pytest

from kernel_oracle import identity, mat_mul
from redpair.reductive import (
    make_cartan_pair,
    make_explicit_pair,
    make_levi_pair,
    make_sl2_pair,
)
from redpair.rootsystem import build_root_system
from redpair.weights import neg, vec, zero


@pytest.fixture(scope="module")
def a2():
    return build_root_system("A2")


@pytest.fixture(scope="module")
def b2():
    return build_root_system("B2")


def test_sl2_principal_a2(a2):
    p = make_sl2_pair(a2, [2, 2])
    assert p.rank_t == 1
    assert p.delta_t == frozenset({vec(2), vec(4), vec(-2), vec(-4)})
    assert p.rho == vec(1)
    assert p.restrict(vec(1, 1)) == vec(4)
    assert p.restrict(zero(2)) == zero(1)


def test_sl2_principal_b2_restrictions(b2):
    p = make_sl2_pair(b2, [2, 2])
    values = sorted(p.restrict(r)[0] for r in b2.positive_roots)
    assert values == [2, 2, 4, 6]


def test_sl2_identity_embedding():
    a1 = build_root_system("A1")
    p = make_sl2_pair(a1, [2])
    assert p.delta_t == frozenset({vec(2), vec(-2)})
    assert p.restrict(a1.simple_roots[0]) == vec(2)


def test_sl2_label_validation(a2):
    with pytest.raises(ValueError):
        make_sl2_pair(a2, [3, 0])
    with pytest.raises(ValueError):
        make_sl2_pair(a2, [0, 0])
    with pytest.raises(ValueError):
        make_sl2_pair(a2, [2])


def test_sl2_induced_form(a2, b2):
    # 1 / (labels . G^{-1} . labels) for the orthogonal section
    assert make_sl2_pair(a2, [2, 2]).t_gram == ((Fraction(1, 8),),)
    assert make_sl2_pair(b2, [2, 2]).t_gram == ((Fraction(1, 20),),)


def test_sl2_t_pair_scaling(a2):
    p = make_sl2_pair(a2, [2, 2])
    assert p.t_pair(p.rho, vec(2)) / p.t_pair(p.rho, p.rho) == 2
    assert p.t_pair(vec(5), zero(1)) == 0


def test_restriction_lift_is_identity():
    for name, maker in [("A2", lambda g: make_sl2_pair(g, [2, 2])),
                        ("B2", lambda g: make_sl2_pair(g, [2, 0])),
                        ("A2", make_cartan_pair),
                        ("B2", lambda g: make_levi_pair(g, {2}))]:
        g = build_root_system(name)
        p = maker(g)
        assert mat_mul(p.restriction, p.lift) == identity(p.rank_t)


def test_restricted_roots_land_in_delta_t(a2):
    p = make_sl2_pair(a2, [2, 0])
    for r in a2.positive_roots:
        image = p.restrict(r)
        assert image in p.delta_t or image == zero(1)
        assert neg(image) in p.delta_t or image == zero(1)


def test_cartan_pair(a2):
    p = make_cartan_pair(a2)
    assert p.rank_t == 2
    assert len(p.delta_t) == 6
    assert p.rho == zero(2)
    assert p.k_positive_roots == ()
    assert p.restrict(vec(1, 1)) == vec(1, 1)
    # induced form coincides with the ambient form
    assert p.t_gram == a2.gram


def test_cartan_pair_counts():
    assert len(make_cartan_pair(build_root_system("A1")).delta_t) == 2
    assert len(make_cartan_pair(build_root_system("B2")).delta_t) == 8


def test_levi_pairs(a2, b2):
    p = make_levi_pair(a2, {1})
    assert p.k_positive_roots == (vec(1, 0),)
    assert p.rho == vec("1/2", 0)
    assert make_levi_pair(b2, {2}).k_positive_roots == (vec(0, 1),)
    # the empty Levi is the Cartan pair in all observable data
    empty = make_levi_pair(a2, set())
    cartan = make_cartan_pair(a2)
    assert empty.k_positive_roots == cartan.k_positive_roots
    assert empty.rho == cartan.rho
    assert empty.delta_t == cartan.delta_t
    with pytest.raises(ValueError):
        make_levi_pair(a2, {0})
    with pytest.raises(ValueError):
        make_levi_pair(a2, {3})


def test_full_levi_is_whole_algebra(a2):
    p = make_levi_pair(a2, {1, 2})
    assert set(p.k_positive_roots) == set(a2.positive_roots)
    assert p.rho == a2.rho_tilde


def test_levi_and_cartan_forms_match_ambient(a2):
    for p in (make_cartan_pair(a2), make_levi_pair(a2, {1})):
        for x in (vec(1, 0), vec("1/2", 3), vec(-1, 2)):
            for y in (vec(0, 1), vec(2, 2)):
                assert p.t_pair(x, y) == a2.pair(x, y)


def test_rho_is_dominant_for_k(a2, b2):
    for p in (make_sl2_pair(a2, [2, 2]), make_levi_pair(a2, {1}),
              make_levi_pair(b2, {1, 2})):
        for i in range(len(p.k_simple_roots)):
            assert p.coroot_pairing(p.rho, i) > 0


def test_explicit_reproduces_sl2(a2):
    direct = make_sl2_pair(a2, [2, 2])
    rebuilt = make_explicit_pair(
        a2,
        [[2, 2]],
        [vec(2)],
        [(Fraction(1),)],
    )
    assert rebuilt.delta_t == direct.delta_t
    assert rebuilt.rho == direct.rho
    assert rebuilt.k_positive_roots == direct.k_positive_roots
    assert rebuilt.t_gram == direct.t_gram


def test_explicit_identity_with_no_roots_is_cartan(a2):
    p = make_explicit_pair(a2, identity(2), [], [])
    cartan = make_cartan_pair(a2)
    assert p.delta_t == cartan.delta_t
    assert p.rho == cartan.rho
    assert p.k_positive_roots == ()


def test_explicit_validation_errors(a2):
    # a k-root that is not the restriction of any ambient root
    with pytest.raises(ValueError):
        make_explicit_pair(a2, [[2, 2]], [vec(3)], [(Fraction("2/3"),)])
    # rank-deficient restriction
    with pytest.raises(ValueError):
        make_explicit_pair(a2, [[1, 1], [2, 2]], [], [])
    # non-integral coroot pairing on the k root lattice
    with pytest.raises(ValueError):
        make_explicit_pair(a2, [[2, 2]], [vec(2)], [(Fraction(1, 3),)])
    # wrong self-pairing
    with pytest.raises(ValueError):
        make_explicit_pair(a2, [[2, 2]], [vec(2)], [(Fraction(2),)])


def test_explicit_rejects_non_isometric_coroot(a2):
    # f(sigma) = 2 and f is integral on the lattice, but ker f is not
    # orthogonal to sigma, so the reflection would not preserve the form
    with pytest.raises(ValueError, match="isometry"):
        make_explicit_pair(a2, identity(2), [vec(1, 0)],
                           [(Fraction(2), Fraction(17))])
    # the honest ambient coroot passes
    rebuilt = make_explicit_pair(a2, identity(2), [vec(1, 0)],
                                 [(Fraction(2), Fraction(-1))])
    assert rebuilt.k_positive_roots == (vec(1, 0),)


def test_dominance_checks(a2):
    p = make_sl2_pair(a2, [2, 2])
    assert p.is_dominant_integral(vec(3))
    assert not p.is_dominant_integral(vec(-1))
    assert not p.is_dominant_integral(vec("1/2"))
    cartan = make_cartan_pair(a2)
    # no coroots: every weight is vacuously dominant integral
    assert cartan.is_dominant_integral(vec("-7/3", 1))


def test_dimension_mismatch_errors(a2):
    p = make_sl2_pair(a2, [2, 2])
    with pytest.raises(ValueError):
        p.restrict(vec(1))
    with pytest.raises(ValueError):
        p.t_pair(vec(1, 2), vec(1))


def test_induced_form_positive_definite(a2, b2):
    # the orthogonal section makes the induced form inherit positivity
    from test_rootsystem import leading_minors_positive

    for p in (make_sl2_pair(a2, [2, 2]), make_sl2_pair(b2, [1, 2]),
              make_cartan_pair(b2), make_levi_pair(a2, {2})):
        assert leading_minors_positive(p.t_gram)


@pytest.mark.parametrize("x", [vec(1, 1, 1), vec(1)], ids=["too-long", "too-short"])
def test_a_small_side_weight_of_the_wrong_length_is_refused(a2, x):
    # (1,) read as dominant integral for A2 levi {1}, (1, 1, 1) as its first two entries
    refusal = f"^expected a weight of rank 2, got length {len(x)}$"
    for p in (make_levi_pair(a2, {1}), make_cartan_pair(a2)):
        for call in (p.dominance_defect, p.is_dominant_integral):
            with pytest.raises(ValueError, match=refusal):
                call(x)
    with pytest.raises(ValueError, match=refusal):
        make_levi_pair(a2, {1}).coroot_pairing(x, 0)
