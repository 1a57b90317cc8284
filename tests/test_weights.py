from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from redpair.weights import (WeightMultiset, add, from_integers, scale, sub, to_integers, vec,
                             zero)
from series_oracle import first_excess, minus


def test_vec_accepts_ints_strings_fractions():
    assert vec(1, "3/2", Fraction(2, 4)) == (Fraction(1), Fraction(3, 2), Fraction(1, 2))


def test_vec_rejects_floats():
    with pytest.raises(TypeError):
        vec(0.5)


def test_arithmetic():
    assert add(vec(1, 2), vec(3, -1)) == vec(4, 1)
    assert sub(vec(1, 2), vec(3, -1)) == vec(-2, 3)
    assert scale("1/2", vec(3, 5)) == vec("3/2", "5/2")
    with pytest.raises(ValueError):
        add(vec(1), vec(1, 2))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(width=st.integers(0, 4), data=st.data(), den=st.integers(1, 12))
def test_from_integers_inverts_to_integers(width, data, den):
    rows = data.draw(st.lists(st.lists(st.integers(-30, 30), min_size=width, max_size=width),
                              max_size=5))
    weights = from_integers(rows, den)
    assert weights == tuple(tuple(Fraction(a, den) for a in row) for row in rows)
    assert from_integers(*to_integers(weights)) == weights


def test_a_multiset_of_weights_equals_the_one_from_its_rows():
    ms = WeightMultiset({vec("1/2", -1): 2, vec(0, "3/4"): 1, vec(-2, 0): 3})
    rows, den = ms.integers
    assert den == 4
    again = WeightMultiset.from_rows(dict(rows), den, 2)
    assert again == ms
    assert list(again.entries.items()) == list(ms.entries.items()) == \
        [(vec("1/2", -1), 2), (vec(0, "3/4"), 1), (vec(-2, 0), 3)]


def test_half_sum_empty_is_zero():
    assert WeightMultiset({}, rank=2).half_sum() == zero(2)


def test_half_sum_rank_one():
    ms = WeightMultiset({vec(2): 1, vec(4): 1})
    assert ms.half_sum() == vec(3)


def test_half_sum_with_multiplicities():
    # the principal rank-one character of the so(5) nilradical
    ms = WeightMultiset({vec(2): 2, vec(4): 1, vec(6): 1})
    assert ms.half_sum() == vec(7)


def test_multiset_size_and_support():
    ms = WeightMultiset({vec(2): 2, vec(4): 1})
    assert ms.size() == 3
    assert ms.support() == [vec(2), vec(4)]
    assert ms.multiplicity(vec(2)) == 2
    assert ms.multiplicity(vec(6)) == 0


def test_multiset_difference():
    big = WeightMultiset({vec(2): 2, vec(4): 1})
    small = WeightMultiset({vec(2): 1})
    assert minus(big, small) == WeightMultiset({vec(2): 1, vec(4): 1})
    with pytest.raises(ValueError):
        minus(small, big)


def test_multiset_contains_and_excess():
    big = WeightMultiset({vec(2): 2, vec(4): 1})
    # containment is the absence of an excess
    assert first_excess(big, WeightMultiset({vec(2): 2})) is None
    assert first_excess(big, WeightMultiset({vec(6): 1})) == vec(6)
    assert first_excess(big, WeightMultiset({vec(4): 2})) == vec(4)


def test_multiset_rejects_mixed_ranks_and_negative_mults():
    with pytest.raises(ValueError):
        WeightMultiset({vec(1): 1, vec(1, 2): 1})
    with pytest.raises(ValueError):
        WeightMultiset({vec(1): -1})
    with pytest.raises(ValueError):
        WeightMultiset({})  # rank unknown
