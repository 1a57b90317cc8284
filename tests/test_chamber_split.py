"""The integer chamber split against its ``Fraction`` oracle.

``split_roots`` is compared with ``kernel_oracle.split_roots``, which
restricts every root and pairs it through ``t_pair``.  Regularity, as
``compatible_parabolic`` reports it in ``minimal`` and as ``is_generic``
refuses it, is compared with pairing ``lam`` against every nonzero
restricted root.  The condition-2 search must order its weights by
decreasing ``t_pair(c, b)``, ties by ``b``.  The sl2 pairs are every
mark vector of the genericity sweep's types at ``m = 0..T``; the Levi
pairs are every Levi subset of four small types, over a box of weights.
"""

import itertools

import pytest

import kernel_oracle
import series_oracle
from condition2_oracle import scan_weights
from redpair.genericity import _Condition2Search, is_generic, sl2_threshold
from redpair.parabolic import compatible_parabolic, is_regular, split_roots
from redpair.reductive import make_levi_pair, make_sl2_pair
from redpair.rootsystem import build_root_system
from redpair.weights import add, scale, vec

IRREGULAR = "mu \\+ 2 rho is irregular"


def check_chamber(p, lam):
    regular = all(p.t_pair(lam, s) != 0 for s in p.delta_t)
    n_roots, m_roots, ch_t_n = split_roots(p, lam)
    assert (n_roots, m_roots, ch_t_n) == kernel_oracle.split_roots(p, lam)
    assert is_regular(p, lam) == regular
    if series_oracle.first_excess(ch_t_n, p.k_positive_multiset()) is None:
        assert compatible_parabolic(p, lam).minimal == regular
    else:
        with pytest.raises(ValueError, match="does not embed"):
            compatible_parabolic(p, lam)
    weights = scan_weights(_Condition2Search(p, lam, ch_t_n))
    assert weights == sorted(ch_t_n.support(), key=lambda b: (-p.t_pair(lam, b), b))
    return regular


def check_generic(p, mu):
    lam = add(mu, scale(2, p.rho))
    if check_chamber(p, lam):
        is_generic(p, mu)
    else:
        with pytest.raises(ValueError, match=IRREGULAR):
            is_generic(p, mu)


@pytest.mark.parametrize("name", ["A4", "B4", "C4", "D4"])
def test_sl2_pairs_of_the_sweep(name):
    g = build_root_system(name)
    for marks in itertools.product((0, 1, 2), repeat=g.rank):
        if not any(marks):
            continue
        p = make_sl2_pair(g, list(marks))
        for m in range(sl2_threshold(p) + 1):
            check_generic(p, vec(m))
        for lam in (vec(0), vec(-3), vec("1/2")):
            check_chamber(p, lam)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_levi_pairs_over_a_box(name):
    g = build_root_system(name)
    box = list(itertools.product(range(-2, 3), repeat=g.rank))
    irregular = 0
    for size in range(g.rank + 1):
        for nodes in itertools.combinations(range(1, g.rank + 1), size):
            p = make_levi_pair(g, set(nodes))
            for coords in box:
                mu = vec(*coords)
                if p.is_dominant_integral(mu):
                    check_generic(p, mu)
                irregular += not check_chamber(p, vec(*(c - 1 for c in coords)))
    assert irregular > 0
