"""The integer chamber path against its ``Fraction`` oracle.

``series_parabolic``, and through it ``compatible_parabolic`` and
``inducing_module``, is compared with ``series_oracle`` field by field,
error message by error message, on every Levi and sl2 pair of A2, B2,
G2, A3, B3 and C3, and on explicit pairs whose restriction has a
denominator, over a 4^rank box of fundamental nu: seeded at the
restricted Weyl vector, and pinned at a lambda of mixed signs and at 0
(irregular, and where k has roots the embedding fails too).  The
parabolic document is checked against the serialized oracle fields, and
the tables of the rank-two answers against ``table_oracle``."""

import itertools
from fractions import Fraction

import pytest

import series_oracle
from kernel_oracle import fold_dominant
from redpair import cli, fundseries, parabolic
from redpair.fundseries import (infinitesimal_character, inducing_module, ktype_table,
                                series_parabolic)
from redpair.genericity import norm2_shifted
from redpair.parabolic import compatible_parabolic
from redpair.reductive import make_explicit_pair, make_levi_pair, make_sl2_pair
from redpair.rootsystem import build_root_system
from redpair.weights import add, vec, zero
from table_oracle import candidate_table

FIELDS = ("lam", "n_roots", "m_roots", "ch_t_n", "ch_t_n_cap_k", "ch_t_n_cap_kperp",
          "rho_n", "rho_n_perp", "s", "r", "minimal")


def pairs(g):
    # a restriction over 2, so that the int rows have a denominator
    half = [[Fraction(1, 2)] * g.rank]
    yield make_explicit_pair(g, half, [], [])
    if g.rank == 2 and g.gram[0][0] == g.gram[1][1]:    # A2: the principal sl2, halved
        yield make_explicit_pair(g, half, [vec(1)], [vec(2)])
    for size in range(g.rank + 1):
        for nodes in itertools.combinations(range(1, g.rank + 1), size):
            yield make_levi_pair(g, set(nodes))
    for marks in itertools.product((0, 1, 2), repeat=g.rank):
        if any(marks):
            yield make_sl2_pair(g, list(marks))


def outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


def module(e):
    """The fields of an InducingModule, as the oracle gives them."""
    return e if isinstance(e, (str, tuple)) else (e.nu, e.omega, e.dim_e, e.mu)


def assert_same_parabolic(p, parab, expected):
    for name in FIELDS:
        assert getattr(parab, name) == getattr(expected, name), name
    assert parab.m_positive_roots() == expected.m_positive_roots()
    doc = cli._parabolic_doc(p, parab)
    for name in FIELDS[3:6] + ("rho_n", "rho_n_perp"):
        assert doc[name] == cli._ser(getattr(expected, name)), name
    assert doc["n_roots"] == cli._ser(sorted(expected.n_roots))
    assert doc["m_positive_roots"] == cli._ser(expected.m_positive_roots())


@pytest.mark.parametrize("lie", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_series_parabolic_matches_the_fraction_oracle(lie):
    g = build_root_system(lie)
    box = [g.from_fundamental(vec(*c)) for c in itertools.product(range(-2, 2), repeat=g.rank)]
    answered = refused = 0
    for p in pairs(g):
        mixed = tuple(Fraction((-1) ** i * (i + 1)) for i in range(p.rank_t))
        for nu in box:
            for lam in (None, mixed) if nu != box[0] else (None, mixed, zero(p.rank_t)):
                got = outcome(lambda: series_parabolic(p, nu, lam))
                expected = outcome(lambda: series_oracle.series_parabolic(p, nu, lam))
                if isinstance(expected, str):
                    assert got == expected
                    refused += 1
                    continue
                (parab, e), (oracle_parab, oracle_e) = got, expected
                assert_same_parabolic(p, parab, oracle_parab)
                assert module(e) == oracle_e
                assert infinitesimal_character(g, e) == fold_dominant(
                    add(nu, g.rho_tilde), g.simple_roots, g.coroot_pairing)
                if g.rank == 2 and lam is None:
                    cutoff = norm2_shifted(p, e.mu) + 12
                    table = ktype_table(p, parab, e, cutoff)
                    assert table.entries == candidate_table(p, parab, e, cutoff)
                    assert table.norms == {d: norm2_shifted(p, d) for d in table.entries}
                answered += 1
    assert answered and refused


@pytest.mark.parametrize("lie", ["A2", "B2", "G2", "A3"])
def test_compatible_parabolic_and_inducing_module_match_the_oracle(lie):
    # every weight of a small box, chambers of every sign and irregular ones
    g = build_root_system(lie)
    for p in pairs(g):
        for coords in itertools.product(range(-2, 3), repeat=p.rank_t):
            lam = vec(*coords)
            got = outcome(lambda: compatible_parabolic(p, lam))
            expected = outcome(lambda: series_oracle.compatible_parabolic(p, lam))
            if isinstance(expected, str):
                assert got == expected
                continue
            assert_same_parabolic(p, got, expected)
            for nu in (zero(g.rank), g.rho_tilde, vec(*([-1] * g.rank))):
                assert (module(outcome(lambda: inducing_module(p, got, nu)))
                        == outcome(lambda: series_oracle.inducing_module(p, expected, nu)))


def test_a_converged_job_splits_the_roots_once_per_chamber_weight(monkeypatch):
    calls = []
    split = parabolic.split_roots

    def spy(p, lam):
        calls.append(lam)
        return split(p, lam)
    monkeypatch.setattr(parabolic, "split_roots", spy)
    monkeypatch.setattr(fundseries, "split_roots", spy)
    for lie, nodes in (("A2", {1}), ("B3", {1, 2}), ("C3", {2, 3})):
        g = build_root_system(lie)
        p = make_levi_pair(g, nodes)
        calls.clear()
        parab, _ = series_parabolic(p, zero(g.rank))
        assert calls == [p.restrict(g.rho_tilde), parab.lam]
