"""The signed fold of ``ktype_table`` against the per-candidate Kostant sums
of ``table_oracle``, on every Levi subset of the rank-two and rank-three
types, on sl2 and Cartan pairs and on Levi pairs entered as explicit
pairs, in their own coordinates and in doubled ones, each at two cutoffs; against ``euler_multiplicity`` entry by entry;
and the size and the answer of the ball-pruned walk, up to a C3 table
whose whole Cauchy-Schwarz slab would not fit under the cap, with the
points outside the ball that the walk keeps and the fold must drop."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from redpair import fundseries
from redpair.cli import main
from redpair.fundseries import (euler_multiplicity, inducing_module, ktype_table,
                                series_parabolic)
from redpair.genericity import norm2_shifted
from redpair.parabolic import compatible_parabolic
from redpair.reductive import (
    make_cartan_pair,
    make_explicit_pair,
    make_levi_pair,
    make_sl2_pair,
)
from redpair.rootsystem import CapExceeded, build_root_system
from redpair.weights import add, scale, vec
from table_oracle import candidate_table, walk_points


def chamber(p):
    """Inducing data for nu = 0 with the chamber resolved as the CLI does."""
    return (p, *series_parabolic(p, (Fraction(0),) * p.g.rank))


def levi(lie, nodes):
    return chamber(make_levi_pair(build_root_system(lie), set(nodes)))


def sl2(lie, marks):
    return chamber(make_sl2_pair(build_root_system(lie), marks))


def cartan(lie):
    return chamber(make_cartan_pair(build_root_system(lie)))


def levi_as_explicit(lie, nodes):
    p = make_levi_pair(build_root_system(lie), set(nodes))
    return chamber(make_explicit_pair(p.g, p.restriction, list(p.k_simple_roots),
                                      list(p.k_coroot_functionals)))


def levi_doubled(lie, nodes):
    # the Levi pair in doubled small-side coordinates: the k-simple roots
    # have int entries and the coroot functionals the denominator 2
    p = make_levi_pair(build_root_system(lie), set(nodes))
    return chamber(make_explicit_pair(p.g, [scale(2, row) for row in p.restriction],
                                      [scale(2, s) for s in p.k_simple_roots],
                                      [scale("1/2", f) for f in p.k_coroot_functionals]))


def nongeneric_a2():
    # a chamber pinned by hand and an inducing weight below the threshold
    p = make_sl2_pair(build_root_system("A2"), [2, 2])
    parab = compatible_parabolic(p, vec(4))
    return p, parab, inducing_module(p, parab, p.lift_weight(vec(-4)))


LEVI = [
    pytest.param(lie, nodes, id=f"{lie}-levi-{''.join(map(str, nodes)) or 'none'}")
    for lie, rank in [("A2", 2), ("B2", 2), ("G2", 2), ("A3", 3), ("B3", 3), ("C3", 3)]
    for size in range(rank + 1)
    for nodes in itertools.combinations(range(1, rank + 1), size)
]

OTHER = [
    pytest.param(lambda: sl2("A2", [2, 2]), id="A2-principal"),
    pytest.param(lambda: sl2("B2", [2, 2]), id="B2-principal"),
    pytest.param(lambda: sl2("G2", [2, 2]), id="G2-principal"),
    pytest.param(lambda: sl2("A3", [2, 2, 2]), id="A3-principal"),
    pytest.param(lambda: sl2("A2", [1, 1]), id="A2-marks-11"),
    pytest.param(lambda: sl2("A3", [1, 0, 1]), id="A3-marks-101"),
    pytest.param(lambda: sl2("B3", [0, 1, 0]), id="B3-marks-010"),
    pytest.param(lambda: cartan("A2"), id="A2-cartan"),
    pytest.param(lambda: cartan("B2"), id="B2-cartan"),
    pytest.param(lambda: levi_as_explicit("B2", {1}), id="B2-levi-1-explicit"),
    pytest.param(lambda: levi_doubled("B2", {1}), id="B2-levi-1-doubled"),
    pytest.param(lambda: levi_doubled("A3", {1, 2}), id="A3-levi-12-doubled"),
    pytest.param(nongeneric_a2, id="A2-nongeneric"),
]


def assert_fold_matches_oracle(p, parab, e, extras):
    """The fold's table equals the oracle's, entry order and recorded norms
    included."""
    for extra in extras:
        cutoff = norm2_shifted(p, e.mu) + extra
        table = ktype_table(p, parab, e, cutoff)
        expected = candidate_table(p, parab, e, cutoff)
        assert table.entries == expected
        assert list(table.entries) == list(expected)
        assert table.norms == {delta: norm2_shifted(p, delta) for delta in expected}


@pytest.mark.parametrize("lie, nodes", LEVI)
def test_fold_matches_oracle_on_levi_pairs(lie, nodes):
    assert_fold_matches_oracle(*levi(lie, nodes), (10, 40))


@pytest.mark.parametrize("make", OTHER)
def test_fold_matches_oracle_on_sl2_cartan_and_explicit_pairs(make):
    assert_fold_matches_oracle(*make(), (40, 150))


@pytest.mark.parametrize("lie, nodes, extra", [("C3", (), 40), ("G2", (1,), 200),
                                               ("A2", (1,), 400)])
def test_walk_visits_the_oracle_points(monkeypatch, lie, nodes, extra):
    # the walk is the ball-pruned oracle's, point for point: it fits a cap
    # of exactly that many points, is refused by one fewer, and is smaller
    # than the whole Cauchy-Schwarz slab
    p, parab, e = levi(lie, nodes)
    cutoff = norm2_shifted(p, e.mu) + extra
    size = len(walk_points(p, parab, e, cutoff, ball_prune=True))
    assert size < len(walk_points(p, parab, e, cutoff))
    monkeypatch.setattr(fundseries, "MAX_TABLE_POINTS", size)
    ktype_table(p, parab, e, cutoff)
    monkeypatch.setattr(fundseries, "MAX_TABLE_POINTS", size - 1)
    with pytest.raises(CapExceeded, match=f"cap of {size - 1} lattice points"):
        ktype_table(p, parab, e, cutoff)


@pytest.mark.parametrize("lie, nodes, extra, outside, size", [("G2", (1,), 400, 366, 888),
                                                              ("C3", (), 40, 290, 434)])
def test_the_walk_keeps_points_outside_the_ball(lie, nodes, extra, outside, size):
    # the fold has no ball filter of its own, and relies on the final norm
    # test to drop what these points fold to; both tables are checked
    # against an oracle in this file, so that reliance stays exercised
    p, parab, e = levi(lie, nodes)
    cutoff = norm2_shifted(p, e.mu) + extra
    radius2 = cutoff - 3 * p.t_pair(p.rho, p.rho)
    points = walk_points(p, parab, e, cutoff, ball_prune=True)
    shifted = [add(add(e.mu, p.rho), x) for x in points]
    assert sum(p.t_pair(y, y) > radius2 for y in shifted) == outside
    assert len(points) == size


@pytest.mark.parametrize("lie, nodes, extra", [("G2", (1,), 400), ("B3", (1, 2), 200),
                                               ("C3", (2, 3), 300)])
def test_every_entry_is_its_euler_multiplicity(lie, nodes, extra):
    # the orthant-pruned count of all W_k-terms of a delta at once against
    # the ball-pruned fold
    p, parab, e = levi(lie, nodes)
    table = ktype_table(p, parab, e, norm2_shifted(p, e.mu) + extra)
    assert len(table.entries) > 40
    for delta, mult in table.entries.items():
        assert euler_multiplicity(p, parab, e, delta) == mult, delta


def test_c3_table_answers_inside_a_tenth_of_its_slab(monkeypatch, tmp_path, capsys):
    # its Cauchy-Schwarz slab holds 489,328 points, its ball 87,720; the
    # digest is that of the table computed over the whole slab
    config = tmp_path / "c3.cfg"
    config.write_text("lie_type = C3\nk = levi\nnodes = [2, 3]\ncommand = fundseries\n"
                      "nu = [0, 0, 0]\nnu_basis = fundamental\ncutoff = 3000\n",
                      encoding="utf-8")
    monkeypatch.setattr(fundseries, "MAX_TABLE_POINTS", 100_000)
    assert main(["--config", str(config), "--emit", "machine"]) == 0
    out = capsys.readouterr().out
    assert out.count('"delta"') == 1020
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "f194e381f6fbbbb02363aea6a8fb1505b09d256d621edd51eba31271a5aa345a"
