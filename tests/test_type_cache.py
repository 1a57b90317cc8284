"""The two per-process caches, of root systems (by type) and of root data
(the Cartan matrix, positive roots, Weyl vector and Weyl order of g and of
every k side, by simple roots and coroot functionals): shared builds equal
fresh ones, each datum is derived once and shared by every pair that has
it, refusals are never kept, the caches are bounded, and the order in
which jobs run cannot change any answer."""

import contextlib
import dataclasses
import io
import json

import pytest

from redpair import CapExceeded, LieType, RootSystem, build_root_system
from redpair import reductive, rootsystem
from redpair.cli import main

CACHES = (rootsystem._build_root_system, rootsystem.root_datum)

TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 7)]
         + [f"C{n}" for n in range(3, 7)] + [f"D{n}" for n in range(4, 7)]
         + ["E6", "E7", "E8", "F4", "G2", "A1xA1", "B2xG2"])


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def test_one_object_per_type():
    rs = build_root_system("B4")
    assert build_root_system(" B4") is rs
    assert build_root_system(LieType.parse("B4")) is rs
    assert build_root_system("A01") is build_root_system("A1")
    assert build_root_system("B4xA1") is not build_root_system("A1xB4")


@pytest.mark.parametrize("name", TYPES)
def test_shared_build_equals_a_fresh_one(name):
    shared = build_root_system(name)
    fresh = rootsystem._build_root_system.__wrapped__(LieType.parse(name))
    assert fresh is not shared
    for field in dataclasses.fields(RootSystem):
        assert getattr(shared, field.name) == getattr(fresh, field.name), field.name
    assert shared.positive_integers == tuple(
        tuple(int(c) for c in root) for root in shared.positive_roots)


def test_refusals_are_raised_on_every_call_and_never_kept():
    before = rootsystem._build_root_system.cache_info().currsize
    for _ in range(3):
        with pytest.raises(CapExceeded, match="^A20 has 210 positive roots"):
            build_root_system("A20")
        for bad in ("B1", "Q3", "A2x", ""):
            with pytest.raises(ValueError):
                build_root_system(bad)
    assert rootsystem._build_root_system.cache_info().currsize == before


def test_refused_k_data_is_raised_on_every_call_and_never_kept():
    g = build_root_system("A2")
    before = rootsystem.root_datum.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="positive off-diagonal Cartan entry"):
            reductive.make_explicit_pair(g, g.simple_roots, [(1, 0), (0, 1)],
                                         [(2, 1), (1, 2)])
    assert rootsystem.root_datum.cache_info().currsize == before


def test_caches_are_bounded():
    assert rootsystem._build_root_system.cache_info().maxsize == rootsystem.MAX_CACHED_TYPES
    assert rootsystem.root_datum.cache_info().maxsize == rootsystem.MAX_CACHED_DATA
    for cache in CACHES:
        assert 0 < cache.cache_info().maxsize < 10_000


def test_each_cartan_matrix_is_formed_once_per_root_datum(tmp_path):
    # the build derives the ambient datum and the pair the k one; the orbit
    # walks, the table's fold and the central character's fold read them
    clear_caches()
    path = tmp_path / "c3.cfg"
    path.write_text("lie_type = C3\nk = levi\nnodes = [2, 3]\ncommand = verify\n"
                    "nu_basis = fundamental\nnu = [-5, 0, 0]\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--config", str(path), "--emit", "machine"]) == 0
    g = build_root_system("C3")
    rootsystem.weyl_group(g)
    reductive.make_levi_pair(g, {2, 3}).k_weyl_group()
    assert rootsystem.root_datum.cache_info().misses == 2


def test_pairs_with_the_same_k_data_share_the_k_side():
    g = build_root_system("B4")
    first = reductive.make_sl2_pair(g, [2, 0, 0, 0])
    for marks in ([1, 0, 1, 0], [2, 2, 2, 2]):
        p = reductive.make_sl2_pair(g, marks)
        assert p.k_positive_roots is first.k_positive_roots and p.rho is first.rho
    levi = reductive.make_levi_pair(g, {1, 3})
    again = reductive.make_explicit_pair(g, g.simple_roots, levi.k_simple_roots,
                                         levi.k_coroot_functionals)
    assert again.k_positive_roots is levi.k_positive_roots


def test_one_datum_serves_g_and_every_k_side_that_has_it():
    # the sl2 k data are the same on every type; a full Levi's are g's own
    clear_caches()
    a4, b4 = build_root_system("A4"), build_root_system("B4")
    sl2_a4 = reductive.make_sl2_pair(a4, [2, 2, 2, 2])
    sl2_b4 = reductive.make_sl2_pair(b4, [0, 0, 0, 2])
    assert sl2_a4.k_positive_roots is sl2_b4.k_positive_roots
    assert sl2_a4.rho is sl2_b4.rho
    for g in (a4, b4, build_root_system("G2")):
        full = reductive.make_levi_pair(g, set(range(1, g.rank + 1)))
        assert full.k_positive_roots is g.positive_roots and full.rho is g.rho_tilde
    cartan = reductive.make_cartan_pair(a4)
    assert cartan.k_positive_roots == () and cartan.rho == (0, 0, 0, 0)
    # A4, B4, G2, the sl2 data and the empty data of the Cartan pair
    assert rootsystem.root_datum.cache_info().misses == 5


# the identity restriction of A1xA1 with the k data of G2 (finite type, but
# no isometry of the induced form; its datum is valid and kept) and of
# affine A1 (not of finite type; nothing kept)
G2_ON_A1XA1 = ([[1, 0], [0, 1]], [[2, -3], [-1, 2]],
               "coroot functional [2, -3] for k-simple root [1, 0] does not act by an "
               "isometry of the induced form", 1)
AFFINE_ON_A1XA1 = ([[1, 0], [0, 1]], [[2, -2], [-2, 2]],
                   "root closure exceeded its cap; the Cartan data is not of finite type", 0)


@pytest.mark.parametrize("simple, coroots, message, kept", [G2_ON_A1XA1, AFFINE_ON_A1XA1],
                         ids=["G2", "affine-A1"])
def test_k_data_is_refused_for_the_right_reason(tmp_path, simple, coroots, message, kept):
    clear_caches()
    g = build_root_system("A1xA1")
    before = rootsystem.root_datum.cache_info().currsize
    path = tmp_path / "k.cfg"
    path.write_text(f"lie_type = A1xA1\nk = explicit\nrestriction = [[1, 0], [0, 1]]\n"
                    f"k_simple_roots = {simple}\nk_coroots = {coroots}\n"
                    "command = pair-info\n", encoding="utf-8")
    for _ in range(2):
        with pytest.raises(ValueError) as refused:
            reductive.make_explicit_pair(g, g.simple_roots, simple, coroots)
        assert str(refused.value) == message
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["--config", str(path), "--emit", "machine"]) == 3
        assert out.getvalue() == "" and err.getvalue() == f"validation error: {message}\n"
    # a refusal is never kept, only a datum that passed its own checks
    assert rootsystem.root_datum.cache_info().currsize - before == kept


# ---------------------------------------------------------------------------
# job order

A2_FULL_LEVI = "lie_type = A2\nk = levi\nnodes = [1, 2]\ncommand = pair-info\n"
A2_EXPLICIT = ("lie_type = A2\nk = explicit\nrestriction = [[1, 0], [0, 1]]\n"
               "k_simple_roots = [[1, 0], [0, 1]]\nk_coroots = {}\ncommand = pair-info\n")


def sl2_check(lie: str, labels: str, m: int) -> str:
    return f"lie_type = {lie}\nk = sl2\nlabels = {labels}\ncommand = generic-check\nmu = {m}\n"


JOBS = [
    sl2_check("A4", "[2, 2, 2, 2]", 9), sl2_check("A4", "[2, 2, 2, 2]", 30),
    sl2_check("B4", "[2, 2, 2, 2]", 10), sl2_check("B4", "[2, 2, 2, 2]", 40),
    sl2_check("B4", "[0, 0, 0, 2]", 1), sl2_check("A4", "[1, 0, 0, 1]", 8),
    "lie_type = A2\nk = levi\nnodes = [1]\ncommand = fundseries\nnu = [0, 0]\ncutoff = 20\n",
    "lie_type = B2\nk = levi\nnodes = [2]\ncommand = verify\nnu = [1, 1]\ncutoff = 30\n",
    A2_FULL_LEVI,
    # the full Levi of A2 entered by hand, and the same k-simple roots with
    # coroots that pair like A1xA1 and act by no isometry (exit 3)
    A2_EXPLICIT.format("[[2, -1], [-1, 2]]"),
    A2_EXPLICIT.format("[[2, 0], [0, 2]]"),
    "lie_type = A2\nk = explicit\nrestriction = [[2, 2]]\nk_simple_roots = [[2]]\n"
    "k_coroots = [[1]]\ncommand = pair-info\n",
    "lie_type = A20\nk = cartan\ncommand = pair-info\n",
]


def run_jobs(paths, order, clear_each=False):
    results = {}
    for i in order:
        if clear_each:
            clear_caches()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--config", paths[i], "--emit", "both"])
        results[i] = (code, out.getvalue(), err.getvalue())
    return results


def test_job_order_cannot_change_answers(tmp_path):
    paths = []
    for i, text in enumerate(JOBS):
        path = tmp_path / f"job{i}.cfg"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    order = range(len(JOBS))
    clear_caches()
    forwards = run_jobs(paths, order)
    clear_caches()
    backwards = run_jobs(paths, reversed(order))
    alone = run_jobs(paths, order, clear_each=True)
    assert backwards == forwards
    assert alone == forwards

    codes = [forwards[i][0] for i in order]
    assert codes == [0] * 10 + [3, 0, 4]
    verdicts = {json.loads(forwards[i][1].split("--- machine ---\n")[1])["genericity"]["holds"]
                for i in range(6)}
    assert verdicts == {True, False}
    assert "does not act by an isometry" in forwards[10][2]
