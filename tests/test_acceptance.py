"""Acceptance suite: every criterion checked exactly, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line printed for each criterion.  All comparisons are exact; runtime
guards use wall-clock bounds.
"""

import functools
import json
import time
from itertools import product

from redpair.cli import main as cli_main
from redpair.fundseries import (
    PartitionCounter,
    inducing_module,
    kostant_weights,
    ktype_table,
    verify_minimal_ktype,
)
from redpair.genericity import is_generic, norm2_shifted, sl2_threshold
from redpair.parabolic import compatible_parabolic, is_regular, split_roots
from redpair.reductive import make_cartan_pair, make_levi_pair, make_sl2_pair
from redpair.rootsystem import build_root_system, weyl_group
from redpair.weights import WeightMultiset, add, scale, sub, vec, zero
from series_oracle import first_excess, minus
from submultiset_oracle import iter_submultisets

SL2_MATRIX_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")


def criterion(name):
    """Print one PASS/FAIL line per criterion, then let pytest record it."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            print(f"ACCEPTANCE {name}: PASS")
        return run
    return wrap


def conditions_brute_force(p, m):
    """Conditions (1) and (2) by full enumeration of submultisets."""
    mu = vec(m)
    lam = add(mu, scale(2, p.rho))
    _, _, ch_t_n = split_roots(p, lam)
    shifted = sub(lam, ch_t_n.half_sum())
    if any(p.t_pair(shifted, alpha) < 0
           for alpha in p.k_positive_multiset().support()):
        return False
    for entries in iter_submultisets(ch_t_n):
        rho_s = WeightMultiset(entries, rank=1).half_sum()
        if p.t_pair(sub(lam, rho_s), rho_s) <= 0:
            return False
    return True


def all_sl2_pairs():
    for name in SL2_MATRIX_TYPES:
        g = build_root_system(name)
        for labels in product((0, 1, 2), repeat=g.rank):
            if any(labels):
                yield name, labels, make_sl2_pair(g, list(labels))


@criterion("1 sl(3) principal threshold m >= 3")
def test_criterion_1_sl3_threshold():
    start = time.perf_counter()
    p = make_sl2_pair(build_root_system("A2"), [2, 2])
    for m in (0, 1, 2):
        assert not is_generic(p, vec(m)).holds
    for m in range(3, 11):
        assert is_generic(p, vec(m)).holds
    assert sl2_threshold(p) == 4
    assert time.perf_counter() - start < 1.0


@criterion("2 so(5) principal threshold m >= 6")
def test_criterion_2_so5_threshold():
    start = time.perf_counter()
    p = make_sl2_pair(build_root_system("B2"), [2, 2])
    for m in range(0, 6):
        assert not is_generic(p, vec(m)).holds
    for m in range(6, 13):
        assert is_generic(p, vec(m)).holds
    assert sl2_threshold(p) == 7
    assert time.perf_counter() - start < 1.0


@criterion("3 closed form agrees with conditions (1)+(2) on all mark vectors")
def test_criterion_3_closed_form_cross_check():
    start = time.perf_counter()
    pairs_checked = 0
    for name, labels, p in all_sl2_pairs():
        assert split_roots(p, vec(1))[2].size() <= 20   # desk-scale cap
        threshold = sl2_threshold(p)
        rho_n_value = sum(abs(p.restrict(r)[0]) for r in p.g.positive_roots) / 2
        if rho_n_value.denominator == 1:
            assert threshold == rho_n_value, (name, labels)
        for m in range(0, threshold + 6):
            closed = (m + 1) >= threshold
            brute = conditions_brute_force(p, m)
            lib = is_generic(p, vec(m)).holds
            assert closed == brute == lib, (name, labels, m)
        pairs_checked += 1
    # 3^rank - 1 nonzero vectors per algebra: 2+8+26+8+26+26+8
    assert pairs_checked == 104
    assert time.perf_counter() - start < 60.0


@criterion("4 structural identities rho_n = rho + rho_n_perp, s + r = |ch n|")
def test_criterion_4_structural_identities():
    cases = [p for _, _, p in all_sl2_pairs()]
    cases += [make_cartan_pair(build_root_system(n)) for n in ("A1", "A2", "B2")]
    cases += [
        make_levi_pair(build_root_system("A2"), {1}),
        make_levi_pair(build_root_system("B2"), {2}),
        make_levi_pair(build_root_system("A3"), {1, 3}),
        make_levi_pair(build_root_system("B3"), {1, 2}),
    ]
    grids = {
        1: [vec(m) for m in range(0, 7)],
        2: [vec(a, b) for a in range(0, 4) for b in range(0, 4)],
        3: [vec(a, b, c) for a in range(0, 3) for b in range(0, 3)
            for c in range(0, 3)],
    }
    checked = 0
    for p in cases:
        for mu in grids[p.rank_t]:
            if not p.is_dominant_integral(mu):
                continue
            lam = add(mu, scale(2, p.rho))
            if not is_regular(p, lam):
                continue
            try:
                parab = compatible_parabolic(p, lam)
            except ValueError:
                # formal mark vector without a weight-2 restricted root:
                # the n cap k split does not exist
                continue
            assert parab.rho_n == add(p.rho, parab.rho_n_perp)
            assert parab.s + parab.r == parab.ch_t_n.size()
            checked += 1
    assert checked > 300


@criterion("5 partition function equals exhaustive enumeration to level 40")
def test_criterion_5_partition_oracle():
    grading = vec(1)
    bound = 40
    seen = set()
    multisets = []
    for _, _, p in all_sl2_pairs():
        _, _, ch_t_n = split_roots(p, vec(1))
        for ms in (ch_t_n,
                   minus(ch_t_n, p.k_positive_multiset())
                   if first_excess(ch_t_n, p.k_positive_multiset()) is None else None):
            if ms is None or not len(ms):
                continue
            key = tuple(sorted((w[0], m) for w, m in ms.items()))
            if key in seen:
                continue
            seen.add(key)
            multisets.append((p, ms))
    assert len(multisets) > 20

    for p, ms in multisets:
        # exhaustive tally: expand multiplicities into independent slots and
        # visit every N-combination once, counting one solution per visit
        slots = []
        for w, m in ms.items():
            slots.extend([int(w[0])] * m)
        slots.sort(reverse=True)
        tally = [0] * (bound + 1)
        last = len(slots) - 1

        def rec(i, total):
            w = slots[i]
            if i == last:
                while total <= bound:
                    tally[total] += 1
                    total += w
                return
            while total <= bound:
                rec(i + 1, total)
                total += w

        rec(0, 0)
        counter = PartitionCounter(p, ms, grading)
        for target in range(0, bound + 1):
            assert counter.count(vec(target)) == tally[target], \
                (p.g.lie_type, sorted(ms.items()), target)


@criterion("6 minimal k-type properties across generic windows")
def test_criterion_6_minimal_ktype_property_suite():
    start = time.perf_counter()
    jobs = [("A2", [2, 2], range(3, 9)), ("B2", [2, 2], range(6, 11))]
    for name, labels, window in jobs:
        p = make_sl2_pair(build_root_system(name), labels)
        for m in window:
            mu = vec(m)
            assert is_generic(p, mu).holds
            lam = add(mu, scale(2, p.rho))
            parab = compatible_parabolic(p, lam)
            omega = sub(mu, scale(2, parab.rho_n_perp))
            e = inducing_module(p, parab, p.lift_weight(omega))
            assert e.mu == mu
            assert e.dim_e == 1
            cutoff = norm2_shifted(p, mu) + 100 * p.t_pair(p.rho, p.rho)
            table = ktype_table(p, parab, e, cutoff)
            assert table.entries[mu] == e.dim_e
            mu_norm = norm2_shifted(p, mu)
            for delta, mult in table.entries.items():
                assert mult >= 0
                if delta != mu:
                    assert norm2_shifted(p, delta) > mu_norm
    assert time.perf_counter() - start < 30.0


@criterion("7 explicit multiplicity table for the sl(3) pair at m = 3")
def test_criterion_7_explicit_table():
    p = make_sl2_pair(build_root_system("A2"), [2, 2])
    parab = compatible_parabolic(p, vec(5))
    e = inducing_module(p, parab, p.lift_weight(vec(-3)))
    table = ktype_table(p, parab, e, norm2_shifted(p, vec(11)))
    expected = {vec(3): 1, vec(5): 1, vec(7): 2, vec(9): 2, vec(11): 3}
    assert table.entries == expected
    assert all(delta[0] % 2 == 1 for delta in table.entries)


@criterion("8 Cartan-pair degeneration to a pure partition character")
def test_criterion_8_cartan_degeneration():
    p = make_cartan_pair(build_root_system("A1"))
    parab = compatible_parabolic(p, vec(1))
    e = inducing_module(p, parab, zero(1))
    cutoff = norm2_shifted(p, vec(9))
    table = ktype_table(p, parab, e, cutoff)
    assert (table.s, table.r) == (0, 1)
    assert table.entries[e.mu] == 1

    # independent oracle: enumerate mu + n alpha directly and count the
    # representations of n alpha as N-combinations of ch_t n = {alpha}
    expected = {}
    n = 0
    while True:
        delta = add(e.mu, scale(n, vec(1)))
        if norm2_shifted(p, delta) > cutoff:
            break
        expected[delta] = 1        # a single generator: always one way
        n += 1
    assert table.entries == expected


@criterion("9 Weyl machinery: orders, lengths, rank-one cohomology weights")
def test_criterion_9_weyl_machinery():
    a2 = build_root_system("A2")
    b2 = build_root_system("B2")
    assert len(weyl_group(a2)) == 6
    assert len(weyl_group(b2)) == 8
    for rs in (a2, b2):
        for w in weyl_group(rs):
            image = w.apply(rs.rho_tilde)
            inversions = sum(1 for beta in rs.positive_roots
                             if rs.pair(image, beta) < 0)
            assert inversions == w.length
    p = make_sl2_pair(a2, [2, 2])
    for d in (0, 1, 3, 6):
        assert kostant_weights(p, vec(d)) == [(0, vec(d)), (1, vec(-d - 2))]


@criterion("10 CLI determinism: byte-identical machine output")
def test_criterion_10_cli_determinism(tmp_path, capsys):
    jobs = {
        "fund.cfg": (
            "lie_type = A2\nk = sl2\nlabels = [2, 2]\n"
            "command = fundseries\nnu = -3\ncutoff = 169/8\n"
        ),
        "gen.cfg": (
            "lie_type = B2\nk = sl2\nlabels = [2, 2]\n"
            "command = generic-check\nmu = 7\n"
        ),
        "ver.cfg": (
            "lie_type = B2\nk = sl2\nlabels = [2, 2]\n"
            "command = verify\nnu = -6\ncutoff = 256/20\n"
        ),
    }
    for name, text in jobs.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        outputs = []
        for _ in range(2):
            code = cli_main(["--config", str(path), "--emit", "machine"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])   # well-formed structured output