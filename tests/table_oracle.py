"""The k-type table as ``redpair.fundseries.ktype_table`` built it before
the signed fold: a ``Fraction`` walk for the candidate deltas, then one
Euler characteristic per candidate, read off the W_k-orbit of delta +
rho with one partition count per Weyl element.  Kept as the oracle of
the fold; it counts with the memoized recursion of ``partition_oracle``,
so that no part of it runs the sweep it checks."""

from __future__ import annotations

from fractions import Fraction

from kernel_oracle import fold_dominant
from partition_oracle import IntegerCounter
from redpair.fundseries import kostant_weights
from redpair.genericity import norm2_shifted
from redpair.weights import Weight, add, sub, zero


def walk_points(p, parab, e, cutoff: Fraction,
                ball_prune: bool = False) -> dict[Weight, Fraction]:
    """The N-combinations x of the weights of n cap k-perp whose lam-level
    t_pair(lam, mu + rho + x) is at most |lam| sqrt(R), R = cutoff -
    3 |rho|^2, tested squared, each with that level.  Each weight raises
    the level, so they are grown one support weight at a time.

    With ``ball_prune``, a point y = mu + rho + x with |y|^2 > R and
    t_pair(y, beta) >= 0 for every weight beta is neither kept nor walked
    on from: |y + x'|^2 >= |y|^2 for every N-combination x', so no point
    at or above y lies in the ball."""
    lam = parab.lam
    mu_rho = add(e.mu, p.rho)
    support = parab.ch_t_n_cap_kperp.support()
    radius2 = cutoff - 3 * p.t_pair(p.rho, p.rho)
    cap2 = p.t_pair(lam, lam) * radius2

    def beyond_the_ball(x: Weight) -> bool:
        y = add(mu_rho, x)
        return (p.t_pair(y, y) > radius2
                and all(p.t_pair(y, beta) >= 0 for beta in support))

    points: dict[Weight, Fraction] = {zero(p.rank_t): p.t_pair(lam, mu_rho)}
    for beta in support:
        step = p.t_pair(lam, beta)
        for x, level in list(points.items()):
            x, level = add(x, beta), level + step
            # a point already present has had (or will have) its own walk
            while ((level <= 0 or level * level <= cap2) and x not in points
                   and not (ball_prune and beyond_the_ball(x))):
                points[x] = level
                x, level = add(x, beta), level + step
    return points


def _candidate_ktypes(p, parab, e, cutoff: Fraction) -> list[Weight]:
    """Every dominant integral delta inside the cutoff ball that can carry
    a nonzero term: delta = w(mu + rho + x) - rho for a Weyl element w
    and an N-combination x of the weights of n cap k-perp.

    Such a delta has |mu + rho + x|^2 = |delta + rho|^2 <= R with
    R = cutoff - 3 |rho|^2: W_k acts by isometries, and
        |delta + 2 rho|^2 = |delta + rho|^2 + 2 <delta, rho> + 3 |rho|^2
    with <delta, rho> >= 0 for dominant delta.  So x is among the points
    of ``walk_points``.  One fold per point is complete: delta + rho is
    strictly dominant, hence the only dominant point of the W_k-orbit of
    mu + rho + x, which the simple-reflection fold reaches.
    """
    mu_rho = add(e.mu, p.rho)
    radius2 = cutoff - 3 * p.t_pair(p.rho, p.rho)
    candidates: set[Weight] = set()
    for x in walk_points(p, parab, e, cutoff):
        shifted = add(mu_rho, x)
        if p.t_pair(shifted, shifted) > radius2:
            continue
        delta = sub(fold_dominant(shifted, p.k_simple_roots, p.coroot_pairing),
                    p.rho)
        if p.dominance_defect(delta) is None and norm2_shifted(p, delta) <= cutoff:
            candidates.add(delta)
    return sorted(candidates, key=lambda d: (norm2_shifted(p, d), d))


def candidate_table(p, parab, e, cutoff) -> dict[Weight, int]:
    """The nonzero Euler multiplicities of the candidates, each a full
    Kostant sum over W_k, with one partition counter for all of them."""
    counter = IntegerCounter(p, parab.ch_t_n_cap_kperp, parab.lam)
    entries: dict[Weight, int] = {}
    for delta in _candidate_ktypes(p, parab, e, Fraction(cutoff)):
        value = e.dim_e * sum((-1) ** length * counter.count(sub(w_weight, e.mu))
                              for length, w_weight in kostant_weights(p, delta))
        if value != 0:
            entries[delta] = value
    return entries
