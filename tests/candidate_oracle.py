"""Reference candidate enumeration for k-type tables, kept as a test oracle.

This is the original search of ``fundseries._candidate_ktypes``: a walk
over multiplicity vectors of the weights of n cap k-perp under a loose
Cauchy-Schwarz cap, followed by every Weyl image of every point.  It is
slow (it visits every path to a point and enumerates the whole small
Weyl group, as matrices from ``weyl_oracle``) but independent of the
reflections used by the library, so the two are compared in
``test_candidate_oracle.py``.
"""

from __future__ import annotations

from fractions import Fraction

from redpair.genericity import norm2_shifted
from redpair.linalg import mat_vec
from redpair.weights import Weight, add, sub, zero
from weyl_oracle import k_group


def walk_candidates(p, parab, e, cutoff: Fraction) -> list[Weight]:
    """Every dominant integral delta inside the cutoff ball of the form
    w(mu + rho + x) - rho, with x an N-combination of the weights of
    n cap k-perp whose lam-level obeys
        t_pair(lam, x) <= |t_pair(lam, rho + mu)| + sqrt(Q),
    Q = |lam|^2 (2 cutoff + 2 |rho|^2), tested by squaring."""
    lam = parab.lam
    mu_rho = add(e.mu, p.rho)
    c_shift = abs(p.t_pair(lam, mu_rho))
    q_bound = p.t_pair(lam, lam) * (2 * cutoff + 2 * p.t_pair(p.rho, p.rho))

    def within_cap(x: Weight) -> bool:
        d = p.t_pair(lam, x) - c_shift
        return d <= 0 or d * d <= q_bound

    supports = sorted(parab.ch_t_n_cap_kperp.support(),
                      key=lambda b: (-p.t_pair(lam, b), b))
    points: set[Weight] = set()

    def walk(i: int, x: Weight) -> None:
        if not within_cap(x):
            return
        if i == len(supports):
            points.add(x)
            return
        step = x
        while within_cap(step):
            walk(i + 1, step)
            step = add(step, supports[i])

    walk(0, zero(p.rank_t))

    candidates: set[Weight] = set()
    group = k_group(p)
    for x in points:
        base = add(mu_rho, x)
        for _, w in group:
            delta = sub(mat_vec(w, base), p.rho)
            if p.dominance_defect(delta) is not None:
                continue
            if norm2_shifted(p, delta) > cutoff:
                continue
            candidates.add(delta)
    return sorted(candidates, key=lambda d: (norm2_shifted(p, d), d))
