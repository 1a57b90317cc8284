"""The depth-first scan of condition 2 in exact rationals, the oracle for
the integer scan of ``redpair.genericity``.  It is the same pruned
branch-order search: every partial sum, table entry and bound is a
Fraction, so no scaling stands between it and the form t_pair.  It reads
the sorted weights, multiplicities and grading weight of a
``_Condition2Search`` and nothing else."""

from fractions import Fraction


def scan_weights(search):
    """The weights of a ``_Condition2Search`` in its order: its int rows
    over its denominator."""
    return [tuple(Fraction(a, search._den) for a in row) for row in search._rows]


def tables(search):
    """(cvals, pairs, q2) for the depth-first scan: t_pair(c, beta_i),
    t_pair(beta_i, beta_j), and per-suffix bounds q2[i] >= |q|^2 for
    every q built from weights i..k-1."""
    p = search.p
    weights = scan_weights(search)
    k = len(weights)
    cvals = [p.t_pair(search.c, b) for b in weights]
    pairs = [[p.t_pair(a, b) for b in weights] for a in weights]
    q2 = [Fraction(0)] * (k + 1)
    for i in range(k - 1, -1, -1):
        total = q2[i + 1]
        for a in range(i, k):
            for b in range(i, k):
                if a == i or b == i:
                    v = pairs[a][b]
                    if v > 0:
                        total += Fraction(search.mults[a] * search.mults[b]) * v / 4
        q2[i] = total
    return cvals, pairs, q2


def first_violation(search, size=None):
    """Multiplicity vector of the first failing nonempty submultiset in
    branch order (the count at each index going 0, 1, 2, ...), of
    exactly size copies when size is given; None when there is none."""
    cvals, pairs, q2 = tables(search)
    k = len(search.mults)
    counts = [0] * k
    dots = [Fraction(0)] * k   # t_pair(rho_S, beta_j)
    cs = Fraction(0)           # t_pair(c, rho_S)
    ss = Fraction(0)           # t_pair(rho_S, rho_S)
    placed = 0                 # copies in S
    remaining = [0] * (k + 1)  # copies available at indices i..k-1
    for i in range(k - 1, -1, -1):
        remaining[i] = remaining[i + 1] + search.mults[i]

    def add_copy(i):
        nonlocal cs, ss, placed
        cs += cvals[i] / 2
        ss += dots[i] + pairs[i][i] / 4
        for j in range(k):
            dots[j] += pairs[i][j] / 2
        counts[i] += 1
        placed += 1

    def drop_copy(i):
        nonlocal cs, ss, placed
        placed -= 1
        counts[i] -= 1
        for j in range(k):
            dots[j] -= pairs[i][j] / 2
        ss -= dots[i] + pairs[i][i] / 4
        cs -= cvals[i] / 2

    def rec(i):
        if placed == size or (size is None and i == k):
            return placed > 0 and cs - ss <= 0
        # Too few copies left to reach the size; this also ends every
        # branch at i == k, where nothing remains.
        if size is not None and remaining[i] < size - placed:
            return False
        # Interval bound: over every completion q of the current
        # partial sum, f is at least f(partial) + min <c - 2 rho, q>
        # - max |q|^2, all three pieces exact rationals.
        low = cs - ss - q2[i]
        for j in range(i, k):
            t = cvals[j] / 2 - dots[j]
            if t < 0:
                low += search.mults[j] * t
        if low > 0:
            return False
        if rec(i + 1):
            return True
        top = search.mults[i] if size is None else min(search.mults[i], size - placed)
        for _ in range(top):
            add_copy(i)
            if rec(i + 1):
                return True
        for _ in range(counts[i]):
            drop_copy(i)
        return False

    return counts if rec(0) else None
