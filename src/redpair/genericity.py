"""Genericity of a k-type, decided exactly.

A dominant integral weight mu on the small side is generic when

  (1) t_pair(mu + 2 rho - rho_n, alpha) >= 0 for every alpha in the
      support of the positive k-roots, and
  (2) t_pair(mu + 2 rho - rho_S, rho_S) > 0 for every nonempty
      submultiset S of the small-side character of n,

where n is the nilradical attached to the grading weight mu + 2 rho.
The empty submultiset would make (2) unsatisfiable (its half-sum is
zero), so the quantifier deliberately runs over nonempty S only.

Condition (2) is the genericity condition of Penkov and Zuckerman,
"Generalized Harish-Chandra modules with generic minimal k-type", Asian
J. Math. 8 (2004).  It quantifies over exponentially many submultisets.

In rank one it is a single comparison.  Write lam = mu + 2 rho and
t_pair(x, y) = g x y with g > 0.  Every weight b of ch_t n pairs
strictly positively with lam, so every b has the sign of lam, and so
does s = rho_S for every nonempty S.  Then t_pair(lam - s, s) =
g s (lam - s) is <= 0 exactly when |s| >= |lam|.  Adding a copy to S
only increases |s|, so |s| is largest at S = ch_t n: condition (2)
holds iff t_pair(lam - rho_n, rho_n) > 0, and holds vacuously when
ch_t n is empty.  The witness needs no search either.  S fails iff the
absolute values of its copies sum to at least 2|lam|, so the smallest
failing size N is the least N whose N largest copies reach 2|lam|.
Among count vectors of size N, the first in branch order (weights by
decreasing |b|, the count at each index going 0, 1, 2, ...) is built
greedily, index by index: the smallest count that still leaves a
completion reaching 2|lam|, where the best completion takes the largest
remaining copies first.

In higher rank the search is a depth-first scan over multiplicity
vectors, ordered by decreasing pairing with lam, with an exact interval
bound that prunes any branch all of whose completions provably keep the
quadratic positive.  One such search answers both questions: whether a
violation exists, and, held to one exact size at a time for sizes
1, 2, ..., the smallest failing submultiset reported as the witness.

The scan runs in ints.  Write b_i = B_i / D, c = C / E and the form as
G / F, each over its least common denominator.  For S with counts n,
4 F D^2 E t_pair(c - rho_S, rho_S) = sum n_i cvals[i] - sum n_i n_j
pairs[i][j], with cvals[i] = 2 D B_i G C and pairs[i][j] = E B_i G B_j;
the partial sums and both bounds are carried in these units.  The scale
is positive, so every prune and every leaf has the sign it has in exact
rationals, and sorting by decreasing B_i G C is sorting by decreasing
t_pair(c, b_i): the same branches are cut and the same witness found.
The tests keep an exact-rational copy of the scan, an exhaustive
enumerator and the unpruned size-by-size scan as oracles of both paths.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .linalg import dot
from .parabolic import split_roots
from .reductive import ReductivePair
from .weights import Weight, WeightMultiset, add, scale, sub, to_integers


def norm2_shifted(p: ReductivePair, mu: Weight) -> Fraction:
    """Squared length of mu + 2 rho in the induced form."""
    shifted = add(mu, scale(2, p.rho))
    return p.t_pair(shifted, shifted)


class _Condition2Search:
    """Shared state for the scan over submultisets of ch_t n.

    Every weight of ch_t n pairs strictly positively with the grading
    weight c.  Rank one is answered in closed form; higher rank runs the
    pruned depth-first scan.
    """

    def __init__(self, p: ReductivePair, c: Weight, ms: WeightMultiset):
        self.p = p
        self.c = c
        rows, self._den = ms.integers
        (c_row,), self._c_den = to_integers([c])
        self._gram = p.t_gram_integers[0]
        self._gc = [dot(row, c_row) for row in self._gram]
        # Largest pairing B_i G C first: dominant-chamber weights fail fastest
        order = sorted(rows.items(), key=lambda e: (-dot(e[0], self._gc), e[0]))
        self.mults = [m for _, m in order]
        self._rows = [row for row, _ in order]    # the weights times _den

    def find_violation(self) -> bool:
        """True iff some nonempty submultiset S has t_pair(c - rho_S, rho_S) <= 0."""
        if self.p.rank_t == 1:
            # s = 2 _den rho_n, so t_pair(c - rho_n, rho_n) has the sign of
            # (2 _den c - s) s; s = 0 iff ch_t n is empty
            s = sum(m * row[0] for m, row in zip(self.mults, self._rows))
            return s != 0 and (2 * self._den * self.c[0] - s) * s <= 0
        return self._first_violation() is not None

    def minimal_witness(self) -> tuple[WeightMultiset, Weight]:
        """Smallest-size failing submultiset, first in canonical branch order.

        Rank one builds it greedily; higher rank runs the pruned search
        of find_violation, held to one exact size at a time for sizes
        1, 2, ...
        """
        if self.p.rank_t == 1:
            counts = self._rank_one_witness()
        else:
            counts = None
            for size in range(1, sum(self.mults) + 1):
                counts = self._first_violation(size)
                if counts is not None:
                    break
        if counts is None:
            raise AssertionError("minimal_witness called without a violation")
        ms = WeightMultiset.from_rows({row: n for row, n in zip(self._rows, counts) if n},
                                      self._den, self.p.rank_t)
        return ms, ms.half_sum()

    def _rank_one_witness(self) -> list[int] | None:
        """Multiplicity vector of the rank-one witness, None when there is
        no violation: S fails iff |2 rho_S| >= |2 c|, and the weights are
        sorted by decreasing absolute value.  The sums run in the int rows
        scaled by _den, against the least integer goal."""
        goal = math.ceil(2 * abs(self.c[0]) * self._den)
        sizes = [abs(row[0]) for row in self._rows]
        # prefix[j]: sum of the j largest copies; start[i]: copies before index i
        prefix = [0]
        start = [0]
        for a, m in zip(sizes, self.mults):
            for _ in range(m):
                prefix.append(prefix[-1] + a)
            start.append(start[-1] + m)
        size = next((n for n in range(1, len(prefix)) if prefix[n] >= goal), None)
        if size is None:
            return None
        # Lexicographically first counts of that size: at each index the
        # smallest count whose largest-first completion still reaches the goal.
        counts = []
        reached, need = 0, size
        for i, (a, m) in enumerate(zip(sizes, self.mults)):
            after = start[i + 1]
            n = next(n for n in range(min(m, need) + 1)
                     if need - n <= start[-1] - after
                     and reached + n * a + prefix[after + need - n] - prefix[after] >= goal)
            counts.append(n)
            reached += n * a
            need -= n
        return counts

    @cached_property
    def _tables(self) -> tuple[list[int], list[list[int]], list[int]]:
        """(cvals, pairs, q2) in the int units of the module docstring, q2[i]
        bounding sum n_a n_b pairs[a][b] over the count vectors on i..k-1."""
        k = len(self._rows)
        cvals = [2 * self._den * dot(row, self._gc) for row in self._rows]
        gb = [[dot(g, row) for g in self._gram] for row in self._rows]
        pairs = [[self._c_den * dot(a, b) for b in gb] for a in self._rows]
        q2 = [0] * (k + 1)
        for i in range(k - 1, -1, -1):
            m, row = self.mults[i], pairs[i]
            q2[i] = q2[i + 1] + m * (m * max(row[i], 0) + 2 * sum(
                [self.mults[j] * max(row[j], 0) for j in range(i + 1, k)]))
        return cvals, pairs, q2

    def _first_violation(self, size: int | None = None) -> list[int] | None:
        """Multiplicity vector of the first failing nonempty submultiset in
        branch order (the count at each index going 0, 1, 2, ...), of
        exactly size copies when size is given; None when there is none."""
        cvals, pairs, q2 = self._tables
        k = len(self._rows)
        counts = [0] * k
        dots = [0] * k             # sum_i n_i pairs[i][j]
        cs = ss = 0                # sum n_i cvals[i], sum n_i n_j pairs[i][j]
        placed = 0                 # copies in S
        remaining = [sum(self.mults[i:]) for i in range(k + 1)]   # copies at i..k-1

        def add_copy(i: int) -> None:
            nonlocal cs, ss, placed
            cs += cvals[i]
            ss += 2 * dots[i] + pairs[i][i]
            dots[:] = map(operator.add, dots, pairs[i])
            counts[i] += 1
            placed += 1

        def drop_copy(i: int) -> None:
            nonlocal cs, ss, placed
            placed -= 1
            counts[i] -= 1
            dots[:] = map(operator.sub, dots, pairs[i])
            ss -= 2 * dots[i] + pairs[i][i]
            cs -= cvals[i]

        def rec(i: int) -> bool:
            if placed == size or (size is None and i == k):
                return placed > 0 and cs - ss <= 0
            # Too few copies left to reach the size; this also ends every
            # branch at i == k, where nothing remains.
            if size is not None and remaining[i] < size - placed:
                return False
            # Interval bound: over every completion q of the current
            # partial sum, f is at least f(partial) + min <c - 2 rho, q>
            # - max |q|^2, each piece in the same int units.
            low = cs - ss - q2[i]
            for j in range(i, k):
                t = cvals[j] - 2 * dots[j]
                if t < 0:
                    low += self.mults[j] * t
            if low > 0:
                return False
            if rec(i + 1):
                return True
            top = self.mults[i] if size is None else min(self.mults[i], size - placed)
            for _ in range(top):
                add_copy(i)
                if rec(i + 1):
                    return True
            for _ in range(counts[i]):
                drop_copy(i)
            return False

        return counts if rec(0) else None


@dataclass(frozen=True)
class GenericityReport:
    holds: bool
    condition1_ok: bool
    condition2_ok: bool
    witness_root: Weight | None = None
    witness_submultiset: WeightMultiset | None = None
    witness_rho_s: Weight | None = None
    lam: Weight | None = None
    rho_n: Weight | None = None


def is_generic(p: ReductivePair, mu: Weight) -> GenericityReport:
    """Decide both genericity conditions for the k-type with highest
    weight mu; on failure the report carries a witness (a failing root
    for condition 1, a smallest failing submultiset for condition 2)."""
    defect = p.dominance_defect(mu)
    if defect is not None:
        raise ValueError(f"mu is not dominant integral: {defect}")
    lam = add(mu, scale(2, p.rho))
    n_roots, _, ch_t_n = split_roots(p, lam)
    if len(n_roots) != p.nonzero_restricted:
        raise ValueError(
            "mu + 2 rho is irregular: it pairs to zero with a restricted root, "
            "so no minimal parabolic is attached to it"
        )
    rho_n = ch_t_n.half_sum()

    condition1_ok = True
    witness_root = None
    shifted = sub(lam, rho_n)
    for alpha in p.k_positive_multiset().support():
        if p.t_pair(shifted, alpha) < 0:
            condition1_ok = False
            witness_root = alpha
            break

    search = _Condition2Search(p, lam, ch_t_n)
    witness_submultiset = None
    witness_rho_s = None
    condition2_ok = not search.find_violation()
    if not condition2_ok:
        witness_submultiset, witness_rho_s = search.minimal_witness()

    return GenericityReport(
        holds=condition1_ok and condition2_ok,
        condition1_ok=condition1_ok,
        condition2_ok=condition2_ok,
        witness_root=witness_root,
        witness_submultiset=witness_submultiset,
        witness_rho_s=witness_rho_s,
        lam=lam,
        rho_n=rho_n,
    )


def sl2_threshold(p: ReductivePair) -> int:
    """Closed-form genericity threshold for a rank-one subalgebra.

    Returns the integer T such that V(mu = m) is generic exactly when
    m + 1 >= T.  T is the half-sum of the positive restricted root
    values (the Weyl vector evaluated on the defining semisimple
    element); for a genuine semisimple element of a standard triple that
    value is an integer and is returned as-is, and for formal mark
    vectors with a half-integral value the floor is the unique integer
    making the prediction match the two genericity conditions at every
    natural m.  The sum runs over the int rows, the restricted values
    times the restriction's denominator D, so the floor is one // (2 D).
    """
    if p.rank_t != 1:
        raise ValueError(f"threshold needs a rank-one subalgebra, got rank {p.rank_t}")
    return sum(abs(a) for (a,) in p.restricted_integers) // (2 * p.restriction_integers[1])
