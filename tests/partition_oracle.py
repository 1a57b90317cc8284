"""Two memoized recursions for the vector partition function, the
oracles of the sweep in ``redpair.fundseries.PartitionCounter``.

``PartitionCounter`` runs in ``Fraction`` coordinates: every level is a
Gram product ``t_pair(grading, target)`` and every memo key a
``Fraction`` tuple.  ``IntegerCounter`` is the integer recursion that
``redpair.fundseries.PartitionCounter`` ran before the sweep, with the
same scaling, generator order and errors."""

from __future__ import annotations

import math
import operator

from redpair.linalg import mat_vec
from redpair.reductive import ReductivePair
from redpair.weights import Weight, WeightMultiset, fmt, sub, to_integers


def transpose(a):
    return tuple(zip(*a)) if a else ()


class PartitionCounter:
    """Vector partition function for a fixed generator multiset.

    count(target) is the number of ways to write target as an
    N-combination of the generators, a weight of multiplicity m acting
    as m independent generators (the coefficient of the target in
    prod (1 - e^beta)^(-mult beta)).  Every generator must pair
    strictly positively with the grading weight, which makes the
    memoized recursion terminate.
    """

    def __init__(self, p: ReductivePair, generators: WeightMultiset,
                 grading: Weight):
        self.p = p
        self.grading = grading
        self.support = sorted(generators.support(),
                              key=lambda b: (-p.t_pair(grading, b), b))
        self.mults = [generators.entries[b] for b in self.support]
        for b in self.support:
            if p.t_pair(grading, b) <= 0:
                raise ValueError(
                    f"generator {b} does not pair strictly positively with "
                    f"the grading weight {grading}"
                )
        self._memo: dict[tuple[Weight, int], int] = {}

    def count(self, target: Weight) -> int:
        return self._count(target, 0)

    def _count(self, target: Weight, i: int) -> int:
        level = self.p.t_pair(self.grading, target)
        if level < 0:
            return 0
        if level == 0:
            return 0 if any(target) else 1
        if i == len(self.support):
            return 0
        key = (target, i)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        beta, mult = self.support[i], self.mults[i]
        total = 0
        j = 0
        probe = target
        while self.p.t_pair(self.grading, probe) >= 0:
            total += math.comb(j + mult - 1, mult - 1) * self._count(probe, i + 1)
            probe = sub(probe, beta)
            j += 1
        self._memo[key] = total
        return total


class IntegerCounter:
    """The vector partition function by recursion over (point, generator
    index) states, in integer coordinates: the generators scaled by the
    least common denominator D of their coordinates, the level functional
    ell = t_gram . grading by its own denominator, largest level step
    first, and a weight of multiplicity m walked once with the binomial
    weight C(j + m - 1, m - 1) of j copies.  A target that is not
    integral after scaling by D counts 0."""

    def __init__(self, p: ReductivePair, generators: WeightMultiset,
                 grading: Weight):
        self.rank = p.rank_t
        if generators.rank != self.rank:
            raise ValueError(f"expected generators of rank {self.rank}, "
                             f"got rank {generators.rank}")
        self._check_rank(grading)
        (self._ell,), _ = to_integers([mat_vec(transpose(p.t_gram), grading)])
        support = generators.support()
        scaled, self._scale = to_integers(support)
        self._generators: list[tuple[tuple[int, ...], int, int]] = []
        for b, beta in zip(support, map(tuple, scaled)):
            step = self._level(beta)
            if step <= 0:
                raise ValueError(
                    f"generator {fmt(b)} does not pair strictly positively with "
                    f"the grading weight {fmt(grading)}"
                )
            self._generators.append((beta, step, generators.entries[b]))
        self._generators.sort(key=lambda g: -g[1])
        self._memo: dict[tuple[tuple[int, ...], int], int] = {}

    def _check_rank(self, x: Weight) -> None:
        if len(x) != self.rank:
            raise ValueError(f"expected a weight of rank {self.rank}, got length {len(x)}")

    def _level(self, x: tuple[int, ...]) -> int:
        return sum(a * b for a, b in zip(self._ell, x))

    def count(self, target: Weight) -> int:
        self._check_rank(target)
        scaled = [c * self._scale for c in target]
        if any(c.denominator != 1 for c in scaled):
            return 0
        x = tuple(c.numerator for c in scaled)
        return self._count(x, self._level(x), 0)

    def _count(self, x: tuple[int, ...], level: int, i: int) -> int:
        if level <= 0:
            return 1 if level == 0 and not any(x) else 0
        if i == len(self._generators):
            return 0
        key = (x, i)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        beta, step, mult = self._generators[i]
        total = 0
        j = 0
        while level >= 0:
            total += math.comb(j + mult - 1, mult - 1) * self._count(x, level, i + 1)
            x = tuple(map(operator.sub, x, beta))
            level -= step
            j += 1
        self._memo[key] = total
        return total
