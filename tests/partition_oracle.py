"""The vector partition function in ``Fraction`` coordinates: every level
is a Gram product ``t_pair(grading, target)`` and every memo key a
``Fraction`` tuple.  This is independent of the integer recursion of
``redpair.fundseries.PartitionCounter`` and serves as its oracle."""

from __future__ import annotations

import math

from redpair.reductive import ReductivePair
from redpair.weights import Weight, WeightMultiset, is_zero, sub


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
            return 1 if is_zero(target) else 0
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
