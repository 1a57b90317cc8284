"""The unpruned size-by-size scan for the smallest failing submultiset of
condition 2, the oracle for the pruned witness search of
``redpair.genericity``.  It reads the sorted weights, multiplicities and
grading weight of a ``_Condition2Search`` and nothing else."""

from condition2_oracle import scan_weights
from redpair.weights import WeightMultiset, sub


def minimal_witness(search):
    """Smallest-size failing submultiset and its half-sum, first in
    canonical branch order; None when every submultiset passes."""
    for size in range(1, sum(search.mults) + 1):
        found = witness_of_size(search, size)
        if found is not None:
            return found
    return None


def witness_of_size(self, size: int):
    weights = scan_weights(self)
    k = len(weights)
    counts = [0] * k
    remaining = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        remaining[i] = remaining[i + 1] + self.mults[i]

    def rec(i: int, need: int):
        if need == 0:
            ms = WeightMultiset(
                {weights[j]: counts[j] for j in range(k) if counts[j]},
                rank=self.p.rank_t,
            )
            rho_s = ms.half_sum()
            diff = sub(self.c, rho_s)
            if self.p.t_pair(diff, rho_s) <= 0:
                return ms, rho_s
            return None
        if i == k or remaining[i] < need:
            return None
        for n in range(min(self.mults[i], need) + 1):
            counts[i] = n
            result = rec(i + 1, need - n)
            if result is not None:
                return result
        counts[i] = 0
        return None

    return rec(0, size)
