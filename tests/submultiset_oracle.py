"""Exhaustive enumeration of submultisets, the oracle for the pruned
condition-2 search of ``redpair.genericity``."""

from typing import Iterator

from redpair.weights import Weight, WeightMultiset


def iter_submultisets(ms: WeightMultiset) -> Iterator[dict[Weight, int]]:
    """All nonempty submultisets, as weight -> multiplicity dicts."""
    support = ms.support()

    def rec(i: int, current: dict[Weight, int]) -> Iterator[dict[Weight, int]]:
        if i == len(support):
            if current:
                yield dict(current)
            return
        w = support[i]
        for n in range(ms.entries[w] + 1):
            if n:
                current[w] = n
            yield from rec(i + 1, current)
        current.pop(w, None)

    yield from rec(0, {})
