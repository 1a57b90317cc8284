"""Exact weight vectors and finite weight multisets.

Weights are tuples of Fractions.  Throughout the package a weight of the
big algebra is written in the simple-root basis of its Cartan dual, and a
weight of the small algebra lives in whatever coordinates the embedding
fixes; both are plain ``Weight`` tuples and all arithmetic is exact.

The package computes on int rows, weights times one common denominator:
``to_integers`` is the one way in, ``from_integers`` the one way back.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Collection, Iterable, Iterator, Mapping, Sequence, Union

Weight = tuple[Fraction, ...]

Rational = Union[int, str, Fraction]


def as_fraction(x: Rational) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string; floats are rejected."""
    if isinstance(x, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(x, (int, Fraction, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vec(*coords: Rational) -> Weight:
    return tuple(as_fraction(c) for c in coords)


def weight(coords: Iterable[Rational]) -> Weight:
    return tuple(as_fraction(c) for c in coords)


def fmt(x: Weight) -> str:
    """A weight for messages, coordinates as p/q: '[2, -1/2]'."""
    return "[" + ", ".join(str(a) for a in x) + "]"


def to_integers(a: Collection[Weight]) -> tuple[list[list[int]], int]:
    """The entries of the rows of a scaled by their common denominator D,
    as ints, and D."""
    den = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def from_integers(rows: Collection[Sequence[int]], den: int) -> tuple[Weight, ...]:
    """The weights row / den, in order, the inverse of ``to_integers``; each
    distinct coordinate is made a Fraction once."""
    values = {a: Fraction(a, den) for a in set().union(*rows)}
    return tuple([tuple(map(values.__getitem__, row)) for row in rows])


def check_rank(x: Weight, rank: int) -> None:
    """Refuse a weight whose length is not the rank."""
    if len(x) != rank:
        raise ValueError(f"expected a weight of rank {rank}, got length {len(x)}")


def zero(rank: int) -> Weight:
    return (Fraction(0),) * rank


def add(x: Weight, y: Weight) -> Weight:
    if len(x) != len(y):
        raise ValueError(f"weight ranks differ: {len(x)} vs {len(y)}")
    return tuple(a + b for a, b in zip(x, y))


def sub(x: Weight, y: Weight) -> Weight:
    if len(x) != len(y):
        raise ValueError(f"weight ranks differ: {len(x)} vs {len(y)}")
    return tuple(a - b for a, b in zip(x, y))


def neg(x: Weight) -> Weight:
    return tuple([-a for a in x])


def scale(c: Rational, x: Weight) -> Weight:
    f = as_fraction(c)
    return tuple(f * a for a in x)


class WeightMultiset:
    """A finite multiset of weights of a common rank.

    It is stored as ``integers``: each weight times one denominator D > 0,
    an int row (rows sort as the weights do), to its strictly positive
    multiplicity; and D.  ``entries``, the same map on weights, is formed
    on first use.  The rank must be given explicitly for the empty
    multiset.
    """

    def __init__(self, entries: Mapping[Weight, int] | Iterable[tuple[Weight, int]] = (),
                 rank: int | None = None):
        items = entries.items() if isinstance(entries, Mapping) else entries
        counts: dict[Weight, int] = {}
        for w, m in items:
            if m < 0:
                raise ValueError(f"negative multiplicity {m} for {fmt(w)}")
            if m == 0:
                continue
            counts[w] = counts.get(w, 0) + m
        ranks = {len(w) for w in counts}
        if len(ranks) > 1:
            raise ValueError(f"mixed weight ranks: {sorted(ranks)}")
        if ranks:
            inferred = ranks.pop()
            if rank is not None and rank != inferred:
                raise ValueError(f"declared rank {rank} but weights have rank {inferred}")
            self.rank = inferred
        else:
            if rank is None:
                raise ValueError("rank is required for an empty multiset")
            self.rank = rank
        rows, den = to_integers(counts)
        self.integers = dict(zip(map(tuple, rows), counts.values())), den

    @classmethod
    def from_rows(cls, rows: dict[tuple[int, ...], int], den: int, rank: int) -> WeightMultiset:
        """The weights row / den: distinct rows of this rank, positive counts."""
        ms = cls.__new__(cls)
        ms.integers, ms.rank = (rows, den), rank
        return ms

    @cached_property
    def entries(self) -> dict[Weight, int]:
        rows, den = self.integers
        return dict(zip(from_integers(rows, den), rows.values()))

    def size(self) -> int:
        """Total multiplicity."""
        return sum(self.integers[0].values())

    def support(self) -> list[Weight]:
        """Distinct weights in canonical (lexicographic) order."""
        return sorted(self.entries)

    def multiplicity(self, w: Weight) -> int:
        return self.entries.get(w, 0)

    def half_sum(self) -> Weight:
        """Half the multiplicity-weighted sum, in ints over 2 D."""
        rows, den = self.integers
        total = [sum([m * row[i] for row, m in rows.items()]) for i in range(self.rank)]
        return from_integers([total], 2 * den)[0]

    def items(self) -> Iterator[tuple[Weight, int]]:
        return iter(sorted(self.entries.items()))

    def __iter__(self) -> Iterator[Weight]:
        return iter(self.support())

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightMultiset):
            return NotImplemented
        return self.rank == other.rank and self.entries == other.entries

    def __repr__(self) -> str:
        body = ", ".join(f"{w}: {m}" for w, m in sorted(self.entries.items()))
        return f"WeightMultiset({{{body}}}, rank={self.rank})"

