"""Exact weight vectors and finite weight multisets.

Weights are tuples of Fractions.  Throughout the package a weight of the
big algebra is written in the simple-root basis of its Cartan dual, and a
weight of the small algebra lives in whatever coordinates the embedding
fixes; both are plain ``Weight`` tuples and all arithmetic is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Collection, Iterable, Iterator, Mapping, Union

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


class FractionTable(dict):
    """numerator -> Fraction(numerator, denominator), each built once, for
    turning integer-scaled coordinates back into weights."""

    def __init__(self, denominator: int):
        super().__init__()
        self.denominator = denominator

    def __missing__(self, numerator: int) -> Fraction:
        value = self[numerator] = Fraction(numerator, self.denominator)
        return value


def to_integers(a: Collection[Weight]) -> tuple[list[list[int]], int]:
    """The entries of the rows of a scaled by their common denominator D,
    as ints, and D."""
    den = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


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

    Entries map each weight to a strictly positive multiplicity.  The
    rank must be given explicitly for the empty multiset.  ``integers``
    is the same multiset as int rows over one denominator D > 0, which
    sort as the weights do; a multiset made ``from_rows`` forms its
    weights on first use, any other its rows.
    """

    def __init__(self, entries: Mapping[Weight, int] | Iterable[tuple[Weight, int]] = (),
                 rank: int | None = None):
        items = entries.items() if isinstance(entries, Mapping) else entries
        self.entries: dict[Weight, int] = {}
        for w, m in items:
            if m < 0:
                raise ValueError(f"negative multiplicity {m} for {fmt(w)}")
            if m == 0:
                continue
            self.entries[w] = self.entries.get(w, 0) + m
        ranks = {len(w) for w in self.entries}
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

    @classmethod
    def from_rows(cls, rows: dict[tuple[int, ...], int], den: int, rank: int) -> WeightMultiset:
        """The weights row / den: distinct rows of this rank, positive counts."""
        ms = cls.__new__(cls)
        ms.integers, ms.rank = (rows, den), rank
        return ms

    @cached_property
    def entries(self) -> dict[Weight, int]:     # of a multiset made from rows
        rows, den = self.integers
        fractions = FractionTable(den)
        return {tuple(map(fractions.__getitem__, row)): m for row, m in rows.items()}

    @cached_property
    def integers(self) -> tuple[dict[tuple[int, ...], int], int]:
        """Each weight times the common denominator D, an int row, to its count; and D."""
        rows, den = to_integers(self.entries)
        return dict(zip(map(tuple, rows), self.entries.values())), den

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
        return tuple([Fraction(sum([m * row[i] for row, m in rows.items()]), 2 * den)
                      for i in range(self.rank)])

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

