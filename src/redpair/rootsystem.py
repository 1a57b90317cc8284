"""Root systems of semisimple Lie algebras with exact rational arithmetic.

Weights are coordinate tuples in the simple-root basis.  The invariant
bilinear form is normalized so that every long root of every simple
component has squared length 2.  Its Gram matrix on the simple roots comes
from Dynkin data by one rule (``_simple_gram``), the coroot functionals
x -> 2 (x, alpha_j) / (alpha_j, alpha_j) from it, and from those the
positive roots, the Weyl vector, Weyl groups and the dimension formula.

Root data, simple roots with coroot functionals (those of g, or the
k-simple roots of a pair), are derived once per process by ``root_datum``:
the checked int Cartan matrix, the positive roots (its closure under
raising reflections), the Weyl vector and the Weyl order.  The build of a
type, every k side of a pair and every reflection read it.  Weyl groups
are never built as matrices.  One breadth-first walk over the simple
reflections, acting on the orbit of a strictly dominant weight, yields
every element as a reduced word together with its image of that weight;
``weyl_group``, the small Weyl group of a pair and the Kostant weights of
a k-type are all read off that walk, which runs in integer coroot
coordinates.  One int fold, ``weyl_fold``, takes a point to the dominant
chamber, for the k-type table and the central character.  The walk counts
nothing: its two callers, ``reflection_orbit`` and ``enumerate_reflection_group``,
read the exact order off the root heights (``weyl_group_order``) and refuse
a group over MAX_WEYL elements (``refuse_weyl_order``) before it starts.
Its points, the roots and the Weyl vector come back from int rows through
``weights.from_integers``.

``build_root_system`` builds each type once per process: it refuses a
type over MAX_POSITIVE_ROOTS roots on every call, then returns the build
kept by an LRU cache of MAX_CACHED_TYPES types, keyed on the parsed
``LieType`` (so "A01" and "A1" share one entry).  A ``RootSystem`` is
frozen and made of tuples, so every caller may share it; a build that
raises is not kept.  It carries the positive roots of its datum twice, as
weights and as int tuples, and its inverse Gram matrix in ints, derived
once.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from .linalg import Matrix, dot, mat_vec, solve, solve_integers
from .weights import Weight, check_rank, fmt, from_integers, to_integers

_FAMILY_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

_POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

MAX_POSITIVE_ROOTS = 200   # build_root_system refuses more (E8 has 120)
MAX_WEYL = 1_000_000       # no Weyl group over this order is walked (|W(E7)| = 2903040)
MAX_CACHED_TYPES = 64      # root systems kept built by build_root_system
MAX_CACHED_DATA = 320      # root data, of g and of every k side, kept derived by root_datum


class CapExceeded(RuntimeError):
    """An enumeration would exceed its configured resource cap."""


def refuse_weyl_order(order: int, cap: int = MAX_WEYL) -> None:
    """Raise CapExceeded if a Weyl group of this order exceeds the cap."""
    if order > cap:
        raise CapExceeded(f"reflection group exceeds the cap of {cap} elements")


@dataclass(frozen=True)
class LieType:
    """A product of simple types, e.g. LieType.parse("B2") or ("A1xA1")."""

    components: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("empty Lie type")
        for family, rank in self.components:
            check = _FAMILY_RANKS.get(family)
            if check is None:
                raise ValueError(f"unknown family {family!r}")
            if not check(rank):
                raise ValueError(f"invalid rank {rank} for family {family}")

    @staticmethod
    def parse(text: str) -> "LieType":
        parts = text.strip().split("x")
        components = []
        for part in parts:
            m = re.fullmatch(r"([A-G])(\d+)", part.strip())
            if m is None:
                raise ValueError(f"cannot parse Lie type component {part!r}")
            components.append((m.group(1), int(m.group(2))))
        return LieType(tuple(components))

    @property
    def rank(self) -> int:
        return sum(rank for _, rank in self.components)

    def __str__(self) -> str:
        return "x".join(f"{fam}{rank}" for fam, rank in self.components)


def _simple_gram(lie_type: LieType) -> list[list[Fraction]]:
    """Gram matrix of the simple roots from the Dynkin diagram of each
    component (Bourbaki numbering), long roots of squared length 2: an edge
    i -- j carries -max(|alpha_i|^2, |alpha_j|^2) / 2, so -1 for a double or
    triple bond and -|alpha|^2 / 2 for a single one."""
    lengths, edges = [], []
    for family, n in lie_type.components:
        chain = [(i, i + 1) for i in range(n - 1)]
        if family == "D":
            chain[-1] = (n - 3, n - 1)
        elif family == "E":     # the chain 1-3-4-...-n, with node 2 on node 4
            chain[:2] = [(0, 2), (1, 3)]
        edges += [(len(lengths) + i, len(lengths) + j) for i, j in chain]
        lengths += {"B": [2] * (n - 1) + [1], "C": [1] * (n - 1) + [2], "F": [2, 2, 1, 1],
                    "G": [Fraction(2, 3), 2]}.get(family, [2] * n)
    g = [[Fraction(0)] * len(lengths) for _ in lengths]
    for i, v in enumerate(lengths):
        g[i][i] = Fraction(v)
    for i, j in edges:
        g[i][j] = g[j][i] = Fraction(max(lengths[i], lengths[j]), -2)
    return g


@dataclass(frozen=True)
class RootSystem:
    lie_type: LieType
    gram: Matrix
    cartan: tuple[tuple[int, ...], ...]   # cartan[i][j] = <alpha_i, alpha_j-coroot>
    coroot_functionals: tuple[Weight, ...]  # x -> <x, alpha_j-coroot>, column j of cartan
    simple_roots: tuple[Weight, ...]
    positive_roots: tuple[Weight, ...]
    positive_integers: tuple[tuple[int, ...], ...]  # the same, as int tuples
    rho_tilde: Weight

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    @cached_property
    def gram_inverse(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """G^{-1} as int rows over one denominator, and that denominator."""
        rows, den = solve_integers(self.gram, self.simple_roots)
        return tuple(map(tuple, rows)), den

    @cached_property
    def gram_integers(self) -> tuple[list[list[int]], int]:
        """G as int rows over one common denominator, and that denominator."""
        return to_integers(self.gram)

    def pair(self, x: Weight, y: Weight) -> Fraction:
        """The invariant form, evaluated in simple-root coordinates."""
        n = self.rank
        if len(x) != n or len(y) != n:
            raise ValueError(f"expected weights of rank {n}, got {len(x)} and {len(y)}")
        return dot(x, mat_vec(self.gram, y))

    def coroot_pairing(self, x: Weight, i: int) -> Fraction:
        check_rank(x, self.rank)
        return dot(self.coroot_functionals[i], x)

    def from_fundamental(self, coords: Weight) -> Weight:
        """Convert fundamental-weight coordinates to simple-root coordinates.

        If x = sum c_i omega_i then <x, alpha_j-coroot> = c_j, so the
        simple-root coordinates solve C^T x = c for the Cartan matrix C.
        """
        if len(coords) != self.rank:
            raise ValueError("coordinate length does not match rank")
        return tuple(x for (x,) in solve(self.coroot_functionals, [(c,) for c in coords]))


def weyl_fold(c: list[int], cartan) -> tuple[list[int], int]:
    """Fold a point into the dominant chamber by simple reflections: while a
    coroot coordinate c_i = <y, sigma_i-coroot> (in any one integer scale) is
    negative, reflect in sigma_i, c -> c - c_i cartan[i].  Returns the
    displacement a, in that scale, with the dominant point y - sum_i a_i
    sigma_i, and the number of reflections, which is the number of positive
    roots that pair negatively with y, so the length of the folding element."""
    a, count = [0] * len(c), 0
    while True:
        for i, ci in enumerate(c):
            if ci < 0:
                a[i] += ci
                c = [u - ci * v for u, v in zip(c, cartan[i])]
                count += 1
                break
        else:
            return a, count


def _root_closure(a, max_roots: int = MAX_POSITIVE_ROOTS) -> list[tuple[int, ...]]:
    """The positive roots of a generalized Cartan matrix a (a_ij = 0 exactly
    when a_ji = 0; the callers check it): the simple roots closed under
    raising reflections.  A root beta carries its pairings <beta,
    alpha_j-coroot>, alpha_i starting with row i of a; a negative pairing c
    at i gives the root s_i beta = beta - c alpha_i, with pairings minus
    c a[i].  Every positive root is reached: one that is not simple has
    (beta, alpha_i) > 0 for some i, and s_i beta is a lower positive root
    with a negative pairing at i (Humphreys, Introduction to Lie Algebras
    and Representation Theory, 10.2-10.3).  Off finite type the real roots
    W.Pi are infinite (Kac, Infinite-dimensional Lie Algebras, 5.1), so the
    max_roots cap fires.  Roots come out as int tuples in simple-root
    coordinates, sorted by height and then lexicographically.
    """
    rank = len(a)
    roots = {tuple(int(j == i) for j in range(rank)): row for i, row in enumerate(a)}
    todo = list(roots)
    while todo:
        beta = todo.pop()
        pairings = roots[beta]
        for i, c in enumerate(pairings):
            if c < 0 and (raised := beta[:i] + (beta[i] - c,) + beta[i + 1:]) not in roots:
                roots[raised] = [p - c * q for p, q in zip(pairings, a[i])]
                todo.append(raised)
                if len(roots) > max_roots:
                    raise ValueError("root closure exceeded its cap; the Cartan data is "
                                     "not of finite type")
    return sorted(roots, key=lambda r: (sum(r), r))


def weyl_group_order(positive_roots) -> int:
    """|W| = prod (e_i + 1) over the exponents e_i, read off the heights of
    the positive roots, given in simple-root coordinates: N_h - N_{h+1}
    exponents equal h, where N_h counts the roots of height h (Kostant,
    Amer. J. Math. 81 (1959); Humphreys, Reflection Groups and Coxeter
    Groups, 3.20).  Products need no special case, and no roots give 1."""
    heights, order = Counter(map(sum, positive_roots)), 1
    for h, count in heights.items():
        order *= (h + 1) ** (count - heights[h + 1])
    return int(order)


class RootDatum(NamedTuple):
    """What every answer reads off root data (see ``root_datum``)."""

    cartan: tuple[tuple[int, ...], ...]   # cartan[i][j] = <sigma_i, sigma_j-coroot>
    simple_integers: tuple[tuple[tuple[int, ...], ...], int]   # int rows, denominator
    functional_integers: tuple[tuple[tuple[int, ...], ...], int]
    closure: tuple[tuple[int, ...], ...]   # positive roots in simple-root coordinates
    positive_roots: tuple[Weight, ...]     # the same, as weights
    rho: Weight                            # their half-sum; () when there are none
    weyl_order: int


def _images(rows, den: int, vectors) -> tuple[tuple[tuple[int, ...], ...], tuple[Weight, ...]]:
    """The matrix rows / den times every int vector v, in order: the int
    images rows . v, and their weights."""
    scaled = tuple([tuple([dot(row, v) for row in rows]) for v in vectors])
    return scaled, from_integers(scaled, den)


@lru_cache(maxsize=MAX_CACHED_DATA)
def root_datum(simple_roots: tuple[Weight, ...], functionals: tuple[Weight, ...]) -> RootDatum:
    """Everything derived from root data, once per process for each (simple
    roots, coroot functionals); the LRU cache holds tuples and keeps nothing
    from data that is refused.  The Cartan matrix, entry (i, j) = <sigma_i,
    sigma_j-coroot>, must be a generalized Cartan matrix: integers, 2 on the
    diagonal, no positive entry off it, and entry (i, j) zero exactly when
    entry (j, i) is.  Its closure must stop within MAX_POSITIVE_ROOTS roots,
    as every finite type inside a root system of the cap does.  The roots
    come out by height, then lexicographically in simple-root coordinates,
    so a Levi subset's roots keep their order among the roots of g."""
    (sigmas, sigma_den), (funs, fun_den) = to_integers(simple_roots), to_integers(functionals)
    q = sigma_den * fun_den
    cartan = [[dot(s, f) for f in funs] for s in sigmas]
    for i, row in enumerate(cartan):
        for j, v in enumerate(row):
            if v % q:
                raise ValueError(f"non-integral coroot pairing {Fraction(v, q)} between k-simple "
                                 f"roots {fmt(simple_roots[i])} and {fmt(simple_roots[j])}")
            if i == j and v != 2 * q:
                raise ValueError(f"k-simple root {fmt(simple_roots[i])} pairs to {v // q} != 2 "
                                 "with its own coroot")
            if i != j and v > 0:
                raise ValueError("positive off-diagonal Cartan entry in k root data")
    for i, row in enumerate(cartan):
        for j, v in enumerate(row):
            if v == 0 != cartan[j][i]:
                raise ValueError(f"k Cartan entry ({i + 1}, {j + 1}) is 0 but ({j + 1}, {i + 1}) "
                                 f"is {cartan[j][i] // q}: not a generalized Cartan matrix")
    cartan = tuple(tuple([v // q for v in row]) for row in cartan)
    closure = tuple(_root_closure(cartan))
    columns, n = list(zip(*sigmas)), len(sigmas)
    if sigmas == [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]:
        positive = from_integers(closure, sigma_den)   # unit vectors map each root to itself
    else:
        _, positive = _images(columns, sigma_den, closure)
    total = [sum(column) for column in zip(*closure)]
    (rho,) = from_integers([[dot(row, total) for row in columns]], 2 * sigma_den)
    return RootDatum(cartan, (tuple(map(tuple, sigmas)), sigma_den),
                     (tuple(map(tuple, funs)), fun_den), closure, positive, rho,
                     weyl_group_order(closure))


def _positive_root_count(lie_type: LieType) -> int:
    return sum(_POSITIVE_ROOT_COUNT[f](n) for f, n in lie_type.components)


def build_root_system(t: LieType | str) -> RootSystem:
    """Construct the root system of a semisimple type, exactly, once per
    process for each type (see the module docstring)."""
    lie_type = LieType.parse(t) if isinstance(t, str) else t
    expected = _positive_root_count(lie_type)
    if expected > MAX_POSITIVE_ROOTS:
        raise CapExceeded(f"{lie_type} has {expected} positive roots, over the cap of "
                          f"{MAX_POSITIVE_ROOTS}")
    return _build_root_system(lie_type)


@lru_cache(maxsize=MAX_CACHED_TYPES)
def _build_root_system(lie_type: LieType) -> RootSystem:
    rank, gram = lie_type.rank, _simple_gram(lie_type)
    simple = from_integers([[int(j == i) for j in range(rank)] for i in range(rank)], 1)
    g, _ = to_integers(gram)     # functional j: x -> 2 (x, alpha_j) / (alpha_j, alpha_j)
    functionals = from_integers([[2 * g[i][j] // g[j][j] for i in range(rank)]
                                 for j in range(rank)], 1)
    datum, expected = root_datum(simple, functionals), _positive_root_count(lie_type)
    if len(datum.closure) != expected:
        raise AssertionError(f"positive root closure for {lie_type} produced "
                             f"{len(datum.closure)} roots, expected {expected}")
    return RootSystem(lie_type, tuple(tuple(row) for row in gram), datum.cartan, functionals,
                      simple, datum.positive_roots, datum.closure, datum.rho)


def _coroot_walk(x: Weight, functionals: tuple[Weight, ...], cartan):
    """The breadth-first walk of ``reflection_orbit`` in integer coroot
    coordinates, reflecting by the rows of the Cartan matrix of the root
    datum.  Returns (scale, nodes), each node (word, a) with w x = x -
    sum_i a_i sigma_i / scale.  It walks the whole group: its two callers
    refuse one over MAX_WEYL elements by its order first."""
    if functionals:
        check_rank(x, len(functionals[0]))
    pairings = [dot(f, x) for f in functionals]
    for i, c in enumerate(pairings):
        if c <= 0:
            raise ValueError(f"orbit base point {fmt(x)} is not strictly dominant: "
                             f"coroot pairing {c} at simple root {i + 1}")
    (start,), scale = to_integers([pairings])
    nodes = [((), (0,) * len(functionals))]
    level = {tuple(start): nodes[0]}
    while level:
        nxt: dict = {}
        for c, (word, a) in level.items():
            for i, ci in enumerate(c):
                if ci <= 0:
                    continue
                z = tuple([u - ci * v for u, v in zip(c, cartan[i])])
                if z in nxt:
                    continue
                nxt[z] = ((i,) + word, a[:i] + (a[i] + ci,) + a[i + 1:])
        nodes.extend(nxt.values())
        level = nxt
    return scale, nodes


def reflection_orbit(x: Weight, simple_roots: tuple[Weight, ...],
                     functionals: tuple[Weight, ...]) -> list[tuple[tuple[int, ...], Weight]]:
    """The Weyl orbit of a strictly dominant x as (reduced word, w x) pairs,
    breadth-first under y -> y - <y, sigma_i-coroot> sigma_i.

    ``functionals[i]`` is y -> <y, sigma_i-coroot>.  A word is read right
    to left: (i, j) is s_i s_j.  A strictly dominant x has a trivial
    stabiliser, so the orbit is in bijection with the group, and s_i w is
    longer than w exactly when <w x, sigma_i-coroot> > 0.  Each level is
    therefore reached from the one before by those reflections alone, and
    the depth of a point is the length of its word.

    The walk runs on the coroot coordinates c_j = <y, sigma_j-coroot>,
    scaled by their common denominator into integers, under
    c -> c - c_i A_i with A the Cartan matrix of ``root_datum``.
    Within one orbit c determines y: y - x lies in the span of the sigma_i,
    on which A is nondegenerate.  Each point carries its displacement a,
    with a_i increased by c_i at each reflection s_i, so that w x = x -
    sum_i a_i sigma_i; the points are recovered from it once, at the end,
    in integers scaled by one common denominator.  A group over MAX_WEYL
    elements is refused by its order before the walk.
    """
    datum = root_datum(simple_roots, functionals)
    refuse_weyl_order(datum.weyl_order)
    scale, nodes = _coroot_walk(x, functionals, datum.cartan)
    orbit = [((), x)]
    if len(nodes) == 1:
        return orbit
    sigmas, sigma_den = datum.simple_integers
    den = math.lcm(scale * sigma_den, *(v.denominator for v in x))
    base = [v.numerator * (den // v.denominator) for v in x]
    factor, columns = den // (scale * sigma_den), list(zip(*sigmas))
    points = from_integers([[b - factor * dot(a, column) for b, column in zip(base, columns)]
                            for _, a in nodes[1:]], den)
    return orbit + [(word, y) for (word, _), y in zip(nodes[1:], points)]


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element as a reduced word in the simple reflections.

    ``word`` lists simple reflection indices, read right to left as in
    ``reflection_orbit``; its length is the Coxeter length.  ``apply``
    folds the word over the generating reflections.
    """

    word: tuple[int, ...]
    simple_roots: tuple[Weight, ...] = field(repr=False, compare=False)
    coroot_functionals: tuple[Weight, ...] = field(repr=False, compare=False)

    @property
    def length(self) -> int:
        return len(self.word)

    def apply(self, x: Weight) -> Weight:
        if self.simple_roots:
            check_rank(x, len(self.simple_roots[0]))
        for i in reversed(self.word):   # x - <x, sigma_i-coroot> sigma_i
            c = dot(self.coroot_functionals[i], x)
            x = tuple(a - c * b for a, b in zip(x, self.simple_roots[i]))
        return x


def enumerate_reflection_group(simple_roots: tuple[Weight, ...],
                               functionals: tuple[Weight, ...],
                               rho: Weight) -> list[WeylElement]:
    """Every element of the group generated by the simple reflections,
    read off the orbit of the strictly dominant rho; depth equals length.
    A group over MAX_WEYL elements is refused by its order before the walk."""
    datum = root_datum(simple_roots, functionals)
    refuse_weyl_order(datum.weyl_order)
    _, nodes = _coroot_walk(rho, functionals, datum.cartan)
    return [WeylElement(word, simple_roots, functionals) for word, _ in nodes]


def weyl_group(rs: RootSystem) -> list[WeylElement]:
    """All Weyl group elements with correct lengths, breadth-first, of any
    rank; a group over MAX_WEYL elements (E7, E8, D8, ...) is refused by
    its exact order before the walk."""
    return enumerate_reflection_group(rs.simple_roots, rs.coroot_functionals, rs.rho_tilde)


def weyl_dim_from_roots(rs: RootSystem, rows, highest: Weight) -> int:
    """Weyl's dimension formula prod (2 highest + S, a) / (S, a) over the
    positive roots of a subsystem, int rows with sum S, on the int Gram
    matrix of rs; no roots give 1 for every weight (a torus factor)."""
    (x,), d = to_integers([highest])
    total = [sum(column) for column in zip(*rows)]
    num = den = 1
    for row in rows:
        g_a = [dot(g, row) for g in rs.gram_integers[0]]
        s = d * dot(total, g_a)
        num, den = num * (2 * dot(x, g_a) + s), den * s
    if num % den or num <= 0:
        raise ValueError(f"Weyl dimension formula gave a non-natural value {Fraction(num, den)}")
    return num // den


def weyl_dim(rs: RootSystem, highest: Weight) -> int:
    """Dimension of the simple module with the given highest weight."""
    for i in range(rs.rank):
        c = rs.coroot_pairing(highest, i)
        if c.denominator != 1 or c < 0:
            raise ValueError(
                f"weight {fmt(highest)} is not dominant integral: "
                f"coroot pairing {c} at simple root {i + 1}"
            )
    return weyl_dim_from_roots(rs, rs.positive_integers, highest)
