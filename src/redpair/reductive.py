"""Reductive pairs: a semisimple algebra together with an embedded
reductive subalgebra, given by root-restriction data.

A pair is given by its restriction, the map from the big Cartan dual onto
the small one, and by the subalgebra's root data: simple roots with
coroot functionals.  One constructor, behind all four factories, derives
the rest once:

- the orthogonal section of the restriction R and the induced form on the
  small side (the restriction of the invariant form to the
  orthocomplement of the kernel), from int products of R with the root
  system's inverse Gram matrix and one solve of size rank_t;
- the restriction of every positive root of the ambient algebra, as int
  rows scaled by the common denominator of the restriction and as weights,
  multiplied out in ints from the root system's int tuples;
- the k-positive roots, rho (half their sum, zero when there are none) and
  |W_k|, read off ``rootsystem.root_datum`` of the k root data, which must
  have a generalized Cartan matrix of finite type.  They depend on the k
  root data alone, so they are derived once per process for each datum
  and shared: the sl2 pairs of every type share one entry, the Levi pairs
  one per type and node set, and a full Levi pair reads the datum of g.

When the restriction is the identity, which the constructor reads off the
matrix itself, the section is the identity, the induced form is the
ambient Gram matrix and the restricted roots are the roots themselves, so
nothing is solved or restricted.  The parabolic split, the regularity
test, the rank-one threshold and the order of the nonzero restricted roots
read the stored int rows, the gradings and the condition-2 scan the
induced form in ints, derived once per pair.  Dominance and integrality on
the small side are always tested through the supplied coroot functionals,
never through the form, so no normalization mismatch can creep in.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import Matrix, dot, mat_vec, solve, to_integers
from .rootsystem import (
    RootSystem,
    WeylElement,
    _images,
    enumerate_reflection_group,
    root_datum,
)
from .weights import Weight, WeightMultiset, check_rank, fmt, from_integers, neg, weight, zero


@dataclass(frozen=True)
class ReductivePair:
    g: RootSystem
    rank_t: int
    restriction: Matrix            # rank_t x rank_g
    lift: Matrix                   # rank_g x rank_t, orthogonal section
    t_gram: Matrix                 # induced form on the small side
    k_simple_roots: tuple[Weight, ...]
    k_coroot_functionals: tuple[tuple[Fraction, ...], ...]
    k_positive_roots: tuple[Weight, ...]
    rho: Weight                    # half-sum of the k-positive roots
    restricted_positive: tuple[Weight, ...]  # restrictions of g.positive_roots, in order
    restricted_integers: tuple[tuple[int, ...], ...]  # the same, times one denominator
    embedding_kind: str
    k_weyl_order: int              # |W_k|, from the heights of the k-positive roots

    @cached_property
    def delta_t(self) -> frozenset[Weight]:
        """The nonzero restricted roots, positive and negative."""
        return frozenset(x for r in self.restricted_positive if any(r) for x in (r, neg(r)))

    @cached_property
    def t_gram_integers(self) -> tuple[list[list[int]], int]:
        """t_gram as int rows over one common denominator, and that denominator."""
        return to_integers(self.t_gram)

    @cached_property
    def restriction_integers(self) -> tuple[list[list[int]], int]:
        """The restriction as int rows over the denominator of restricted_integers."""
        return to_integers(self.restriction)

    @cached_property
    def nonzero_restricted(self) -> int:
        """How many positive roots restrict to nonzero weights."""
        return sum(map(any, self.restricted_integers))

    def restrict(self, x: Weight) -> Weight:
        check_rank(x, self.g.rank)
        (rows, den), ((x_row,), x_den) = self.restriction_integers, to_integers([x])
        return from_integers([[dot(row, x_row) for row in rows]], den * x_den)[0]

    def lift_weight(self, y: Weight) -> Weight:
        check_rank(y, self.rank_t)
        return mat_vec(self.lift, y)

    def t_pair(self, x: Weight, y: Weight) -> Fraction:
        if len(x) != self.rank_t or len(y) != self.rank_t:
            raise ValueError(
                f"expected weights of rank {self.rank_t}, got {len(x)} and {len(y)}"
            )
        return dot(x, mat_vec(self.t_gram, y))

    def coroot_pairing(self, x: Weight, i: int) -> Fraction:
        check_rank(x, self.rank_t)
        return dot(self.k_coroot_functionals[i], x)

    def dominance_defect(self, mu: Weight) -> str | None:
        """None if mu is dominant integral for the subalgebra, else a reason."""
        check_rank(mu, self.rank_t)
        for i, sigma in enumerate(self.k_simple_roots):
            v = self.coroot_pairing(mu, i)
            if v.denominator != 1:
                return f"coroot pairing {v} with k-simple root {fmt(sigma)} is not integral"
            if v < 0:
                return f"coroot pairing {v} with k-simple root {fmt(sigma)} is negative"
        return None

    def is_dominant_integral(self, mu: Weight) -> bool:
        return self.dominance_defect(mu) is None

    def k_positive_multiset(self) -> WeightMultiset:
        """The k-positive roots, one multiset per pair that no caller may change."""
        return self._k_multiset

    @cached_property
    def _k_multiset(self) -> WeightMultiset:   # int rows as split_roots counts them
        den = self.restriction_integers[1]
        return WeightMultiset.from_rows(Counter(
            tuple([c.numerator * den // c.denominator for c in w]) for w in self.k_positive_roots),
            den, self.rank_t)

    def k_weyl_group(self) -> list[WeylElement]:
        """The subalgebra's Weyl group acting on small-side weights, read
        off the orbit of rho; refused by its order over MAX_WEYL."""
        return enumerate_reflection_group(self.k_simple_roots, self.k_coroot_functionals,
                                          self.rho)


def _orthogonal_section(g: RootSystem, rows, den: int) -> tuple[Matrix, Matrix]:
    """Lift L and induced Gram matrix for a full-row-rank restriction R = rows / den.

    With G^{-1} = H / h and C = rows H rows^T in ints, the form (R G^{-1} R^T)^{-1}
    is den^2 h C^{-1}, and L = G^{-1} R^T times it is den H rows^T C^{-1}.  C and H
    are symmetric: one solve C X = [den^2 h id | den rows H] of size rank_t gives the
    form and L^T, singular exactly when R is rank-deficient, as G^{-1} is positive
    definite.  The form is positive definite as G is; for a single row r, 1 / (r G^{-1} r^T)."""
    (inverse, h), m = g.gram_inverse, len(rows)
    rows_h = [[dot(r, column) for column in inverse] for r in rows]
    core = [[dot(r, s) for s in rows_h] for r in rows]
    try:
        x = solve(core, [[den * den * h * (a == b) for b in range(m)] + [den * v for v in s]
                         for a, s in enumerate(rows_h)])
    except ValueError:
        raise ValueError("rank-deficient restriction: no lift exists") from None
    return tuple(zip(*(row[m:] for row in x))), tuple(row[:m] for row in x)


def _pair(g: RootSystem, restriction: Matrix, k_simple: tuple[Weight, ...],
          functionals: tuple[tuple[Fraction, ...], ...], kind: str) -> ReductivePair:
    """The pair fixed by a full-row-rank restriction and the k root data,
    every other field derived (see the module docstring)."""
    if restriction == g.simple_roots:
        # the identity: the simple roots are the unit vectors of their basis
        lift, t_gram = restriction, g.gram
        scaled, restricted = g.positive_integers, g.positive_roots
    else:
        rows, den = to_integers(restriction)
        lift, t_gram = _orthogonal_section(g, rows, den)
        scaled, restricted = _images(rows, den, g.positive_integers)
    rank_t, k = len(restriction), root_datum(k_simple, functionals)
    return ReductivePair(g, rank_t, restriction, lift, t_gram, k_simple, functionals,
                         k.positive_roots, k.rho or zero(rank_t), restricted, scaled, kind,
                         k.weyl_order)


def check_sizes(rank_g: int, labels=None, nodes=(), restriction=None, k_simple=(),
                functionals=()) -> None:
    """Refuse sl2 labels, Levi nodes, or an explicit restriction (rank_t x
    rank_g) and k data (rank_t long) whose sizes do not fit rank_g."""
    if labels is not None and len(labels) != rank_g:
        raise ValueError(f"expected {rank_g} labels, got {len(labels)}")
    for i in nodes:
        if not 1 <= i <= rank_g:
            raise ValueError(f"simple-root index {i} outside 1..{rank_g}")
    if restriction is not None:
        if not restriction or any(len(row) != rank_g for row in restriction):
            raise ValueError(f"restriction must be rank_t x {rank_g}")
        if len(k_simple) != len(functionals):
            raise ValueError("one coroot functional is required per k-simple root")
        for name, rows in (("k-simple root", k_simple), ("coroot functional", functionals)):
            for row in rows:
                if len(row) != len(restriction):
                    raise ValueError(f"{name} {fmt(row)} has wrong rank")


def make_sl2_pair(g: RootSystem, labels: list[int]) -> ReductivePair:
    """Pair with a one-dimensional small Cartan fixed by marks on the
    simple roots.

    The coordinates on the small side are values on the defining
    semisimple element, so a root restricts to the integer sum of its
    simple-root coefficients weighted by the marks.  Marks outside
    {0, 1, 2} cannot occur for a semisimple element of a standard
    triple and are rejected; the all-zero vector is rejected too.
    """
    check_sizes(g.rank, labels)
    for l in labels:
        if l not in (0, 1, 2):
            raise ValueError(f"label {l} outside {{0, 1, 2}}")
    if all(l == 0 for l in labels):
        raise ValueError("all-zero label vector")
    return _pair(g, (tuple(Fraction(l) for l in labels),), (weight([2]),),
                 ((Fraction(1),),), "sl2-characteristic")


def make_cartan_pair(g: RootSystem) -> ReductivePair:
    """The pair whose subalgebra is the Cartan itself: identity
    restriction, no subalgebra roots, trivial small Weyl group."""
    return _pair(g, g.simple_roots, (), (), "cartan")


def make_levi_pair(g: RootSystem, simple_subset: set[int]) -> ReductivePair:
    """Levi subalgebra generated by a subset of simple roots (1-based
    indices), with the Cartan-matrix columns as coroots; the empty subset
    degenerates to the Cartan pair."""
    check_sizes(g.rank, nodes=simple_subset)
    indices = sorted(i - 1 for i in simple_subset)
    return _pair(g, g.simple_roots, tuple(g.simple_roots[i] for i in indices),
                 tuple(g.coroot_functionals[i] for i in indices), "levi")


def make_explicit_pair(g: RootSystem, restriction: Matrix,
                       k_simple_roots: list[Weight],
                       k_coroot_functionals: list[tuple[Fraction, ...]]) -> ReductivePair:
    """Pair from raw embedding data, fully validated.

    Entries are ints, Fractions or 'p/q' strings; a float raises TypeError.
    The subalgebra's positive roots are regenerated from its Cartan matrix
    (coroot functionals against simple roots), which must be a generalized
    Cartan matrix; each must occur among the restricted roots of g.
    """
    restriction = tuple(weight(row) for row in restriction)
    k_simple = tuple(weight(s) for s in k_simple_roots)
    functionals = tuple(weight(f) for f in k_coroot_functionals)
    check_sizes(g.rank, restriction=restriction, k_simple=k_simple, functionals=functionals)
    pair = _pair(g, restriction, k_simple, functionals, "explicit")

    # each reflection x -> x - f(x) sigma must preserve the induced form, as
    # for any genuine embedding; the Weyl machinery downstream relies on it.
    # As f(sigma) = 2, that holds iff f(x) (sigma, sigma) = 2 (sigma, x)
    for sigma, f in zip(k_simple, functionals):
        g_sigma = mat_vec(pair.t_gram, sigma)
        norm = dot(sigma, g_sigma)
        if [norm * v for v in f] != [2 * v for v in g_sigma]:
            raise ValueError(
                f"coroot functional {fmt(f)} for k-simple root {fmt(sigma)} does not "
                f"act by an isometry of the induced form"
            )
    # a Fraction equals and hashes as its int value, so D root meets the int rows
    rows, den = set(pair.restricted_integers), pair.restriction_integers[1]
    for root in pair.k_positive_roots:
        scaled = tuple([c * den for c in root])
        if scaled not in rows and neg(scaled) not in rows:
            raise ValueError(
                f"k-positive root {fmt(root)} is not the restriction of any root"
            )
    return pair
