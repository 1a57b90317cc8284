"""Reductive pairs: a semisimple algebra together with an embedded
reductive subalgebra, described entirely through root-restriction data.

A pair packages the restriction map from the big Cartan dual onto the
small one, its orthogonal section (so the induced form on the small side
is the restriction of the invariant form to the orthocomplement of the
kernel), the restriction of every positive root of the ambient algebra,
and the subalgebra's own root data given by simple roots with coroot
functionals.  Dominance and integrality on the small side are always
tested through the supplied coroot functionals, never through the form,
so no normalization mismatch can creep in.

Each positive root is restricted once, when the pair is built, in
integers scaled by the common denominator of the restriction; for the
identity restriction of Cartan and Levi pairs the roots themselves are
stored.  The parabolic split, the regularity test, the rank-one
threshold and the nonzero restricted roots all read that stored tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import Matrix, identity, inverse, mat_mul, mat_vec, to_integers, transpose
from .rootsystem import (
    RootSystem,
    WeylElement,
    enumerate_reflection_group,
    positive_roots_from_cartan,
    weyl_group_order,
)
from .weights import FractionTable, Weight, WeightMultiset, fmt, neg, weight, zero


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
    embedding_kind: str

    @cached_property
    def delta_t(self) -> frozenset[Weight]:
        """The nonzero restricted roots, positive and negative."""
        out = set()
        for r in self.restricted_positive:
            if any(r):
                out.add(r)
                out.add(neg(r))
        return frozenset(out)

    def restrict(self, x: Weight) -> Weight:
        if len(x) != self.g.rank:
            raise ValueError(
                f"expected a weight of rank {self.g.rank}, got length {len(x)}"
            )
        return mat_vec(self.restriction, x)

    def lift_weight(self, y: Weight) -> Weight:
        if len(y) != self.rank_t:
            raise ValueError(
                f"expected a weight of rank {self.rank_t}, got length {len(y)}"
            )
        return mat_vec(self.lift, y)

    def t_pair(self, x: Weight, y: Weight) -> Fraction:
        if len(x) != self.rank_t or len(y) != self.rank_t:
            raise ValueError(
                f"expected weights of rank {self.rank_t}, got {len(x)} and {len(y)}"
            )
        gy = mat_vec(self.t_gram, y)
        return sum(a * b for a, b in zip(x, gy))

    def coroot_pairing(self, x: Weight, i: int) -> Fraction:
        f = self.k_coroot_functionals[i]
        return sum(a * b for a, b in zip(f, x))

    def dominance_defect(self, mu: Weight) -> str | None:
        """None if mu is dominant integral for the subalgebra, else a reason."""
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
        ms: dict[Weight, int] = {}
        for w in self.k_positive_roots:
            ms[w] = ms.get(w, 0) + 1
        return WeightMultiset(ms, rank=self.rank_t)

    def k_weyl_group(self, max_size: int | None = 1_000_000) -> list[WeylElement]:
        """The subalgebra's Weyl group acting on small-side weights, read
        off the orbit of rho."""
        return enumerate_reflection_group(self.k_simple_roots, self.coroot_pairing,
                                          self.rho, max_size)

    def k_weyl_order(self) -> int:
        """|W_k|, from the heights of the k-positive roots in k-simple-root
        coordinates; nothing is enumerated."""
        cartan = tuple(
            tuple(self.coroot_pairing(sigma, j) for j in range(len(self.k_simple_roots)))
            for sigma in self.k_simple_roots
        )
        return weyl_group_order(cartan)


def _orthogonal_section(g: RootSystem, restriction: Matrix) -> tuple[Matrix, Matrix]:
    """Lift and induced Gram matrix for a full-row-rank restriction.

    The section L solves R L = id with image orthogonal to ker R, which
    gives L = G^{-1} R^T (R G^{-1} R^T)^{-1} and induced form
    (R G^{-1} R^T)^{-1}; positive definiteness is inherited from G.
    """
    g_inv = inverse(g.gram)
    rt = transpose(restriction)
    core = mat_mul(mat_mul(restriction, g_inv), rt)
    try:
        t_gram = inverse(core)
    except ValueError:
        raise ValueError("rank-deficient restriction: no lift exists") from None
    lift = mat_mul(mat_mul(g_inv, rt), t_gram)
    return lift, t_gram


def _restrict_positive(g: RootSystem, restriction: Matrix) -> tuple[Weight, ...]:
    """restriction . root for every positive root of g, in order.  The rows
    are scaled by their common denominator D into integers, the roots have
    integer coordinates, and each restricted coordinate is made a Fraction
    with denominator D once."""
    rows, den = to_integers(restriction)
    fractions = FractionTable(den)
    return tuple(
        tuple([fractions[sum([a * c.numerator for a, c in zip(row, root)])]
               for row in rows])
        for root in g.positive_roots
    )


def make_sl2_pair(g: RootSystem, labels: list[int]) -> ReductivePair:
    """Pair with a one-dimensional small Cartan fixed by marks on the
    simple roots.

    The coordinates on the small side are values on the defining
    semisimple element, so a root restricts to the integer sum of its
    simple-root coefficients weighted by the marks.  Marks outside
    {0, 1, 2} cannot occur for a semisimple element of a standard
    triple and are rejected; the all-zero vector is rejected too.
    """
    if len(labels) != g.rank:
        raise ValueError(f"expected {g.rank} labels, got {len(labels)}")
    for l in labels:
        if l not in (0, 1, 2):
            raise ValueError(f"label {l} outside {{0, 1, 2}}")
    if all(l == 0 for l in labels):
        raise ValueError("all-zero label vector")
    restriction = (tuple(Fraction(l) for l in labels),)
    lift, t_gram = _orthogonal_section(g, restriction)
    restricted = _restrict_positive(g, restriction)
    two = weight([2])
    one_vec = (Fraction(1),)
    return ReductivePair(
        g=g,
        rank_t=1,
        restriction=restriction,
        lift=lift,
        t_gram=t_gram,
        k_simple_roots=(two,),
        k_coroot_functionals=(one_vec,),
        k_positive_roots=(two,),
        rho=weight([1]),
        restricted_positive=restricted,
        embedding_kind="sl2-characteristic",
    )


def make_cartan_pair(g: RootSystem) -> ReductivePair:
    """The pair whose subalgebra is the Cartan itself: identity
    restriction, no subalgebra roots, trivial small Weyl group."""
    ident = identity(g.rank)
    return ReductivePair(
        g=g,
        rank_t=g.rank,
        restriction=ident,
        lift=ident,
        t_gram=g.gram,
        k_simple_roots=(),
        k_coroot_functionals=(),
        k_positive_roots=(),
        rho=zero(g.rank),
        restricted_positive=g.positive_roots,
        embedding_kind="cartan",
    )


def make_levi_pair(g: RootSystem, simple_subset: set[int]) -> ReductivePair:
    """Levi subalgebra generated by a subset of simple roots (1-based
    indices); the empty subset degenerates to the Cartan pair."""
    for i in simple_subset:
        if not 1 <= i <= g.rank:
            raise ValueError(f"simple-root index {i} outside 1..{g.rank}")
    indices = sorted(i - 1 for i in simple_subset)
    ident = identity(g.rank)
    k_simple = tuple(g.simple_roots[i] for i in indices)
    functionals = tuple(
        tuple(g.cartan[j][i] for j in range(g.rank)) for i in indices
    )
    support = set(indices)
    k_positive = tuple(
        r for r in g.positive_roots
        if all(c == 0 for j, c in enumerate(r) if j not in support)
    )
    rho = WeightMultiset({r: 1 for r in k_positive}, rank=g.rank).half_sum() \
        if k_positive else zero(g.rank)
    return ReductivePair(
        g=g,
        rank_t=g.rank,
        restriction=ident,
        lift=ident,
        t_gram=g.gram,
        k_simple_roots=k_simple,
        k_coroot_functionals=functionals,
        k_positive_roots=k_positive,
        rho=rho,
        restricted_positive=g.positive_roots,
        embedding_kind="levi",
    )


def make_explicit_pair(g: RootSystem, restriction: Matrix,
                       k_simple_roots: list[Weight],
                       k_coroot_functionals: list[tuple[Fraction, ...]]) -> ReductivePair:
    """Pair from raw embedding data, fully validated.

    The subalgebra's positive roots are regenerated from its Cartan
    matrix (coroot functionals against simple roots), which must consist
    of integers with 2 on the diagonal; every generated positive root
    must occur among the restricted roots of the ambient algebra.
    """
    restriction = tuple(tuple(Fraction(x) for x in row) for row in restriction)
    rank_t = len(restriction)
    if rank_t == 0 or any(len(row) != g.rank for row in restriction):
        raise ValueError(f"restriction must be rank_t x {g.rank}")
    lift, t_gram = _orthogonal_section(g, restriction)

    k_simple = tuple(weight(s) for s in k_simple_roots)
    functionals = tuple(tuple(Fraction(x) for x in f) for f in k_coroot_functionals)
    if len(k_simple) != len(functionals):
        raise ValueError("one coroot functional is required per k-simple root")
    for s in k_simple:
        if len(s) != rank_t:
            raise ValueError(f"k-simple root {fmt(s)} has wrong rank")
    for f in functionals:
        if len(f) != rank_t:
            raise ValueError(f"coroot functional {fmt(f)} has wrong rank")

    n_k = len(k_simple)
    cartan_k = tuple(
        tuple(sum(a * b for a, b in zip(functionals[j], k_simple[i]))
              for j in range(n_k))
        for i in range(n_k)
    )
    for i in range(n_k):
        for j in range(n_k):
            v = cartan_k[i][j]
            if v.denominator != 1:
                raise ValueError(
                    f"non-integral coroot pairing {v} between k-simple roots "
                    f"{fmt(k_simple[i])} and {fmt(k_simple[j])}"
                )
            if i == j and v != 2:
                raise ValueError(f"k-simple root {fmt(k_simple[i])} pairs to {v} != 2 "
                                 "with its own coroot")
            if i != j and v > 0:
                raise ValueError("positive off-diagonal Cartan entry in k root data")

    # each reflection x -> x - f(x) sigma must preserve the induced form
    # (true for any genuine embedding, where ker f is orthogonal to sigma);
    # the Weyl machinery downstream relies on it
    for sigma, f in zip(k_simple, functionals):
        refl = tuple(
            tuple((Fraction(1) if a == b else Fraction(0)) - sigma[a] * f[b]
                  for b in range(rank_t))
            for a in range(rank_t)
        )
        if mat_mul(transpose(refl), mat_mul(t_gram, refl)) != t_gram:
            raise ValueError(
                f"coroot functional {fmt(f)} for k-simple root {fmt(sigma)} does not "
                f"act by an isometry of the induced form"
            )

    if n_k:
        abstract = positive_roots_from_cartan(cartan_k,
                                              max_roots=2 * len(g.positive_roots))
        k_positive = []
        for coeffs in abstract:
            root = zero(rank_t)
            for c, s in zip(coeffs, k_simple):
                root = tuple(a + c * b for a, b in zip(root, s))
            k_positive.append(root)
    else:
        k_positive = []
    ms: dict[Weight, int] = {}
    for root in k_positive:
        ms[root] = ms.get(root, 0) + 1
    pair = ReductivePair(
        g=g,
        rank_t=rank_t,
        restriction=restriction,
        lift=lift,
        t_gram=t_gram,
        k_simple_roots=k_simple,
        k_coroot_functionals=functionals,
        k_positive_roots=tuple(k_positive),
        rho=WeightMultiset(ms, rank=rank_t).half_sum(),
        restricted_positive=_restrict_positive(g, restriction),
        embedding_kind="explicit",
    )
    for root in k_positive:
        if root not in pair.delta_t:
            raise ValueError(
                f"k-positive root {fmt(root)} is not the restriction of any root"
            )
    return pair
