"""The four pair factories as they were before they shared one
constructor, each filling every field of ``ReductivePair`` by hand, the
orthogonal section by two ``Fraction`` inverses, the k-positive roots by
the root-string closure of ``kernel_oracle`` and |W_k| by enumerating the
group; kept as the oracle of ``redpair.reductive``."""

import math
from fractions import Fraction

import kernel_oracle
from redpair.linalg import Matrix, to_integers
from redpair.reductive import ReductivePair
from redpair.rootsystem import RootSystem, enumerate_reflection_group
from redpair.weights import Weight, WeightMultiset, fmt, weight, zero


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def _orthogonal_section(g: RootSystem, restriction: Matrix) -> tuple[Matrix, Matrix]:
    """L = G^{-1} R^T (R G^{-1} R^T)^{-1} and the induced form
    (R G^{-1} R^T)^{-1}, by Gauss-Jordan elimination in ``Fraction``."""
    g_inv = kernel_oracle.inverse(g.gram)
    rt = transpose(restriction)
    core = kernel_oracle.mat_mul(kernel_oracle.mat_mul(restriction, g_inv), rt)
    try:
        t_gram = kernel_oracle.inverse(core)
    except ValueError:
        raise ValueError("rank-deficient restriction: no lift exists") from None
    lift = kernel_oracle.mat_mul(kernel_oracle.mat_mul(g_inv, rt), t_gram)
    return lift, t_gram


def _scaled(restriction: Matrix, restricted: tuple[Weight, ...]) -> tuple[tuple[int, ...], ...]:
    """The restricted roots times the common denominator of the restriction."""
    den = math.lcm(*(Fraction(x).denominator for row in restriction for x in row))
    scaled = tuple(tuple(c * den for c in r) for r in restricted)
    assert all(c.denominator == 1 for r in scaled for c in r)
    return tuple(tuple(c.numerator for c in r) for r in scaled)


def _weyl_size(k_simple, functionals, rho: Weight) -> int:
    """|W_k|, the number of elements the simple reflections generate on the
    orbit of rho."""
    return len(enumerate_reflection_group(k_simple, functionals, rho))


def _restrict_positive(g: RootSystem, restriction: Matrix) -> tuple[Weight, ...]:
    """restriction . root for every positive root of g, in order.  The rows
    are scaled by their common denominator D into integers, the roots have
    integer coordinates, and each restricted coordinate is a Fraction with
    denominator D."""
    rows, den = to_integers(restriction)
    return tuple(
        tuple([Fraction(sum([a * c.numerator for a, c in zip(row, root)]), den)
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
        k_weyl_order=_weyl_size((two,), (one_vec,), weight([1])),
        restricted_positive=restricted,
        restricted_integers=_scaled(restriction, restricted),
        embedding_kind="sl2-characteristic",
    )


def make_cartan_pair(g: RootSystem) -> ReductivePair:
    """The pair whose subalgebra is the Cartan itself: identity
    restriction, no subalgebra roots, trivial small Weyl group."""
    ident = kernel_oracle.identity(g.rank)
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
        k_weyl_order=_weyl_size((), (), zero(g.rank)),
        restricted_positive=g.positive_roots,
        restricted_integers=_scaled(ident, g.positive_roots),
        embedding_kind="cartan",
    )


def make_levi_pair(g: RootSystem, simple_subset: set[int]) -> ReductivePair:
    """Levi subalgebra generated by a subset of simple roots (1-based
    indices); the empty subset degenerates to the Cartan pair."""
    for i in simple_subset:
        if not 1 <= i <= g.rank:
            raise ValueError(f"simple-root index {i} outside 1..{g.rank}")
    indices = sorted(i - 1 for i in simple_subset)
    ident = kernel_oracle.identity(g.rank)
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
        k_weyl_order=_weyl_size(k_simple, functionals, rho),
        restricted_positive=g.positive_roots,
        restricted_integers=_scaled(ident, g.positive_roots),
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
        if kernel_oracle.mat_mul(transpose(refl),
                                 kernel_oracle.mat_mul(t_gram, refl)) != t_gram:
            raise ValueError(
                f"coroot functional {fmt(f)} for k-simple root {fmt(sigma)} does not "
                f"act by an isometry of the induced form"
            )

    if n_k:
        abstract = kernel_oracle.root_closure([[int(v) for v in row] for row in cartan_k],
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
    rho = WeightMultiset(ms, rank=rank_t).half_sum()
    pair = ReductivePair(
        g=g,
        rank_t=rank_t,
        restriction=restriction,
        lift=lift,
        t_gram=t_gram,
        k_simple_roots=k_simple,
        k_coroot_functionals=functionals,
        k_positive_roots=tuple(k_positive),
        rho=rho,
        k_weyl_order=_weyl_size(k_simple, functionals, rho),
        restricted_positive=_restrict_positive(g, restriction),
        restricted_integers=_scaled(restriction, _restrict_positive(g, restriction)),
        embedding_kind="explicit",
    )
    for root in k_positive:
        if root not in pair.delta_t:
            raise ValueError(
                f"k-positive root {fmt(root)} is not the restriction of any root"
            )
    return pair
