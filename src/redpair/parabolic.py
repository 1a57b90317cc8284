"""Compatible parabolic subalgebras and their weight-level decomposition.

For a weight lam on the small Cartan, the roots of the ambient algebra
split by the sign of t_pair(lam, restrict(alpha)): strictly positive
pairings span the nilradical n, zero pairings span the reductive part m,
and the rest are the negatives of n.  The decomposition is recorded
purely as small-side weight multisets.

The split is one pass over the roots in integers: the pair stores each
restricted root as an int row, ell = t_gram^T lam is formed in ints, and
the sign of one int dot product places each root.  Copies of ch_t n are
counted under int-row keys.  Regularity (no root of nonzero restriction
pairs to zero with lam) is read off the same pass: n must hold a root
for every positive root of nonzero restriction.

A remark on the intersection with the subalgebra k: the parabolic
contains the whole Cartan, so p cap k always contains t; the quantity
used for the homological degree bookkeeping is n cap k, which for a
b_k-dominant regular lam equals the span of the positive k-root spaces.
The multiset split below implements exactly that reading.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import dot, to_integers
from .reductive import ReductivePair
from .weights import Weight, WeightMultiset, fmt, neg


def _grading(p: ReductivePair, lam: Weight) -> tuple[list[int], int]:
    """ell = t_gram^T lam = t_gram lam (the form is symmetric), so that ell . y =
    t_pair(lam, y), as ints over a positive denominator, and that denominator."""
    if len(lam) != p.rank_t:
        raise ValueError(f"grading weight must have rank {p.rank_t}")
    (gram, gram_den), ((lam_row,), lam_den) = p.t_gram_integers, to_integers([lam])
    return [dot(row, lam_row) for row in gram], gram_den * lam_den


def _regular(p: ReductivePair, n_roots: tuple[Weight, ...]) -> bool:
    """Whether the split with these n roots comes from a regular lam."""
    return len(n_roots) == sum(map(any, p.restricted_integers))


def is_regular(p: ReductivePair, lam: Weight) -> bool:
    """True iff lam pairs nonzero with every restricted root."""
    return _regular(p, split_roots(p, lam)[0])


def split_roots(
    p: ReductivePair, lam: Weight,
) -> tuple[tuple[Weight, ...], tuple[Weight, ...], WeightMultiset]:
    """Partition all ambient roots by the sign of their pairing with lam.

    Returns (n_roots, m_roots, ch_t_n): the roots pairing positively,
    the roots pairing to zero, and the small-side character of n.  Both
    root tuples follow g.positive_roots; m_roots interleaves each positive
    root of zero pairing with its negative, positive first.
    """
    ell, _ = _grading(p, lam)
    n_roots: list[Weight] = []
    m_roots: list[Weight] = []
    ch: dict[tuple[tuple[int, ...], bool], int] = {}   # copies by int row and sign
    stored: dict[tuple[int, ...], Weight] = {}
    for root, restricted, row in zip(p.g.positive_roots, p.restricted_positive,
                                     p.restricted_integers):
        # restriction and pairing are linear: the negative root gives -value
        value = dot(ell, row)
        if value:
            n_roots.append(root if value > 0 else neg(root))
            ch[row, value > 0] = ch.get((row, value > 0), 0) + 1
            stored[row] = restricted
        else:
            m_roots += (root, neg(root))
    return tuple(n_roots), tuple(m_roots), WeightMultiset(
        [(stored[row] if up else neg(stored[row]), m) for (row, up), m in ch.items()],
        rank=p.rank_t)


@dataclass(frozen=True)
class CompatibleParabolic:
    lam: Weight
    n_roots: tuple[Weight, ...]        # ambient roots with positive pairing
    m_roots: tuple[Weight, ...]        # ambient roots with zero pairing
    ch_t_n: WeightMultiset
    ch_t_n_cap_k: WeightMultiset
    ch_t_n_cap_kperp: WeightMultiset
    rho_n: Weight
    rho_n_perp: Weight
    s: int                              # size of ch_t(n cap k)
    r: int                              # size of ch_t(n cap k-perp)
    minimal: bool

    def m_positive_roots(self) -> tuple[Weight, ...]:
        """The positive roots of m (ambient positivity breaks the ties): the
        even places of m_roots, where split_roots puts them."""
        return tuple(sorted(self.m_roots[::2]))


def compatible_parabolic(p: ReductivePair, lam: Weight) -> CompatibleParabolic:
    """The parabolic attached to lam, with its n cap k / n cap k-perp split.

    The k-side character of n cap k is the multiset of positive k-roots;
    it must embed in the character of n, which holds whenever lam is
    b_k-dominant and the embedding data is consistent.  Irregular lam is
    allowed and simply reports minimal=False.
    """
    n_roots, m_roots, ch_t_n = split_roots(p, lam)
    cap_k = p.k_positive_multiset()
    excess = ch_t_n.first_excess(cap_k)
    if excess is not None:
        raise ValueError(
            f"the k-positive multiset does not embed in the character of n: "
            f"weight {fmt(excess)} is missing; the embedding data is inconsistent "
            f"or lam is not b_k-dominant"
        )
    cap_kperp = ch_t_n.minus(cap_k)
    return CompatibleParabolic(
        lam=lam,
        n_roots=n_roots,
        m_roots=m_roots,
        ch_t_n=ch_t_n,
        ch_t_n_cap_k=cap_k,
        ch_t_n_cap_kperp=cap_kperp,
        rho_n=ch_t_n.half_sum(),
        rho_n_perp=cap_kperp.half_sum(),
        s=cap_k.size(),
        r=cap_kperp.size(),
        minimal=_regular(p, n_roots),
    )
