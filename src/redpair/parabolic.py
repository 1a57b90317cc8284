"""Compatible parabolic subalgebras and their weight-level decomposition.

For a weight lam on the small Cartan, the roots of the ambient algebra
split by the sign of t_pair(lam, restrict(alpha)): strictly positive
pairings span the nilradical n, zero pairings span the reductive part m,
and the rest are the negatives of n.  The decomposition is recorded
purely as small-side weight multisets.

The split is one pass over the roots in integers: the pair stores each
restricted root as an int row, ell = t_gram^T lam is formed in ints, and
the sign of one int dot product places each root.  The multisets stay
int rows (``WeightMultiset.from_rows``), counted by signed row.
Regularity (no root of nonzero restriction pairs to zero with lam) is
read off the same pass: n must hold a root for every positive root of
nonzero restriction.

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
from .weights import Weight, WeightMultiset, fmt, from_integers, neg


def _grading(p: ReductivePair, lam: Weight) -> tuple[list[int], list[int]]:
    """ell = t_gram^T lam = t_gram lam (the form is symmetric) in ints, so that
    ell . y is a positive multiple of t_pair(lam, y), and lam's own int row."""
    if len(lam) != p.rank_t:
        raise ValueError(f"grading weight must have rank {p.rank_t}")
    ((lam_row,), _) = to_integers([lam])
    return [dot(row, lam_row) for row in p.t_gram_integers[0]], lam_row


def is_regular(p: ReductivePair, lam: Weight) -> bool:
    """True iff lam pairs nonzero with every restricted root."""
    return len(split_roots(p, lam)[0]) == p.nonzero_restricted


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
    n_roots, m_roots, counts = [], [], {}
    for root, row in zip(p.g.positive_roots, p.restricted_integers):
        # restriction and pairing are linear: the negative root gives -value
        value = dot(ell, row)
        if not value:
            m_roots += (root, neg(root))
            continue
        if value < 0:
            root, row = neg(root), tuple([-c for c in row])
        n_roots.append(root)
        counts[row] = counts.get(row, 0) + 1
    return tuple(n_roots), tuple(m_roots), WeightMultiset.from_rows(
        counts, p.restriction_integers[1], p.rank_t)


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
    cap_k, cap_kperp = p.k_positive_multiset(), _n_cap_kperp(p, ch_t_n)
    return CompatibleParabolic(
        lam, n_roots, m_roots, ch_t_n, cap_k, cap_kperp, ch_t_n.half_sum(),
        cap_kperp.half_sum(), cap_k.size(), cap_kperp.size(),
        len(n_roots) == p.nonzero_restricted)


def _n_cap_kperp(p: ReductivePair, ch_t_n: WeightMultiset) -> WeightMultiset:
    """ch_t n less the k-positive roots, which must embed in it, by int row."""
    (counts, den), cap_k = ch_t_n.integers, p.k_positive_multiset().integers[0]
    missing = [row for row, m in cap_k.items() if counts.get(row, 0) < m]
    if missing:
        raise ValueError("the k-positive multiset does not embed in the character of n: "
                         f"weight {fmt(from_integers([min(missing)], den)[0])} is missing; "
                         "the embedding data is inconsistent or lam is not b_k-dominant")
    return WeightMultiset.from_rows({row: m - cap_k.get(row, 0) for row, m in counts.items()
                                     if m > cap_k.get(row, 0)}, den, p.rank_t)
