"""The chamber of a series as ``redpair`` resolved it in ``Fraction``:
``compatible_parabolic``, ``inducing_module`` and ``series_parabolic`` on
the root split of ``kernel_oracle``, which restricts every root and pairs
it through ``t_pair``; the multiset difference and the embedding test on
weight dictionaries; and the coroot test and the Weyl dimension formula
through the ambient form, in ``Fraction``.  Kept as the oracle of the
integer path."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import kernel_oracle
from redpair.weights import Weight, WeightMultiset, add, fmt, scale


def first_excess(ms: WeightMultiset, other: WeightMultiset) -> Weight | None:
    """First weight (canonical order) where ``other`` exceeds ``ms``."""
    for w in other.support():
        if ms.entries.get(w, 0) < other.entries[w]:
            return w
    return None


def minus(ms: WeightMultiset, other: WeightMultiset) -> WeightMultiset:
    """Exact multiset difference; raises if ``other`` is not contained."""
    excess = first_excess(ms, other)
    if excess is not None:
        raise ValueError(f"not a submultiset: weight {fmt(excess)} has excess multiplicity")
    return WeightMultiset({w: m - other.entries.get(w, 0) for w, m in ms.entries.items()},
                          rank=ms.rank)


@dataclass(frozen=True)
class Parabolic:
    """The public fields of ``redpair.parabolic.CompatibleParabolic``."""

    lam: Weight
    n_roots: tuple
    m_roots: tuple
    ch_t_n: WeightMultiset
    ch_t_n_cap_k: WeightMultiset
    ch_t_n_cap_kperp: WeightMultiset
    rho_n: Weight
    rho_n_perp: Weight
    s: int
    r: int
    minimal: bool

    def m_positive_roots(self) -> tuple:
        return tuple(sorted(self.m_roots[::2]))


def weyl_dim_from_roots(positive_roots, form, highest) -> int:
    """Weyl's dimension formula over the roots, through the ambient form."""
    if not positive_roots:
        return 1
    rho = WeightMultiset((a, 1) for a in positive_roots).half_sum()
    value = Fraction(1)
    shifted = add(highest, rho)
    for a in positive_roots:
        value *= form(shifted, a) / form(rho, a)
    if value.denominator != 1 or value <= 0:
        raise ValueError(f"Weyl dimension formula gave a non-natural value {value}")
    return int(value)


def is_regular(p, lam) -> bool:
    return len(kernel_oracle.split_roots(p, lam)[0]) == sum(map(any, p.restricted_positive))


def compatible_parabolic(p, lam) -> Parabolic:
    n_roots, m_roots, ch_t_n = kernel_oracle.split_roots(p, lam)
    cap_k = WeightMultiset(((w, 1) for w in p.k_positive_roots), rank=p.rank_t)
    excess = first_excess(ch_t_n, cap_k)
    if excess is not None:
        raise ValueError(
            f"the k-positive multiset does not embed in the character of n: "
            f"weight {fmt(excess)} is missing; the embedding data is inconsistent "
            f"or lam is not b_k-dominant"
        )
    cap_kperp = minus(ch_t_n, cap_k)
    return Parabolic(lam, n_roots, m_roots, ch_t_n, cap_k, cap_kperp, ch_t_n.half_sum(),
                     cap_kperp.half_sum(), cap_k.size(), cap_kperp.size(), is_regular(p, lam))


def inducing_module(p, parab, nu) -> tuple:
    """(nu, omega, dim E, mu), the fields of ``InducingModule``."""
    if len(nu) != p.g.rank:
        raise ValueError(f"nu must have rank {p.g.rank}")
    m_positive = parab.m_positive_roots()
    for gamma in m_positive:
        c = 2 * p.g.pair(nu, gamma) / p.g.pair(gamma, gamma)
        if c.denominator != 1 or c < 0:
            raise ValueError(
                f"nu is not dominant integral for the reductive part: "
                f"coroot pairing {c} at {fmt(gamma)}"
            )
    dim_e = weyl_dim_from_roots(list(m_positive), p.g.pair, nu)
    omega = kernel_oracle.restrict(p, nu)
    return nu, omega, dim_e, add(omega, scale(2, parab.rho_n_perp))


def series_parabolic(p, nu, lam=None) -> tuple[Parabolic, tuple]:
    omega = kernel_oracle.restrict(p, nu)
    if lam is None:
        lam = kernel_oracle.restrict(p, p.g.rho_tilde)
    # the seed's regularity first: an irregular seed may fail the embedding check
    parab = compatible_parabolic(p, lam) if is_regular(p, lam) else None
    for _ in range(p.g.rank + 3):
        if parab is None or not parab.minimal:
            raise ValueError(
                f"the chamber weight {fmt(lam)} is irregular; give a regular "
                f"'lambda' in the config"
            )
        lam = add(add(omega, scale(2, parab.rho_n_perp)), scale(2, p.rho))
        parab, seen = compatible_parabolic(p, lam), parab.n_roots
        if parab.n_roots == seen:
            return parab, inducing_module(p, parab, nu)
    raise ValueError(
        "no compatible parabolic is consistent with this inducing weight; "
        "the chamber iteration did not stabilize"
    )
