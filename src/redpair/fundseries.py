"""K-type multiplicities of the fundamental series, by Euler characteristic.

The series itself is never materialized.  Its k-character is assembled
from three exactly computable ingredients: the cohomology of the
positive k-root nilradical acting on a k-type (Kostant: weights
w(delta + rho) - rho, one per Weyl element, in degree length(w), read
off the Weyl orbit of the strictly dominant delta + rho, so no group is
built), the symmetric algebra on n cap k-perp (a vector partition
function, counted in ints by ``PartitionCounter``), and the inducing
module, which for a minimal parabolic enters only through its dimension
and the scalar by which the small Cartan acts.  Grouping the terms by
degree i gives

    kostant_terms[i] = dim E * sum_{len(w) = i} count(w(delta+rho) - rho - mu)

with mu = omega + 2 rho_n_perp.  Their alternating sum is the Euler
characteristic of the series against V(delta); under genericity the
series lives in a single degree, making the sum an honest multiplicity,
and each term bounds the multiplicity in degree s - i.  ``ktype_table``
reads the same sums the other way round (Brauer-Klimyk), by one signed
fold of the partition counts of a ball.  Every count, of the terms of
one delta or of a whole table, comes from one walk and one sweep
(``_walk``, ``_sweep``), and the walk skips the points that can carry no
answer.

The chamber of the series, the minimal parabolic consistent with the
inducing weight, is resolved by ``series_parabolic``, one root split per
chamber weight.  It, the inducing module, the table's set-up and the
central character's fold run on int rows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable

from .genericity import norm2_shifted
from .linalg import dot
from .parabolic import (CompatibleParabolic, _grading, _n_cap_kperp, compatible_parabolic,
                        split_roots)
from .reductive import ReductivePair
from .rootsystem import (CapExceeded, RootSystem, reflection_orbit, refuse_weyl_order,
                         root_datum, weyl_dim_from_roots, weyl_fold)
from .weights import (Weight, WeightMultiset, add, check_rank, fmt, from_integers, scale, sub,
                      to_integers)


@dataclass(frozen=True)
class InducingModule:
    """The simple module inducing the series: ambient highest weight nu,
    its restriction omega, the dimension, and mu = omega + 2 rho_n_perp."""

    nu: Weight
    omega: Weight
    dim_e: int
    mu: Weight


def inducing_module(p: ReductivePair, parab: CompatibleParabolic,
                    nu: Weight) -> InducingModule:
    """Validate nu against the reductive part and package the inducing data,
    in ints on the type's Gram matrix.  The first positive m-root that nu
    fails is m-simple: a failing gamma has one in its support (gamma-coroot
    is an N-combination of m-simple coroots), which sorts no later, as
    gamma minus it is nonnegative."""
    if len(nu) != p.g.rank:
        raise ValueError(f"nu must have rank {p.g.rank}")
    gram, m_positive = p.g.gram_integers[0], parab.m_positive_roots()
    (nu_row,), d = to_integers([nu])
    rows, _ = to_integers(m_positive)       # roots have int coordinates
    for row, gamma in zip(rows, m_positive):
        g_gamma = [dot(g, row) for g in gram]
        pairing, norm = 2 * dot(nu_row, g_gamma), d * dot(row, g_gamma)
        if pairing < 0 or pairing % norm:
            raise ValueError("nu is not dominant integral for the reductive part: "
                             f"coroot pairing {Fraction(pairing, norm)} at {fmt(gamma)}")
    omega = p.restrict(nu)
    mu = add(omega, scale(2, parab.rho_n_perp))
    return InducingModule(nu, omega, weyl_dim_from_roots(p.g, rows, nu), mu)


def series_parabolic(p: ReductivePair, nu: Weight,
                     lam: Weight | None = None) -> tuple[CompatibleParabolic, InducingModule]:
    """The minimal parabolic consistent with the inducing weight nu, and
    the inducing module on it.

    The chamber must reproduce itself under lam = omega + 2 rho_n_perp
    + 2 rho = omega + 2 rho_n, with omega the restriction of nu, seeded at
    the restricted Weyl vector unless lam pins a chamber.
    """
    omega = p.restrict(nu)
    if lam is None:
        lam = p.restrict(p.g.rho_tilde)
    n_roots, _, ch_t_n = split_roots(p, lam)
    for step in range(p.g.rank + 3):
        if len(n_roots) != p.nonzero_restricted:
            raise ValueError(f"the chamber weight {fmt(lam)} is irregular; give a regular "
                             "'lambda' in the config")
        if not step:        # the seed's embedding, after its regularity
            _n_cap_kperp(p, ch_t_n)
        lam = add(omega, scale(2, ch_t_n.half_sum()))
        parab = compatible_parabolic(p, lam)        # one split per weight
        if parab.n_roots == n_roots:    # both follow g.positive_roots
            return parab, inducing_module(p, parab, nu)
        n_roots, ch_t_n = parab.n_roots, parab.ch_t_n
    raise ValueError(
        "no compatible parabolic is consistent with this inducing weight; "
        "the chamber iteration did not stabilize"
    )


MAX_TABLE_POINTS = 1_000_000   # no partition walk covers more lattice points


def _steps(generators: WeightMultiset, ell, grading: Weight, k: int = 1) -> list[tuple]:
    """(beta, ell . beta, multiplicity) for each int row of the generators,
    in weight order, beta k times the row; every step must be positive."""
    steps, (rows, den) = [], generators.integers
    for row, mult in sorted(rows.items()):
        beta = tuple([k * c for c in row])
        step = dot(ell, beta)
        if step <= 0:
            raise ValueError(f"generator {fmt(from_integers([row], den)[0])} does not "
                             f"pair strictly positively with the grading weight {fmt(grading)}")
        steps.append((beta, step, mult))
    return steps


def _walk(starts: dict[tuple[int, ...], int], low: int, high: int, steps, what: str,
          dead=None) -> tuple[dict[tuple[int, ...], int], list[int]]:
    """The points y + x with level in [low, high], y a key of ``starts``
    (with its level) and x an N-combination of the weights of ``steps``,
    with their levels, grown one weight at a time (the first ends[m] by
    the first m + 1); refused past MAX_TABLE_POINTS.  A point y = x +
    beta_j, reached from x by step j, with dead(y, x, j) is neither kept
    nor walked on from, so the walk holds every point that some way from a
    start reaches, in pass order, through points that are not dead."""
    points, ends = dict(starts), []
    refused = CapExceeded(f"the {what} walk exceeds the cap of {MAX_TABLE_POINTS} lattice points")
    if len(points) > MAX_TABLE_POINTS:
        raise refused
    for j, (beta, step, _) in enumerate(steps):
        for x, level in list(points.items()):
            y, level = tuple(map(operator.add, x, beta)), level + step
            # a point already present has had (or will have) its own walk
            while (low <= level <= high and y not in points
                   and (dead is None or not dead(y, x, j))):
                points[y] = level
                if len(points) > MAX_TABLE_POINTS:
                    raise refused
                x, y, level = y, tuple(map(operator.add, y, beta)), level + step
        ends.append(len(points))
    return points, ends


def _sweep(points: dict[tuple[int, ...], int], origin: tuple[int, ...],
           passes) -> dict[tuple[int, ...], int]:
    """P[y], the ways from origin to each walked point y: for each pair
    (end, (beta, step, multiplicity)) of ``passes``, one pass per copy of
    beta over the first ``end`` points in level order, P[y] += P[y - beta].
    P is exact where every way, in pass order, stays inside each pass."""
    count = dict.fromkeys(points, 0)
    count[origin] = 1
    for end, (beta, _, mult) in passes:
        # in level order, y - beta is counted (for this copy too) before y
        layer = sorted(islice(points, end), key=points.__getitem__)
        for _ in range(mult):
            for y in layer:
                below = count.get(tuple(map(operator.sub, y, beta)))
                if below:
                    count[y] += below
        del layer               # before the next layer is sorted
    return count


def _orthant(scaled, ell) -> Callable | None:
    """dead(y, x, j): y lies outside a sign half-space {s y[i] >= 0} that holds
    every generator beta of ``scaled``, so y and every point below it
    are no N-combination.  A half-space of a positive multiple of ell is
    left out, as level >= 0 holds it; None when no half-space is left."""
    support = [i for i, c in enumerate(ell) if c]
    level_axis = (support[0], ell[support[0]] > 0) if len(support) == 1 else None
    pos = [i for i in range(len(ell)) if (i, True) != level_axis
           and all(beta[i] >= 0 for beta in scaled)]
    neg = [i for i in range(len(ell)) if (i, False) != level_axis
           and all(beta[i] <= 0 for beta in scaled)]
    if not pos and not neg:
        return None

    def dead(y: tuple[int, ...], x=None, j=None) -> bool:
        for i in pos:
            if y[i] < 0:
                return True
        for i in neg:
            if y[i] > 0:
                return True
        return False
    return dead


class PartitionCounter:
    """Vector partition function for a fixed generator multiset.

    count(target) is the number of ways to write target as an
    N-combination of the generators, a weight of multiplicity m acting
    as m independent generators (the coefficient of the target in
    prod (1 - e^beta)^(-mult beta)), and counts(targets) the same for
    several targets from one walk and one sweep.  Every generator must
    pair strictly positively with the grading weight, which bounds the
    walk.

    Counting runs in integer coordinates.  The generators are their int
    rows over one denominator D (``WeightMultiset.integers``), the level
    functional ell = t_gram . grading by its own denominator, and each
    generator carries its integer level step.  A target is scaled by D
    on entry; one that is then not integral is off the lattice of every
    N-combination and counts 0.  Otherwise the walk goes down from every
    target at once to level 0, largest step first, and the sweep counts
    up from 0 in reverse walk order: each way by generators m, m + 1, ...
    to a point that the first m + 1 reach stays among those points.

    The walk keeps to the orthant of the generators (``_orthant``): a
    point outside it counts 0 and is not walked (a target there is not
    walked at all).  This is exact, because every point on a way from 0
    to a target is an N-combination, hence inside the orthant, and at a
    level between 0 and the target's; and the union of the targets' walks
    holds each target's own walk, while every way it adds is still an
    N-combination.
    """

    def __init__(self, p: ReductivePair, generators: WeightMultiset,
                 grading: Weight):
        self.rank = p.rank_t
        if generators.rank != self.rank:
            raise ValueError(f"expected generators of rank {self.rank}, "
                             f"got rank {generators.rank}")
        check_rank(grading, self.rank)
        self._ell, _ = _grading(p, grading)
        self._scale = generators.integers[1]
        # largest step first; the sort is stable, so ties keep weight order
        self._steps = sorted(_steps(generators, self._ell, grading), key=lambda g: -g[1])
        self._down = [(tuple(-c for c in beta), -step, mult)
                      for beta, step, mult in self._steps]
        self._dead = _orthant([beta for beta, _, _ in self._steps], self._ell)

    def count(self, target: Weight) -> int:
        return self.counts([target])[0]

    def counts(self, targets) -> list[int]:
        """count(target) for each of ``targets``, in order."""
        dead = self._dead
        starts: dict[tuple[int, ...], int] = {}
        keys: list[tuple[int, ...] | None] = []
        for target in targets:
            check_rank(target, self.rank)
            scaled = [c * self._scale for c in target]
            x = None
            if all(c.denominator == 1 for c in scaled):
                x = tuple(c.numerator for c in scaled)
                level = dot(self._ell, x)
                if level < 0 or (dead is not None and dead(x)):
                    x = None
                else:
                    starts[x] = level
            keys.append(x)
        if not starts:
            return [0] * len(keys)
        points, ends = _walk(starts, 0, max(starts.values()), self._down,
                             "partition count", dead)
        count = _sweep(points, (0,) * self.rank, reversed(list(zip(ends, self._steps))))
        return [0 if x is None else count[x] for x in keys]


def kostant_weights(p: ReductivePair, delta: Weight) -> list[tuple[int, Weight]]:
    """The weights w(delta + rho) - rho of the nilradical cohomology of a
    k-type, one per Weyl element w, tagged with the degree length(w).
    A small Weyl group over MAX_WEYL elements is refused before the walk."""
    defect = p.dominance_defect(delta)
    if defect is not None:
        raise ValueError(f"delta is not dominant integral: {defect}")
    orbit = reflection_orbit(add(delta, p.rho), p.k_simple_roots, p.k_coroot_functionals)
    return sorted((len(word), sub(y, p.rho)) for word, y in orbit)


def _check_series_inputs(p: ReductivePair, parab: CompatibleParabolic,
                         e: InducingModule) -> None:
    if not parab.minimal:
        raise ValueError(
            "the parabolic is not minimal: the small Cartan does not act on "
            "the inducing module by a scalar, so the character formula does "
            "not apply"
        )
    if e.mu != add(e.omega, scale(2, parab.rho_n_perp)):
        raise ValueError("inducing module does not match this parabolic: "
                         "mu != omega + 2 rho_n_perp")


def kostant_terms(p: ReductivePair, parab: CompatibleParabolic,
                  e: InducingModule, delta: Weight) -> dict[int, int]:
    """The Euler characteristic of the series against V(delta), split by
    Kostant degree: degree i maps to dim E times the unsigned sum of the
    partition counts of its length-i terms, an upper bound for the
    multiplicity of V(delta) in degree s - i."""
    _check_series_inputs(p, parab, e)
    counter = PartitionCounter(p, parab.ch_t_n_cap_kperp, parab.lam)
    weights = kostant_weights(p, delta)
    counts = counter.counts([sub(w_weight, e.mu) for _, w_weight in weights])
    terms: dict[int, int] = {}
    for (length, _), value in zip(weights, counts):
        terms[length] = terms.get(length, 0) + e.dim_e * value
    return terms


def euler_multiplicity(p: ReductivePair, parab: CompatibleParabolic,
                       e: InducingModule, delta: Weight) -> int:
    """Euler characteristic of the series against V(delta), the
    alternating sum of its Kostant terms; equals the multiplicity when
    the inducing k-type is generic."""
    terms = kostant_terms(p, parab, e, delta)
    return sum((-1) ** i * value for i, value in terms.items())


@dataclass(frozen=True)
class MultiplicityTable:
    """Nonzero k-type Euler multiplicities inside a shifted-norm ball,
    with the shifted squared norm |delta + 2 rho|^2 of every entry;
    ``ktype_table`` inserts both in (norm, weight) order."""

    entries: dict[Weight, int]
    norms: dict[Weight, Fraction]
    cutoff: Fraction
    s: int
    r: int
    mu: Weight
    dim_e: int

    def sorted_entries(self) -> list[tuple[Weight, int]]:
        return sorted(self.entries.items(), key=lambda kv: (self.norms[kv[0]], kv[0]))


def ktype_table(p: ReductivePair, parab: CompatibleParabolic,
                e: InducingModule, cutoff: Fraction | int) -> MultiplicityTable:
    """All nonzero Euler multiplicities at dominant integral weights whose
    shifted squared norm is at most the cutoff, by one signed fold of the
    partition character.

    Kostant's sum m(delta) = dim E * sum_w (-1)^l(w) P(w(delta + rho) -
    rho - mu) is read the other way round (the Brauer-Klimyk, or
    Racah-Speiser, rearrangement; Humphreys, Introduction to Lie Algebras
    and Representation Theory, section 24 and its exercises): every point y = mu +
    rho + x, x an N-combination of the weights of n cap k-perp, carries
    P(x), and the simple-reflection fold takes y to the weakly dominant
    point z of its W_k-orbit with sign (-1)^(number of reflections).
    When z lies off the walls it is delta + rho for exactly one delta,
    and the fold of w(delta + rho) has the parity of l(w), so summing the
    signed counts at each z gives m(delta) with no Weyl group walked.  A
    z on a wall is no delta + rho: z - rho fails the dominance test, so
    its points add to no entry.

    Every term of a delta in the ball is reached: W_k acts by isometries,
    and for dominant delta
        |delta + 2 rho|^2 = |delta + rho|^2 + 2 <delta, rho> + 3 |rho|^2
    with <delta, rho> >= 0, so each w(delta + rho) has squared norm at
    most R = cutoff - 3 |rho|^2.  By Cauchy-Schwarz its lam-level is at
    most |lam| sqrt(R), tested squared; each weight raises the level, so
    the points under that cap are grown one support weight at a time.
    A point y outside the ball with <y, beta> >= 0 for every weight beta
    is neither kept nor walked on from: |y + x|^2 = |y|^2 + 2 <y, x> +
    |x|^2 >= |y|^2 for every N-combination x, so nothing at or above y
    lies in the ball.  Every point below a ball point is therefore kept,
    and every way to a ball point stays among the points of each pass,
    so P there comes exactly from ``_sweep``, the passes in walk order,
    each over the points so far.  The lam-level cap stays, as it is what
    ends the walk.  A kept point outside the ball, whose count may be
    inexact, is folded too, with no filter of its own: the fold is an
    isometry, so it lands on a z with |z|^2 > R, and for dominant
    delta = z - rho the identity above gives |delta + 2 rho|^2 > cutoff,
    so the final norm test drops it (a non-dominant z - rho is no entry
    either).  Every point of one z has the same norm, so such counts
    never reach an entry.

    Everything runs on int tuples, weights scaled by D = lcm(denominators
    of mu + rho, rho and the generators' int rows) times the denominators
    of the k-simple roots and of the coroot functionals, so that every
    reflection of ``weyl_fold`` is an exact integer step; |y|^2 is carried
    along each ray of the walk, 2 <y, G beta> + |beta|^2 a step.  The walk
    is refused past MAX_TABLE_POINTS points, and a small Weyl group over
    MAX_WEYL elements before it starts.
    """
    _check_series_inputs(p, parab, e)
    cutoff = Fraction(cutoff)
    k = root_datum(p.k_simple_roots, p.k_coroot_functionals)
    cartan, (sigmas, sig_den), (funs, fun_den) = k.cartan, k.simple_integers, k.functional_integers
    q = sig_den * fun_den
    (mu_rho, rho), base = to_integers([add(e.mu, p.rho), p.rho])
    generators = parab.ch_t_n_cap_kperp
    den_r = generators.integers[1]             # of the generators' int rows
    den = math.lcm(base, den_r) * q
    start, rho = [tuple([den // base * c for c in row]) for row in (mu_rho, rho)]
    gram, gram_den = p.t_gram_integers
    ell, lam_row = _grading(p, parab.lam)

    def norm2(y) -> int:        # |y / D|^2 times unit
        return dot(y, [dot(row, y) for row in gram])

    unit, cut, cut_den = gram_den * den * den, cutoff.numerator, cutoff.denominator
    minimum_norm = norm2(tuple(map(operator.add, start, rho)))   # of mu + 2 rho
    if cut * unit < minimum_norm * cut_den:
        low = Fraction(minimum_norm, unit)
        raise ValueError(f"cutoff {cutoff} lies below the shifted norm {low} of the minimal "
                         "k-type, which the table must contain")
    # the fold walks no group; without this check the E8 levi {1..8} table
    # takes 0.2 s, but verify then runs past 40 s in the condition-2 search
    refuse_weyl_order(p.k_weyl_order)

    # ball |y|^2 <= R = cutoff - 3 |rho|^2 as norm2(y) cut_den <= ball; lam-level
    # cap level^2 <= |lam|^2 R, in the units of ell . y (ell . lam_row) ball / cut_den
    ball = cut * unit - 3 * norm2(rho) * cut_den
    steps = _steps(generators, ell, parab.lam, den // den_r)
    raised = [[dot(row, beta) for row in gram] for beta, _, _ in steps]
    beta2 = [dot(step[0], g) for step, g in zip(steps, raised)]   # |beta|^2
    last = [start, norm2(start)]   # the point last tested, and its |y|^2

    def dead(y, x, j) -> bool:  # outside the ball, and no weight lowers |y|^2
        n = (last[1] if x is last[0] else norm2(x)) + 2 * dot(x, raised[j]) + beta2[j]
        last[:] = y, n
        return n * cut_den > ball and all(dot(y, g) >= 0 for g in raised)

    level = dot(ell, start)
    points, ends = _walk({start: level}, level,
                         math.isqrt(max(0, dot(ell, lam_row) * ball // cut_den)),
                         steps, "k-type table", dead)
    count = _sweep(points, start, zip(ends, steps))
    del points                  # before the fold

    # the fold of each point, from its pairings c = fun_den D <y, sigma_j-coroot>
    folded: dict[tuple[int, ...], int] = {}
    for y, n in count.items():
        c = [sum(map(operator.mul, f, y)) for f in funs]
        if min(c, default=0) < 0:
            a, reflections = weyl_fold(c, cartan)
            for ai, sigma in zip(a, sigmas):
                if ai:
                    y = tuple([u - ai // q * v for u, v in zip(y, sigma)])
            n = -n if reflections % 2 else n
        folded[y] = folded.get(y, 0) + n

    # keep z when |z|^2 <= cutoff and delta = z - rho is dominant integral: each
    # fun_den D <delta, sigma_i-coroot> is >= 0 and a multiple of fun_den D
    kept = []
    rho_c, whole = [dot(f, rho) for f in funs], fun_den * den
    for z, total in folded.items():
        if total and all((v := dot(f, z) - r) >= 0 and not v % whole
                         for f, r in zip(funs, rho_c)):
            if (norm := norm2(tuple(map(operator.add, z, rho)))) * cut_den <= cut * unit:
                kept.append((norm, tuple(map(operator.sub, z, rho)), e.dim_e * total))
    kept.sort()
    deltas = from_integers([d for _, d, _ in kept], den)
    return MultiplicityTable(entries={d: m for d, (_, _, m) in zip(deltas, kept)},
                             norms={d: Fraction(n, unit) for d, (n, _, _) in zip(deltas, kept)},
                             cutoff=cutoff, s=parab.s, r=parab.r, mu=e.mu, dim_e=e.dim_e)


def infinitesimal_character(rs: RootSystem, e: InducingModule) -> Weight:
    """The central character, labeled by the dominant point of the Weyl
    orbit of nu + the ambient Weyl vector: its simple-root coordinates
    minus the displacement of ``weyl_fold`` on the ambient Cartan matrix."""
    (x,), den = to_integers([add(e.nu, rs.rho_tilde)])
    a, _ = weyl_fold([dot(x, column) for column in zip(*rs.cartan)], rs.cartan)
    return from_integers([list(map(operator.sub, x, a))], den)[0]


@dataclass(frozen=True)
class MinimalKTypeReport:
    """Checks that the table looks like the character of a series with a
    unique minimal k-type of multiplicity dim E and nonnegative entries."""

    minimal_entry_ok: bool
    unique_minimum_ok: bool
    nonnegative_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.minimal_entry_ok and self.unique_minimum_ok and self.nonnegative_ok


def verify_minimal_ktype(table: MultiplicityTable, e: InducingModule,
                         p: ReductivePair) -> MinimalKTypeReport:
    mu_norm = norm2_shifted(p, e.mu)
    return MinimalKTypeReport(
        minimal_entry_ok=table.entries.get(e.mu) == e.dim_e,
        unique_minimum_ok=all(norm > mu_norm for delta, norm in table.norms.items()
                              if delta != e.mu),
        nonnegative_ok=all(v >= 0 for v in table.entries.values()))
