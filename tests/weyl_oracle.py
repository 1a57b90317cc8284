"""The Weyl group as ``Fraction`` matrices: the breadth-first closure of
the simple reflection matrices under multiplication, where the depth of
an element is its length.  This is independent of the orbit walk of
``redpair.rootsystem`` and serves as its oracle."""

from fractions import Fraction

from redpair.linalg import mat_vec


def reflection_matrices(simple_roots, functionals):
    """s_i = 1 - sigma_i f_i, acting on coordinate vectors."""
    rank = len(simple_roots[0]) if simple_roots else 0
    return [
        tuple(
            tuple((Fraction(1) if a == b else Fraction(0)) - sigma[a] * f[b]
                  for b in range(rank))
            for a in range(rank)
        )
        for sigma, f in zip(simple_roots, functionals)
    ]


def matrix_group(generators, rank):
    """Every (length, matrix) of the group the generators generate."""
    ident = tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(rank))
        for i in range(rank)
    )
    seen = {ident}
    elements = [(0, ident)]
    frontier = [ident]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for m in frontier:
            for gen in generators:
                prod = tuple(
                    tuple(sum(m[a][c] * gen[c][b] for c in range(rank))
                          for b in range(rank))
                    for a in range(rank)
                )
                if prod not in seen:
                    seen.add(prod)
                    elements.append((depth, prod))
                    nxt.append(prod)
        frontier = nxt
    return elements


def root_system_group(rs):
    """The Weyl group of a root system; the coroot functional of alpha_i
    is column i of the Cartan matrix."""
    functionals = [tuple(rs.cartan[b][i] for b in range(rs.rank))
                   for i in range(rs.rank)]
    return matrix_group(reflection_matrices(rs.simple_roots, functionals), rs.rank)


def k_group(p):
    """The small Weyl group of a reductive pair on small-side weights."""
    return matrix_group(reflection_matrices(p.k_simple_roots, p.k_coroot_functionals),
                        p.rank_t)


def images(group, x):
    """The sorted multiset of (length, w x)."""
    return sorted((length, mat_vec(m, x)) for length, m in group)
