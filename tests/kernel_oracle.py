"""The ``Fraction`` versions of the integer kernels, kept as their oracles:
the Gram matrix of each simple type written out family by family, the
orbit walk on weight vectors and the fold to the dominant chamber,
Gauss-Jordan inversion and the matrix product over the rationals, and the
root split that restricts every root on each call; and the root closure by
root strings, which sums each candidate's coroot pairing over the whole
rank."""

from fractions import Fraction

from redpair.weights import WeightMultiset, neg


def simple_gram(family, n):
    """Gram matrix of the simple roots of one simple type, long roots of
    squared length 2, written out family by family with each bond's entry."""
    g = [[Fraction(0)] * n for _ in range(n)]
    chain = list(range(n - 1))  # edges i -- i+1 by default

    if family == "A":
        lengths = [Fraction(2)] * n
        off = {(i, i + 1): Fraction(-1) for i in chain}
    elif family == "B":
        # last simple root short
        lengths = [Fraction(2)] * (n - 1) + [Fraction(1)]
        off = {(i, i + 1): Fraction(-1) for i in chain}
    elif family == "C":
        # last simple root long
        lengths = [Fraction(1)] * (n - 1) + [Fraction(2)]
        off = {(i, i + 1): Fraction(-1, 2) for i in range(n - 2)}
        off[(n - 2, n - 1)] = Fraction(-1)
    elif family == "D":
        lengths = [Fraction(2)] * n
        off = {(i, i + 1): Fraction(-1) for i in range(n - 2)}
        off[(n - 3, n - 1)] = Fraction(-1)
        off.pop((n - 2, n - 1), None)
    elif family == "E":
        # Bourbaki numbering: chain 1-3-4-5-...-n with node 2 attached to 4
        lengths = [Fraction(2)] * n
        off = {}
        chain_nodes = [0] + list(range(2, n))
        for a, b in zip(chain_nodes, chain_nodes[1:]):
            off[(a, b)] = Fraction(-1)
        off[(1, 3)] = Fraction(-1)
    elif family == "F":
        lengths = [Fraction(2), Fraction(2), Fraction(1), Fraction(1)]
        off = {(0, 1): Fraction(-1), (1, 2): Fraction(-1), (2, 3): Fraction(-1, 2)}
    elif family == "G":
        lengths = [Fraction(2, 3), Fraction(2)]
        off = {(0, 1): Fraction(-1)}
    else:
        raise ValueError(family)

    for i in range(n):
        g[i][i] = lengths[i]
    for (i, j), v in off.items():
        g[i][j] = v
        g[j][i] = v
    return g


def reflection_orbit(x, simple_roots, coroot_pairing):
    """Breadth-first walk of the orbit of a strictly dominant x under
    y -> y - <y, sigma_i-coroot> sigma_i, on the points themselves."""
    for i in range(len(simple_roots)):
        c = coroot_pairing(x, i)
        if c <= 0:
            raise ValueError(f"orbit base point {x} is not strictly dominant")
    orbit = [((), x)]
    level = {x: ()}
    while level:
        nxt = {}
        for y, word in level.items():
            for i, sigma in enumerate(simple_roots):
                c = coroot_pairing(y, i)
                if c <= 0:
                    continue
                z = tuple(a - c * b for a, b in zip(y, sigma))
                if z in nxt:
                    continue
                nxt[z] = (i,) + word
        orbit.extend((word, z) for z, word in nxt.items())
        level = nxt
    return orbit


def fold_dominant(x, simple_roots, coroot_pairing):
    """The unique weakly dominant point of the Weyl orbit of x, reached by
    the simple reflections x -> x - <x, sigma_i-coroot> sigma_i."""
    while True:
        for i, sigma in enumerate(simple_roots):
            c = coroot_pairing(x, i)
            if c < 0:
                x = tuple(a - c * b for a, b in zip(x, sigma))
                break
        else:
            return x


def identity(n):
    """The n x n identity matrix in ``Fraction``."""
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def inverse(a):
    """Gauss-Jordan elimination in ``Fraction``; ValueError when singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    aug = [list(map(Fraction, row)) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def restrict(p, x):
    """The restriction matrix times x, summed in ``Fraction``."""
    return tuple(sum(a * b for a, b in zip(row, x)) for row in p.restriction)


def split_roots(p, lam):
    """(n_roots, m_roots, ch_t_n), restricting each root and pairing it
    through ``t_pair``."""
    n_roots, m_roots, ch = [], [], {}
    for root in p.g.positive_roots:
        restricted = restrict(p, root)
        value = p.t_pair(lam, restricted)
        if value > 0:
            n_roots.append(root)
            ch[restricted] = ch.get(restricted, 0) + 1
        elif value < 0:
            negative = neg(restricted)
            n_roots.append(neg(root))
            ch[negative] = ch.get(negative, 0) + 1
        else:
            m_roots.append(root)
            m_roots.append(neg(root))
    return tuple(n_roots), tuple(m_roots), WeightMultiset(ch, rank=p.rank_t)


def mat_mul(a, b):
    """The product summed in ``Fraction``."""
    bt = tuple(zip(*b)) if b else ()
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def root_closure(a, max_roots=None):
    """The positive roots of an integer Cartan matrix, level by level in
    height: beta + alpha_i is a root iff p - <beta, alpha_i-coroot> > 0,
    with p the largest k such that beta - k alpha_i is a root.  More than
    max_roots roots raise the library's cap message."""
    rank = len(a)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots = set(simple)
    level = list(simple)
    all_levels = [list(simple)]
    while level:
        nxt = []
        for beta in level:
            for i in range(rank):
                candidate = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                if candidate in roots:
                    continue
                p = 0
                while beta[:i] + (beta[i] - p - 1,) + beta[i + 1:] in roots:
                    p += 1
                if p - sum(beta[j] * a[j][i] for j in range(rank)) > 0:
                    roots.add(candidate)
                    nxt.append(candidate)
                    if max_roots is not None and len(roots) > max_roots:
                        raise ValueError("root closure exceeded its cap; the Cartan "
                                         "data is not of finite type")
        if nxt:
            all_levels.append(nxt)
        level = nxt
    return [r for lev in all_levels for r in sorted(lev)]
