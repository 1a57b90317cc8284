"""
Reductive pairs and compatible parabolic subalgebras
====================================================

A reductive pair packages a semisimple algebra together with the
root-restriction data of an embedded reductive subalgebra.  Three stock
constructions are shown: a rank-one subalgebra fixed by marks on the
simple roots, the Cartan subalgebra itself, and a Levi subalgebra; an
explicit constructor accepts raw matrices for anything else.
"""

from redpair import (
    build_root_system,
    compatible_parabolic,
    is_regular,
    make_cartan_pair,
    make_levi_pair,
    make_sl2_pair,
    vec,
)
from redpair.weights import add, scale

g = build_root_system("B2")

# the principal rank-one subalgebra: every simple root is marked 2, so a
# root restricts to twice its height
p = make_sl2_pair(g, [2, 2])
print("restricted roots:", sorted(p.delta_t))
print("restrictions of the positive roots:",
      sorted(p.restrict(r)[0] for r in g.positive_roots))
print("rho of the subalgebra:", p.rho)
print("induced form constant:", p.t_gram[0][0])

# the compatible parabolic attached to a regular grading weight lam
# splits the roots into the nilradical n (positive pairing) and the
# reductive part m (zero pairing)
lam = vec(8)    # the chamber of mu = 6
assert is_regular(p, lam)
parab = compatible_parabolic(p, lam)
print("character of n:", dict(parab.ch_t_n.items()))
print("n cap k:", dict(parab.ch_t_n_cap_k.items()))
print("n cap k-perp:", dict(parab.ch_t_n_cap_kperp.items()))
print("rho_n =", parab.rho_n, " rho_n_perp =", parab.rho_n_perp)
print("s =", parab.s, " r =", parab.r, " minimal =", parab.minimal)

# the half-sum identity rho_n = rho + rho_n_perp holds whenever the
# splitting exists
assert parab.rho_n == add(p.rho, parab.rho_n_perp)

# the Cartan pair: identity restriction, no subalgebra roots
cartan = make_cartan_pair(build_root_system("A2"))
print("Cartan pair restricted roots:", len(cartan.delta_t))
irregular = vec(1, -1)                       # pairs to zero with a1 + a2
print("is", irregular, "regular?", is_regular(cartan, irregular))
print("minimal?", compatible_parabolic(cartan, irregular).minimal)

# a Levi pair keeps the ambient form but only part of the root system
levi = make_levi_pair(build_root_system("A2"), {1})
print("Levi k-positive roots:", levi.k_positive_roots, " rho:", levi.rho)
mu = vec(2, 0)
lam = add(mu, scale(2, levi.rho))
parab = compatible_parabolic(levi, lam)
print("Levi parabolic: s =", parab.s, " r =", parab.r,
      " t_pair(lam, lam) =", levi.t_pair(lam, lam))
