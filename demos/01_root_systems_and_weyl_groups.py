"""
Root systems, the invariant form, and Weyl groups
=================================================

Everything in this library is exact: weights are tuples of fractions in
the simple-root basis, and the invariant form is the Gram matrix of the
simple roots, normalized so long roots have squared length 2.
"""

from fractions import Fraction

from redpair import build_root_system, vec, weyl_dim, weyl_group

# build a rank-two root system; positive roots come out closed under the
# usual height order
rs = build_root_system("B2")
print("B2 positive roots (simple-root coordinates):")
for root in rs.positive_roots:
    print("   ", root, "  squared length", rs.pair(root, root))

# the Weyl vector is half the sum of the positive roots
print("Weyl vector:", rs.rho_tilde)

# the short simple root has squared length 1 under the normalization
a1, a2 = rs.simple_roots
assert rs.pair(a1, a1) == 2
assert rs.pair(a2, a2) == 1

# full Weyl group enumeration with exact lengths
elements = weyl_group(rs)
print("Weyl group order:", len(elements))
for w in sorted(elements, key=lambda w: (w.length, w.word)):
    print("  length", w.length, "word", w.word)

# the length of each element equals its inversion count
for w in elements:
    image = w.apply(rs.rho_tilde)
    inversions = sum(1 for b in rs.positive_roots if rs.pair(image, b) < 0)
    assert inversions == w.length

# Weyl dimension formula, exact in the fractions
a2sys = build_root_system("A2")
print("dimension of the adjoint module of A2:", weyl_dim(a2sys, vec(1, 1)))
print("dimensions of the sl(2) string:",
      [weyl_dim(build_root_system("A1"), vec(Fraction(m, 2))) for m in range(6)])

# composite types work transparently
product_sys = build_root_system("A1xA1")
print("A1xA1 has", len(product_sys.positive_roots), "positive roots and",
      len(weyl_group(product_sys)), "Weyl elements")
