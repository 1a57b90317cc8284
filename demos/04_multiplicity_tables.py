"""
K-type multiplicity tables by Euler characteristic
==================================================

The k-character of the induced series is assembled from Kostant's
cohomology weights w(delta + rho) - rho, a vector partition function on
the weights of n cap k-perp, and the dimension of the inducing module.
Under genericity the alternating sum is an honest multiplicity: the
minimal k-type mu carries exactly dim E, everything else sits at
strictly larger shifted norm, and no entry is negative.
"""

from redpair import (
    build_root_system,
    compatible_parabolic,
    inducing_module,
    infinitesimal_character,
    ktype_table,
    make_cartan_pair,
    make_sl2_pair,
    PartitionCounter,
    norm2_shifted,
    vec,
    verify_minimal_ktype,
)
from redpair.weights import WeightMultiset, sub, zero

# the classical sl(3) example at m = 3: inducing weight omega = -3, so
# mu = omega + 2 rho_n_perp = 3
g = build_root_system("A2")
p = make_sl2_pair(g, [2, 2])
parab = compatible_parabolic(p, vec(5))               # the chamber of mu = 3
e = inducing_module(p, parab, p.lift_weight(vec(-3)))
print("inducing module: omega =", e.omega, " dim E =", e.dim_e, " mu =", e.mu)

table = ktype_table(p, parab, e, norm2_shifted(p, vec(11)))
print("multiplicities (s =", table.s, ", r =", table.r, "):")
for delta, mult in table.sorted_entries():
    print("   delta =", delta[0], " mult =", mult,
          " |delta + 2 rho|^2 =", table.norms[delta])

# the entries are partition counts: delta - mu written with parts 2 and 4
counter = PartitionCounter(p, WeightMultiset({vec(2): 1, vec(4): 1}), parab.lam)
for delta in table.entries:
    assert table.entries[delta] == counter.count(sub(delta, e.mu))

report = verify_minimal_ktype(table, e, p)
print("minimal entry ok:", report.minimal_entry_ok,
      "| unique minimum:", report.unique_minimum_ok,
      "| nonnegative:", report.nonnegative_ok)

# the center of the enveloping algebra acts through the dominant
# representative of nu + rho_tilde
print("central character representative:",
      infinitesimal_character(g, e))

# degenerate case: the subalgebra is the Cartan of sl(2); the Weyl group
# is trivial and the table is a pure partition character shifted by mu
cartan = make_cartan_pair(build_root_system("A1"))
parab0 = compatible_parabolic(cartan, vec(1))
e0 = inducing_module(cartan, parab0, zero(1))
table0 = ktype_table(cartan, parab0, e0, norm2_shifted(cartan, vec(7)))
print("Cartan-pair table (all multiplicities one):",
      sorted((delta[0], mult) for delta, mult in table0.entries.items()))
