"""Exact computations with reductive pairs of complex Lie algebras:
root systems, compatible parabolic subalgebras, genericity of k-types,
and k-type multiplicity tables of cohomologically induced series."""

from .fundseries import (
    InducingModule,
    MinimalKTypeReport,
    MultiplicityTable,
    PartitionCounter,
    euler_multiplicity,
    inducing_module,
    infinitesimal_character,
    kostant_terms,
    kostant_weights,
    ktype_table,
    series_parabolic,
    verify_minimal_ktype,
)
from .genericity import GenericityReport, is_generic, norm2_shifted, sl2_threshold
from .parabolic import CompatibleParabolic, compatible_parabolic, is_regular, split_roots
from .reductive import (
    ReductivePair,
    make_cartan_pair,
    make_explicit_pair,
    make_levi_pair,
    make_sl2_pair,
)
from .rootsystem import (
    CapExceeded,
    LieType,
    RootSystem,
    WeylElement,
    build_root_system,
    weyl_dim,
    weyl_group,
)
from .weights import Weight, WeightMultiset, vec, weight

__all__ = [
    "CapExceeded",
    "CompatibleParabolic",
    "GenericityReport",
    "InducingModule",
    "LieType",
    "MinimalKTypeReport",
    "MultiplicityTable",
    "PartitionCounter",
    "ReductivePair",
    "RootSystem",
    "Weight",
    "WeightMultiset",
    "WeylElement",
    "build_root_system",
    "compatible_parabolic",
    "euler_multiplicity",
    "inducing_module",
    "infinitesimal_character",
    "is_generic",
    "is_regular",
    "kostant_terms",
    "kostant_weights",
    "ktype_table",
    "make_cartan_pair",
    "make_explicit_pair",
    "make_levi_pair",
    "make_sl2_pair",
    "norm2_shifted",
    "series_parabolic",
    "sl2_threshold",
    "split_roots",
    "vec",
    "verify_minimal_ktype",
    "weight",
    "weyl_dim",
    "weyl_group",
]

__version__ = "0.1.0"
