"""Finite semigroup analysis on Cayley tables.

Classification across separativity-style classes, congruences induced by
admissible relations and the least semilattice congruence, semilattice
decomposition into components, exhaustive enumeration of small orders,
and verification suites that machine-check the structural claims on
every small table.
"""

from .congruence import (
    Congruence,
    NotACongruence,
    induced_congruence,
    least_semilattice_congruence,
    quotient,
)
from .core import (
    CayleyTable,
    FormatError,
    NotAssociative,
    OutOfRangeEntry,
    adjoin_identity,
    format_table,
    parse_table,
    validate,
)
from .decomposition import (
    SemilatticeDecomposition,
    VerificationReport,
    admissible_candidates,
    decompose,
    run_checks,
    search_cor15_converse,
    strictness_witnesses,
)
from .enumeration import (
    MAX_CLASS_ORDER,
    MAX_LABELED_ORDER,
    OrderTooLarge,
    canonical_form,
    enumerate_canonical,
    enumerate_labeled,
    random_table,
)
from .properties import (
    PROFILE_KEYS,
    PropertyProfile,
    classify,
    format_profile,
    has_square_descent,
    is_band,
    is_cancellative,
    is_commutative,
    is_left_cancellative,
    is_quasi_cancellative,
    is_quasi_separative,
    is_right_cancellative,
    is_semilattice,
    is_separative,
    is_weakly_balanced,
    is_weakly_cancellative,
)
from .relations import (
    AdmissibilityReport,
    BinaryRelation,
    canonical_relation,
    check_admissibility,
    format_relation,
    left_equalizer,
    parse_relation,
    right_equalizer,
)
from .zoo import (
    BICYCLIC_IDENTITY,
    BicyclicElement,
    bicyclic_bounded_check,
    bicyclic_mul,
    bicyclic_weakly_balanced_witness,
    chain_semilattice,
    cyclic_group,
    left_zero,
    monogenic,
    null_semigroup,
    rectangular_band,
    right_zero,
    semilattice_of_components,
)

__version__ = "0.1.0"
