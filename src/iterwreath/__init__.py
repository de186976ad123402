"""Iterated wreath products of S2 as binary-tree automorphism towers.

Exact construction and brute-force verification of the tower's structure:
cosets, centers, centralizer algebras, conjugation orbits, the Mackey
decomposition for adjacent levels, and bases and generating sets for the
endomorphism algebras of iterated induction and restriction.
"""

from .treegroup import (
    LevelMismatch,
    LevelTooLarge,
    NotATreeAutomorphism,
    SubgroupSpec,
    TreeAutomorphism,
    UsageError,
    beta,
    beta_product,
    embed_to,
    factorize,
    full_group,
    group_order,
    hat_embed,
    identity,
    perm_embed,
)
from .algebra import AlgebraElement, Orbit, centralizes, class_sum, orbit, orbit_sum
from .structure import (
    CosetSystem,
    OrbitDecomposition,
    PresentationReport,
    VerificationError,
    center,
    center_closed_form,
    centralizer_algebra_basis,
    check_presentation,
    class_count,
    conjugacy_classes,
    double_cosets,
    expand_in_orbit_basis,
    group_centralizer,
    orbit_decomposition,
    orbit_index,
    predicted_orbit_count,
    predicted_orbit_count_literal,
    right_coset_reps,
)
from .mackey import MackeySummand, conjugate_intersection, mackey_decomposition
from .endo import (
    EndBasis,
    HomSpaceEmpty,
    TensorBasisElement,
    d_generator_table,
    end_ind_res_basis,
    opposite_check,
    power_table,
    tensor_basis,
)

__version__ = "0.1.0"
