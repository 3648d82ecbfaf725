"""Exact Kronecker products of symmetric-group characters.

Partition combinatorics, Littlewood-Richardson expansions, exact
character tables, two independent Kronecker-coefficient engines, and
the complete multiplicity-free classification predicates, together with
an exhaustive desk-scale verification harness (see the ``kronmf`` CLI).
"""

from .expansion import CharacterExpansion
from .partitions import (
    EMPTY,
    Node,
    Partition,
    SkewShape,
    classify_shape,
    conjugate,
    dimension,
    enumerate_partitions,
    format_partition,
    format_skew,
    hook_counts,
    intersect,
    is_proper_skew,
    parse_partition,
    parse_skew,
    skew_normalize,
)
from .littlewood_richardson import (
    is_mf_outer,
    is_mf_skew,
    lr_coefficient,
    outer_product,
    path_profile,
    skew_expand,
)
from .characters import (
    CharacterTable,
    character_table,
    character_value,
    class_size,
    kron_oracle,
    kron_product_oracle,
    kron_row_oracle,
)
from .kronecker import (
    SemigroupWitness,
    g_at_max_width,
    g_dvir,
    g_max,
    kron_coefficient,
    kron_product,
    kron_row,
    max_width,
    multiply_expansions,
    semigroup_bound,
    virtual_extension_chi,
    y_set,
)
from .classification import (
    MfVerdict,
    is_mf_pair,
    is_mf_skew_times_irr,
    is_mf_triple,
    kk_square,
    kk_times_hook_mult,
    kk_times_near,
    product_with_natural,
    small_depth_products,
    square_low_depth,
    staircase_square,
)

__version__ = "0.1.0"
