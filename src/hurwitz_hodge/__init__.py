"""Exact connected Hurwitz numbers and psi/lambda intersection numbers.

Three independent engines count genus-g coverings of the sphere with one
degenerate branch point (brute-force state counting, character theory with
connectivity inclusion-exclusion, cut-and-join recursion), all over exact
rationals.  The normalized counts are then inverted by exact linear algebra
into tables of psi/lambda intersection numbers over the moduli space of
curves, and cross-checked against the sine-kernel generating function.
"""

from .characters import character_value
from .cutjoin import cut_and_join_hurwitz, cut_and_join_layers
from .engines import (
    brute_force_hurwitz,
    connected_hurwitz,
    genus_zero_closed_form,
)
from .errors import ConsistencyError, InfeasibleError
from .hodge import (
    HodgeTable,
    degree_LL,
    extract_hodge_integrals,
    hodge_keys,
    hurwitz_from_hodge,
    is_stable,
    minimal_grid_bound,
    prefactor,
)
from .partitions import aut_count, check_partition, check_profile, partitions_of, z_order
from .series import (
    hodge_side_coefficient,
    sine_kernel,
    verify_faber_pandharipande,
)

__version__ = "0.1.0"

__all__ = [
    "aut_count",
    "check_partition",
    "check_profile",
    "partitions_of",
    "z_order",
    "character_value",
    "brute_force_hurwitz",
    "connected_hurwitz",
    "genus_zero_closed_form",
    "cut_and_join_layers",
    "cut_and_join_hurwitz",
    "HodgeTable",
    "prefactor",
    "degree_LL",
    "hodge_keys",
    "minimal_grid_bound",
    "extract_hodge_integrals",
    "hurwitz_from_hodge",
    "is_stable",
    "sine_kernel",
    "hodge_side_coefficient",
    "verify_faber_pandharipande",
    "InfeasibleError",
    "ConsistencyError",
]
