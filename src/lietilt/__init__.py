"""Exact character-theoretic decompositions for SL(2) in prime characteristic.

Weyl, simple, and tilting characters with unitriangular basis conversion;
Witt weight counts for Lie powers; the characteristic-2 bidegree splitting;
a coefficient-sequence engine for the near-top Lie power summand; and
classification reports over two-row highest weights.
"""

from .charring import (
    ConsistencyError,
    Partition2,
    SymCharacter,
    lambda_of,
    two_row_partitions,
    weight_set,
)
from .gzeta import (
    GZetaProfile,
    c_sequence,
    gzeta_dim,
    gzeta_profile,
    is_p_power,
    metabelian_summand,
    theorem_b_predicate,
    weight_nonzero,
)
from .liechar import (
    LieDecompReport,
    StohrSummand,
    Verdict,
    char_lie_power,
    l4_weyl2_composition_factors,
    lie_power_char,
    lie_tilting_decomp,
    stohr_pairs,
    stohr_summand,
    stohr_tilting_decomp,
    tilting_multiplicity_lower_bound,
)
from .modarith import PrimeChar, binom_mod, divisors, mobius, witt_bidegree, witt_weight_count
from .report import (
    Evidence,
    TheoremARow,
    TheoremCClause,
    TheoremCRow,
    theorem_37_report,
    theorem_a_report,
    theorem_c_report,
)
from .tiltchar import (
    Basis,
    Decomposition,
    basis_char,
    char_simple,
    char_tilting,
    char_weyl,
    decompose,
    is_weyl_simple,
    natural_power_char,
    tensor_power_decomp,
    weyl_twist_identity,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "ConsistencyError",
    "Decomposition",
    "Evidence",
    "GZetaProfile",
    "LieDecompReport",
    "Partition2",
    "PrimeChar",
    "StohrSummand",
    "SymCharacter",
    "TheoremARow",
    "TheoremCClause",
    "TheoremCRow",
    "Verdict",
    "basis_char",
    "binom_mod",
    "c_sequence",
    "char_lie_power",
    "char_simple",
    "char_tilting",
    "char_weyl",
    "decompose",
    "divisors",
    "gzeta_dim",
    "gzeta_profile",
    "is_p_power",
    "is_weyl_simple",
    "l4_weyl2_composition_factors",
    "lambda_of",
    "lie_power_char",
    "lie_tilting_decomp",
    "metabelian_summand",
    "mobius",
    "natural_power_char",
    "stohr_pairs",
    "stohr_summand",
    "stohr_tilting_decomp",
    "tensor_power_decomp",
    "theorem_37_report",
    "theorem_a_report",
    "theorem_b_predicate",
    "theorem_c_report",
    "tilting_multiplicity_lower_bound",
    "two_row_partitions",
    "weight_nonzero",
    "weight_set",
    "weyl_twist_identity",
    "witt_bidegree",
    "witt_weight_count",
]
