"""bohrlab: unitary Bohr neighborhoods, stability ladders, and convolution
structure on finite groups, at desk scale."""

__version__ = "0.1.0"

from .groups import (FiniteGroup, GroupFunction, GroupValidationError, Subset,
                     build_group, catalog_descriptors, from_cayley_table,
                     inverse_set, product_set, translate_set)
from .reps import (UnitaryRep, abelian_characters, decompose_regular,
                   direct_sum_hom, irreps_of, measure_hom_residual,
                   min_nontrivial_dim)
from .bohr import (BohrSpec, SearchResult, SearchSpace, bohr_set,
                   cover_bound_check, enumerate_bohr_candidates, greedy_cover,
                   nm_refine, subgroup_test)
from .convolve import convolve, convolve_fft_cyclic, lp_norm, overlap_function, shift
from .stability import (LadderIndex, LadderWitness, StabilityProfile,
                        ladder_index, oracle_ladder_index, stability_profile)
from .regularity import (RegularityCertificate, ZetaRule,
                         largest_eps_constant_subset, search_regular_bohr,
                         subgroup_obstruction_check, translate_defect)
from .productsets import (CoveringCheck, QuasirandomCheck, SeparatedCover,
                          bogolyubov_search, four_product_bohr,
                          level_set_claim, quasirandom_check,
                          quasirandom_trials, separated_cover,
                          shift_invariance_search, symmetric_covering_check,
                          translate_covering_check, two_set_bogolyubov)

__all__ = [name for name in dir() if not name.startswith("_")]
