"""Numerical discrete potential theory on finitely generated groups:
Cayley balls, D^p norms, Laplacians, harmonic extensions, p-capacities,
duality pairings, isoperimetric profiles, and Sobolev constants.
"""

__version__ = "0.1.0"

import os

# One OpenBLAS thread unless the user has chosen a count: the solves here
# are small, and on threads their band factorisations and CG inner products
# lose more to hand-off than they gain (ROADMAP.md section 0), and CG's
# last bits follow the thread count.  It has to be set before numpy loads.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
        "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .groups import (FreeGroup, GroupModel, HeisenbergGroup,
                     UnknownFamilyError, ZdGroup, make_group)
from .cayley import (EXTERIOR, BallSizeError, CayleyBall, SubsetView,
                     build_ball, vertex_boundary, vertex_boundary_elements,
                     window)
from .funcspace import (BallFunction, FormalSum, HarmonicityReport,
                        NormReport, check_cocycle, cocycle_extend,
                        cocycle_view, conjugate_index, convolve_diff,
                        dirichlet_seminorm_pow, harmonicity_via_pairing,
                        is_harmonic, laplacian, lp_norm, modulus, norms,
                        pairing, power, translate, truncate_min)
from .dirichlet import (CapacityScan, EnergyProblem, MaxPrincipleResult,
                        NullSequenceError, NullSequenceTerm, RoydenReport,
                        SolveReport, SolverFailure, capacity,
                        harmonic_extension, maximum_principle_check,
                        null_sequence, parabolicity_scan, royden_source,
                        royden_split, solve, trend_verdict)
from .geometry import (EquivalenceProbe, ISdResult, IsoperimetricProfile,
                       IsoperimetricRecord, SobolevReport, check_ISd,
                       indicator_identities, is_equivalence_probe,
                       isoperimetric_profile, lemma61_check,
                       mean_value_step, random_ball_function,
                       random_formal_sum, random_nonnegative, sobolev_constant,
                       sobolev_p2, sobolev_test_set, tent_function)
