"""Exact wall-and-chamber computations for Bridgeland stability on
Picard-rank-1 abelian and K3 surfaces: the rank-3 Mukai lattice,
central charges and phases, wall loci and their complete enumeration
over compact regions, lattice-level Fourier-Mukai transforms, the
ample-class bookkeeping, and properly-semistable case analysis.

All arithmetic is exact: ints and Fractions; nothing is ever rounded.
"""

from .errors import (MukaiStabError, NonIntegral, Zero, ZeroCharge,
                     NonPositiveSquare, BoundOverflow, NotK3,
                     UniquenessViolation, NotPrimitive, ZeroRank,
                     ZeroDegree, OutOfDomain, Degenerate, NonPositive,
                     NotAligned, UsageError)
from .lattice import (Surface, MukaiVector, mv, RHO, rat, mukai_pairing,
                      mukai_square, sheaf_vector, exp_vector,
                      TwistedInvariants, twisted_invariants, untwist,
                      retwist, d_beta, d_beta_min, perp_basis)
from .stability import (StabilityParam, param, CentralCharge, central_charge,
                        sigma_coefficients, reduced_sigma, PhaseKey,
                        phase_key)
from .walls import (Circle, VerticalLine, Empty, Everywhere, Region, Wall,
                    wall_locus, WallVectorReport, is_wall_vector,
                    enumerate_walls, ChamberRay, chambers_on_ray, wall_side,
                    C_PLUS, C_MINUS, ON_WALL, CategoryWall, category_walls_k3)
from .fourier_mukai import (FMTransform, make_transform, fm_apply, fm_inverse,
                            dual, l_divisor, TransformedCharge,
                            transform_central_charge)
from .polarization import (xi_pair, AmpleClassReport, ample_class, omega_x,
                           omega_sx)
from .classification import (find_isotropic_pairing_one,
                             find_minus_two_aligned, DecompositionReport,
                             classify_decomposition, StableExistenceReport,
                             stable_existence, a2_pattern, STABLE_PAIR,
                             EXC_ISOTROPIC, EXC_RANK_TWO, INCONCLUSIVE)

__version__ = "0.1.0"
