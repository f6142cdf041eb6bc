"""Exact wall-and-chamber computations for Bridgeland stability on
Picard-rank-1 abelian and K3 surfaces: the rank-3 Mukai lattice,
central charges and phases, wall loci and their complete enumeration
over compact regions, lattice-level Fourier-Mukai transforms, the
ample-class bookkeeping, and properly-semistable case analysis.

All arithmetic is exact: ints and Fractions; nothing is ever rounded.

Importing the package loads no submodule: each public name below is
read from its module the first time it is used (PEP 562), so a CLI call
compiles only the modules its subcommand runs.
"""

import importlib

# each public name -> the module that defines it
_HOME = {name: module for module, names in {
    "errors": ("MukaiStabError", "NonIntegral", "Zero", "ZeroCharge",
               "NonPositiveSquare", "BoundOverflow", "NotK3",
               "NotPrimitive", "ZeroRank", "ZeroDegree", "OutOfDomain",
               "Degenerate", "NonPositive", "NotAligned", "UsageError"),
    "lattice": ("Surface", "MukaiVector", "mv", "RHO", "rat",
                "mukai_pairing", "mukai_square", "sheaf_vector",
                "exp_vector", "twisted_invariants", "untwist", "retwist",
                "d_beta", "d_beta_min", "perp_basis"),
    "stability": ("StabilityParam", "param", "CentralCharge",
                  "central_charge", "sigma_coefficients", "reduced_sigma",
                  "PhaseKey", "phase_key"),
    "walls": ("Circle", "VerticalLine", "Empty", "Everywhere", "Region",
              "Wall", "wall_locus", "WallVectorReport", "is_wall_vector",
              "enumerate_walls", "ChamberRay", "chambers_on_ray",
              "wall_side", "C_PLUS", "C_MINUS", "ON_WALL", "CategoryWall",
              "category_walls_k3"),
    "fourier_mukai": ("FMTransform", "make_transform", "fm_apply",
                      "fm_inverse", "dual", "l_divisor", "TransformedCharge",
                      "transform_central_charge"),
    "polarization": ("xi_pair", "AmpleClassReport", "ample_class", "omega_x",
                     "omega_sx"),
    "classification": ("find_isotropic_pairing_one", "find_minus_two_aligned",
                       "DecompositionReport", "classify_decomposition",
                       "StableExistenceReport", "stable_existence",
                       "a2_pattern", "STABLE_PAIR", "EXC_ISOTROPIC",
                       "EXC_RANK_TWO", "INCONCLUSIVE"),
}.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return list(_HOME)
