"""The package namespace: every public name, each read lazily from the
module that defines it."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import mukaistab

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the public names, by home module, in the order of __all__
PUBLIC = {
    "errors": ["MukaiStabError", "NonIntegral", "Zero", "ZeroCharge",
               "NonPositiveSquare", "BoundOverflow", "NotK3",
               "NotPrimitive", "ZeroRank", "ZeroDegree", "OutOfDomain",
               "Degenerate", "NonPositive", "NotAligned", "UsageError"],
    "lattice": ["Surface", "MukaiVector", "mv", "RHO", "rat", "mukai_pairing",
                "mukai_square", "sheaf_vector", "exp_vector",
                "twisted_invariants", "untwist", "retwist", "d_beta",
                "d_beta_min", "perp_basis"],
    "stability": ["StabilityParam", "param", "CentralCharge",
                  "central_charge", "sigma_coefficients", "reduced_sigma",
                  "PhaseKey", "phase_key"],
    "walls": ["Circle", "VerticalLine", "Empty", "Everywhere", "Region",
              "Wall", "wall_locus", "WallVectorReport", "is_wall_vector",
              "enumerate_walls", "ChamberRay", "chambers_on_ray", "wall_side",
              "C_PLUS", "C_MINUS", "ON_WALL", "CategoryWall",
              "category_walls_k3"],
    "fourier_mukai": ["FMTransform", "make_transform", "fm_apply",
                      "fm_inverse", "dual", "l_divisor", "TransformedCharge",
                      "transform_central_charge"],
    "polarization": ["xi_pair", "AmpleClassReport", "ample_class", "omega_x",
                     "omega_sx"],
    "classification": ["find_isotropic_pairing_one", "find_minus_two_aligned",
                       "DecompositionReport", "classify_decomposition",
                       "StableExistenceReport", "stable_existence",
                       "a2_pattern", "STABLE_PAIR", "EXC_ISOTROPIC",
                       "EXC_RANK_TWO", "INCONCLUSIVE"],
}
NAMES = [name for names in PUBLIC.values() for name in names]


def test_all_and_dir_hold_the_public_names():
    assert mukaistab.__all__ == NAMES
    assert dir(mukaistab) == sorted(NAMES)


@pytest.mark.parametrize("home, name",
                         [(m, n) for m, names in PUBLIC.items()
                          for n in names])
def test_each_name_is_its_home_modules_object(home, name):
    module = importlib.import_module(f"mukaistab.{home}")
    assert getattr(mukaistab, name) is getattr(module, name)


def test_star_import_binds_every_name():
    ns = {}
    exec("from mukaistab import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(NAMES)
    assert all(ns[n] is getattr(mukaistab, n) for n in NAMES)


def test_unknown_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError,
                       match="module 'mukaistab' has no attribute 'Walls'"):
        mukaistab.Walls


def test_import_loads_no_submodule():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    p = subprocess.run(
        [sys.executable, "-c", "import sys, mukaistab; print(sorted(m for m "
         "in sys.modules if m.startswith('mukaistab.')))"],
        capture_output=True, text=True, env=env)
    assert (p.returncode, p.stdout, p.stderr) == (0, "[]\n", "")
