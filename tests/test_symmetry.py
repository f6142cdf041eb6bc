"""Box-free checks from the lattice's own symmetries.

Two maps preserve the Mukai pairing and the twisted degree, so they move
the walls and chambers of v as a whole:

- twist by e^{kH}, k an integer: v e^{kH} = (r, d + k r, a + h2 d k +
  h2 r k^2/2) has over R + k the walls of v over R shifted by k in s;
- shifted dual: (-r, d, -a) has over -R (s in [-s_max, -s_min]) the walls
  of v over R mirrored by s -> -s.

So ``enumerate_walls`` and ``chambers_on_ray`` must give the moved
geometry, the same cuts on the moved rays (the K3 category walls at
b = s + k and b = -s sit where those at b = s do), and an error of the
same class on both sides.  The representative a wall reports may differ
on the image, since its tie-break is not invariant, but each must map to
a class of the image wall.  No oracle scans a box here, so the checks
hold at any depth of the region.
"""

import random
from fractions import Fraction as F

import pytest

from mukaistab import (Region, Surface, chambers_on_ray, enumerate_walls, mv,
                       wall_locus)
from mukaistab.errors import MukaiStabError

SURFACES = [Surface(kind, h2) for kind in ("abelian", "k3") for h2 in (2, 4, 6)]


def _twist(v, k, S):
    r, d, a = v.as_tuple()
    return mv(r, d + k * r, a + S.h2 * d * k + S.h2 * r * k * k / 2)


def _dual(v):
    r, d, a = v.as_tuple()
    return mv(-r, d, -a)


def _outcome(call):
    """call()'s value, or the class of the package error it raised."""
    try:
        return call()
    except MukaiStabError as e:
        return type(e)


def _geometry(walls, shift=0, sign=1):
    """The walls' circles as sorted (center, radius^2) pairs, the centers
    mapped by s -> sign*s + shift."""
    return sorted((sign * w.geometry.center_s + shift, w.geometry.radius_sq)
                  for w in walls)


def _rat(rng, lo, hi, dens=(1, 2, 3, 5)):
    q = rng.choice(dens)
    return F(rng.randint(lo * q, hi * q), q)


def _draw(rng, S, deep):
    """A class (one time in eight any, else primitive of positive
    square), a region (one time in ten down to t2 = deep), a ray and k."""
    while True:
        v = mv(rng.randint(-3, 3), rng.randint(-4, 4), rng.randint(-8, 8))
        r, d, a = v.as_tuple()
        if rng.random() < 0.125 or (v.is_primitive()
                                    and S.h2 * d * d - 2 * r * a > 0):
            break
    s_min = _rat(rng, -4, 4)
    t2_min = (deep if rng.random() < 0.1
              else rng.choice((F(1, 200), F(1, 20), F(1, 4), F(1))))
    reg = Region(s_min, s_min + _rat(rng, 0, 4), t2_min,
                 t2_min + _rat(rng, 0, 6))
    k = rng.choice((-3, -2, -1, 1, 2, 3))
    return v, reg, _rat(rng, -4, 4, (1, 2, 3, 4, 6)), k


@pytest.mark.parametrize("S", SURFACES, ids=lambda S: f"{S.kind}-{S.h2}")
def test_walls_move_with_twist_and_shifted_dual(S):
    rng = random.Random(f"symmetry:{S.kind}:{S.h2}")
    walls_seen = 0
    for _ in range(40):
        v, reg, _, k = _draw(rng, S, F(1, 10 ** 8))
        vk, vd = _twist(v, k, S), _dual(v)
        moved = Region(reg.s_min + k, reg.s_max + k, reg.t2_min, reg.t2_max)
        mirrored = Region(-reg.s_max, -reg.s_min, reg.t2_min, reg.t2_max)
        here = _outcome(lambda: enumerate_walls(v, S, reg))
        there = _outcome(lambda: enumerate_walls(vk, S, moved))
        back = _outcome(lambda: enumerate_walls(vd, S, mirrored))
        if isinstance(here, type):
            assert there is here and back is here, (v, reg, k)
            continue
        assert _geometry(there) == _geometry(here, shift=k), (v, reg, k)
        assert _geometry(back) == _geometry(here, sign=-1), (v, reg)
        for w in here:
            c, r2 = w.geometry.center_s, w.geometry.radius_sq
            image = wall_locus(_twist(w.v1, k, S), vk, S).geometry
            assert (image.center_s, image.radius_sq) == (c + k, r2)
            image = wall_locus(_dual(w.v1), vd, S).geometry
            assert (image.center_s, image.radius_sq) == (-c, r2)
        walls_seen += len(here)
    assert walls_seen > 40


@pytest.mark.parametrize("S", SURFACES, ids=lambda S: f"{S.kind}-{S.h2}")
def test_ray_cuts_move_with_twist_and_shifted_dual(S):
    rng = random.Random(f"symmetry-rays:{S.kind}:{S.h2}")
    cuts_seen = 0
    for i in range(100):
        v, reg, s, k = _draw(rng, S, F(1, 10 ** 6))
        t2 = (reg.t2_min, reg.t2_max)
        cut = S.kind == "k3" and i % 2 == 0  # half the K3 rays

        def ray(u, at):
            return _outcome(lambda: chambers_on_ray(
                u, S, at, t2, cut_category_walls=cut))
        here = ray(v, s)
        there, back = ray(_twist(v, k, S), s + k), ray(_dual(v), -s)
        if isinstance(here, type):
            assert there is here and back is here, (v, s, k)
            continue
        for image, at in ((there, s + k), (back, -s)):
            assert image.s == at
            assert image.cut_points == here.cut_points, (v, s, k)
            assert image.chambers == here.chambers
        cuts_seen += len(here.cut_points)
    assert cuts_seen > 20
