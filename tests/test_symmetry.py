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

At a point the maps act on charges: Z_{s+k,t}(v e^{kH}) = Z_{s,t}(v),
and the shifted dual has Z_{-s,t} = -conj(Z_{s,t}(v)), the mirror
phi -> 1 - phi (mod 2).  So ``reduced_sigma`` keeps its value under
the twist and changes sign under the dual; ``phase_key`` keeps its key
under the twist, and under the dual its slope changes sign while the
real axis changes ends (band 1 <-> 3); ``wall_side`` follows the keys;
``is_wall_vector`` keeps its verdict and every detail but ``s``.  The
square -2 classes aligned with a reference, of positive degree and in a
box, go to those aligned with its dual at -s, since the dual keeps the
box, the square, the degree and (up to sign) rho:
``find_minus_two_aligned`` must return their duals.
"""

import random
from fractions import Fraction as F
from math import isqrt

import pytest

from mukaistab import (C_MINUS, C_PLUS, ON_WALL, Region, Surface,
                       chambers_on_ray, enumerate_walls,
                       find_minus_two_aligned, is_wall_vector, mv, param,
                       phase_key, reduced_sigma, sigma_coefficients,
                       wall_locus, wall_side)
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


def _point_on_circle(u, w, S, rng):
    """A rational (s, t2) with rho(u, w) = 0, or None when their locus
    has no such point within reach."""
    A, C, D = sigma_coefficients(u, w, S)
    if A == 0:
        return None
    c, q = -C / (2 * A), rng.randint(1, 4)
    R2 = c * c - D / A  # the squared radius
    m = isqrt(int(R2 * q * q)) if R2 > 0 else 0
    j = F(rng.randint(-m, m), q)
    return (c + j, R2 - j * j) if j * j < R2 else None


def _zero_charge_class(s, t2, S, r):
    """An integral class of rank sign r with Z = 0 at (s, t2): d_beta = 0
    and a_beta = h2*t2*r/2."""
    v = (F(r), r * s, r * S.h2 * (s * s + t2) / 2)
    den = max(x.denominator for x in v)
    return mv(*(x * den for x in v))


def test_minus_two_search_mirrors_under_shifted_dual():
    """At (-s, t2) the dual reference aligns exactly the duals of the
    classes at (s, t2), on K3 with h2 in {2, 4, 6}: seeded points on the
    alignment circle of two -2 classes with their sum as reference
    (boxes with classes of both rank signs among them), of a -2 class
    and a random reference, and references with Z = 0."""
    rng = random.Random("symmetry-minus-two")
    spherical = {h2: [mv(r, d, a) for r in range(-5, 6)
                      for d in range(-5, 6) for a in range(-5, 6)
                      if h2 * d * d - 2 * r * a == -2] for h2 in (2, 4, 6)}
    seen = {"error": 0, "both signs": 0, "many": 0}
    cases = 0
    while cases < 300:
        h2 = rng.choice((2, 4, 6))
        S = Surface("k3", h2)
        u = rng.choice(spherical[h2])
        pair = cases % 3 == 0
        w = (rng.choice(spherical[h2]) if pair
             else mv(*(rng.randint(-4, 4) for _ in range(3))))
        point = _point_on_circle(u, w, S, rng)
        if point is None:
            continue
        s, t2 = point
        if cases % 10 == 1:
            ref = _zero_charge_class(s, t2, S, rng.choice((-1, 1)))
        elif pair:
            ref = u + w
        else:
            ref = w
        cases += 1
        bound = rng.randint(0, 30)
        here = _outcome(lambda: find_minus_two_aligned(
            param(s, t2), S, bound, ref))
        back = _outcome(lambda: find_minus_two_aligned(
            param(-s, t2), S, bound, _dual(ref)))
        if isinstance(here, type):
            assert back is here, (s, t2, h2, bound, ref)
            seen["error"] += 1
            continue
        want = sorted((_dual(x) for x in here), key=lambda x: x.as_tuple())
        assert back == want, (s, t2, h2, bound, ref)
        ranks = {x.r > 0 for x in here}
        seen["both signs"] += len(ranks) == 2
        seen["many"] += len(here) >= 2
    assert all(n >= 5 for n in seen.values()), seen


_MIRROR_BAND = {0: 0, 1: 3, 2: 2, 3: 1}


def _key(k):
    return k.band, k.slope


def _mirror_key(k):
    return _MIRROR_BAND[k.band], -k.slope


def _side_of_keys(kv, kw):
    return C_PLUS if kv > kw else C_MINUS


def _outcomes(f, *calls):
    """f's outcome (_outcome) on each tuple of arguments."""
    return [_outcome(lambda: f(*args)) for args in calls]


def _report(rep):
    """is_wall_vector's report without the twist it was asked at."""
    details = {n: x for n, x in rep.details.items() if n != "s"}
    return rep.kind, rep.is_wall, rep.necessary_only, details


@pytest.mark.parametrize("S", SURFACES, ids=lambda S: f"{S.kind}-{S.h2}")
def test_point_functions_move_with_twist_and_shifted_dual(S):
    """reduced_sigma, phase_key, wall_side and is_wall_vector at p and at
    its images, on seeded pairs of a class v as the wall tests draw it
    and a small v1 (one in twelve halved, so non-integral), at points off
    and on their wall, with v (one in eight) of Z = 0 at the point."""
    rng = random.Random(f"symmetry-points:{S.kind}:{S.h2}")
    seen = {"on wall": 0, "wall": 0, "error": 0}
    for i in range(150):
        v, _, _, k = _draw(rng, S, F(1))
        v1 = mv(rng.randint(-2, 2), rng.randint(-3, 3), rng.randint(-4, 4))
        point = _point_on_circle(v1, v, S, rng) if i % 3 == 0 else None
        s, t2 = point or (_rat(rng, -4, 4), _rat(rng, 0, 4) + F(1, 7))
        if i % 8 == 1:
            v = _zero_charge_class(s, t2, S, rng.choice((-1, 1)))
        if i % 12 == 5:
            v1 = mv(*(x / 2 for x in v1.as_tuple()))
        p, pk, pd = param(s, t2), param(s + k, t2), param(-s, t2)
        vk, v1k = _twist(v, k, S), _twist(v1, k, S)
        vd, v1d = _dual(v), _dual(v1)
        rho, rho_k, rho_d = _outcomes(reduced_sigma, (v1, v, p, S),
                                      (v1k, vk, pk, S), (v1d, vd, pd, S))
        assert rho_k == rho and rho_d == -rho, (v1, v, s, t2, k)
        for x, xk, xd in ((v, vk, vd), (v1, v1k, v1d)):
            key, key_k, key_d = _outcomes(phase_key, (x, p, S),
                                          (xk, pk, S), (xd, pd, S))
            if isinstance(key, type):
                assert key_k is key and key_d is key, (x, s, t2, k)
                seen["error"] += 1
                continue
            assert key_k == key, (x, s, t2, k)
            assert _key(key_d) == _mirror_key(key), (x, s, t2)
        side, side_k, side_d = _outcomes(wall_side, (v, v1, p, S),
                                         (vk, v1k, pk, S), (vd, v1d, pd, S))
        assert side_k == side, (v, v1, s, t2, k)
        if side == ON_WALL or isinstance(side, type):
            assert side_d == side, (v, v1, s, t2)
            seen["on wall"] += side == ON_WALL
        else:
            kv, kw = phase_key(v, p, S), phase_key(v1, p, S)
            assert side == _side_of_keys(_key(kv), _key(kw))
            assert side_d == _side_of_keys(_mirror_key(kv), _mirror_key(kw))
        rep, rep_k, rep_d = _outcomes(is_wall_vector, (v1, v, S, s),
                                      (v1k, vk, S, s + k), (v1d, vd, S, -s))
        if isinstance(rep, type):
            assert rep_k is rep and rep_d is rep, (v1, v, s, k)
            continue
        assert _report(rep_k) == _report(rep) == _report(rep_d), (v1, v, s, k)
        if S.kind == "k3":
            assert (rep.details["s"], rep_k.details["s"],
                    rep_d.details["s"]) == (s, s + k, -s)
        seen["wall"] += rep.is_wall
    assert all(n >= 3 for n in seen.values()), seen
