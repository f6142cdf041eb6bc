"""The golden wall of v = (1,0,-2), from one class to the full picture.

The stability plane has coordinates (s, t), t > 0, and a potential wall
for v is the vanishing locus of

    rho(v1, v) = A (t^2 + s^2) + C s + D

for some class v1: a circle or vertical line in the upper half plane.
Run me:  python3 demos/02_walls_and_chambers.py
"""

from fractions import Fraction as F

from mukaistab import (
    Region, Surface, chambers_on_ray, enumerate_walls, is_wall_vector, mv,
    param, reduced_sigma, wall_locus, wall_side,
)

AB = Surface("abelian", 2)
v = mv(1, 0, -2)
v1 = mv(1, -1, 1)           # = e^{-H}, an isotropic class with <v1, v> = 1

print("v =", v, "  v1 =", v1)
w = wall_locus(v1, v, AB)
print(f"rho coefficients (A, C, D) = ({w.A}, {w.C}, {w.D})")
print(f"locus: circle, center s = {w.geometry.center_s}, "
      f"radius^2 = {w.geometry.radius_sq}")

rep = is_wall_vector(v1, v, AB)
print("is v1 an actual wall class?", bool(rep))

# not every candidate cuts a wall: an empty circle, a proportional
# class, or a locus missing the positive-degree region all fail
print("proportional 2v:  ", bool(is_wall_vector(2 * v, v, AB)))
print("empty circle case:", bool(is_wall_vector(mv(1, 1, 0), mv(1, 0, -3), AB)))

# sweep a region once and collect every wall, deduplicated by the
# projective (A : C : D) class
reg = Region(F(-3), F(0), F(1, 100), F(4))
walls = enumerate_walls(v, AB, reg)
print("\nwalls of v in s in [-3, 0], t^2 in (1/100, 4]:")
for wl in walls:
    print(f"   circle center_s={wl.geometry.center_s} "
          f"radius_sq={wl.geometry.radius_sq}  representative {wl.v1}")

# crossing the wall: sample on the circle's center line
for t2 in (F(1), F(1, 4), F(1, 8)):
    p = param(F(-3, 2), t2)
    print(f"at (s, t^2) = (-3/2, {t2}): rho = {reduced_sigma(v1, v, p, AB)}, "
          f"side = {wall_side(v, v1, p, AB)}")

# a vertical ray through the wall system, cut into chambers
ray = chambers_on_ray(v, AB, F(-3, 2), (F(1, 100), F(4)))
print("\nray s = -3/2:")
print("  cut points t^2 =", [str(c) for c in ray.cut_points])
print("  chambers      =", [(str(lo), str(hi)) for lo, hi in ray.chambers])
