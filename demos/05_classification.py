"""Searching for special classes and classifying decompositions.

On a wall, a class v can degenerate into aligned pieces; what the pieces
look like decides whether a genuinely stable object can still exist at
that point.  The isotropic pairing-one search below is exact and
certified complete over a line parametrization (not just a sampled box);
the (-2)-class search solves one quadratic per |rank| and returns every
class in its bounded box.
Run me:  python3 demos/05_classification.py
"""

from fractions import Fraction as F

from mukaistab import (
    Surface, classify_decomposition, find_isotropic_pairing_one,
    find_minus_two_aligned, mukai_pairing, mukai_square, mv, param,
    stable_existence,
)
from mukaistab.errors import NotK3

AB = Surface("abelian", 2)
K3 = Surface("k3", 2)
v = mv(1, 0, -2)
wall_p = param(F(-3, 2), F(1, 4))    # on the golden wall of v
off_p = param(F(-1), F(3, 2))        # generic point, no wall through it

# isotropic classes pairing to 1 with v and aligned at the point: these
# are the building blocks of the exceptional degenerations
hits = find_isotropic_pairing_one(v, wall_p, AB, bound=20)
print("isotropic pairing-one classes at the wall point:",
      [str(u) for u in hits])
print("same search off the wall:",
      [str(u) for u in find_isotropic_pairing_one(v, off_p, AB, bound=20)])

# on a K3 there are also (-2)-classes to look for
hits = find_minus_two_aligned(param(F(1, 2), F(3, 4)), K3, 3, mv(1, 0, 0))
print("(-2)-classes aligned with (1,0,0) on the K3 side:",
      [str(u) for u in hits])
try:
    find_minus_two_aligned(param(F(1, 2), F(3, 4)), AB, 3, mv(1, 0, 0))
except NotK3 as e:
    print("  (abelian surfaces have none:", str(e) + ")")
# they need not be unique: two classes of a Pell-type orbit fit in this box
hits = find_minus_two_aligned(param(F(-3, 2), F(1)), K3, 40, v)
print("(-2)-classes aligned with v at s=-3/2, t2=1, bound 40:",
      [str(u) for u in hits])

# classify aligned decompositions at the wall point.  Plenty of parts,
# or a repeated part, always leaves room for a stable pair:
u1, u2 = mv(1, -1, 1), mv(0, 1, -3)
rep = classify_decomposition([(2, u1), (2, u2)], wall_p, AB)
print("\n2*u1 + 2*u2:", rep.verdict)

# with two single parts the exceptional shapes appear.  u1 + u2 sums to
# v itself, and the isotropic pairing-one search above found a companion
# for v at this point -- the hidden exceptional case:
print("u1 + u2:   ", classify_decomposition([(1, u1), (1, u2)], wall_p, AB).verdict,
      f" (u1 + u2 = {u1 + u2}, companion found above)")
# two isotropic parts pairing to 1 are the structural rank-two case:
u3 = mv(-1, 2, -4)
print("u1 + u3:   ", classify_decomposition([(1, u1), (1, u3)], wall_p, AB).verdict,
      f" (squares {mukai_square(u1, AB)}, {mukai_square(u3, AB)}, "
      f"pairing {mukai_pairing(u1, u3, AB)})")

# a decomposition carried to a generic point can be certified stable
rep = stable_existence(v, off_p, AB)
print("\nstable object with class v off the wall:", rep.verdict)
rep = stable_existence(v, wall_p, AB)
print("on the wall:", rep.verdict, "- witness:", rep.witness)
