"""Polarization data attached to a stability point.

At (s, t) the plane of classes aligned with v is spanned by two explicit
orthogonal-to-v classes xi1, xi2; the combination xi_omega built from
them pairs to zero with *every* class aligned with v, so it plays the
role of the ample direction.  The omega constructors go the other way:
given a slope reference they solve for the t^2 that creates alignment.
Run me:  python3 demos/04_polarization.py
"""

from fractions import Fraction as F

from mukaistab import (
    Surface, ample_class, mukai_pairing, mv, omega_sx, omega_x, param,
    reduced_sigma,
)
from mukaistab.errors import OutOfDomain

AB = Surface("abelian", 2)
v = mv(1, 0, -2)

# xi1 and xi2 depend on s only: read them at any t^2
rep = ample_class(v, param(F(-1), F(1)), AB)
x1, x2 = rep.xi1, rep.xi2
print("xi pair at s = -1:", x1, x2)
print("both orthogonal to v:", mukai_pairing(v, x1, AB) == 0
      and mukai_pairing(v, x2, AB) == 0)

for t2 in (F(1), F(3), F(1, 4)):
    rep = ample_class(v, param(F(-1), t2), AB)
    print(f"t^2 = {t2}: phi = {rep.phi}, xi_omega = {rep.xi_omega}")

# xi_omega annihilates the whole aligned plane, not just v: scan a box
p = param(F(-1), F(1))
rep = ample_class(v, p, AB)
aligned = [mv(r, d, a) for r in range(-4, 5) for d in range(-4, 5)
           for a in range(-4, 5)
           if (r, d, a) != (0, 0, 0) and reduced_sigma(mv(r, d, a), v, p, AB) == 0]
print(f"\n{len(aligned)} aligned classes with |entries| <= 4 at (-1, 1);")
print("all pair to zero with xi_omega:",
      all(mukai_pairing(w, rep.xi_omega, AB) == 0 for w in aligned))

# omega_x: pick a relative slope offset x and get the t^2 at which the
# point (s, t) is aligned with the reference exponential e^{(s+x)H}
t2 = omega_x(v, F(-1), F(1, 2), AB)
print("\nomega_x(v, s=-1, x=1/2) =", t2)

# omega_sx fixes an *absolute* reference slope instead; the resulting
# points differ with the base s, but all of them lie on the locus of
# one and the same class
w1 = mv(4, -2, 1)
for s in (F(-1), F(-3, 2), F(-2)):
    t2 = omega_sx(v, s, F(-1, 2), AB)
    print(f"omega_sx at s = {s}: t^2 = {t2}; "
          f"aligned with {w1}: {reduced_sigma(w1, v, param(s, t2), AB) == 0}")

# the constructors refuse degenerate or sign-impossible configurations
try:
    omega_sx(v, F(-1), F(0), AB)
except OutOfDomain as e:
    print("\nx r = d_0 rejected:", e)
try:
    omega_sx(v, F(-1), F(2), AB)
except OutOfDomain as e:
    print("no positive t^2 rejected:", e)
