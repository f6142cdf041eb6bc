"""A tour of the rank-3 lattice: vectors, pairing, twisting.

Everything downstream (walls, transforms, classification) lives on
integral triples v = (r, d, a) with the pairing

    <x, y> = h2 * x.d * y.d - x.r * y.a - x.a * y.r,

signature (2,1) for every even h2 > 0.  Run me:  python3 demos/01_lattice_basics.py
"""

from fractions import Fraction as F

from mukaistab import (
    RHO, Surface, d_beta_min, exp_vector, mukai_pairing, mukai_square, mv,
    sheaf_vector, twisted_invariants,
)

AB = Surface("abelian", 2)
K3 = Surface("k3", 2)

v = mv(1, 0, -2)
w = mv(1, -1, 1)

print("surface:", AB)
print("v =", v, " w =", w)
print("<v, v> =", mukai_square(v, AB), "  (always even on integral classes)")
print("<v, w> =", mukai_pairing(v, w, AB))
print("<w, w> =", mukai_square(w, AB), " -> w is isotropic")

# the two distinguished families: exponentials of divisors, and the
# point class rho = (0, 0, 1)
print("\ne^{-H}     =", exp_vector(F(-1), AB), "  (isotropic by design)")
print("e^{1/2 H}  =", exp_vector(F(1, 2), AB), "  (rational entries are fine)")
print("rho        =", RHO)
print("<e^s, rho> =", mukai_pairing(exp_vector(F(1, 2), AB), RHO, AB),
      "  (= -rank of e^s)")

# sheaf dictionary: on a K3 the Euler characteristic carries an extra
# copy of the rank, on an abelian surface it does not
print("\nrank-2 sheaf with c1 = 3H, chi = 5:")
print("  abelian:", sheaf_vector(2, 3, 5, AB))
print("  k3:     ", sheaf_vector(2, 3, 5, K3))

# twisting moves the base point of all degree-like quantities to beta =
# s*H.  It is an isometry, so the twisted class v*e^{-sH} is again a
# Mukai vector, and untwisting (twisting at -s) returns the original class.
s = F(-3, 2)
tw = twisted_invariants(v, s, AB)
print("\ntwisted invariants of v at s =", s)
print(f"  (r_b, d_b, a_b) = ({tw.r}, {tw.d}, {tw.a})")
print("  a_b equals -<v, e^s>:", tw.a == -mukai_pairing(v, exp_vector(s, AB), AB))
print("  untwist gives back v:", twisted_invariants(tw, -s, AB) == v)

# how small can a nonzero twisted degree be?  Exactly 1/q at s = p/q.
for s in (F(0), F(1, 2), F(-3, 7)):
    print("min positive twisted degree at s =", s, "is", d_beta_min(s, AB))
