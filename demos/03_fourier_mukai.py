"""Lattice-level Fourier-Mukai transforms and charge transport.

A transform is pinned down by a nonzero integer r1 and a rational slope
constant c whose kernel class r1 * e^{cH} is integral and primitive.  On
classes it acts as an isometric involution; on stability parameters it
transports (s, t) to a new point (xi, eta) so that charges match up to
one fixed complex unit zeta.  Run me:  python3 demos/03_fourier_mukai.py
"""

from fractions import Fraction as F

from mukaistab import (
    RHO, Surface, central_charge, dual, exp_vector, fm_apply, fm_inverse,
    make_transform, mukai_pairing, mv, param, transform_central_charge,
)
from mukaistab.errors import NonIntegral, NotPrimitive

AB = Surface("abelian", 2)

T = make_transform(1, F(1), AB)
print("transform r1 = 1, c = 1; kernel class =", T.kernel_class(AB))

v = mv(1, 0, -2)
w = fm_apply(T, v, AB)
print("v  =", v, " ->  Phi(v) =", w)
# the coordinate map is an involution on c-twisted triples; going back
# therefore means applying it again and untwisting at c, which is
# exactly fm_inverse
print("round trip:", fm_inverse(T, w, AB) == v)
print("isometry: <Phi v, Phi v> =", mukai_pairing(w, w, AB),
      "= <v, v> =", mukai_pairing(v, v, AB))

# the two distinguished classes swap (up to sign and scale): the
# exponential of the kernel slope goes to the point class and back
print("\nPhi(e^c) =", fm_apply(T, exp_vector(T.c, AB), AB), " (= -rho/r1)")
print("Phi(rho) =", fm_apply(T, RHO, AB), " (= -r1 * e^0)")

# not every (r1, c) works: the kernel must be integral and primitive
for r1, c in [(2, F(1, 2)), (2, F(0)), (0, F(1))]:
    try:
        make_transform(r1, c, AB)
        print(f"(r1, c) = ({r1}, {c}) ok")
    except (NonIntegral, NotPrimitive) as e:
        print(f"(r1, c) = ({r1}, {c}) rejected: {e}")

# charge transport: at (s, t) = (0, 1) this transform has zeta = 2i and
# sends the parameter to (xi, eta) = (1/2, 1/2)
p = param(F(0), t=F(1))
tc = transform_central_charge(T, p, AB)
print(f"\nat (s, t) = (0, 1): zeta = {tc.zeta_re} + {tc.zeta_im}i, "
      f"(xi, eta) = ({tc.xi_coeff}, {tc.eta_coeff})")

z = central_charge(v, p, AB)
zq = central_charge(w, param(tc.xi_coeff, t=tc.eta_coeff), AB)
print(f"Z(v) at (0,1)          = {z.re} + {z.im_at(F(1))}i")
print(f"Z(Phi v) at (1/2, 1/2) = {zq.re} + {zq.im_at(tc.eta_coeff)}i")
# zeta^{-1} * (z.re + z.im i) with zeta = 2i is (im/2) - (re/2) i
print("matches zeta^{-1} Z(v):",
      (zq.re, zq.im_at(tc.eta_coeff)) == (z.im_at(F(1)) / 2, -z.re / 2))

# the shift-by-a-divisor duality is also an isometric involution
print("\ndual(v) =", dual(v), "; <dual x, dual y> preserved:",
      mukai_pairing(dual(v), dual(w), AB) == mukai_pairing(v, w, AB))
