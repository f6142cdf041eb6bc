"""Lattice-level Fourier-Mukai transforms with isotropic kernel class,
the induced duality, and how central charges and slopes move.

A transform is determined by a nonzero integer r1 and a rational c: its
kernel class is w1 = r1 * e^{cH} = (r1, r1*c, r1*c^2*h2/2), which must
be an integral primitive (isotropic) class.  On twisted invariants at
gamma = c the transform acts by the involutive coordinate map (_fm_map,
the one place it is written)

    (r, d, a)  |->  (-r1*a, sign(r1)*d, -r/r1),

and the image is read in the gamma'-twisted basis of the target surface,
where gamma' = 0; so the returned triple is already the plain Mukai
vector of the image.  The map visibly swaps the roles of rank and
Euler-type entry: e^{gamma} |-> -rho/r1 and rho |-> -r1 * e^{gamma'}.
It preserves the Mukai pairing:
  h2*(sd_x)(sd_y) - (r1 a_x)(r_y/r1) - (r_x/r1)(r1 a_y)
    = h2 d_x d_y - a_x r_y - r_x a_y.
With lambda = c - s, the image E' = fm_apply(T, E) lies off the
slope-zero locus of the induced polarization by
-|r1| * d(E') * l_divisor(lambda, t^2) * h2 + lambda * rk(E'), which is
exactly reduced_sigma(E, T.kernel_class(S), p, S).
"""

from fractions import Fraction

from .errors import NonIntegral, NonPositive, NotPrimitive
from .lattice import Frozen, MukaiVector, Surface, _ints, _twist, rat
from .stability import StabilityParam


class FMTransform(Frozen):
    __slots__ = ("r1", "_q")  # _q = (c*cd, cd)
    _names = ("r1", "c")

    def __init__(self, r1: int, c):
        if not isinstance(r1, int) or r1 == 0:
            raise NonIntegral(f"r1 must be a nonzero integer, got {r1!r}")
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "_q", _ints(c))

    def kernel_class(self, S: Surface) -> MukaiVector:
        cn, cd = self._q
        return MukaiVector._of(*_twist(self.r1, 0, 0, 1, -cn, cd, S))


def make_transform(r1, c, S: Surface) -> FMTransform:
    """Validated constructor: beyond FMTransform's check of r1, the kernel
    class r1*e^{cH} must be integral and primitive (it is isotropic)."""
    T = FMTransform(r1, c)
    w1 = T.kernel_class(S)
    if not w1.is_integral():
        raise NonIntegral(f"kernel class {w1} is not integral")
    if not w1.is_primitive():
        raise NotPrimitive(f"kernel class {w1} has content {w1.content()}")
    return T


def _fm_map(T: FMTransform, r, d, a, W):
    """The coordinate map (r, d, a) |-> (-r1*a, sign(r1)*d, -r/r1) of the
    triple (r, d, a)/W on ints, over the one den r1*W (of r1's sign)."""
    return -T.r1 * T.r1 * a, abs(T.r1) * d, -r, T.r1 * W


def fm_apply(T: FMTransform, v: MukaiVector, S: Surface) -> MukaiVector:
    """Image of v, as a plain Mukai vector on the target surface (whose
    distinguished twist gamma' is 0).  Rational entries can occur for
    classes that are not genuine sheaf classes on the source."""
    return MukaiVector._of(*_fm_map(T, *_twist(*v._q, *T._q, S)))


def fm_inverse(T: FMTransform, w: MukaiVector, S: Surface) -> MukaiVector:
    """Inverse of fm_apply: the coordinate map is an involution, so apply
    it to w (already gamma'-twisted = plain) and untwist at gamma."""
    cn, cd = T._q
    return MukaiVector._of(*_twist(*_fm_map(T, *w._q), -cn, cd, S))


def dual(v: MukaiVector) -> MukaiVector:
    """Derived dual on the lattice: negates the degree entry."""
    r, d, a, V = v._q
    return MukaiVector._of(r, -d, a, V)


def l_divisor(lam, t2) -> Fraction:
    """Coefficient l = (t^2 + lambda^2)/2 of the induced polarization
    direction on the target; strictly positive for t^2 > 0."""
    lam, t2 = rat(lam), rat(t2)
    val = (t2 + lam * lam) / 2
    if val <= 0:
        raise NonPositive("l_divisor needs t^2 > 0")
    return val


class TransformedCharge(Frozen):
    """Data of the transformed stability condition: the complex unit
    zeta and the target parameters s' = xi_coeff, t' = eta_coeff, chosen
    so that  Z_{(xi, eta)}(fm_apply(T, v)) = zeta^{-1} * Z_{(s,t)}(v)."""

    __slots__ = ("_q",)
    _names = ("zeta_re", "zeta_im", "xi_coeff", "eta_coeff")


def transform_central_charge(T: FMTransform, p: StabilityParam,
                             S: Surface) -> TransformedCharge:
    """Where the stability condition goes under the transform.  Needs an
    exact rational t (not just t^2) since eta is linear in t.

    With lambda = c - s:
        zeta = -r1 * ((lambda^2 - t^2) h2 / 2  -  i * lambda * t * h2),
        Delta = |zeta/r1|^2,
        xi  = lambda * h2 * (lambda^2 + t^2) / (2 |r1| Delta),
        eta =      t * h2 * (lambda^2 + t^2) / (2 |r1| Delta).
    Since Delta = h2^2 (lambda^2 + t^2)^2 / 4 one gets the cross-check
    identity |r1| * l_divisor(lambda, t^2) * xi * h2 = lambda."""
    t = p.require_t()
    (cn, cd), (sn, _, E) = T._q, p._q
    ln, ld, tn, td = cn * E - sn * cd, cd * E, t.numerator, t.denominator
    # lambda = ln/ld, t = tn/td; with M = (ld*td)^2, Delta = (half*(L2+T2)/M)^2
    # and xi, eta share the factor h2*(lambda^2+t^2)/(2|r1|*Delta) = M/k;
    # zeta_re has the den M, zeta_im ld*td, so all four are over M*k
    L2, T2, half, M = (ln * td) ** 2, (tn * ld) ** 2, S.h2 // 2, (ld * td) ** 2
    k = abs(T.r1) * half * (L2 + T2)
    return TransformedCharge._of(-T.r1 * half * (L2 - T2) * k,
                                 T.r1 * S.h2 * ln * tn * ld * td * k,
                                 ln * ld * td * td * M, tn * td * ld * ld * M,
                                 M * k)
