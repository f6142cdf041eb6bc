"""Lattice-level Fourier-Mukai transforms with isotropic kernel class,
the induced duality, and how central charges and slopes move.

A transform is determined by a nonzero integer r1 and a rational c: its
kernel class is w1 = r1 * e^{cH} = (r1, r1*c, r1*c^2*h2/2), which must
be an integral primitive (isotropic) class.  On twisted invariants at
gamma = c the transform acts by the involutive coordinate map

    (r, d, a)  |->  (-r1*a, sign(r1)*d, -r/r1),

and the image is read in the gamma'-twisted basis of the target surface,
where gamma' = 0; so the returned triple is already the plain Mukai
vector of the image.  The map visibly swaps the roles of rank and
Euler-type entry: e^{gamma} |-> -rho/r1 and rho |-> -r1 * e^{gamma'}.
It preserves the Mukai pairing:
  h2*(sd_x)(sd_y) - (r1 a_x)(r_y/r1) - (r_x/r1)(r1 a_y)
    = h2 d_x d_y - a_x r_y - r_x a_y.
"""

from fractions import Fraction

from .errors import NonPositive, NotIntegral, NotPrimitive, ZeroDenominator
from .lattice import Frozen, MukaiVector, Surface, _over, _twist, exp_vector, rat
from .stability import StabilityParam


class FMTransform(Frozen):
    __slots__ = ("r1", "c")

    def __init__(self, r1: int, c):
        if not isinstance(r1, int) or r1 == 0:
            raise NotIntegral(f"r1 must be a nonzero integer, got {r1!r}")
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "c", rat(c))

    def kernel_class(self, S: Surface) -> MukaiVector:
        return self.r1 * exp_vector(self.c, S)


def make_transform(r1, c, S: Surface) -> FMTransform:
    """Validated constructor: beyond FMTransform's check of r1, the kernel
    class r1*e^{cH} must be integral and primitive (it is isotropic)."""
    T = FMTransform(r1, c)
    w1 = T.kernel_class(S)
    if not w1.is_integral():
        raise NotIntegral(f"kernel class {w1} is not integral")
    if not w1.is_primitive():
        raise NotPrimitive(f"kernel class {w1} has content {w1.content()}")
    return T


def fm_apply(T: FMTransform, v: MukaiVector, S: Surface) -> MukaiVector:
    """Image of v, as a plain Mukai vector on the target surface (whose
    distinguished twist gamma' is 0).  Rational entries can occur for
    classes that are not genuine sheaf classes on the source."""
    r, dn, an, V, sd = _twist(v.r, v.d, v.a, T.c, S)
    return MukaiVector(Fraction(-T.r1 * an, V * sd * sd),
                       Fraction(dn if T.r1 > 0 else -dn, V * sd),
                       Fraction(-r, V * T.r1))


def fm_inverse(T: FMTransform, w: MukaiVector, S: Surface) -> MukaiVector:
    """Inverse of fm_apply: the coordinate map is an involution, so apply
    it to w (already gamma'-twisted = plain) and untwist at gamma."""
    r, d, a, W = _over(w.r, w.d, w.a)
    # the mapped triple times k = r1*W is integral, and twisting is linear
    k = T.r1 * W
    rk, dn, an, _, sd = _twist(-T.r1 * T.r1 * a, abs(T.r1) * d, -r, -T.c, S)
    return MukaiVector(Fraction(rk, k), Fraction(dn, k * sd),
                       Fraction(an, k * sd * sd))


def dual(v: MukaiVector) -> MukaiVector:
    """Derived dual on the lattice: negates the degree entry."""
    return MukaiVector(v.r, -v.d, v.a)


def l_divisor(lam, t2) -> Fraction:
    """Coefficient l = (t^2 + lambda^2)/2 of the induced polarization
    direction on the target; strictly positive for t^2 > 0."""
    lam, t2 = rat(lam), rat(t2)
    val = (t2 + lam * lam) / 2
    if val <= 0:
        raise NonPositive("l_divisor needs t^2 > 0")
    return val


def slope_defect(E_image: MukaiVector, T: FMTransform, p: StabilityParam,
                 S: Surface) -> Fraction:
    """How far the image class is from the slope-zero locus of the
    induced polarization on the target, with lambda = c - s:

        -|r1| * d'(E_image) * l * h2 + lambda * rk(E_image),

    where d' is the gamma'-twisted degree of the image (= its plain
    degree entry).  Vanishes exactly when the source charges of the
    class and the kernel align."""
    lam = T.c - p.s
    l = l_divisor(lam, p.t2)
    return -abs(T.r1) * E_image.d * l * S.h2 + lam * E_image.r


class TransformedCharge(Frozen):
    """Data of the transformed stability condition: the complex unit
    zeta and the target parameters s' = xi_coeff, t' = eta_coeff, chosen
    so that  Z_{(xi, eta)}(fm_apply(T, v)) = zeta^{-1} * Z_{(s,t)}(v)."""

    __slots__ = ("zeta_re", "zeta_im", "xi_coeff", "eta_coeff")

    def __init__(self, zeta_re: Fraction, zeta_im: Fraction,
                 xi_coeff: Fraction, eta_coeff: Fraction):
        object.__setattr__(self, "zeta_re", zeta_re)
        object.__setattr__(self, "zeta_im", zeta_im)
        object.__setattr__(self, "xi_coeff", xi_coeff)
        object.__setattr__(self, "eta_coeff", eta_coeff)


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
    t, c, s = p.require_t(), T.c, p.s
    ln = c.numerator * s.denominator - s.numerator * c.denominator
    ld, tn, td = c.denominator * s.denominator, t.numerator, t.denominator
    # lambda = ln/ld, t = tn/td; with M = (ld*td)^2, Delta = (half*(L2+T2)/M)^2
    # and xi, eta share the factor h2*(lambda^2+t^2)/(2|r1|*Delta) = M/k
    L2, T2, half = (ln * td) ** 2, (tn * ld) ** 2, S.h2 // 2
    if L2 + T2 == 0:
        # would need lam = t = 0; unreachable with t > 0, kept defensive
        raise ZeroDenominator("degenerate transform at lambda = t = 0")
    k = abs(T.r1) * half * (L2 + T2)
    return TransformedCharge(zeta_re=Fraction(-T.r1 * half * (L2 - T2), (ld * td) ** 2),
                             zeta_im=Fraction(T.r1 * S.h2 * ln * tn, ld * td),
                             xi_coeff=Fraction(ln * ld * td * td, k),
                             eta_coeff=Fraction(tn * td * ld * ld, k))
