"""Polarization data attached to a class: the ample direction singled
out by a stability parameter, and the t^2-value at which a prescribed
twisted slope is achieved.

Everything lives in the rank-3 lattice: an "ample class" here is the
Mukai vector xi_omega = phi_omega * xi1 + h2 * xi2 pairing to zero with
v (and with every class aligned with v at the given parameter), where

    xi1 = (0, 1, (d/r) h2),
    xi2 = -(e^{sH} - (chi/r) rho),      chi = a_beta(v),
    phi_omega = (r h2 t^2/2 - a_beta) / d_beta .

The function x -> omega(x) below inverts the slope: it answers at which
t^2 the class v has twisted slope matching the reference point x.
"""

from fractions import Fraction

from .errors import Degenerate, NonPositive, OutOfDomain, ZeroDegree, ZeroRank
from .lattice import Frozen, MukaiVector, Surface, _over, _twist, rat
from .stability import StabilityParam


def xi_pair(v: MukaiVector, s, S: Surface):
    """The two building blocks (xi1, xi2) of the ample class of v at the
    twist s; needs r != 0."""
    if v.r == 0:
        raise ZeroRank(f"xi_pair needs rk != 0, got {v}")
    s = rat(s)
    r, d, a, _ = _over(v.r, v.d, v.a)
    sn, sd = s.numerator, s.denominator
    # xi2 = (-1, -s, chi/r - s^2*h2/2), whose last entry is (a - d*s*h2)/r
    return (MukaiVector(0, 1, Fraction(d * S.h2, r)),
            MukaiVector(-1, -s, Fraction(a * sd - d * sn * S.h2, r * sd)))


class AmpleClassReport(Frozen):
    __slots__ = ("phi", "xi1", "xi2", "xi_omega")

    def __init__(self, phi: Fraction, xi1: MukaiVector, xi2: MukaiVector,
                 xi_omega: MukaiVector):
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "xi1", xi1)
        object.__setattr__(self, "xi2", xi2)
        object.__setattr__(self, "xi_omega", xi_omega)


def ample_class(v: MukaiVector, p: StabilityParam, S: Surface) -> AmpleClassReport:
    """xi_omega = phi * xi1 + h2 * xi2 with phi = (r h2 t^2/2 - a_beta)/d_beta.

    By construction <v, xi_omega> = 0, and in fact xi_omega annihilates
    the entire plane of classes aligned with v at p (checked in tests);
    t^2 -> xi_omega is injective since phi is strictly increasing in t^2.
    """
    if v.r == 0:
        raise ZeroRank(f"ample_class needs rk != 0, got {v}")
    r, d, a, _ = _over(v.r, v.d, v.a)
    sn, sd, tn, td = p.s.numerator, p.s.denominator, p.t2.numerator, p.t2.denominator
    h2 = S.h2
    if d * sd == r * sn:
        raise ZeroDegree(f"d_beta({v}) = 0 at s = {p.s}")
    # phi = n/m; xi_omega = (-h2, phi - h2*s, h2*(phi*d + a - d*s*h2)/r)
    e = a * sd - d * sn * h2
    n = r * (h2 // 2) * (tn * sd * sd - sn * sn * td) - e * sd * td
    m = (d * sd - r * sn) * sd * td
    xi1, xi2 = xi_pair(v, p.s, S)
    xi_omega = MukaiVector(-h2, Fraction(n * sd - h2 * sn * m, m * sd),
                           Fraction(h2 * (n * d * sd + e * m), m * sd * r))
    return AmpleClassReport(phi=Fraction(n, m), xi1=xi1, xi2=xi2,
                            xi_omega=xi_omega)


def omega_x(v: MukaiVector, s, x, S: Surface) -> Fraction:
    """t^2 at which v's charge aligns with slope-reference x, measured
    relative to the twist s.

    With (a, d) the twisted invariants at s and r = rk(v):
        t^2 = 2 f(x)/h2,   f(x) = x (a - d h2 x / 2) / (x r - d),
    valid on the open interval D = (x0, d/r) for r > 0 (or (x0, inf)
    otherwise) where x0 = max(2a/(h2 d), 0); there f is positive and the
    formula inverts the slope.  Outside D — including both endpoints and
    whenever d <= 0 — the slope value is not attained: OutOfDomain.
    """
    s, x = rat(s), rat(x)
    r, dn, an, V, sd = _twist(v.r, v.d, v.a, s, S)
    xn, xd, half = x.numerator, x.denominator, S.h2 // 2
    # x0 = max(2a/(h2 d), 0) = max(an/(half*sd*dn), 0)
    if dn <= 0:
        raise OutOfDomain(f"needs d_beta > 0, got {Fraction(dn, V * sd)} at s = {s}")
    if (xn <= 0 or xn * half * sd * dn <= an * xd
            or (r > 0 and xn * sd * r >= dn * xd)):
        raise OutOfDomain(f"x = {x} outside the admissible interval")
    t2 = Fraction(xn * (an * xd - dn * half * xn * sd),
                  half * xd * sd * (xn * r * sd - dn * xd))
    assert t2 > 0, "omega_x must land at positive t^2 on its domain"
    return t2


def omega_sx(v: MukaiVector, s, x, S: Surface) -> Fraction:
    """Same inversion with x an absolute coordinate (independent of the
    twist): omega_sx(v, s, s + x_rel) == omega_x(v, s, x_rel).

    Using the plain entries (r, d0, a0) of v:
        t^2 = 2 (x - s) (a0 - d0 x h2/2 + s (r x - d0) h2/2)
              / ((x r - d0) h2).
    The value is independent of s on the common domain.  Degenerate when
    x r = d0 (the pole), NonPositive when the formula gives t^2 <= 0.
    """
    s, x = rat(s), rat(x)
    r, d0, a0 = v.r, v.d, v.a
    den = (x * r - d0) * S.h2
    if den == 0:
        raise Degenerate(f"pole at x = {x} (x rk = degree)")
    t2 = 2 * (x - s) * (a0 - d0 * x * S.h2 / 2 + s * (r * x - d0) * S.h2 / 2) / den
    if t2 <= 0:
        raise NonPositive(f"t^2 = {t2} <= 0 at x = {x}")
    return t2
