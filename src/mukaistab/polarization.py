"""Polarization data attached to a class: the ample direction singled
out by a stability parameter, and the t^2-value at which a prescribed
twisted slope is achieved.

Everything lives in the rank-3 lattice: an "ample class" here is the
Mukai vector xi_omega = phi_omega * xi1 + h2 * xi2 pairing to zero with
v (and with every class aligned with v at the given parameter), where

    xi1 = (0, 1, (d/r) h2),
    xi2 = -(e^{sH} - (chi/r) rho),      chi = a_beta(v),
    phi_omega = (r h2 t^2/2 - a_beta) / d_beta .

It is the Mukai dual of the normal of rho(., v) at the parameter
(stability._rho_normal).  The functions omega_x (x relative to the
twist) and omega_sx (x absolute) invert the slope through one integer
formula (_omega): at which t^2 has v twisted slope matching x?
"""

from fractions import Fraction

from .errors import OutOfDomain, ZeroDegree, ZeroRank
from .lattice import Frozen, MukaiVector, Surface, _twist, rat
from .stability import StabilityParam, _rho_normal


class AmpleClassReport(Frozen):
    __slots__ = ("_q", "xi1", "xi2", "xi_omega")
    _names = ("phi", "xi1", "xi2", "xi_omega")


def ample_class(v: MukaiVector, p: StabilityParam, S: Surface) -> AmpleClassReport:
    """xi_omega = phi * xi1 + h2 * xi2 with phi = (r h2 t^2/2 - a_beta)/d_beta.

    xi_omega is the Mukai dual (-n2, n1/h2, -n0) of the normal n of
    rho(., v) at p (stability._rho_normal) scaled to rank -h2, and phi is
    its degree plus h2*s.  So it annihilates the entire plane of classes
    aligned with v at p; t^2 -> xi_omega is injective since phi is
    strictly increasing in t^2.
    """
    r, d, a, V = v._q
    if r == 0:
        raise ZeroRank(f"ample_class needs rk != 0, got {v}")
    n0, n1, n2, _ = _rho_normal(r, d, a, V, p, S)
    if n2 == 0:
        raise ZeroDegree(f"d_beta({v}) = 0 at s = {p.s}")
    h2, (sn, _, sd) = S.h2, p._q
    # xi2 = (-1, -s, chi/r - s^2*h2/2), whose last entry is (a - d*s*h2)/r;
    # the scale V of v._q cancels from xi1 and xi2
    return AmpleClassReport._of(
        n1 * sd + h2 * sn * n2, MukaiVector._of(0, r, d * h2, r),
        MukaiVector._of(-r * sd, -r * sn, a * sd - d * sn * h2, r * sd),
        MukaiVector._of(-h2 * n2, n1, -h2 * n0, n2), n2 * sd)


def _omega(v: MukaiVector, s: Fraction, x: Fraction, S: Surface):
    """(N, M, D, W): t^2 = N/M, N = x (a - d h2 x/2) and M = (h2/2)
    (x r - d) at the twist s, and d_beta(v) = D/W, W > 0, all as ints."""
    R, D, A, W = _twist(*v._q, s.numerator, s.denominator, S)
    xn, xd, half = x.numerator, x.denominator, S.h2 // 2
    return xn * (A * xd - D * half * xn), half * xd * (xn * R - D * xd), D, W


def omega_x(v: MukaiVector, s, x, S: Surface) -> Fraction:
    """t^2 at which v's charge aligns with slope-reference x, measured
    relative to the twist s.

    With (a, d) the twisted invariants at s and r = rk(v):
        t^2 = 2 f(x)/h2,   f(x) = x (a - d h2 x / 2) / (x r - d),
    valid on the open interval D = (x0, d/r) for r > 0 (or (x0, inf)
    otherwise) where x0 = max(2a/(h2 d), 0); there f is positive and the
    formula inverts the slope.  Outside D — including both endpoints and
    whenever d <= 0 — the slope value is not attained: OutOfDomain.  For
    d, x > 0, D is N < 0 and M < 0 in t^2 = N/M (_omega).
    """
    s, x = rat(s), rat(x)
    N, M, D, W = _omega(v, s, x, S)
    if D <= 0:
        raise OutOfDomain(f"needs d_beta > 0, got {Fraction(D, W)} at s = {s}")
    if x.numerator <= 0 or N >= 0 or M >= 0:
        raise OutOfDomain(f"x = {x} outside the admissible interval")
    return Fraction(N, M)


def omega_sx(v: MukaiVector, s, x, S: Surface) -> Fraction:
    """omega_x with x absolute: t^2 = N/M of _omega at x - s, so
    omega_sx(v, s, s + x_rel) == omega_x(v, s, x_rel) on omega_x's
    domain.  It solves rho(e^{xH}, v) = 0 at (s, t^2), so it depends on
    s.  OutOfDomain at the pole x r = d0 (M = 0) and when t^2 <= 0,
    each with its own detail."""
    s, x = rat(s), rat(x)
    N, M, *_ = _omega(v, s, x - s, S)
    if M == 0:
        raise OutOfDomain(f"pole at x = {x} (x rk = degree)")
    t2 = Fraction(N, M)
    if N * M <= 0:
        raise OutOfDomain(f"t^2 = {t2} <= 0 at x = {x}")
    return t2
