"""Central charge, exact phase comparison, and the reduced determinant
that orders phases.

At beta = s*H, omega = t*H the central charge of a class v is

    Z(v) = -a_b + (h2*t^2/2)*r_b  +  i * d_b * h2 * t,

with (r_b, d_b, a_b) the s-twisted invariants.  Two design rules shape
this module:

* t^2 is authoritative.  Every alignment/wall computation depends on t
  only through t^2, and the omega-constructors downstream produce rational
  t^2 with irrational t, so the parameter object can carry t2 alone.
* phases are never computed as real numbers.  The phase phi in (0,2]
  (Im > 0 <=> phi in (0,1); Im = 0, Re < 0 <=> phi = 1; Im < 0 <=>
  phi in (1,2); Im = 0, Re > 0 <=> phi = 2) is represented by an exact
  order key: lexicographically (band, -Re/Im),
  cotangent monotonicity making the slope increasing in phi within each
  open half-plane.
"""

from fractions import Fraction
from functools import total_ordering

from .errors import OutOfDomain, ZeroCharge
from .lattice import Frozen, MukaiVector, Surface, _ints, _twist, rat


class StabilityParam(Frozen):
    """A point (beta, omega) = (s*H, t*H) with t > 0.  t2 = t^2 is the
    authoritative field; t itself is optional and only required by the
    few formulas that are genuinely linear in t.  s and t2 are held over
    one denominator, ``_q = (s*E, t2*E, E)``."""

    __slots__ = ("_q", "t")
    _names = ("s", "t2", "t")

    def __init__(self, s, t2=None, t=None):
        s = rat(s)
        if t is not None:
            t = rat(t)
            if t.numerator <= 0:
                raise ValueError(f"t must be positive, got {t}")
            if t2 is None:
                t2 = t * t
        t2 = rat(t2)
        if t2.numerator <= 0:
            raise ValueError(f"t2 must be positive, got {t2}")
        if t is not None and (t.numerator ** 2 * t2.denominator
                              != t2.numerator * t.denominator ** 2):
            raise ValueError(f"inconsistent t={t}, t2={t2}")
        object.__setattr__(self, "_q", _ints(s, t2))
        object.__setattr__(self, "t", t)

    def require_t(self) -> Fraction:
        if self.t is None:
            raise OutOfDomain("this operation needs an exact rational t, "
                              "but the parameter only carries t^2")
        return self.t


param = StabilityParam  # the short public name the CLI and demos use


class CentralCharge(Frozen):
    """Z = re + i*(im_over_t)*t.  The imaginary part divided by t is
    always rational (= d_b*h2), so this pair is an exact representation
    even when t is irrational."""

    __slots__ = ("_q",)
    _names = ("re", "im_over_t")

    def is_zero(self) -> bool:
        return self._q[:2] == (0, 0)

    def im_at(self, t) -> Fraction:
        return self.im_over_t * rat(t)


def _charge(v: MukaiVector, p: StabilityParam, S: Surface):
    """(re, im_over_t, den): Z(v) as two integers over one den > 0."""
    sn, tn, E = p._q  # s = sn/E, t2 = tn/E
    R, D, A, W = _twist(*v._q, sn, E, S)
    return S.h2 // 2 * tn * R - A * E, S.h2 * D * E, W * E


def central_charge(v: MukaiVector, p: StabilityParam, S: Surface) -> CentralCharge:
    """re = -a_b + (h2*t2/2)*r_b ; im_over_t = d_b*h2."""
    return CentralCharge._of(*_charge(v, p, S))


def _acd(v1: MukaiVector, v: MukaiVector, S: Surface):
    """(A, C, D, den): the untwisted coefficients of
    rho(v1, v) = A*(t^2 + s^2) + C*s + D as integers over one den > 0,

        A = (h2/2)*(v1.r*v.d - v.r*v1.d)
        C = v1.a*v.r - v1.r*v.a
        D = v.a*v1.d - v1.a*v.d

    (wall_locus returns them as the Wall's A, C, D)."""
    r1, d1, a1, X = v1._q
    r, d, a, Y = v._q
    return S.h2 // 2 * (r1 * d - r * d1), a1 * r - r1 * a, a * d1 - a1 * d, X * Y


def _rho_normal(r, d, a, V, p: StabilityParam, S: Surface):
    """(n0, n1, n2, den), den > 0, for v = (r, d, a)/V as v._q holds it:
    rho(w, v) at p is the functional (n0*x + n1*y + n2*z)/den of
    w = (x, y, z).  Read off A*(t^2+s^2) + C*s + D,
    n/den = ((h2/2)*d*q - a*s, a - (h2/2)*r*q, r*s - d)/V with
    q = t^2 + s^2, times E^2 for p._q = (s*E, t^2*E, E), so n2 = 0
    exactly when d_beta(v) = 0.  It is the pairing with
    d_beta(v)*Re Omega - (Re Z(v)/(h2*t))*Im Omega, where
    Z(w) = <Omega, w> for Omega = e^{(s+it)H}; Re Omega and Im Omega are
    independent, so n = 0 exactly when d_beta(v) = Re Z(v) = 0, that is
    when Z(v) = 0 (Im Z(v) = h2*t*d_beta(v))."""
    half, (sn, tn, E) = S.h2 // 2, p._q
    q = tn * E + sn * sn  # t2 + s^2 = q/E^2
    return (half * d * q - a * sn * E, a * E * E - half * r * q,
            (r * sn - d * E) * E, V * E * E)


def reduced_sigma(v1: MukaiVector, v: MukaiVector, p: StabilityParam,
                  S: Surface) -> Fraction:
    """rho(v1, v) = ReZ(v1)*d_beta(v) - d_beta(v1)*ReZ(v).

    The full phase-ordering determinant is t*h2*rho, so the sign of rho is
    the sign of the determinant; rho depends on t only through t^2, which
    is why it is the primitive everything else uses.  Computed as the
    functional _rho_normal of v applied to v1; agreement with the
    determinant definition is an acceptance-tested identity.
    """
    n0, n1, n2, den = _rho_normal(*v._q, p, S)
    r1, d1, a1, X = v1._q
    return Fraction(n0 * r1 + n1 * d1 + n2 * a1, den * X)


@total_ordering
class PhaseKey(Frozen):
    """Exact order key for the phase phi in (0, 2].

    band: 0 for Im > 0, 1 for the negative real axis (phi = 1), 2 for
    Im < 0, 3 for the positive real axis (phi = 2).  slope is -Re/Im up
    to the positive factor t (we divide by im_over_t, not im), which
    cancels in every comparison at a fixed parameter; it increases
    strictly with phi inside bands 0 and 2 and is 0 on the axes.
    Lexicographic (band, slope) order therefore agrees with phi; it is
    compared on the ints of ``_q``.
    """

    __slots__ = ("band", "_q")
    _names = ("band", "slope")

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            (x, X), (y, Y) = self._q, other._q
            return (self.band, x * Y) < (other.band, y * X)
        return NotImplemented


def _nonzero_charge(v: MukaiVector, p: StabilityParam, S: Surface):
    """(re, im) of _charge without its common den; ZeroCharge when Z(v) = 0."""
    re, im, _ = _charge(v, p, S)
    if re == 0 and im == 0:
        raise ZeroCharge(f"Z({v}) = 0 at s={p.s}, t2={p.t2}")
    return re, im


def _band(re: int, im: int) -> int:
    """The PhaseKey band of a nonzero charge re + i*im*t."""
    return (0 if im > 0 else 2) if im else (1 if re < 0 else 3)


def phase_key(v: MukaiVector, p: StabilityParam, S: Surface) -> PhaseKey:
    re, im = _nonzero_charge(v, p, S)  # slope -re/im is free of the den
    return PhaseKey._of(_band(re, im), -re if im else 0, im or 1)
