"""Exact arithmetic in the rank-3 algebraic Mukai lattice of a
Picard-rank-1 surface.

A class is written ``v = r + d*H + a*rho`` where ``H`` is the polarization
with self-intersection ``h2`` (positive and even) and ``rho`` is the point
class.  The pairing is

    <x, y> = h2 * x.d * y.d - x.r * y.a - x.a * y.r,

an even bilinear form of signature (2,1).  There is no floating point
in the core, by design: every identity downstream is exact and the tests
run at zero tolerance.  Kernel convention: Fractions at the interface,
ints inside.  A formula reads each input's numerator and denominator
once (``_over``), evaluates its polynomial on Python ints and builds one
Fraction per returned value.

Twisting by ``beta = s*H`` re-expresses a vector in the basis adapted to
``e^{sH} = (1, s, s^2*h2/2)``; the twisted triple (r_b, d_b, a_b) is what
all the stability formulas consume.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import NonIntegral, Zero


def rat(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}: core arithmetic is exact")
    return Fraction(x)


class Frozen:
    """Immutable value base: a subclass lists its fields in order as
    ``__slots__`` and sets them in ``__init__`` with object.__setattr__.
    As for a frozen dataclass, repr, == (same class only) and hash follow
    the field tuple, and assignment or deletion raises AttributeError.
    Copies and pickles rebuild through ``__init__``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __repr__(self):
        inner = ", ".join([f"{f}={getattr(self, f)!r}" for f in self.__slots__])
        return f"{self.__class__.__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class Surface(Frozen):
    """A Picard-rank-1 abelian or K3 surface, known to us only through
    its kind and the self-intersection h2 = (H^2) of the polarization."""

    __slots__ = ("kind", "h2")  # kind is "abelian" or "k3"

    def __init__(self, kind: str, h2: int):
        if kind not in ("abelian", "k3"):
            raise ValueError(f"kind must be 'abelian' or 'k3', got {kind!r}")
        if not (isinstance(h2, int) and h2 > 0 and h2 % 2 == 0):
            raise ValueError(f"h2 must be a positive even integer, got {h2!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "h2", h2)

    @property
    def epsilon(self) -> int:
        return 0 if self.kind == "abelian" else 1


class MukaiVector(Frozen):
    """A rational class r + d*H + a*rho.  Rational entries are allowed on
    purpose (transform images of exponentials are rational); integrality
    is a queryable property, not a type constraint."""

    __slots__ = ("r", "d", "a")

    def __init__(self, r, d, a):
        object.__setattr__(self, "r", rat(r))
        object.__setattr__(self, "d", rat(d))
        object.__setattr__(self, "a", rat(a))

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r + other.r, self.d + other.d, self.a + other.a)

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r - other.r, self.d - other.d, self.a - other.a)

    def __neg__(self) -> "MukaiVector":
        return MukaiVector(-self.r, -self.d, -self.a)

    def __rmul__(self, k) -> "MukaiVector":
        k = rat(k)
        return MukaiVector(k * self.r, k * self.d, k * self.a)

    def as_tuple(self):
        return (self.r, self.d, self.a)

    def is_zero(self) -> bool:
        return self.r == 0 and self.d == 0 and self.a == 0

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.as_tuple())

    def content(self) -> int:
        """gcd of the entries of an integral vector; 0 for the zero vector."""
        if not self.is_integral():
            raise NonIntegral("content is defined for integral vectors")
        return gcd(gcd(int(self.r), int(self.d)), int(self.a))

    def is_primitive(self) -> bool:
        return self.is_integral() and self.content() == 1

    def __str__(self):
        return f"({self.r},{self.d},{self.a})"


def mv(r, d, a) -> MukaiVector:
    """Convenience constructor accepting ints / 'p/q' strings / Fractions."""
    return MukaiVector(r, d, a)


RHO = MukaiVector(0, 0, 1)


def _over(x, y, z):
    """(x', y', z', den): three rationals as ints over their lcd den."""
    xd, yd, zd = x.denominator, y.denominator, z.denominator
    den = lcm(xd, yd, zd)
    return (x.numerator * (den // xd), y.numerator * (den // yd),
            z.numerator * (den // zd), den)


def mukai_pairing(x: MukaiVector, y: MukaiVector, S: Surface) -> Fraction:
    """<x, y> = h2*x.d*y.d - x.r*y.a - x.a*y.r."""
    xr, xd, xa, X = _over(x.r, x.d, x.a)
    yr, yd, ya, Y = _over(y.r, y.d, y.a)
    return Fraction(S.h2 * xd * yd - xr * ya - xa * yr, X * Y)


def mukai_square(x: MukaiVector, S: Surface) -> Fraction:
    r, d, a, X = _over(x.r, x.d, x.a)
    return Fraction(S.h2 * d * d - 2 * r * a, X * X)


def sheaf_vector(rank: int, c1_mult: int, chi: int, S: Surface) -> MukaiVector:
    """Mukai vector of a sheaf with the given rank, c_1 = c1_mult*H and
    Euler characteristic: (rank, c1_mult, chi - epsilon*rank)."""
    return MukaiVector(rank, c1_mult, chi - S.epsilon * rank)


def exp_vector(s, S: Surface) -> MukaiVector:
    """e^{sH} = (1, s, s^2*h2/2)."""
    s = rat(s)
    return MukaiVector(1, s, s * s * S.h2 / 2)


class TwistedInvariants(Frozen):
    """The beta-twisted triple of a vector at beta = s*H.  The rank is
    twist-independent; d_b and a_b are the H-degree and rho-coefficient in
    the e^{sH}-adapted basis."""

    __slots__ = ("r_b", "d_b", "a_b")

    def __init__(self, r_b, d_b, a_b):
        object.__setattr__(self, "r_b", rat(r_b))
        object.__setattr__(self, "d_b", rat(d_b))
        object.__setattr__(self, "a_b", rat(a_b))

    def as_tuple(self):
        return (self.r_b, self.d_b, self.a_b)


def _twist(r, d, a, s: Fraction, S: Surface):
    """(r', dn, an, V, sd): the s-twisted triple of (r, d, a) on ints,
    (r_b, d_b, a_b) = (r'/V, dn/(V*sd), an/(V*sd^2)), sd the denominator
    of s.  Twisting at -s undoes twisting at s."""
    r, d, a, V = _over(r, d, a)
    sn, sd = s.numerator, s.denominator
    an = (a * sd - d * sn * S.h2) * sd + r * sn * sn * (S.h2 // 2)
    return r, d * sd - r * sn, an, V, sd


def twisted_invariants(v: MukaiVector, s, S: Surface) -> TwistedInvariants:
    """(r, d - r*s, a - d*s*h2 + (r/2)*s^2*h2).

    Equivalently a_b = -<v, e^{sH}>, which the tests assert; twisting by a
    rational s is an isometry of the rational lattice.
    """
    _, dn, an, V, sd = _twist(v.r, v.d, v.a, rat(s), S)
    return TwistedInvariants(v.r, Fraction(dn, V * sd), Fraction(an, V * sd * sd))


def untwist(ti: TwistedInvariants, s, S: Surface) -> MukaiVector:
    """Inverse of twisted_invariants at the same s."""
    _, dn, an, V, sd = _twist(ti.r_b, ti.d_b, ti.a_b, -rat(s), S)
    return MukaiVector(ti.r_b, Fraction(dn, V * sd), Fraction(an, V * sd * sd))


def retwist(ti: TwistedInvariants, s_from, s_to, S: Surface) -> TwistedInvariants:
    """Pass from the s_from-twisted basis to the s_to-twisted basis
    directly, without returning to untwisted coordinates:

        d_s = d_g + r*(g - s),
        a_s = a_g + d_g*(g - s)*h2 + (r/2)*(s - g)^2*h2,

    with g = s_from, s = s_to: the twist of the triple at s - g.
    Composition consistency with the direct computation is a tested
    invariant.
    """
    _, dn, an, V, sd = _twist(ti.r_b, ti.d_b, ti.a_b, -rat(s_from) + rat(s_to), S)
    return TwistedInvariants(ti.r_b, Fraction(dn, V * sd), Fraction(an, V * sd * sd))


def d_beta(v: MukaiVector, s, S: Surface) -> Fraction:
    """Twisted degree d - r*s (the only coordinate most wall formulas need)."""
    return v.d - v.r * rat(s)


def d_beta_min(s, S: Surface) -> Fraction:
    """Minimal positive value of d - r*s over integer pairs (r, d).

    For s = p/q in lowest terms the values d - r*p/q sweep (1/q)*Z, so the
    minimum is 1/q.  (One classical normalization carries an extra (H^2)
    factor; this operation returns the plain lattice minimum, which is
    what the degree d_beta of an integral class actually attains.)
    """
    s = rat(s)
    return Fraction(1, s.denominator)


def _kernel_basis_of_functional(n0: int, n1: int, n2: int):
    """Integral basis of {x in Z^3 : n0*x0 + n1*x1 + n2*x2 = 0} for a
    nonzero integer functional, by the usual xgcd staircase.  The output
    spans the kernel saturated (index one), which the tests check against
    a brute-force scan."""
    if n0 == 0 and n1 == 0:
        # kernel is the coordinate plane x2 = 0
        return (1, 0, 0), (0, 1, 0)
    g1 = gcd(n0, n1)
    u1 = (n1 // g1, -n0 // g1, 0)
    # p*n0 + q*n1 = g1
    p, q = _xgcd(n0, n1)
    g = gcd(g1, n2)
    u2 = (-p * (n2 // g), -q * (n2 // g), g1 // g)
    assert n0 * u2[0] + n1 * u2[1] + n2 * u2[2] == 0
    return u1, u2


def _xgcd(a: int, b: int):
    """(p, q) with p*a + q*b = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_s, s = s, old_s - k * s
        old_t, t = t, old_t - k * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def perp_basis(v: MukaiVector, S: Surface):
    """A Z-basis (pair of integral vectors) of the orthogonal complement
    {x integral : <x, v> = 0}.

    <x, v> is the integer functional (-v.a)*x_r + (h2*v.d)*x_d + (-v.r)*x_a,
    so this is a 1-functional kernel computation.
    """
    if not v.is_integral():
        raise NonIntegral(f"perp_basis needs an integral vector, got {v}")
    if v.is_zero():
        raise Zero("perp_basis of the zero vector")
    n = (-int(v.a), S.h2 * int(v.d), -int(v.r))
    u1, u2 = _kernel_basis_of_functional(*n)
    b1, b2 = MukaiVector(*u1), MukaiVector(*u2)
    assert mukai_pairing(b1, v, S) == 0 and mukai_pairing(b2, v, S) == 0
    return b1, b2


def primitivity_report(v: MukaiVector, S: Surface = None) -> dict:
    """Integrality / primitivity flags, plus isotropy when a surface is
    supplied (isotropy needs h2).  gcd of the zero vector is 0 and flagged
    non-primitive."""
    integral = v.is_integral()
    report = {
        "integral": integral,
        "primitive": bool(integral and v.content() == 1),
    }
    if S is not None:
        report["isotropic"] = mukai_square(v, S) == 0
    return report
