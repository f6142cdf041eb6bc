"""Exact arithmetic in the rank-3 algebraic Mukai lattice of a
Picard-rank-1 surface.

A class is written ``v = r + d*H + a*rho`` where ``H`` is the polarization
with self-intersection ``h2`` (positive and even) and ``rho`` is the point
class.  The pairing is

    <x, y> = h2 * x.d * y.d - x.r * y.a - x.a * y.r,

an even bilinear form of signature (2,1).  There is no floating point
in the core, by design: every identity downstream is exact and the tests
run at zero tolerance.  Kernel convention: Fractions at the interface,
ints inside.  The value classes store their rational fields as ints
over one denominator (``_q``, reduced to gcd 1 with den > 0; see
Frozen), and a kernel reads those ints, never a Fraction field.  Every
kernel returns ints over one denominator (``_twist`` in ``_q``'s form)
and builds its result from them with the class's ``_of``; a returned
number is one Fraction.  So Fraction appears only in the numbers a call
returns and in the fields a value is read for.  Validation reads the
same ints: integral is den = 1, primitive is gcd 1, a sign or phase
order an integer comparison.

Twisting by ``beta = s*H`` re-expresses a vector in the basis adapted to
``e^{sH} = (1, s, s^2*h2/2)``; the twisted triple (r_b, d_b, a_b) is what
all the stability formulas consume.  It is itself a MukaiVector, v*e^{-sH}
(twisting is an isometry of the rational lattice), so twisted_invariants
takes and returns vectors: twisting at -s undoes it, and twisting at
s' - s passes from the s-twisted basis to the s'-twisted one.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import NonIntegral, NotPrimitive, Zero


def rat(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction: the one
    reader of rationals, the command line's included.  Text that is no
    rational ('abc', '1/0') is a ValueError and any other non-rational
    (a float, a bool, None) a TypeError; both messages name the value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}: core arithmetic is exact")
    if isinstance(x, bool):
        raise TypeError(f"refusing bool {x!r}: a truth value is no rational")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"cannot parse rational {x!r}: {e}") from None
    except TypeError as e:
        raise TypeError(f"cannot read {x!r} as a rational: {e}") from None


def _ints(*xs) -> tuple:
    """(n_1, ..., n_k, den): the rationals xs, each read by rat, as ints
    over their least common denominator, so den > 0 and gcd 1."""
    xs = [rat(x) for x in xs]
    den = lcm(*[x.denominator for x in xs])
    return (*[x.numerator * (den // x.denominator) for x in xs], den)


def _rational(i: int) -> property:
    """The property of the i-th rational field held in ``_q``: its
    Fraction, built when the field is read."""
    return property(lambda self: Fraction(self._q[i], self._q[-1]))


def _method(cls, name: str, code: str, **ns):
    """The method ``name`` of cls that ``code`` defines, compiled with
    exec as dataclasses builds its own."""
    ns.update(_set=object.__setattr__, __name__=cls.__module__)
    exec(code, ns)
    ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
    return ns[name]


class Frozen:
    """Immutable value base: a subclass lists its fields in order as
    ``__slots__`` and the defaults of trailing fields in a ``_defaults``
    dict.  As for a frozen dataclass, repr and hash follow the field
    tuple, == (same class only) the slots, and assignment or deletion
    raises AttributeError.  Copies and pickles rebuild through
    ``__init__`` from the field tuple.

    A subclass with rational fields lists every field in order in
    ``_names`` and, in ``__slots__``, ``_q`` in place of the rational
    ones: ``_q`` holds them as ints over one denominator, (n_1, ..., n_k,
    den) with den > 0 and gcd 1, so == on the ints is rational equality.
    For each of them Frozen makes a property that builds its Fraction
    when the field is read, and kernels that hold ints build a value
    with ``_of``.

    A subclass with no ``__init__`` of its own gets one that reads each
    rational field with rat and stores every field; a subclass that
    checks its fields writes ``__init__`` and sets them with
    object.__setattr__ (``_q`` from ``_ints``)."""

    __slots__ = ()
    _names = ()

    def __init_subclass__(cls):
        slots = cls.__dict__.get("__slots__", ())
        if not slots:
            return
        names = cls._names = cls.__dict__.get("_names", slots)
        held = [f for f in names if f not in slots]  # stored in _q
        for i, f in enumerate(held):
            setattr(cls, f, _rational(i))
        if "__init__" not in cls.__dict__:
            defaults = cls.__dict__.get("_defaults", {})
            args = "".join([f", {f}=_defaults[{f!r}]" if f in defaults
                            else f", {f}" for f in names])
            body = "".join([f"\n    _set(self, {f!r}, {f})" for f in slots
                            if f != "_q"])
            if held:
                body += f"\n    _set(self, '_q', _ints({', '.join(held)}))"
            cls.__init__ = _method(cls, "__init__",
                                   f"def __init__(self{args}):{body}",
                                   _defaults=defaults, _ints=_ints)

    @classmethod
    def _of(cls, *args):
        """The value of the fields in order, a rational one given as its
        numerator, over the den that follows them (default 1, any nonzero
        int).  The first call for a class compiles the class's own _of,
        which takes the place of this one, so a process compiles only the
        _of methods its kernels call."""
        names = cls._names
        held = [f for f in names if f not in cls.__slots__]
        n, cut = ", ".join(held), "".join([f"{f} // g, " for f in held])
        sets = "".join([f"\n    _set(self, {f!r}, {f})" for f in cls.__slots__
                        if f != "_q"])
        cls._of = classmethod(_method(
            cls, "_of",
            f"def _of(cls, {', '.join(names)}, den=1):\n"
            f"    if den != 1:\n"
            f"        g = _gcd({n}, den) if den > 0 else -_gcd({n}, den)\n"
            f"        {n}, den = {cut}den // g\n"
            f"    self = _new(cls){sets}\n"
            f"    _set(self, '_q', ({n}, den))\n"
            f"    return self", _gcd=gcd, _new=object.__new__))
        return cls._of(*args)

    def _fields(self, names=None) -> tuple:
        return tuple([getattr(self, f) for f in names or self._names])

    def __repr__(self):
        inner = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._names])
        return f"{self.__class__.__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self.__slots__) == other._fields(self.__slots__)
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
    is a queryable property, not a type constraint.  It stores the ints
    ``_q = (r, d, a, den)`` with den > 0 and gcd(r, d, a, den) = 1."""

    __slots__ = ("_q",)
    _names = ("r", "d", "a")

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        if not isinstance(other, MukaiVector):
            return NotImplemented
        (r, d, a, X), (x, y, z, Y) = self._q, other._q
        return MukaiVector._of(r * Y + x * X, d * Y + y * X, a * Y + z * X, X * Y)

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        return self + -other if isinstance(other, MukaiVector) else NotImplemented

    def __neg__(self) -> "MukaiVector":
        r, d, a, den = self._q
        return MukaiVector._of(-r, -d, -a, den)

    def __rmul__(self, k) -> "MukaiVector":
        (r, d, a, den), k = self._q, rat(k)
        n = k.numerator
        return MukaiVector._of(n * r, n * d, n * a, k.denominator * den)

    def as_tuple(self):
        return (self.r, self.d, self.a)

    def is_zero(self) -> bool:
        return not any(self._q[:3])

    def is_integral(self) -> bool:
        return self._q[3] == 1

    def content(self) -> int:
        """gcd of the entries of an integral vector; 0 for the zero vector."""
        return gcd(*_integral(self, "vector"))

    def is_primitive(self) -> bool:
        return self.is_integral() and self.content() == 1

    def __str__(self):
        return f"({self.r},{self.d},{self.a})"


mv = MukaiVector  # the short public name the demos and the benchmark use


def _integral(v: MukaiVector, noun: str):
    """(r, d, a) of v, or NonIntegral naming v as ``noun``: the one
    integrality check of a class argument."""
    r, d, a, den = v._q
    if den != 1:
        raise NonIntegral(f"{noun} {v} is not integral")
    return r, d, a


def _primitive(v: MukaiVector, noun: str):
    """(r, d, a) of v, or _integral's NonIntegral, or NotPrimitive naming
    v and its content: the one primitivity check of a class argument."""
    r, d, a = _integral(v, noun)
    g = gcd(r, d, a)
    if g != 1:
        raise NotPrimitive(f"{noun} {v} has content {g}")
    return r, d, a


RHO = MukaiVector(0, 0, 1)


def mukai_pairing(x: MukaiVector, y: MukaiVector, S: Surface) -> Fraction:
    """<x, y> = h2*x.d*y.d - x.r*y.a - x.a*y.r."""
    xr, xd, xa, X = x._q
    yr, yd, ya, Y = y._q
    return Fraction(S.h2 * xd * yd - xr * ya - xa * yr, X * Y)


def mukai_square(x: MukaiVector, S: Surface) -> Fraction:
    r, d, a, X = x._q
    return Fraction(S.h2 * d * d - 2 * r * a, X * X)


def sheaf_vector(rank: int, c1_mult: int, chi: int, S: Surface) -> MukaiVector:
    """Mukai vector of a sheaf with the given rank, c_1 = c1_mult*H and
    Euler characteristic: (rank, c1_mult, chi - epsilon*rank)."""
    return MukaiVector(rank, c1_mult, rat(chi) - S.epsilon * rat(rank))


def exp_vector(s, S: Surface) -> MukaiVector:
    """e^{sH} = (1, s, s^2*h2/2)."""
    s = rat(s)
    return MukaiVector._of(*_twist(1, 0, 0, 1, -s.numerator, s.denominator, S))


def _twist(r, d, a, V, sn: int, sd: int, S: Surface):
    """(R, D, A, W): the twisted triple of (r, d, a)/V at s = sn/sd,
    sd > 0, on ints, in the form of ``_q`` unreduced: (r_b, d_b, a_b) =
    (R, D, A)/W, W = V*sd^2.  Twisting at -s undoes twisting at s, and
    (1, 0, 0) twisted at -s is e^{sH}."""
    an = (a * sd - d * sn * S.h2) * sd + r * sn * sn * (S.h2 // 2)
    return r * sd * sd, (d * sd - r * sn) * sd, an, V * sd * sd


def twisted_invariants(v: MukaiVector, s, S: Surface) -> MukaiVector:
    """v*e^{-sH} = (r, d - r*s, a - d*s*h2 + (r/2)*s^2*h2), the twisted
    triple (r_b, d_b, a_b) as a vector.

    Equivalently a_b = -<v, e^{sH}>, which the tests assert; twisting by a
    rational s is an isometry of the rational lattice.
    """
    s = rat(s)
    return MukaiVector._of(*_twist(*v._q, s.numerator, s.denominator, S))


def d_beta(v: MukaiVector, s, S: Surface) -> Fraction:
    """Twisted degree d - r*s (the only coordinate most wall formulas need)."""
    (r, d, _, V), s = v._q, rat(s)
    return Fraction(d * s.denominator - r * s.numerator, V * s.denominator)


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
    r, d, a = _integral(v, "v")
    if not (r or d or a):
        raise Zero("perp_basis of the zero vector")
    n0, n1, n2 = -a, S.h2 * d, -r
    u1, u2 = _kernel_basis_of_functional(n0, n1, n2)
    assert not any(n0 * x + n1 * y + n2 * z for x, y, z in (u1, u2))
    return MukaiVector._of(*u1), MukaiVector._of(*u2)
