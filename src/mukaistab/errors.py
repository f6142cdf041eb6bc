"""Error taxonomy: the package's one failure contract.

A class's ``code`` is its name; the command line front end serializes it
verbatim as ``{"error": code}`` and exits with the class's
``exit_code``: 1 for a UsageError, 3 for a BoundOverflow, 2 for every
other class.  Both are part of the external contract.  Every public
precondition raises a class from this module in every interpreter mode,
``python -O`` included.
"""


class MukaiStabError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"
    exit_code = 2

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__

    def __init__(self, detail=""):
        self.detail = str(detail)
        super().__init__(self.detail or self.code)


class NonIntegral(MukaiStabError):
    """A class or multiplicity that must be integral is not: a vector
    argument with a non-integer entry (detail "<noun> <v> is not
    integral", the noun naming the argument), a decomposition
    multiplicity that is not a positive integer, a Fourier-Mukai
    transform whose ``r1`` is not a nonzero integer (``FMTransform``) or
    whose kernel class is not integral (``make_transform``), or a walk
    ``cap`` or search ``bound`` that is not an int (``enumerate_walls``,
    ``chambers_on_ray``, ``find_isotropic_pairing_one``,
    ``find_minus_two_aligned``).  None of these checks takes a bool for
    an int."""


class Zero(MukaiStabError):
    """A vector that must be nonzero is zero."""


class ZeroCharge(MukaiStabError):
    """The central charge vanishes where a phase is required."""


class NonPositiveSquare(MukaiStabError):
    """A self-pairing that must be positive is not."""


class BoundOverflow(MukaiStabError):
    """A search or walk would exceed its cap: ``enumerate_walls`` walks
    at most ``cap`` steps (m-lines plus fibers), and
    ``find_minus_two_aligned`` refuses a bound over 1117."""

    exit_code = 3


class NotK3(MukaiStabError):
    """Operation defined only on K3 surfaces was called on an abelian one:
    the searches for spherical (square -2) classes and the category walls
    they cut.  An abelian surface carries no spherical objects, since a
    simple sheaf E there has ext^1(E, E) >= 2 and so <v(E)^2> =
    ext^1(E, E) - 2 >= 0 (recalled, not quoted), though the lattice has
    square -2 classes ((1, 0, 1) for every h2)."""


class NotPrimitive(MukaiStabError):
    """A class that must be primitive is not (detail "<noun> <v> has
    content <g>"): the class of ``enumerate_walls`` and
    ``chambers_on_ray``, a decomposition part, or a transform's kernel
    class."""


class ZeroRank(MukaiStabError):
    """A formula requiring nonzero rank was fed rank zero."""


class ZeroDegree(MukaiStabError):
    """A formula requiring nonzero twisted degree was fed degree zero."""


class OutOfDomain(MukaiStabError):
    """Argument lies outside the real domain of the formula: no positive
    t^2 solves an omega constructor's slope reference (``omega_x``,
    ``omega_sx``; its pole x r = d included), ``l_divisor`` was given
    t^2 <= 0, or a parameter with no exact t was given to a call that
    needs t (``transform_central_charge``)."""


class NotAligned(MukaiStabError):
    """Input classes are required to be phase-aligned but are not."""


class UsageError(MukaiStabError):
    """Malformed command line input (reserved for the CLI layer)."""

    exit_code = 1
