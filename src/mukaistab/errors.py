"""Error taxonomy: the package's one failure contract.

A class's ``code`` is its name; the command line front end serializes it
verbatim as ``{"error": code}``, so the class names here are part of the
external contract.  Every public precondition raises a class from this
module in every interpreter mode, ``python -O`` included.
"""


class MukaiStabError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__

    def __init__(self, detail=""):
        self.detail = str(detail)
        super().__init__(self.detail or self.code)


class NonIntegral(MukaiStabError):
    """A caller-supplied class or multiplicity that must be integral is
    not: a vector argument with a non-integer entry, or a decomposition
    multiplicity that is not a positive integer.  Compare NotIntegral."""


class Zero(MukaiStabError):
    """A vector that must be nonzero is zero."""


class ZeroCharge(MukaiStabError):
    """The central charge vanishes where a phase is required."""


class NonPositiveSquare(MukaiStabError):
    """A self-pairing that must be positive is not."""


class BoundOverflow(MukaiStabError):
    """A bounded search would exceed its candidate cap."""


class NotK3(MukaiStabError):
    """Operation defined only on K3 surfaces was called on an abelian one."""


class UniquenessViolation(MukaiStabError):
    """A search whose contract returns at most one class found two or
    more in its box.

    Raised by ``find_minus_two_aligned``.  The aligned square -2 classes
    are not unique in general: the square fixes a = (h2*d^2 + 2)/(2*r)
    from (r, d) (r = 0 is impossible), alignment is one integer linear
    equation, and the classes it leaves lie in a rank-2 lattice on which
    the Mukai form can be indefinite, so they can form infinite
    Pell-type orbits.  The error reports a box holding two or more of
    them, not an implementation bug."""


class NotIntegral(MukaiStabError):
    """A Fourier-Mukai transform that must be integral is not.

    Raised by ``FMTransform`` for an ``r1`` that is not a nonzero
    integer and by ``make_transform`` for a non-integral kernel class.  It
    differs from NonIntegral, which rejects the caller's own classes;
    both codes are part of the external contract, so they stay apart."""


class NotPrimitive(MukaiStabError):
    """A derived class that must be primitive is not."""


class ZeroRank(MukaiStabError):
    """A formula requiring nonzero rank was fed rank zero."""


class ZeroDegree(MukaiStabError):
    """A formula requiring nonzero twisted degree was fed degree zero."""


class OutOfDomain(MukaiStabError):
    """Argument lies outside the real domain of the formula."""


class Degenerate(MukaiStabError):
    """A denominator vanishes identically for these inputs."""


class NonPositive(MukaiStabError):
    """A quantity that must be positive came out nonpositive."""


class NotAligned(MukaiStabError):
    """Input classes are required to be phase-aligned but are not."""


class ZeroDenominator(MukaiStabError):
    """A transform denominator vanished."""


class UsageError(MukaiStabError):
    """Malformed command line input (reserved for the CLI layer)."""
