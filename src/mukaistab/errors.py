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
    argument with a non-integer entry, a decomposition multiplicity that
    is not a positive integer, a Fourier-Mukai transform whose ``r1``
    is not a nonzero integer (``FMTransform``) or whose kernel class is
    not integral (``make_transform``), or a walk ``cap`` or search
    ``bound`` that is not an int (``enumerate_walls``,
    ``chambers_on_ray``, ``find_isotropic_pairing_one``,
    ``find_minus_two_aligned``)."""


class Zero(MukaiStabError):
    """A vector that must be nonzero is zero."""


class ZeroCharge(MukaiStabError):
    """The central charge vanishes where a phase is required."""


class NonPositiveSquare(MukaiStabError):
    """A self-pairing that must be positive is not."""


class BoundOverflow(MukaiStabError):
    """A search or walk would exceed its cap: ``enumerate_walls`` walks
    at most ``cap`` steps (m-lines plus fibers), and
    ``find_minus_two_aligned`` refuses a bound of 1118 or more, whose box
    spans over 5*10^6 (r, d) pairs."""

    exit_code = 3


class NotK3(MukaiStabError):
    """Operation defined only on K3 surfaces was called on an abelian one."""


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


class UsageError(MukaiStabError):
    """Malformed command line input (reserved for the CLI layer)."""

    exit_code = 1
