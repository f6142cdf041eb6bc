"""Case analysis for properly-semistable classes: searches for
isotropic pairing-one destabilizers and spherical classes, a decision
tree over aligned decompositions, and the A2 pattern test.

The decisive search — "is there an isotropic w with <v, w> = 1 whose
charge aligns with v at p?" — is solved analytically, not by box scan.
The pairing and alignment constraints are two linear equations in
w = (r, d, a) with normals n1 = <v, ·> and n2 = rho(·, v).  With
Omega = e^{(s+it)H}, Z(w) = <Omega, w>, so n2 is the pairing with
u = d_beta(v)·Re Omega - (Re Z(v)/(h2·t))·Im Omega.  Re Omega and
Im Omega span a positive-definite plane, so u = 0 exactly when
Z(v) = 0.  If n2 = lambda·n1 with lambda != 0, then u = lambda·v and
<v^2> > 0, yet 0 = rho(v, v) = lambda·<v^2>.  So the normals are
parallel exactly when Z(v) = 0, and otherwise cut a rational line.  The
Mukai form has signature (2, 1), so no affine line on which <v, ·> = 1
is entirely isotropic: the isotropy quadratic along the line has at
most two rational roots, extracted by exact square testing of the
discriminant.  The search is therefore complete for every v with
Z(v) != 0 and raises ZeroCharge otherwise; no box is involved.

The spherical search is no box scan either: the square -2 fixes a from
(r, d), so it is an integer scan over (r, d) with one divisibility test
and one linear alignment test per pair.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm
from itertools import combinations

from .errors import (BoundOverflow, NonIntegral, NonPositiveSquare,
                     NotAligned, NotK3, NotPrimitive, UniquenessViolation,
                     ZeroCharge, ZeroDegree)
from .lattice import (Frozen, MukaiVector, Surface, d_beta, mukai_pairing,
                      mukai_square)
from .stability import StabilityParam, central_charge, reduced_sigma

_BOX_CAP = 5 * 10 ** 6  # hard ceiling on the candidates a bounded scan visits


def _pairing_normal(v: MukaiVector, S: Surface):
    """<v, w> as a linear functional of w = (r, d, a)."""
    return (-v.a, S.h2 * v.d, -v.r)


def _alignment_normal(v: MukaiVector, p: StabilityParam, S: Surface):
    """rho(w, v) at p as a linear functional of w = (r, d, a)."""
    half = Fraction(S.h2, 2)
    q = p.t2 + p.s * p.s
    return (half * v.d * q - v.a * p.s,
            -half * v.r * q + v.a,
            v.r * p.s - v.d)


def _cross(n1, n2):
    return (n1[1] * n2[2] - n1[2] * n2[1],
            n1[2] * n2[0] - n1[0] * n2[2],
            n1[0] * n2[1] - n1[1] * n2[0])


def _solve_two_planes(n1, c1, n2, c2, k):
    """One rational solution of n1.w = c1, n2.w = c2 plus the primitive
    integer kernel direction, given k = n1 x n2, which must be nonzero."""
    # a 2x2 minor is invertible iff some cross entry is nonzero; that
    # entry names the coordinate NOT involved in the minor
    fixed = next(t for t in (2, 1, 0) if k[t] != 0)
    i, j = [t for t in (0, 1, 2) if t != fixed]
    det = n1[i] * n2[j] - n1[j] * n2[i]
    wi = (c1 * n2[j] - c2 * n1[j]) / det
    wj = (n1[i] * c2 - n2[i] * c1) / det
    w0 = [Fraction(0)] * 3
    w0[i], w0[j] = wi, wj
    # clear denominators of k and make it primitive integral
    den = 1
    for x in k:
        den *= Fraction(x).denominator
    kv = [Fraction(x) * den for x in k]
    g = gcd(gcd(int(kv[0]), int(kv[1])), int(kv[2]))
    kv = tuple(int(x) // g for x in kv)
    return tuple(w0), kv


def _fraction_sqrt(x: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _isotropic_roots_on_line(w0, k, S: Surface):
    """Rational tau with <(w0 + tau*k)^2> = 0.  The line must not be
    entirely isotropic, which no line with <v, ·> = 1 is."""
    W0 = MukaiVector(*w0)
    K = MukaiVector(*k)
    a = mukai_square(K, S)
    b = 2 * mukai_pairing(W0, K, S)
    c = mukai_square(W0, S)
    if a == 0:
        return [] if b == 0 else [-c / b]
    disc = b * b - 4 * a * c
    root = _fraction_sqrt(disc)
    if root is None:
        return []
    if root == 0:
        return [-b / (2 * a)]
    return [(-b - root) / (2 * a), (-b + root) / (2 * a)]


def _ipo_constraints_hold(w, v, p, S) -> bool:
    return (w.is_integral() and w.is_primitive()
            and mukai_square(w, S) == 0
            and mukai_pairing(v, w, S) == 1
            and reduced_sigma(w, v, p, S) == 0
            and d_beta(w, p.s, S) > 0)


def _ipo_line_search(v, p, S):
    """All integral primitive isotropic w with <v, w> = 1, aligned with
    v at p and d_beta(w) > 0, in (r, d, a) order; raises ZeroCharge when
    Z(v) = 0.

    The normals n1 = <v, ·> and n2 = rho(·, v) are parallel exactly
    when Z(v) = 0 (module docstring), so their cross product doubles as
    the zero-charge test.  Otherwise they cut a line, and the isotropy
    quadratic along it is not identically zero (signature (2, 1)), so
    its at most two rational roots are every candidate: the search is
    complete, with no bound."""
    n1, n2 = _pairing_normal(v, S), _alignment_normal(v, p, S)
    k = _cross(n1, n2)
    if k == (0, 0, 0):
        raise ZeroCharge(f"Z({v}) = 0 at s={p.s}, t2={p.t2}")
    w0, k = _solve_two_planes(n1, Fraction(1), n2, Fraction(0), k)
    out = []
    for tau in _isotropic_roots_on_line(w0, k, S):
        w = MukaiVector(w0[0] + tau * k[0], w0[1] + tau * k[1],
                        w0[2] + tau * k[2])
        if _ipo_constraints_hold(w, v, p, S):
            out.append(w)
    out.sort(key=lambda u: u.as_tuple())
    return out


def find_isotropic_pairing_one(v: MukaiVector, p: StabilityParam, S: Surface,
                               bound: int) -> list:
    """All integral primitive isotropic w1 with entries bounded by
    ``bound``, <v, w1> = 1, aligned with v at p, of positive twisted
    degree.  The line search makes this complete; the box bound only
    truncates the output.  Raises ZeroCharge when Z(v) = 0."""
    if not v.is_integral():
        raise NonIntegral(f"search needs an integral v, got {v}")
    return [w for w in _ipo_line_search(v, p, S)
            if max(abs(w.r), abs(w.d), abs(w.a)) <= bound]


def find_minus_two_aligned(p: StabilityParam, S: Surface, bound: int,
                           reference: MukaiVector) -> list:
    """All integral w = (r, d, a) with entries bounded by ``bound``,
    <w^2> = -2, d_beta(w) > 0, aligned with the reference class at p, in
    (r, d, a) order.  K3 only: a sheaf class on an abelian surface never
    has square -2.

    The scan runs over (r, d) alone: <w^2> = h2*d^2 - 2*r*a = -2 rules
    out r = 0 and fixes a = (h2*d^2 + 2)/(2*r) whenever that is
    integral.  Alignment is the integer normal of rho(w, reference) at p
    (denominators cleared), and d_beta(w) > 0 is d*q - r*n > 0 for
    s = n/q in lowest terms.

    The qualifying classes are not unique: they lie in a rank-2 lattice
    on which the Mukai form can be indefinite, so they can form infinite
    Pell-type orbits (at s = -3/2, t2 = 1, h2 = 2 the reference
    (1,0,-2) aligns (-1,2,-5) and (25,-18,13)).  The search raises
    UniquenessViolation when the box holds two or more of them."""
    if S.kind != "k3":
        raise NotK3("square -2 classes need a K3 surface")
    if central_charge(reference, p, S).is_zero():
        raise ZeroCharge(f"Z({reference}) = 0 at s={p.s}, t2={p.t2}")
    pairs = 2 * bound * (2 * bound + 1) if bound > 0 else 0
    if pairs > _BOX_CAP:
        raise BoundOverflow(f"scan of bound {bound} visits {pairs} (r, d) "
                            f"pairs, over {_BOX_CAP}")
    normal = _alignment_normal(reference, p, S)
    den = lcm(*(c.denominator for c in normal))
    n0, n1, n2 = (int(c * den) for c in normal)
    s_num, s_den = p.s.numerator, p.s.denominator
    h2 = S.h2
    out = []
    rng = range(-bound, bound + 1)
    for r in rng:
        if r == 0:
            continue
        for d in rng:
            num = h2 * d * d + 2
            if num % (2 * r):
                continue
            a = num // (2 * r)
            if (abs(a) <= bound and d * s_den - r * s_num > 0
                    and n0 * r + n1 * d + n2 * a == 0):
                out.append(MukaiVector(r, d, a))
    if len(out) > 1:
        raise UniquenessViolation(
            f"{len(out)} aligned square--2 classes found: {[str(w) for w in out]}")
    return out


# ---------------------------------------------------------------------------
# decomposition decision tree

STABLE_PAIR = "StablePairExists"
EXC_ISOTROPIC = "ExceptionalIsotropicPairingOne"
EXC_TRIPLE = "ExceptionalTriple"
EXC_RANK_TWO = "ExceptionalRankTwoCase"
INCONCLUSIVE = "Inconclusive"


class DecompositionReport(Frozen):
    __slots__ = ("verdict", "witnesses", "bound", "certified")

    def __init__(self, verdict: str, witnesses: tuple = (), bound: int = None,
                 certified: bool = True):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "certified", certified)


def _check_parts(parts, p, S):
    if not parts:
        raise NotAligned("empty decomposition")
    vecs = []
    for n, vi in parts:
        if not (isinstance(n, int) and n >= 1):
            raise NonIntegral(f"multiplicity must be a positive integer, got {n!r}")
        if not vi.is_integral():
            raise NonIntegral(f"part {vi} is not integral")
        if not vi.is_primitive():
            raise NotPrimitive(f"part {vi} has content {vi.content()}")
        vecs.append(vi)
    tuples = [v.as_tuple() for v in vecs]
    if len(set(tuples)) != len(tuples):
        raise NotAligned("parts must be pairwise distinct classes")
    for x, y in combinations(vecs, 2):
        if reduced_sigma(x, y, p, S) != 0:
            raise NotAligned(f"rho({x}, {y}) = {reduced_sigma(x, y, p, S)} != 0 "
                             f"at s={p.s}, t2={p.t2}")


def a2_pattern(parts, S: Surface) -> bool:
    """The numerical A2 pattern on the bare Gram data: exactly three
    parts, multiplicity one each, every class isotropic, every cross
    pairing equal to 1.  (The total class then has square 6.)

    This is a pure lattice predicate with no stability point involved.
    Note that three pairwise-distinct classes matching the pattern are
    linearly independent (the Gram matrix [[0,1,1],[1,0,1],[1,1,0]] is
    nonsingular), so they can never be simultaneously phase-aligned at
    a single (s, t) point: classes aligned with a nonzero charge span
    at most a 2-dimensional subspace, and classes of zero charge at a
    fixed point span at most a line.  detect_a2 therefore reports the
    pattern only through this predicate, after its alignment check has
    rejected any configuration that pretends to be simultaneous.
    """
    if len(parts) != 3 or any(n != 1 for n, _ in parts):
        return False
    vecs = [vi for _, vi in parts]
    if any(mukai_square(vi, S) != 0 for vi in vecs):
        return False
    return all(mukai_pairing(x, y, S) == 1 for x, y in combinations(vecs, 2))


def classify_decomposition(parts, p: StabilityParam, S: Surface,
                           bound: int = 20) -> DecompositionReport:
    """Decide what a decomposition v = sum n_i v_i into pairwise
    distinct, pairwise aligned classes implies at p.

    s = sum n_i >= 4 always leaves room for a stable pair; s = 3 does
    too except for the A2 pattern (three mutually pairing-one isotropic
    classes, where <v^2> = 6); s = 2 has two exceptional shapes: the
    structural rank-two case (two isotropic classes pairing to 1) and
    the hidden one where some isotropic w1 with <v, w1> = 1 aligns with
    v.  The hidden one is decided by the complete line search (module
    docstring), so both answers are certified whatever ``bound`` is;
    when Z(v) = 0 (parts of opposite charge) there is no line and
    ZeroCharge is raised.  s = 1 says nothing numerically: only that
    case is Inconclusive, and it reports ``bound``.
    """
    _check_parts(parts, p, S)
    s_total = sum(n for n, _ in parts)
    vecs = [vi for _, vi in parts]
    if s_total >= 4:
        return DecompositionReport(STABLE_PAIR)
    if s_total == 3:
        if a2_pattern(parts, S):
            return DecompositionReport(EXC_TRIPLE, witnesses=tuple(vecs))
        return DecompositionReport(STABLE_PAIR)
    if s_total == 2:
        if (len(parts) == 2
                and all(mukai_square(vi, S) == 0 for vi in vecs)
                and mukai_pairing(vecs[0], vecs[1], S) == 1):
            return DecompositionReport(EXC_RANK_TWO, witnesses=tuple(vecs))
        v = MukaiVector(0, 0, 0)
        for n, vi in parts:
            v = v + n * vi
        found = _ipo_line_search(v, p, S)
        if found:
            return DecompositionReport(EXC_ISOTROPIC, witnesses=(found[0],))
        return DecompositionReport(STABLE_PAIR)
    # a single class: stability of one object is not a lattice question
    return DecompositionReport(INCONCLUSIVE, bound=bound, certified=False)


class StableExistenceReport(Frozen):
    # verdict is "Yes" or "ExceptionalWitness"; certified is always True
    # (both verdicts are certified), bound always None (nothing is bounded)
    __slots__ = ("verdict", "witness", "certified", "bound")

    def __init__(self, verdict: str, witness: MukaiVector = None,
                 certified: bool = True, bound: int = None):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "certified", certified)
        object.__setattr__(self, "bound", bound)


def stable_existence(v: MukaiVector, p: StabilityParam,
                     S: Surface) -> StableExistenceReport:
    """Can a stable object of class v exist at p, as far as the lattice
    can tell?  The preconditions give d_beta(v) > 0, so Im Z(v) > 0 and
    the line search (module docstring) is complete: "Yes" is certified
    by it finding no isotropic pairing-one class aligned at p, and the
    first such class is reported otherwise.  There is no third answer."""
    if not v.is_integral():
        raise NonIntegral(f"needs an integral v, got {v}")
    if mukai_square(v, S) <= 0:
        raise NonPositiveSquare(f"<v^2> = {mukai_square(v, S)} <= 0 for {v}")
    if d_beta(v, p.s, S) <= 0:
        raise ZeroDegree(f"d_beta({v}) = {d_beta(v, p.s, S)} <= 0 at s = {p.s}")
    found = _ipo_line_search(v, p, S)
    if found:
        return StableExistenceReport("ExceptionalWitness", witness=found[0])
    return StableExistenceReport("Yes")


def detect_a2(parts, p: StabilityParam, S: Surface) -> bool:
    """True exactly on the A2 pattern among decompositions that pass the
    alignment check at p.  See a2_pattern for why the strict combination
    (independent pattern classes + simultaneous alignment at one point)
    is empty: this wrapper exists for contract symmetry with
    classify_decomposition and rejects non-aligned parts the same way."""
    _check_parts(parts, p, S)
    return a2_pattern(parts, S)
