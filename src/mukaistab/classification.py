"""Case analysis for properly-semistable classes: searches for
isotropic pairing-one destabilizers and spherical classes, a decision
tree over aligned decompositions, and the A2 pattern test.

Both searches run on the aligned plane Lambda = {w integral :
rho(w, v) = 0} at p, the kernel of one primitive integer normal n
(_aligned_normal).  n = 0 exactly when Z(v) = 0
(stability._rho_normal); then there is no plane and ZeroCharge is
raised.

The decisive search — "is there an isotropic w with <v, w> = 1 whose
charge aligns with v at p?" — is solved analytically, not by box scan.
When Z(v) != 0, Lambda has rank 2, and the solutions of <v, ·> = 1 on
it are empty or one arithmetic line w0 + k·u, k in Z.  If
<(w0 + k·u)^2> = 0 held for every k, w0 and u would span a totally
isotropic plane, which signature (2, 1) forbids; so the isotropy
quadratic in k is not identically zero and has at most two integer
roots, found with isqrt.  Every point of the line is integral, aligned
and, because <v, w> = 1, primitive.  The search is therefore complete
for every v with Z(v) != 0; no box is involved.

The spherical search is no box scan either: for r != 0 the square -2
fixes a = (h2*d^2 + 2)/(2r), and alignment times 2r becomes a quadratic
in d, so each rank costs one isqrt (find_minus_two_aligned).
"""

from math import gcd, isqrt
from itertools import combinations

from .errors import (BoundOverflow, NonIntegral, NonPositiveSquare,
                     NotAligned, NotK3, NotPrimitive, UniquenessViolation,
                     ZeroCharge, ZeroDegree)
from .lattice import (Frozen, MukaiVector, Surface,
                      _kernel_basis_of_functional, _xgcd, d_beta,
                      mukai_pairing, mukai_square)
from .stability import StabilityParam, _rho_normal, reduced_sigma

# find_minus_two_aligned visits no (r, d) pairs; it refuses a box of over
# _BOX_CAP of them (bound >= 1118) only to keep its contract until ROADMAP
# item 5 takes ``bound`` out of it
_BOX_CAP = 5 * 10 ** 6


def _aligned_normal(v: MukaiVector, p: StabilityParam, S: Surface):
    """The primitive integer normal (n0, n1, n2) of rho(w, v) at p as a
    functional of w = (r, d, a); raises ZeroCharge when it vanishes,
    which is exactly when Z(v) = 0."""
    n0, n1, n2, _ = _rho_normal(v, p, S)
    g = gcd(n0, n1, n2)
    if g == 0:
        raise ZeroCharge(f"Z({v}) = 0 at s={p.s}, t2={p.t2}")
    return n0 // g, n1 // g, n2 // g


def _ipo_line_search(v, p, S):
    """All integral primitive isotropic w with <v, w> = 1, aligned with
    v at p and d_beta(w) > 0, in (r, d, a) order; raises ZeroCharge when
    Z(v) = 0.

    On an integral basis (b1, b2) of the aligned plane Lambda, <v, ·> is
    (p1, p2).  It takes the value 1 on Lambda exactly when gcd(p1, p2) = 1,
    and then on the line w0 + k·u with x0·p1 + y0·p2 = 1,
    w0 = x0·b1 + y0·b2 and u = p2·b1 - p1·b2.  The isotropy quadratic
    A·k^2 + B·k + C in k is not identically zero (module docstring), so
    its integer roots are every candidate: the search is complete, with
    no bound."""
    def pair(x, y):
        return S.h2 * x[1] * y[1] - x[0] * y[2] - x[2] * y[0]

    b1, b2 = _kernel_basis_of_functional(*_aligned_normal(v, p, S))
    vt = (int(v.r), int(v.d), int(v.a))
    p1, p2 = pair(vt, b1), pair(vt, b2)
    if gcd(p1, p2) != 1:
        return []
    x0, y0 = _xgcd(p1, p2)
    w0 = tuple(x0 * i + y0 * j for i, j in zip(b1, b2))
    u = tuple(p2 * i - p1 * j for i, j in zip(b1, b2))
    A, B, C = pair(u, u), 2 * pair(w0, u), pair(w0, w0)
    ks = []
    if A == 0:
        if B and C % B == 0:
            ks = [-C // B]
    else:
        disc = B * B - 4 * A * C
        root = isqrt(max(disc, 0))
        if root * root == disc:
            ks = [(e - B) // (2 * A) for e in {root, -root}
                  if (e - B) % (2 * A) == 0]
    s_num, s_den = p.s.numerator, p.s.denominator
    out = []
    for k in ks:
        r, d, a = (x + k * y for x, y in zip(w0, u))
        if d * s_den - r * s_num > 0:
            out.append((r, d, a))
    return [MukaiVector(*w) for w in sorted(out)]


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

    <w^2> = h2*d^2 - 2*r*a = -2 rules out r = 0 and fixes
    a = (h2*d^2 + 2)/(2*r).  Alignment is n·w = 0 for the normal n of the
    plane aligned with the reference at p (_aligned_normal); times 2r and
    halved it is alpha*d^2 + beta*d + gamma = 0 with alpha = n2*h2/2,
    beta = n1*r, gamma = n0*r^2 + n2, equivalent to alignment as r != 0.
    So each rank is solved, not scanned: a nonzero quadratic has at most
    two roots (one isqrt).  alpha = 0 is n2 = 0, d_beta(reference) = 0:
    then Z(reference) is real, so is Z(w) for every aligned w, and no w
    has d_beta(w) > 0.  d_beta(w) > 0 is d*q - r*m > 0 for s = m/q in
    lowest terms.

    The qualifying classes are not unique: they lie in a rank-2 lattice
    on which the Mukai form can be indefinite, so they can form infinite
    Pell-type orbits (at s = -3/2, t2 = 1, h2 = 2 the reference
    (1,0,-2) aligns (-1,2,-5) and (25,-18,13)).  The search raises
    UniquenessViolation when the box holds two or more of them."""
    if S.kind != "k3":
        raise NotK3("square -2 classes need a K3 surface")
    n0, n1, n2 = _aligned_normal(reference, p, S)
    pairs = 2 * bound * (2 * bound + 1) if bound > 0 else 0
    if pairs > _BOX_CAP:
        raise BoundOverflow(f"bound {bound} spans {pairs} (r, d) pairs, over "
                            f"the {_BOX_CAP} this search accepts")
    if n2 == 0:
        return []
    s_num, s_den = p.s.numerator, p.s.denominator
    h2 = S.h2
    alpha = n2 * (h2 // 2)
    out = []
    for r in range(-bound, bound + 1):
        if r == 0:
            continue
        beta, gamma = n1 * r, n0 * r * r + n2
        disc = beta * beta - 4 * alpha * gamma
        root = isqrt(disc) if disc >= 0 else -1
        if root * root != disc:
            continue
        for d in sorted({(e - beta) // (2 * alpha) for e in (-root, root)
                         if (e - beta) % (2 * alpha) == 0}):
            # |a| <= bound bounds d too: h2*d^2 + 2 = 2*r*a <= 2*bound^2
            a, rem = divmod(h2 * d * d + 2, 2 * r)
            if not rem and abs(a) <= bound and d * s_den - r * s_num > 0:
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
    # bound is always None (no verdict depends on a box); kept so the
    # field tuple, repr and pickles keep their shape
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


def classify_decomposition(parts, p: StabilityParam,
                           S: Surface) -> DecompositionReport:
    """Decide what a decomposition v = sum n_i v_i into pairwise
    distinct, pairwise aligned classes implies at p.

    s = sum n_i >= 3 always leaves room for a stable pair.  The one
    candidate exception at s = 3, the A2 pattern (a2_pattern), never
    occurs: its Gram matrix [[0,1,1],[1,0,1],[1,1,0]] is nonsingular of
    signature (1, 2), so three such classes would span the rational
    lattice, whose form has signature (2, 1), against Sylvester's law of
    inertia.  s = 2 has two exceptional shapes: the structural rank-two
    case (two isotropic classes pairing to 1) and the hidden one where
    some isotropic w1 with <v, w1> = 1 aligns with v.  The hidden one is
    decided by the complete line search (module docstring), so both
    answers are certified; when Z(v) = 0 (parts of opposite charge)
    there is no line and ZeroCharge is raised.  s = 1 says nothing
    numerically: only that case is Inconclusive.
    """
    _check_parts(parts, p, S)
    s_total = sum(n for n, _ in parts)
    vecs = [vi for _, vi in parts]
    if s_total >= 3:
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
    return DecompositionReport(INCONCLUSIVE, certified=False)


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
