"""Case analysis for properly-semistable classes: searches for
isotropic pairing-one destabilizers and spherical classes, a decision
tree over aligned decompositions, and the A2 pattern test.

Both searches run on the aligned plane Lambda = {w integral :
rho(w, v) = 0} at p, the kernel of one primitive integer normal n
(_aligned_normal).  n = 0 exactly when Z(v) = 0
(stability._rho_normal); then there is no plane and ZeroCharge is
raised.  The searches and checks run on the ints that each MukaiVector
stores (``_q``) and build MukaiVectors from ints only for the classes
returned and for error texts.

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
in d whose discriminant depends on r^2 only, so each |r| costs one isqrt
and the search returns every class of its box (find_minus_two_aligned).
"""

from math import gcd, isqrt
from itertools import combinations

from .errors import (BoundOverflow, NonIntegral, NonPositiveSquare,
                     NotAligned, NotK3, NotPrimitive, ZeroCharge, ZeroDegree)
from .lattice import (Frozen, MukaiVector, Surface,
                      _kernel_basis_of_functional, _xgcd, d_beta,
                      mukai_pairing, mukai_square)
from .stability import StabilityParam, _rho_normal, reduced_sigma

# find_minus_two_aligned solves one quadratic per |r| <= bound and visits
# no (r, d) pairs; it refuses a box of over _BOX_CAP of them (bound >= 1118)
# only to keep its contract until ROADMAP item 5 takes ``bound`` out of it
_BOX_CAP = 5 * 10 ** 6


def _aligned_normal(v: MukaiVector, p: StabilityParam, S: Surface):
    """The primitive integer normal (n0, n1, n2) of rho(w, v) at p as a
    functional of w = (r, d, a); raises ZeroCharge when it vanishes,
    which is exactly when Z(v) = 0."""
    n0, n1, n2, _ = _rho_normal(*v._q, p, S)
    g = gcd(n0, n1, n2)
    if g == 0:
        raise ZeroCharge(f"Z({v}) = 0 at s={p.s}, t2={p.t2}")
    return n0 // g, n1 // g, n2 // g


def _ipo_line_search(v: MukaiVector, p: StabilityParam, S: Surface):
    """All integral primitive isotropic w with <v, w> = 1, aligned with
    the integral v at p and d_beta(w) > 0, as int triples in (r, d, a)
    order; raises ZeroCharge when Z(v) = 0.

    On an integral basis (b1, b2) of the aligned plane Lambda, <v, ·> is
    (p1, p2).  It takes the value 1 on Lambda exactly when gcd(p1, p2) = 1,
    and then on the line w0 + k·u with x0·p1 + y0·p2 = 1,
    w0 = x0·b1 + y0·b2 and u = p2·b1 - p1·b2.  The isotropy quadratic
    A·k^2 + B·k + C in k is not identically zero (module docstring), so
    its integer roots are every candidate: the search is complete, with
    no bound."""
    (r, d, a, _), h2 = v._q, S.h2
    (r1, d1, a1), (r2, d2, a2) = _kernel_basis_of_functional(
        *_aligned_normal(v, p, S))
    p1 = h2 * d * d1 - r * a1 - a * r1
    p2 = h2 * d * d2 - r * a2 - a * r2
    if gcd(p1, p2) != 1:
        return []
    x0, y0 = _xgcd(p1, p2)
    wr, wd, wa = x0 * r1 + y0 * r2, x0 * d1 + y0 * d2, x0 * a1 + y0 * a2
    ur, ud, ua = p2 * r1 - p1 * r2, p2 * d1 - p1 * d2, p2 * a1 - p1 * a2
    A = h2 * ud * ud - 2 * ur * ua
    B = 2 * (h2 * wd * ud - wr * ua - wa * ur)
    C = h2 * wd * wd - 2 * wr * wa
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
    ws = [(wr + k * ur, wd + k * ud, wa + k * ua) for k in ks]
    sn, _, sd = p._q
    return sorted(w for w in ws if w[1] * sd > w[0] * sn)


def find_isotropic_pairing_one(v: MukaiVector, p: StabilityParam, S: Surface,
                               bound: int) -> list:
    """All integral primitive isotropic w1 with entries bounded by
    ``bound``, <v, w1> = 1, aligned with v at p, of positive twisted
    degree.  The line search makes this complete; the box bound only
    truncates the output.  Raises ZeroCharge when Z(v) = 0."""
    if not isinstance(bound, int):
        raise NonIntegral(f"bound must be an integer, got {bound!r}")
    if not v.is_integral():
        raise NonIntegral(f"search needs an integral v, got {v}")
    return [MukaiVector._of(*w) for w in _ipo_line_search(v, p, S)
            if max(map(abs, w)) <= bound]


def find_minus_two_aligned(p: StabilityParam, S: Surface, bound: int,
                           reference: MukaiVector) -> list:
    """All integral w = (r, d, a) with entries bounded by ``bound``,
    <w^2> = -2, d_beta(w) > 0, aligned with the reference class at p, in
    (r, d, a) order.  K3 only: an abelian surface carries no spherical
    objects, since a simple sheaf E there has ext^1(E, E) >= 2 and so
    <v(E)^2> = ext^1(E, E) - 2 >= 0 (recalled, not quoted), though the
    lattice has square -2 classes ((1, 0, 1) for every h2).

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

    The search returns every such class in the box.  They lie in a
    rank-2 lattice on which the Mukai form can be indefinite, so they
    can form infinite Pell-type orbits: at s = -3/2, t2 = 1, h2 = 2 the
    reference (1,0,-2) aligns (-1,2,-5) and (25,-18,13), and bound 40
    returns both.  With w, -w is aligned, of square -2 and in the box,
    and d_beta(-w) = -d_beta(w); the discriminant
    r^2*(n1^2 - 4*alpha*n0) - 4*alpha*n2 depends on r^2 only.  So r > 0
    alone is solved, one isqrt per |r|, and of each root's w and -w the
    one with d_beta > 0 is kept (neither when d_beta(w) = 0)."""
    if not isinstance(bound, int):
        raise NonIntegral(f"bound must be an integer, got {bound!r}")
    if S.kind != "k3":
        raise NotK3("square -2 classes need a K3 surface")
    n0, n1, n2 = _aligned_normal(reference, p, S)
    pairs = 2 * bound * (2 * bound + 1) if bound > 0 else 0
    if pairs > _BOX_CAP:
        raise BoundOverflow(f"bound {bound} spans {pairs} (r, d) pairs, over "
                            f"the {_BOX_CAP} this search accepts")
    if n2 == 0:
        return []
    s_num, _, s_den = p._q
    h2 = S.h2
    alpha = n2 * (h2 // 2)
    # the discriminant at rank r is K*r^2 - L
    K, L = n1 * n1 - 4 * alpha * n0, 4 * alpha * n2
    out = []
    for r in range(1, bound + 1):
        disc = K * r * r - L
        root = isqrt(disc) if disc >= 0 else -1
        if root * root != disc:
            continue
        for e in {root, -root}:
            d, rem = divmod(e - n1 * r, 2 * alpha)
            if rem:
                continue
            # a > 0 as r > 0; a <= bound bounds d too:
            # h2*d^2 + 2 = 2*r*a <= 2*bound^2
            a, rem = divmod(h2 * d * d + 2, 2 * r)
            if rem or a > bound:
                continue
            x = d * s_den - r * s_num  # d_beta(w); -w has -x
            if x:
                out.append((r, d, a) if x > 0 else (-r, -d, -a))
    return [MukaiVector._of(*w) for w in sorted(out)]


# ---------------------------------------------------------------------------
# decomposition decision tree

STABLE_PAIR = "StablePairExists"
EXC_ISOTROPIC = "ExceptionalIsotropicPairingOne"
EXC_RANK_TWO = "ExceptionalRankTwoCase"
INCONCLUSIVE = "Inconclusive"


class DecompositionReport(Frozen):
    # bound is always None (no verdict depends on a box); kept so the
    # field tuple, repr and pickles keep their shape
    __slots__ = ("verdict", "witnesses", "bound", "certified")
    _defaults = {"witnesses": (), "bound": None, "certified": True}


def _check_parts(parts, p, S):
    """The parts' classes as int triples, checked integral, primitive,
    pairwise distinct and pairwise aligned at p (rho on _rho_normal)."""
    if not parts:
        raise NotAligned("empty decomposition")
    vecs = []
    for n, vi in parts:
        if not (isinstance(n, int) and n >= 1):
            raise NonIntegral(f"multiplicity must be a positive integer, got {n!r}")
        r, d, a, V = vi._q
        if V != 1:
            raise NonIntegral(f"part {vi} is not integral")
        g = gcd(r, d, a)
        if g != 1:
            raise NotPrimitive(f"part {vi} has content {g}")
        vecs.append((r, d, a))
    if len(set(vecs)) != len(vecs):
        raise NotAligned("parts must be pairwise distinct classes")
    for (x, xt), (y, yt) in combinations(zip([vi for _, vi in parts], vecs), 2):
        n0, n1, n2, _ = _rho_normal(*yt, 1, p, S)
        if n0 * xt[0] + n1 * xt[1] + n2 * xt[2]:
            raise NotAligned(f"rho({x}, {y}) = {reduced_sigma(x, y, p, S)} != 0 "
                             f"at s={p.s}, t2={p.t2}")
    return vecs


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
    fixed point span at most a line.  So no verdict of
    classify_decomposition reports the pattern.
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
    vecs = _check_parts(parts, p, S)
    s_total = sum(n for n, _ in parts)
    if s_total >= 3:
        return DecompositionReport(STABLE_PAIR)
    if s_total == 2:
        # v = x + y: two parts once each, or one part twice (x = y, and
        # then <x, y> = <x^2> is never 1 when x is isotropic)
        (r1, d1, a1), (r2, d2, a2) = vecs if len(vecs) == 2 else vecs * 2
        h2 = S.h2
        if (h2 * d1 * d1 == 2 * r1 * a1 and h2 * d2 * d2 == 2 * r2 * a2
                and h2 * d1 * d2 - r1 * a2 - a1 * r2 == 1):
            return DecompositionReport(EXC_RANK_TWO,
                                       witnesses=tuple(vi for _, vi in parts))
        found = _ipo_line_search(
            MukaiVector._of(r1 + r2, d1 + d2, a1 + a2), p, S)
        if found:
            return DecompositionReport(EXC_ISOTROPIC,
                                       witnesses=(MukaiVector._of(*found[0]),))
        return DecompositionReport(STABLE_PAIR)
    # a single class: stability of one object is not a lattice question
    return DecompositionReport(INCONCLUSIVE, certified=False)


class StableExistenceReport(Frozen):
    # verdict is "Yes" or "ExceptionalWitness"; certified is always True
    # (both verdicts are certified), bound always None (nothing is bounded)
    __slots__ = ("verdict", "witness", "certified", "bound")
    _defaults = {"witness": None, "certified": True, "bound": None}


def stable_existence(v: MukaiVector, p: StabilityParam,
                     S: Surface) -> StableExistenceReport:
    """Can a stable object of class v exist at p, as far as the lattice
    can tell?  The preconditions give d_beta(v) > 0, so Im Z(v) > 0 and
    the line search (module docstring) is complete: "Yes" is certified
    by it finding no isotropic pairing-one class aligned at p, and the
    first such class is reported otherwise.  There is no third answer."""
    r, d, a, V = v._q
    if V != 1:
        raise NonIntegral(f"needs an integral v, got {v}")
    square = S.h2 * d * d - 2 * r * a
    if square <= 0:
        raise NonPositiveSquare(f"<v^2> = {square} <= 0 for {v}")
    sn, _, sd = p._q
    if d * sd - r * sn <= 0:
        raise ZeroDegree(f"d_beta({v}) = {d_beta(v, p.s, S)} <= 0 at s = {p.s}")
    found = _ipo_line_search(v, p, S)
    if found:
        return StableExistenceReport("ExceptionalWitness",
                                     witness=MukaiVector._of(*found[0]))
    return StableExistenceReport("Yes")
