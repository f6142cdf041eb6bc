"""Wall loci, the numerical wall criterion, bounded complete enumeration
of walls, chambers on a vertical ray, side classification, and the
category walls of K3 surfaces.

In the (s, t) upper half-plane the locus where the charges of v1 and v
align is rho(v1, v) = A*(t^2 + s^2) + C*s + D = 0: a circle centered on
the s-axis (A != 0, positive radius^2), a vertical line (A = 0, C != 0),
empty, or everything.  Every circle asked about here lies in the
pencil of v (q = <v^2> > 0): with center c and radius^2 R2,
(d/r - c)^2 - R2 = q/(h2 r^2) > 0 when r != 0, so the arc lies on one
side of s = d/r, where d_beta(v) vanishes: the side of its center.

enumerate_walls walks the pencil of walls instead of scanning classes.
(A, C, D) is linear in v1 with kernel Zv, so the walls of v form one
coaxial pencil and each wall is cut by a whole fiber v1 + Zv.  Along a
fiber disc = C^2 - 4AD = <v1, v>^2 - <v^2><v1^2> is invariant; a
numerically valid class has disc = p12^2 - q1*q2 <= <v^2>^2/4 (abelian)
or <v^2>(<v^2> + 8)/4 (K3), the convex maximum at q1 = q2 = 0 resp. -2,
and a wall reaching t^2 >= t2_min has disc >= (h2*m)^2 t2_min.  The
circles of the pencil are the level sets of one function of (s, t^2),
so those meeting the region form the exact window of that function's
values over it: each line of fibers of one m gets an integer window
(one isqrt), inside the disc bounds; within a fiber, p12 >= 1 is a
quadratic window in <v1, v> that leaves at most three members to test
exactly.  A pair with a spherical part (square -2, K3 only) must also
lie in the bounded (r1, d1) box of the bound chain, which holds every
other pair already.  ``cap`` bounds the lines plus fibers walked.  The
walk and the order of the walls run on Python ints, and so do the Walls
returned (Frozen's ``_q``): Fraction enters only in a field a caller
reads and in a ray's cut heights, one per distinct cut.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import (BoundOverflow, NonIntegral, NonPositiveSquare, NotK3,
                     Zero, ZeroDegree)
from .lattice import (Frozen, MukaiVector, Surface, _ints, _integral,
                      _primitive, _xgcd, d_beta_min, rat)
from .stability import StabilityParam, _acd, _band, _nonzero_charge


# ---------------------------------------------------------------------------
# geometry types

class Circle(Frozen):
    __slots__ = ("_q",)
    _names = ("center_s", "radius_sq")


class VerticalLine(Frozen):
    __slots__ = ("_q",)
    _names = ("s",)


class Empty(Frozen):
    __slots__ = ()


class Everywhere(Frozen):
    __slots__ = ()


class Region(Frozen):
    """A compact box [s_min, s_max] x [t2_min, t2_max] with t2_min > 0.
    The large-volume boundary t^2 = 0 is excluded by construction, which
    is what makes wall enumeration finite."""

    __slots__ = ("_q",)
    _names = ("s_min", "s_max", "t2_min", "t2_max")

    def __init__(self, s_min, s_max, t2_min, t2_max):
        q = _ints(s_min, s_max, t2_min, t2_max)
        if q[0] > q[1]:
            raise ValueError("s_min > s_max")
        if not (0 < q[2] <= q[3]):
            raise ValueError("need 0 < t2_min <= t2_max")
        object.__setattr__(self, "_q", q)


class Wall(Frozen):
    """A wall with its defining coefficients, classified geometry and one
    representative class v1.  Identity is the projective class (A:C:D):
    many v1 cut the same locus, so walls are deduplicated by the
    normalized coefficient triple."""

    __slots__ = ("_q", "geometry", "v1")
    _names = ("A", "C", "D", "geometry", "v1")
    _defaults = {"v1": None}

    def acd_key(self):
        A, C, D, den = self._q
        if den != 1:
            raise NonIntegral("wall coefficients of integral classes are integers")
        return _normalize_acd(A, C, D)


def _normalize_acd(A: int, C: int, D: int):
    """Projective normalization of an integer (A, C, D) triple: divide by
    the gcd and make the first nonzero entry positive."""
    g = gcd(A, C, D)
    if g == 0:
        return (0, 0, 0)
    if (A or C or D) < 0:
        g = -g
    return (A // g, C // g, D // g)


def wall_locus(v1: MukaiVector, v: MukaiVector, S: Surface) -> Wall:
    """Classify {(s,t): t > 0, rho(v1, v) = 0}.

    A != 0 gives the circle (s + C/(2A))^2 + t^2 = C^2/(4A^2) - D/A; a
    nonpositive radius^2 means the locus misses t > 0 entirely (radius 0
    would be a single point on the axis).  A = 0, C != 0 is the vertical
    line s = -D/C; A = C = 0 is empty or everything according to D.
    """
    if v.is_zero() or v1.is_zero():
        raise Zero("wall_locus needs nonzero classes")
    A, C, D, den = _acd(v1, v, S)  # the common den cancels in the geometry
    if A != 0:  # center -C/(2A), radius^2 (C^2 - 4AD)/(2A)^2
        disc = C * C - 4 * A * D
        geom = Circle._of(-2 * A * C, disc, 4 * A * A) if disc > 0 else Empty()
    elif C != 0:
        geom = VerticalLine._of(-D, C)
    else:
        geom = Empty() if D != 0 else Everywhere()
    return Wall._of(A, C, D, geom, v1, den)


# ---------------------------------------------------------------------------
# the degree-clipped interval

def _clip_degree_interval(v, L: int, H: int, N: int):
    """The closure of {s in [L/N, H/N] : d_beta(v)(s) > 0}, N > 0, as
    ints (L, H, N) of the same form, or None when it is empty.  Its end
    d/r (r != 0) is open, and the walk's window is open there too."""
    r, d, _, _ = v._q
    if max(d * N - r * L, d * N - r * H) <= 0:
        return None
    if r > 0 and r * H > d * N:  # hi > d/r
        return L * r, d * N, N * r
    if r < 0 and r * L > d * N:  # lo < d/r
        return -d * N, -H * r, -N * r
    return L, H, N


# ---------------------------------------------------------------------------
# the wall criterion

class WallVectorReport(Frozen):
    """Verdict of the numerical wall criterion for v1 against v.

    For an abelian surface ``is_wall`` is an honest iff at Picard rank 1:
    the classical numeric conditions (both squares >= 0, cross pairing
    > 0, v1 not proportional to v) AND the locus being a circle that
    meets the positive-degree half-plane {d_beta(v) > 0}.  The second
    clause is not redundant: rank-one degenerations exist where the
    numeric conditions hold but the locus is empty (both squares 2 and
    pairing 1 against a square-6 class) or collapses onto the vertical
    line s = d/r where the degree of v vanishes identically.  On any
    qualifying circle the positivity of twisted degrees forces both
    sub-charges into the upper half-plane, so a genuine wall point
    exists; ``details`` exposes the raw flags so callers can tell the
    two failure modes apart.

    For a K3 surface the verdict is only a necessary numerical test
    (conditions (a)-(c) at the twist ``s``, with the spherical shift
    epsilon = 1 and the minimal degree of the twist's denominator);
    ``necessary_only`` is set accordingly.
    """

    __slots__ = ("kind", "is_wall", "necessary_only", "details")

    def __bool__(self) -> bool:
        return self.is_wall


def is_wall_vector(v1: MukaiVector, v: MukaiVector, S: Surface,
                   s=Fraction(0)) -> WallVectorReport:
    """Numerical wall criterion; see WallVectorReport for semantics.
    ``s`` only matters on K3, where conditions (b)-(c) genuinely depend
    on the twist through the minimal positive degree 1/den(s)."""
    r, d, a = _integral(v, "v")
    r1, d1, a1 = _integral(v1, "v1")
    h2 = S.h2
    q = h2 * d * d - 2 * r * a
    if q <= 0:
        raise NonPositiveSquare(f"<v^2> = {q} <= 0 for v = {v}")
    q1 = h2 * d1 * d1 - 2 * r1 * a1
    p12 = h2 * d1 * d - r1 * a - a1 * r - q1  # <v1, v - v1>
    q2 = q - q1 - 2 * p12  # <(v - v1)^2>
    proportional = r1 * d == r * d1 and r1 * a == r * a1 and d1 * a == d * a1
    base = {"square_v1": q1, "square_v2": q2, "pairing": p12,
            "proportional": proportional}
    if S.kind == "abelian":
        numeric = (q1 >= 0 and q2 >= 0 and p12 > 0 and not proportional)
        meets = False
        if numeric:
            # a circle (C^2 > 4AD, and A != 0 for the second test to
            # hold) of the pencil of v meets d_beta(v) > 0 iff its center
            # -C/(2A) does (module docstring)
            A, C, D, _ = _acd(v1, v, S)
            meets = C * C > 4 * A * D and A * (2 * A * d + r * C) > 0
        return WallVectorReport(
            kind="abelian",
            is_wall=numeric and meets,
            necessary_only=False,
            details={**base, "numeric": numeric,
                     "locus_meets_positive_degree": meets})
    # K3: conditions (a)-(c) at the twist s, epsilon = 1
    s = rat(s)
    # the degrees d_beta over d_beta_min = 1/den(s) are the integers x1, x
    x1, x = d1 * s.denominator - r1 * s.numerator, d * s.denominator - r * s.numerator
    cond_a = 0 < x1 < x
    cond_b = x * (q1 * x - x1 * q - 2 * x * x * x1) < 0
    cond_c = q1 >= -2 * x1 * x1
    ok = cond_a and cond_b and cond_c and not proportional
    return WallVectorReport(
        kind="k3",
        is_wall=ok,
        necessary_only=True,
        details={**base, "s": s, "d_beta_min": d_beta_min(s, S),
                 "a": cond_a, "b": cond_b, "c": cond_c})


# ---------------------------------------------------------------------------
# enumeration

def enumerate_walls(v: MukaiVector, S: Surface, reg: Region,
                    cap: int = 10 ** 6):
    """Complete list of distinct wall loci for v meeting reg at a point
    where d_beta(v) > 0, deduplicated by the projective (A:C:D) class;
    each wall carries the representative v1 minimizing (|<v1^2>|,
    (r1, d1, a1) lexicographically).

    The candidates (abelian bounds; K3 uses the shifted windows noted
    inline).  Write q = <v^2>, m = r1*d - r*d1, q1 = <v1^2>,
    q2 = <(v-v1)^2>, p = <v1, v>, p12 = <v1, v - v1> and let (s0, t0^2)
    be a wall point in reg with d_beta(v)(s0) > 0.  At such a point both
    twisted degrees x1 = d_beta(v1), x2 = d_beta(v - v1) are strictly
    positive (positivity of degrees on a qualifying wall), and
    t0^2 >= t2_min.

    1. Only circles occur: a vertical locus for v1 against v sits at
       s = -D/C which for m = 0 collapses to s = d/r where d_beta(v)
       vanishes identically, so no vertical wall ever carries a
       positive-degree point; m = 0 is skipped.  This also excludes
       every v1 proportional to v, which has m = 0.
    2. radius^2 = (p^2 - q1*q)/(h2*m)^2 >= t0^2 >= t2_min and
       0 <= q1*q (abelian), p <= q - 1 give
       m^2 <= (q-1)^2/(h2^2 * t2_min).   [K3: q1 >= -2, p <= q + 1,
       so m^2 <= ((q+1)^2 + 2q)/(h2^2 * t2_min).]
    3. The twisted pairing identity
       p/(x1 X) = q1/(2 x1^2) + q/(2 X^2) + (h2 t^2/2)(r1/x1 - r/X)^2
       with X = d_beta(v)(s0) and 0 < x1 < X yields
       (r1 - r*x1/X)^2 <= 2(q-1)/(h2*t2_min)   [K3: 2(q+2)/(h2*t2_min)],
       hence |r1| <= |r| + ceil(sqrt(of that)).
    4. For each r1, the existence of s0 in the degree-clipped region
       interval J with 0 < d1 - r1*s0 and d1 - d < (r1 - r)*s0 bounds d1
       to an explicit integer interval from the endpoint values of J.

    A candidate is a class with q1, q2 >= sq_lo (sq_lo = 0 abelian, -2
    on K3) and p12 > 0, in the step 2-4 box when q1 or q2 is -2: the
    exact numeric criterion on abelian surfaces; on K3 the completeness
    policy (squares >= -2 allow spherical parts), so the K3 list is
    necessary-only, like is_wall_vector.

    ``cap`` bounds the work of the walk below: the number of m-lines plus
    the number of fibers it visits.  Both are sizes of ranges, counted by
    arithmetic (however large) before the fibers of a line are visited,
    so the walk stops as soon as their running sum passes ``cap``, after
    O(cap) work.

    The walk.  The box is not scanned: its candidates are found through
    the pencil of walls (Maciocia, arXiv:1202.4587).
      * Fibers.  L(v1) = (m, C, D) = (r1*d - r*d1, a1*r - r1*a,
        a*d1 - a1*d) is v1 x v with its entries reordered, and
        A = (h2/2)*m.  Its kernel is Zv and, v being primitive, its image
        is the rank-2 lattice {a*m + d*C + r*D = 0}; so m runs over the
        multiples of g = gcd(r, d), and the classes cutting the wall
        (m, C, D) are exactly the fiber v1 + Zv with v1 = u x (D, C, m)
        for an integer u with u.v = 1 ((u x w) x v = (u.v)w - (w.v)u).
        v1 -> v - v1 negates (m, C, D) and swaps q1 and q2, so only
        m > 0 is walked and each member is tested with its complement.
      * The invariant.  disc = C^2 - 2*h2*m*D = p^2 - q*q1 = p12^2 - q1*q2
        is the same on the whole fiber, and radius^2 = disc/(h2*m)^2.
        A candidate's disc is at most B: p12^2 - q1*q2 with
        p12 = (q - q1 - q2)/2 is convex in (q1, q2) (Hessian eigenvalues
        0 and 1), so on the triangle q1, q2 >= sq_lo, q1 + q2 <= q - 2 it
        peaks at a vertex, B = q(q - 4*sq_lo)/4 at q1 = q2 = sq_lo
        (q^2/4 abelian, q(q+8)/4 K3); the other two vertices have
        p12 = 1 and disc = 1 - sq_lo*(q - 2 - sq_lo) <= B for q >= 2.
        A wall's disc is at least h2^2 m^2 t2_min > 0, as
        radius^2 >= t0^2.  So m^2 <= B/(h2^2 t2_min), inside step 2.
      * Fiber coordinate z.  r != 0: z = Y = r*C + h2*d*m, the fibers of
        one m are Y = m*kappa mod r^2/g and r^2 disc = Y^2 - h2*q*m^2.
        The circle of Y passes through (s, t^2) with x = d_beta(v)(s) > 0
        iff Y = m*y(x, t^2), y = (q + h2(x^2 + r^2 t^2))/(2x).  r = 0:
        C = -a*m/d is fixed, z = disc runs over C^2 mod 2*h2*m, and the
        circles, concentric about a/(h2 d), pass through (s, t^2) iff
        z = (h2 m)^2 (t^2 + (s - a/(h2 d))^2).
      * Region window.  The region J x [t2_min, t2_max] (x > 0) is
        connected, so the circles meeting it are those with
        m^2 K <= Y^2, resp. z, <= m^2 U for K and U the least and the
        greatest value over it of y^2, resp. z/m^2.  Both grow with t^2.
        y is convex in x, least (h2*x0, so K >= h2 q + h2^2 r^2 t2_min:
        the radius bound) at x0^2 = q/h2 + r^2 t^2.  So K is at t2_min
        and the point of x(J) nearest x0, and U at t2_max and an end of
        x(J), or unbounded when x(J) is open at 0 (J ends at d/r): then
        U = r^2 B + B + h2 q cuts nothing beyond the disc bound
        Y^2 <= r^2 B + h2 q m^2.  For r = 0, K is at t2_min and the point
        of J nearest a/(h2 d), U at t2_max and the end of J farther off.
      * Members.  Along a fiber P = <v1 + kv, v> = p + kq,
        q1 = (P^2 - disc)/q, q2 = ((q - P)^2 - disc)/q and p12 = P - q1,
        so p12 >= 1 iff (2P - q)^2 <= q^2 - 4q + 4*disc: at most three k.
        Each is tested exactly (q1, q2 >= sq_lo, q1 + q2 < q), and when
        q1 or q2 is -2, it and its complement against the step 2-4 box,
        which cuts no other pair: for q1, q2 >= 0 the circle meets the
        region at a point with d_beta(v) > 0, where Z(v1) = lam*Z(v) for
        a real lam.  v1 - lam*v then pairs to zero with Re and Im of
        e^{(s+it)H}, which span a positive plane, so its square
        q1 - 2*lam*p + lam^2*q is < 0 (v1 is not proportional to v).
        With q1 >= 0 and p = <v1, v> = q1 + p12 > 0 that forces lam > 0,
        and the same for v - v1 (q2 >= 0, <v - v1, v> > 0) forces
        1 - lam > 0.  So 0 < lam < 1: both twisted degrees lam*d_beta(v)
        and (1 - lam)*d_beta(v) are positive at the wall point, which is
        what steps 3-4 were derived from (step 4 is symmetric in
        v1 <-> v - v1; step 3 takes the weaker K3 bound).  A spherical
        part escapes this argument, so the K3 list depends on the region.

    The walk runs on ints (K and U as numerator, denominator pairs), and
    so does the order of the winners: center -C/(2A), then radius^2
    disc/(2A)^2, over the lcm of their 2A.  No two walls tie on both: when
    r != 0 the center fixes the circle of the pencil, and when r = 0 all
    share one center.  Each winner's Wall, with its Circle and fiber
    triple (h2*m/2, C, D), negated for a complement, is built from these
    ints by ``_of``; a Fraction is built only when a field is read.

    Raises BoundOverflow when the walk would take more than ``cap``
    steps, before it visits the fibers past that budget, and NonIntegral
    for a ``cap`` that is no int and ValueError for a negative one before
    any walk.
    """
    won = _walk(v, S, reg, cap)
    M = lcm(*(2 * A for A, *_ in won))  # center*M, radius^2*M^2 are ints
    won.sort(key=lambda w: (-w[1] * M // (2 * w[0]),
                            w[2] * M * M // (2 * w[0]) ** 2))
    return [Wall._of(*acd, Circle._of(-2 * A * C, disc, 4 * A * A),
                     MukaiVector._of(*y1))
            for A, C, disc, (_, y1, acd) in won]


def _walk(v, S, reg, cap):
    """enumerate_walls' validation and walk: (A, C, disc, selected) for
    each circle that meets the region, in no order."""
    if type(cap) is not int:
        raise NonIntegral(f"cap must be an integer, got {cap!r}")
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    (r, d, a), h2 = _primitive(v, "v"), S.h2
    q = h2 * d * d - 2 * r * a
    if q <= 0:
        raise NonPositiveSquare(f"<v^2> = {q} <= 0 for v = {v}")
    s0, s1, tn, Tn, td = reg._q  # t2_min = tn/td, t2_max = Tn/td
    J = _clip_degree_interval(v, s0, s1, td)
    if J is None:
        raise ZeroDegree(f"d_beta({v}) is nowhere positive on s in "
                         f"[{reg.s_min}, {reg.s_max}]")
    L, H, N = J
    sq_lo = -2 * S.epsilon  # the least square of a part: 0, or -2 on K3
    B = q * (q - 4 * sq_lo) // 4  # the disc bound (docstring)
    # the step 2-4 box on ints (every m walked is inside step 2): step 3,
    # and step 4 with J = [L/N, H/N]; it can cut only a pair with a
    # spherical part (docstring)
    r1_max = abs(r) + isqrt((2 * (q + 2) * td - 1) // (h2 * tn)) + 1

    def in_box(r1, d1):
        return (abs(r1) <= r1_max and min(r1 * L, r1 * H) < d1 * N <
                d * N + max((r1 - r) * L, (r1 - r) * H))

    g = gcd(r, d)
    ur, ud = _xgcd(r, d)  # ur*r + ud*d = g
    al, be = _xgcd(g, a)
    u0, u1, u2 = al * ur, al * ud, be  # u . v = 1
    kappa = h2 * d - r // g * ud * a
    # the region window: m^2 K <= Y^2 <= min(r^2 B + h2 q m^2, m^2 U) if
    # r != 0, m^2 K <= disc <= min(B, m^2 U) if r = 0, K = Kn/Kd, U = Un/Ud
    if r:
        qN, rN = q * N * N, h2 * r * r * N * N
        P0, P1 = qN * td + rN * tn, qN * td + rN * Tn  # h2*b*(N*x0)^2

        def y2(X, P, b):  # y^2 at x = X/N and t^2 = c/b, P = qN*b + rN*c
            return (P + h2 * b * X * X) ** 2, (2 * X * N * b) ** 2
        lo, hi = sorted((d * N - r * L, d * N - r * H))  # N*x at J's ends
        if h2 * td * lo * lo > P0:
            Kn, Kd = y2(lo, P0, td)
        elif h2 * td * hi * hi < P0:
            Kn, Kd = y2(hi, P0, td)
        else:
            Kn, Kd = h2 * P0, td * N * N
        # y(lo) >= y(hi) iff h2*(lo/N)*(hi/N) <= q + h2 r^2 t2_max
        Un, Ud = (y2(hi if h2 * td * lo * hi > P1 else lo, P1, td) if lo
                  else (r * r * B + B + h2 * q, 1))
    else:  # PL, PH = (s - a/(h2 d))*sqrt(W) at J's ends
        PL, PH, W = h2 * d * L - a * N, h2 * d * H - a * N, (h2 * d * N) ** 2
        near, far = max(PL, -PH, 0), max(-PL, PH)
        Kn, Kd = h2 * h2 * (tn * W + td * near * near), td * W
        Un, Ud = h2 * h2 * (Tn * W + td * far * far), td * W
    best = {}  # acd key -> (A, C, disc, its least (|q1|, v1, (A, C, D)))
    # cap bounds the m-lines plus the fibers (no len(): a range may be
    # longer than sys.maxsize)
    m_max = isqrt(B * td // (h2 * h2 * tn))
    budget = cap - m_max // g
    for m in range(g, m_max + 1, g):
        e, A = m * m, h2 // 2 * m
        if r:
            z0, step = m * kappa, r * r // g
            z_lo = isqrt((e * Kn - 1) // Kd) + 1
            z_hi = isqrt(min(r * r * B + h2 * q * e, e * Un // Ud))
        else:
            C, step = -a * m // d, 2 * h2 * m
            z0, z_lo = C * C, -(-e * Kn // Kd)
            z_hi = min(B, e * Un // Ud)
        first = z_lo + (z0 - z_lo) % step
        budget -= max(0, (z_hi - first) // step + 1)
        if budget < 0:
            break
        for z in range(first, z_hi + 1, step):
            if r:
                C = (z - h2 * d * m) // r
                D = (-a * m - d * C) // r
            else:
                D = (C * C - z) // step
            disc, key = C * C - 4 * A * D, None
            r1, d1, a1 = u1 * m - u2 * C, u2 * D - u0 * m, u0 * C - u1 * D
            p = h2 * d1 * d - r1 * a - a1 * r
            w = isqrt(q * q - 4 * q + 4 * disc)  # p12 >= 1: |2P - q| <= w
            for k in range(-((2 * p + w - q) // (2 * q)),
                           (q + w - 2 * p) // (2 * q) + 1):
                P = p + k * q
                q1, q2 = (P * P - disc) // q, ((q - P) ** 2 - disc) // q
                if q1 < sq_lo or q2 < sq_lo or q1 + q2 >= q:
                    continue
                x1 = (r1 + k * r, d1 + k * d, a1 + k * a)
                x2 = (r - x1[0], d - x1[1], a - x1[2])
                key = key or _normalize_acd(A, C, D)  # once per fiber
                for y1, q_y, sg in ((x1, q1, 1), (x2, q2, -1)):
                    if (q1 < 0 or q2 < 0) and not in_box(y1[0], y1[1]):
                        continue
                    sel = (abs(q_y), y1, (sg * A, sg * C, sg * D))
                    if key not in best or sel < best[key][3]:
                        best[key] = (A, C, disc, sel)
    if budget < 0:
        raise BoundOverflow(f"more than {cap} walk steps (m-lines and "
                            f"fibers) for v={v} over the requested region")
    return list(best.values())


# ---------------------------------------------------------------------------
# chambers on a vertical ray

class ChamberRay(Frozen):
    """Wall crossings of the ray {s} x (t2 range): the sorted t^2 cut
    values and the open chambers between them."""

    __slots__ = ("s", "cut_points", "chambers")


def chambers_on_ray(v: MukaiVector, S: Surface, s, t2_range,
                    cut_category_walls: bool = False,
                    cap: int = 10 ** 6) -> ChamberRay:
    """Intersect every enumerated wall with the vertical ray at s.

    The walls are enumerate_walls' for Region(s, s, t2_lo, t2_hi), with
    its policy (the step 2-4 box cuts only pairs with a spherical part)
    and errors (ZeroDegree where d_beta(v)(s) <= 0), read off the walk's
    ints: the circle with A, C and disc = C^2 - 4AD cuts the ray s = p/n
    at t^2 = (disc*n^2 - (2A*p + C*n)^2)/(2A*n)^2.  The cuts are sorted,
    de-duplicated and split into chambers as ints over one denominator,
    and each distinct cut becomes one Fraction.

    ``cut_category_walls`` additionally cuts at the K3 category walls for
    b = s (their stratification is separate from the stability walls, so
    mixing them is opt-in); on an abelian surface the flag raises NotK3
    through the category-wall computation, which has none to offer.

    ``t2_range`` is a pair (t2_lo, t2_hi): an iterable of another length
    is a ValueError, and text or a value that is not iterable a TypeError.
    """
    s = rat(s)
    try:
        if isinstance(t2_range, (str, bytes)):
            raise TypeError
        t2_lo, t2_hi = t2_range
    except (TypeError, ValueError) as e:
        raise type(e)(f"t2_range must be a pair (t2_lo, t2_hi), got "
                      f"{t2_range!r}") from None
    t2_lo, t2_hi = rat(t2_lo), rat(t2_hi)
    p, n = s.numerator, s.denominator
    # before the walk, so an abelian surface raises NotK3 whatever cap is
    category = category_walls_k3(s, S, t2_hi) if cut_category_walls else []
    reg = Region(s, s, t2_lo, t2_hi)
    _, _, lo, hi, E = reg._q  # t2_lo = lo/E, t2_hi = hi/E
    # J = [s, s]: the window keeps heights at s in [t2_lo, t2_hi]
    cuts = [(disc * n * n - (2 * A * p + C * n) ** 2, (2 * A * n) ** 2)
            for A, C, disc, _ in _walk(v, S, reg, cap)]
    cuts += [cw._q for cw in category if lo * cw._q[1] <= cw._q[0] * E]
    M = lcm(E, *[den for _, den in cuts])  # every height is key/M
    keys = sorted({c * (M // den) for c, den in cuts})
    cut_points = tuple([Fraction(k, M) for k in keys])
    keys = [lo * (M // E), *keys, hi * (M // E)]
    bounds = [t2_lo, *cut_points, t2_hi]
    chambers = tuple([(bounds[i], bounds[i + 1]) for i in range(len(keys) - 1)
                      if keys[i] < keys[i + 1]])
    return ChamberRay(s, cut_points, chambers)


# ---------------------------------------------------------------------------
# side classification

C_PLUS = "CPlus"
C_MINUS = "CMinus"
ON_WALL = "OnWall"


def wall_side(v: MukaiVector, w1: MukaiVector, p: StabilityParam,
              S: Surface) -> str:
    """Which side of the wall of w1 the point p lies on, for v.

    Z(v) = 0, then Z(w1) = 0, raises ZeroCharge (as phase_key does).
    rho(w1, v) = 0 is the wall itself and takes precedence (anti-aligned
    charges also have rho = 0 while their phase keys differ); off the
    wall the verdict is CPlus exactly when phase_key(v) > phase_key(w1).

    On _charge's ints, Z(v) = (re + i*im*t)/den with im/den = h2*d_beta(v),
    so det = re1*im - im1*re = h2*den*den1*rho(w1, v).  Phase keys compare
    by band first; in one band off the wall im, im1 are nonzero of one
    sign (det = 0 on the real axis), and -re/im > -re1/im1 times
    im*im1 > 0 is det > 0.  So CPlus is (band(v), det) > (band(w1), 0).
    """
    re, im = _nonzero_charge(v, p, S)
    re1, im1 = _nonzero_charge(w1, p, S)
    det = re1 * im - im1 * re
    if det == 0:
        return ON_WALL
    return C_PLUS if (_band(re, im), det) > (_band(re1, im1), 0) else C_MINUS


# ---------------------------------------------------------------------------
# category walls (K3 only)

class CategoryWall(Frozen):
    __slots__ = ("u", "_q")
    _names = ("u", "t2")


def category_walls_k3(b, S: Surface, t2_max) -> list:
    """All category walls {t^2 = value} at beta = b*H with value in
    (0, t2_max], each tagged with its spherical class u (normalized up to
    sign: positive rank).

    Solved in closed form rather than searched.  With b = p/q in lowest
    terms and n = h2/2, a class u = (r_u, d_u, a_u) orthogonal to
    H + (H, bH)*rho must satisfy d_u = r_u * b, so integrality forces
    r_u = q*k; then <u^2> = 2k*(n k p^2 - q a_u) = -2 forces k = +-1 and
    a_u = (n p^2 + 1)/q, which is integral iff q divides n p^2 + 1.  In
    that case a_b(u) = 1/q and the wall equation rk(u)*(t^2 h2) =
    -2<e^{bH}, u> puts the single wall (up to sign of u) at
    t^2 = 2/(q^2 h2).  An abelian surface has no category walls, hence
    NotK3: it carries no spherical objects (errors.NotK3).
    """
    if S.kind != "k3":
        raise NotK3("category walls exist only on K3 surfaces")
    b = rat(b)
    t2_max = rat(t2_max)
    p, q = b.numerator, b.denominator
    n = S.h2 // 2
    num = n * p * p + 1
    if num % q != 0:
        return []
    den = q * q * S.h2  # t^2 = 2/den > 0
    if 2 * t2_max.denominator <= t2_max.numerator * den:
        return [CategoryWall._of(MukaiVector._of(q, p, num // q), 2, den)]
    return []
