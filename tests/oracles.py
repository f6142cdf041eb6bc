"""Independent test oracles: brute-force box scans and exact point
sampling on wall loci.

Everything here works on plain (r, d, a) tuples of ints/Fractions and is
written directly from the definitions, deliberately not sharing code
with the library's geometry helpers — agreement between the two routes
is what the acceptance tests check.  All decisions are exact; square
roots are handled through integer-sqrt rational bounds that get
tightened until a rational witness can be exhibited, and every witness
is re-verified against the defining inequalities before it is trusted.
"""

from fractions import Fraction
from itertools import count, takewhile
from math import ceil, floor, gcd, isqrt, lcm

F = Fraction


# ---------------------------------------------------------------------------
# raw lattice formulas (tuple-based)

def pairing(x, y, h2):
    return h2 * x[1] * y[1] - x[0] * y[2] - x[2] * y[0]


def square(x, h2):
    return pairing(x, x, h2)


def add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def scale(k, x):
    return tuple(k * a for a in x)


def exp(s, h2):
    """e^{sH} = (1, s, s^2 h2/2)."""
    return (F(1), s, s * s * h2 / 2)


def fm_map(t, r1):
    """The Fourier-Mukai coordinate map (r, d, a) -> (-r1 a, sign(r1) d,
    -r/r1); fm_apply is this map of the triple twisted at c."""
    r, d, a = t
    return (-r1 * a, d if r1 > 0 else -d, -F(r) / r1)


def twisted(v, s, h2):
    r, d, a = v
    return (r, d - r * s, a - d * s * h2 + F(r, 2) * s * s * h2)


def charge(v, s, t2, h2):
    """(re, im_over_t) of the central charge."""
    r_b, d_b, a_b = twisted(v, s, h2)
    return (-a_b + F(h2, 2) * t2 * r_b, d_b * h2)


def in_domain(v, s, t2, h2):
    """Is Z(v) in the upper half-plane union the negative reals?"""
    re, im_t = charge(v, s, t2, h2)
    if im_t > 0:
        return True
    return im_t == 0 and re < 0


def acd(v1, v, h2):
    """Coefficients of rho(v1, v) = A(t^2 + s^2) + C s + D."""
    r1, d1, a1 = v1
    r, d, a = v
    return (F(h2, 2) * (r1 * d - r * d1), a1 * r - r1 * a, a * d1 - a1 * d)


def untwist(t, s, h2):
    """The plain triple whose s-twisted triple is t."""
    r, d_b, a_b = t
    d = d_b + r * s
    return (r, d, a_b + d * s * h2 - r * s * s * h2 / 2)


def ample(v, s, t2, h2):
    """(phi, xi1, xi2, xi_omega) of the ample class, xi_omega = phi*xi1 +
    h2*xi2 with xi2 = -(e^{sH} - (a_beta/r) rho); needs r, d_beta != 0."""
    r, d, a = v
    _, d_b, a_b = twisted(v, s, h2)
    phi = (r * h2 * t2 / 2 - a_b) / d_b
    xi1 = (F(0), F(1), (d / r) * h2)
    xi2 = (F(-1), -s, a_b / r - s * s * h2 / 2)
    return phi, xi1, xi2, tuple(phi * x + h2 * y for x, y in zip(xi1, xi2))


def omega_x(v, s, x, h2):
    """t^2 at which v's slope matches x relative to the twist s, or None
    outside the domain x0 < x (< d/r for r > 0), d_beta > 0."""
    r = v[0]
    _, d, a = twisted(v, s, h2)
    if d <= 0 or x <= max(2 * a / (h2 * d), F(0)) or (r > 0 and x >= d / r):
        return None
    return 2 * (x * (a - d * h2 * x / 2) / (x * r - d)) / h2


def omega_sx(v, s, x, h2):
    """The t^2 solving rho(e^{xH}, v) = A(t^2 + s^2) + C s + D = 0, or None
    where A = 0 (the pole x r = d); the value may be <= 0."""
    A, C, D = acd((1, x, x * x * h2 / 2), v, h2)
    if A == 0:
        return None
    return -(C * s + D) / A - s * s


def transformed_charge(r1, c, s, t, h2):
    """(zeta_re, zeta_im, xi, eta) of the transformed stability condition."""
    lam = c - s
    re_part = (lam * lam - t * t) * h2 / 2
    im_part = lam * t * h2
    delta = re_part * re_part + im_part * im_part
    scale = h2 * (lam * lam + t * t) / (2 * abs(r1) * delta)
    return (-r1 * re_part, r1 * im_part, lam * scale, t * scale)


def aligned_normal(v, s, t2, h2):
    """The primitive integer normal of rho(., v) at (s, t2) as a functional
    of (r, d, a), or None where it vanishes (Z(v) = 0)."""
    r, d, a = v
    q = t2 + s * s
    normal = (F(h2, 2) * d * q - a * s, -F(h2, 2) * r * q + a, r * s - d)
    den = lcm(*(c.denominator for c in normal))
    n = [c.numerator * (den // c.denominator) for c in normal]
    g = gcd(*n)
    return None if g == 0 else tuple(x // g for x in n)


def normalize_acd(A, C, D):
    ints = [int(x) for x in (A, C, D)]
    g = gcd(gcd(abs(ints[0]), abs(ints[1])), abs(ints[2]))
    if g == 0:
        return (0, 0, 0)
    ints = [x // g for x in ints]
    for x in ints:
        if x:
            return tuple(ints) if x > 0 else tuple(-y for y in ints)
    return (0, 0, 0)


# ---------------------------------------------------------------------------
# exact sqrt bounds and interval utilities

def sqrt_bounds(x: Fraction, k: int):
    """Rationals (lo, hi) with lo <= sqrt(x) <= hi and hi - lo <= 1/2^k."""
    assert x >= 0
    p, q = x.numerator, x.denominator
    shift = 1 << k
    n = isqrt(p * q * shift * shift)
    return F(n, q * shift), F(n + 1, q * shift)


def halfline(r, d):
    """{s : d - r s > 0} as (lo, hi) with None for +-infinity, or
    'all'/'none' when the degree is constant."""
    if r == 0:
        return "all" if d > 0 else "none"
    if r > 0:
        return (None, F(d, r))
    return (F(d, r), None)


def intersect_open(a, b):
    """Intersection of open intervals given as (lo|None, hi|None) or
    'all'/'none'."""
    if a == "none" or b == "none":
        return "none"
    if a == "all":
        return b
    if b == "all":
        return a
    lo = a[0] if b[0] is None else (b[0] if a[0] is None else max(a[0], b[0]))
    hi = a[1] if b[1] is None else (b[1] if a[1] is None else min(a[1], b[1]))
    if lo is not None and hi is not None and lo >= hi:
        return "none"
    return (lo, hi)


def open_interval_meets_circle_span(iv, c, R2):
    """Does the open interval meet (c - R, c + R)?  Exact, one radical:
    needs lo < c + R and hi > c - R."""
    if iv == "none":
        return False
    if iv == "all":
        return True
    lo, hi = iv
    if lo is not None:
        x = lo - c
        if x >= 0 and x * x >= R2:  # lo >= c + R
            return False
    if hi is not None:
        x = c - hi
        if x >= 0 and x * x >= R2:  # hi <= c - R
            return False
    return True


def rational_inside(iv, c, R2, max_k=80):
    """A rational point in (open interval) cap (c - R, c + R), which the
    caller has already decided is nonempty.  Inner-approximates R from
    below until the squeezed interval opens up."""
    for k in range(2, max_k):
        r_lo, _ = sqrt_bounds(R2, k)
        lo = c - r_lo
        hi = c + r_lo
        if iv != "all":
            if iv[0] is not None:
                lo = max(lo, iv[0])
            if iv[1] is not None:
                hi = min(hi, iv[1])
        if lo < hi:
            mid = (lo + hi) / 2
            if (mid - c) ** 2 < R2:  # paranoia: verify in the true span
                ok = True
                if iv != "all":
                    ok = ((iv[0] is None or mid > iv[0])
                          and (iv[1] is None or mid < iv[1]))
                if ok:
                    return mid
    raise AssertionError("witness extraction failed to converge")


# ---------------------------------------------------------------------------
# the wall-point oracle (exact point sampling on the locus)

def _strict_pair_point(v1, v2, c, R2):
    """A rational s in the circle span with d(v1) > 0 and d(v2) > 0, or
    None.  The degree of v = v1 + v2 is then automatically positive."""
    iv = intersect_open(halfline(v1[0], v1[1]), halfline(v2[0], v2[1]))
    if not open_interval_meets_circle_span(iv, c, R2):
        return None
    return rational_inside(iv, c, R2)


def _boundary_point(vz, vpos, c, R2, h2):
    """Point where d(vz) = 0 with Re Z(vz) < 0 while d(vpos) > 0, on the
    circle.  Returns (s, t2) or None."""
    rz, dz, az = vz
    if rz == 0:
        if dz != 0:
            return None  # degree never vanishes... except nowhere: d(s) = dz constant != 0
        # d(vz) vanishes identically; Re Z = -az must be negative
        if az <= 0:
            return None
        iv = halfline(vpos[0], vpos[1])
        if not open_interval_meets_circle_span(iv, c, R2):
            return None
        s = rational_inside(iv, c, R2)
        return (s, R2 - (s - c) ** 2)
    s0 = F(dz, rz)
    if (s0 - c) ** 2 >= R2:
        return None
    t2 = R2 - (s0 - c) ** 2
    re, _ = charge(vz, s0, t2, h2)
    if re >= 0:
        return None
    if vpos[1] - vpos[0] * s0 <= 0:
        return None
    return (s0, t2)


def wall_point_oracle(v1, v, h2):
    """Does the locus rho(v1, v) = 0 contain a point with t^2 > 0,
    d_beta(v) > 0, and both Z(v1), Z(v2 := v - v1) in the upper
    half-plane union the negative reals?  Returns (exists, witness);
    any witness is exact and fully re-verified."""
    v2 = tuple(F(v[i]) - F(v1[i]) for i in range(3))
    A, C, D = acd(v1, v, h2)

    def verified(s, t2):
        assert t2 > 0
        assert A * (t2 + s * s) + C * s + D == 0, "witness off the locus"
        assert v[1] - v[0] * s > 0
        assert in_domain(v1, s, t2, h2) and in_domain(v2, s, t2, h2)
        return True, (s, t2)

    if A == 0 and C == 0:
        if D != 0:
            return False, None
        # locus is everything: v1 rationally proportional to v.  The
        # oracle answers its literal question here: v1 = k v and
        # v2 = (1 - k) v both sit in the domain exactly when 0 < k < 1,
        # which an integral v1 allows when v is not primitive (v1 = v/4
        # of v = (4,0,-4)).  Such a v1 is no wall, so callers exclude
        # proportional v1 themselves (bench/ref.py explicitly, the tests
        # by drawing primitive v).  Scan a few sample points.
        for s_num in range(-8, 9):
            s = F(s_num, 3)
            if v[1] - v[0] * s <= 0:
                continue
            for t2 in (F(1, 7), F(1), F(9, 2)):
                if in_domain(v1, s, t2, h2) and in_domain(v2, s, t2, h2):
                    return verified(s, t2)
        return False, None

    if A == 0:
        # vertical line s0 = -D/C: t^2 ranges freely
        s0 = F(-D, C)
        if v[1] - v[0] * s0 <= 0:
            return False, None
        window = "all"
        for w in (v1, v2):
            dw = w[1] - w[0] * s0
            if dw > 0:
                wiv = "all"
            elif dw < 0:
                wiv = "none"
            else:
                # Re Z(w) < 0: -a_b + (h2 t^2/2) r < 0
                _, _, a_b = twisted(w, s0, h2)
                r = w[0]
                if r == 0:
                    wiv = "all" if a_b > 0 else "none"
                elif r > 0:
                    wiv = (None, F(2) * a_b / (h2 * r)) if a_b > 0 else "none"
                else:
                    wiv = (F(2) * a_b / (h2 * r), None)
            window = intersect_open(window, wiv)
        if window == "none":
            return False, None
        if window == "all":
            return verified(s0, F(1))
        lo, hi = window
        lo = F(0) if lo is None or lo < 0 else lo
        if hi is None:
            return verified(s0, lo + 1)
        if hi <= lo:
            return False, None
        return verified(s0, (lo + hi) / 2)

    # circle (or empty)
    c = F(-C) / (2 * A)
    R2 = c * c - F(D) / A
    if R2 <= 0:
        return False, None
    s = _strict_pair_point(v1, v2, c, R2)
    if s is not None:
        return verified(s, R2 - (s - c) ** 2)
    for vz, vpos in ((v1, v2), (v2, v1)):
        pt = _boundary_point(vz, vpos, c, R2, h2)
        if pt is not None:
            return verified(*pt)
    return False, None


# ---------------------------------------------------------------------------
# brute-force wall-set oracle over a box

def _t2_attained_on(J, c, R2):
    """Attained t^2 = R2 - (s-c)^2 range over the interval J (with
    open-endpoint flags), as (lo, hi, lo_att, hi_att)."""
    lo, hi, lo_open, hi_open = J
    ulo, uhi = (lo - c) ** 2, (hi - c) ** 2
    if lo <= c <= hi:
        umin = F(0)
        umin_att = (lo < c < hi) or (c == lo and not lo_open) or (c == hi and not hi_open)
    elif c < lo:
        umin, umin_att = ulo, not lo_open
    else:
        umin, umin_att = uhi, not hi_open
    if ulo >= uhi:
        umax, umax_att = ulo, not lo_open
        if ulo == uhi:
            umax_att = umax_att or not hi_open
    else:
        umax, umax_att = uhi, not hi_open
    return R2 - umax, R2 - umin, umax_att, umin_att


def _closed_meets(lo, hi, lo_att, hi_att, a, b):
    """Does the (partially open) interval meet the closed [a, b]?"""
    if hi < a or lo > b:
        return False
    L, U = max(lo, a), min(hi, b)
    if L < U:
        return True
    y = L
    if lo < y < hi:
        return True
    return (y == lo and lo_att) or (y == hi and hi_att)


def circle_meets_region_oracle(c, R2, v, reg, h2):
    """reg = (smin, smax, t2min, t2max); needs a circle point with s in
    [smin, smax], t^2 in [t2min, t2max], d_beta(v) > 0."""
    smin, smax, t2min, t2max = reg
    r, d = v[0], v[1]
    lo, hi, lo_open, hi_open = F(smin), F(smax), False, False
    if r > 0:
        cut = F(d, r)
        if cut <= lo:
            return False
        if cut <= hi:
            hi, hi_open = cut, True
    elif r < 0:
        cut = F(d, r)
        if cut >= hi:
            return False
        if cut >= lo:
            lo, lo_open = cut, True
    else:
        if d <= 0:
            return False
    if lo > hi or (lo == hi and (lo_open or hi_open)):
        return False
    t_lo, t_hi, att_lo, att_hi = _t2_attained_on((lo, hi, lo_open, hi_open), c, R2)
    return _closed_meets(t_lo, t_hi, att_lo, att_hi, F(t2min), F(t2max))


def wall_set_box_oracle(v, h2, reg, box, sq_floor=0):
    """All distinct wall loci of v meeting the region, found by scanning
    every integral v1 with |entries| <= box: numeric criterion (both
    squares >= sq_floor, cross pairing > 0, not proportional), circle
    locus, circle meets region in positive degree.  sq_floor = 0 is the
    abelian criterion; sq_floor = -2 is the K3 policy, which admits
    spherical parts.  Returns {(A:C:D) normalized: (center, radius_sq)}."""
    r, d, a = int(v[0]), int(v[1]), int(v[2])
    q = h2 * d * d - 2 * r * a
    walls = {}
    rng = range(-box, box + 1)
    half = F(h2, 2)
    for r1 in rng:
        for d1 in rng:
            m = r1 * d - r * d1
            hdd = h2 * d1 * d1
            d2 = d - d1
            for a1 in rng:
                q1 = hdd - 2 * r1 * a1
                if q1 < sq_floor:
                    continue
                p1v = h2 * d1 * d - r1 * a - a1 * r
                p12 = p1v - q1
                if p12 <= 0:
                    continue
                if q - q1 - 2 * p12 < sq_floor:  # <v2^2> >= sq_floor
                    continue
                if m == 0 and r1 * a - r * a1 == 0 and d1 * a - d * a1 == 0:
                    continue  # proportional
                A = half * m
                if A == 0:
                    continue  # vertical: never a circle
                C = F(a1 * r - r1 * a)
                D = F(a * d1 - a1 * d)
                c = -C / (2 * A)
                R2 = c * c - D / A
                if R2 <= 0:
                    continue
                if circle_meets_region_oracle(c, R2, v, reg, h2):
                    walls[normalize_acd(2 * A, 2 * C, 2 * D)] = (c, R2)
    return walls


def wall_stream_oracle(v, h2, kind, reg):
    """The (r1, d1, a1) candidate stream of the wall enumeration, scanned
    class by class: the box of steps 1-4 of its docstring (abelian
    bounds, the shifted ones on K3), and in it the a1 with
    sq_lo <= <v1^2> <= sq_hi if r1 != 0, or the same window on
    <(v - v1)^2> if r1 = 0 (sq_lo, sq_hi = 0, <v^2> - 2, or -2, <v^2> on
    K3, from <v^2> = q1 + 2 p12 + q2 with p12 >= 1); then the
    numeric criterion (squares >= 0, or >= -2 on K3, cross pairing > 0),
    a circle locus and circle_meets_region_oracle.  reg = (smin, smax,
    t2min, t2max) must leave d_beta(v) > 0 somewhere on [smin, smax].
    Returns ({(A:C:D) normalized: (|q1|, v1)} with the representative of
    least (|q1|, v1) for each wall, size of the stream)."""
    r, d, a = v
    smin, smax, t2min, t2max = (F(x) for x in reg)
    q = square(v, h2)
    lo, hi = smin, smax  # closure of the degree-clipped interval
    if r > 0:
        hi = min(hi, F(d, r))
    elif r < 0:
        lo = max(lo, F(d, r))
    if kind == "abelian":
        sq_lo, sq_hi = 0, q - 2
        m_sq = F((q - 1) ** 2) / (h2 * h2 * t2min)
        spread = F(2 * (q - 1)) / (h2 * t2min)
    else:
        sq_lo, sq_hi = -2, q
        m_sq = F((q + 1) ** 2 + 2 * q) / (h2 * h2 * t2min)
        spread = F(2 * (q + 2)) / (h2 * t2min)
    k = 0
    while k * k < spread:
        k += 1
    r1_max = abs(r) + k
    count, meets, best = 0, {}, {}
    for r1 in range(-r1_max, r1_max + 1):
        d1_lo = floor(min(r1 * lo, r1 * hi)) + 1
        d1_hi = ceil(d + max((r1 - r) * lo, (r1 - r) * hi)) - 1
        for d1 in range(d1_lo, d1_hi + 1):
            m = r1 * d - r * d1
            if m == 0 or m * m > m_sq:
                continue
            if r1 != 0:  # q1 = h2 d1^2 - 2 r1 a1 in [sq_lo, sq_hi]
                ends = (F(h2 * d1 * d1 - sq_hi, 2 * r1),
                        F(h2 * d1 * d1 - sq_lo, 2 * r1))
            else:  # q2 = h2 (d - d1)^2 - 2 r (a - a1) in [sq_lo, sq_hi]
                base = h2 * (d - d1) ** 2 - 2 * r * a
                ends = (F(sq_lo - base, 2 * r), F(sq_hi - base, 2 * r))
            a1s = range(ceil(min(ends)), floor(max(ends)) + 1)
            count += len(a1s)
            for a1 in a1s:
                v1 = (r1, d1, a1)
                v2 = (r - r1, d - d1, a - a1)
                q1, q2 = square(v1, h2), square(v2, h2)
                if q1 < sq_lo or q2 < sq_lo or pairing(v1, v2, h2) <= 0:
                    continue
                A, C, D = acd(v1, v, h2)
                c = -C / (2 * A)
                R2 = c * c - D / A
                if R2 <= 0:
                    continue
                key = normalize_acd(2 * A, 2 * C, 2 * D)
                if key not in meets:
                    meets[key] = circle_meets_region_oracle(
                        c, R2, v, (smin, smax, t2min, t2max), h2)
                if meets[key]:
                    best[key] = min(best.get(key, (abs(q1), v1)),
                                    (abs(q1), v1))
    return best, count


def walk_steps_oracle(v, h2, kind, reg):
    """The work the pencil walk of the wall enumeration is charged with
    against its ``cap``: the number of m-lines plus, on each, the number
    of fibers (m, C, D) it visits, counted by brute force.

    A line is an m >= 1 with (h2 m)^2 t2min <= B (B = <v^2>^2/4 on
    abelian surfaces, <v^2>(<v^2> + 8)/4 on K3) for which
    a*m + d*C + r*D = 0 has an integer solution.  Its fibers are the
    integer (C, D) on it with disc = C^2 - 2 h2 m D <= B and, with
    Y = r*C + h2*d*m: on a ray with r != 0 the height window
    m*y(t2min) <= Y <= m*y(t2max), y(t) = (<v^2> + h2 (x^2 + r^2 t))/(2x),
    x = d_beta(v) at the ray; otherwise disc >= h2^2 m^2 t2min, and Y > 0
    when r != 0.  reg = (smin, smax, t2min, t2max) as for
    wall_stream_oracle."""
    r, d, a = v
    smin, smax, t2min, t2max = (F(x) for x in reg)
    q = square(v, h2)
    B = F(q * q, 4) if kind == "abelian" else F(q * (q + 8), 4)
    steps, m = 0, 0
    while (h2 * (m + 1)) ** 2 * t2min <= B:
        m += 1
        if r == 0:
            if (a * m) % d:
                continue  # no integer point on this line
            C = -a * m // d
            # disc = C^2 - 2 h2 m D in [0, B]
            points = [(C, D) for D in range(ceil((C * C - B) / (2 * h2 * m)),
                                            floor(C * C / (2 * h2 * m)) + 1)]
        else:
            if all((a * m + d * C) % r for C in range(abs(r))):
                continue
            # every condition has Y > 0: scan C from the first integer
            # with Y > 0 in the direction of growing Y while disc <= B
            # (disc is convex in C and least at Y = 0); with
            # D = -(a m + d C)/r, r^2 disc = r^2 C^2 + 2 h2 m r (a m + d C)
            c0 = F(-h2 * d * m, r)  # Y = 0
            first, step = (floor(c0) + 1, 1) if r > 0 else (ceil(c0) - 1, -1)
            Cs = takewhile(lambda C: r * r * C * C + 2 * h2 * m * r * (
                a * m + d * C) <= r * r * B, count(first, step))
            points = [(C, -(a * m + d * C) // r) for C in Cs
                      if (a * m + d * C) % r == 0]
        steps += 1
        # disc <= B and Y > 0 hold by construction of the points
        if r != 0 and smin == smax:
            x = d - r * smin
            y_lo = (q + h2 * (x * x + r * r * t2min)) / (2 * x)
            y_hi = (q + h2 * (x * x + r * r * t2max)) / (2 * x)
            steps += sum(m * y_lo <= r * C + h2 * d * m <= m * y_hi
                         for C, _ in points)
        else:
            steps += sum(C * C - 2 * h2 * m * D >= (h2 * m) ** 2 * t2min
                         for C, D in points)
    return steps


# ---------------------------------------------------------------------------
# classification and category-wall oracles

def ipo_box_oracle(v, s, t2, h2, bound):
    """Isotropic w with <v, w> = 1, aligned with v at (s, t2), positive
    twisted degree, entries bounded; plain triple loop."""
    out = []
    rng = range(-bound, bound + 1)
    for r1 in rng:
        for d1 in rng:
            for a1 in rng:
                w = (r1, d1, a1)
                if h2 * d1 * d1 - 2 * r1 * a1 != 0:
                    continue
                if pairing(v, w, h2) != 1:
                    continue
                if d1 - r1 * s <= 0:
                    continue
                A, C, D = acd(w, v, h2)
                if A * (t2 + s * s) + C * s + D != 0:
                    continue
                g = gcd(gcd(abs(r1), abs(d1)), abs(a1))
                if g != 1:
                    continue
                out.append(w)
    return sorted(out)


def ipo_box_oracle_fast(v, s, t2, h2, bound):
    """Same set as ipo_box_oracle, but enumerating the isotropic classes
    of the box directly from h2 d^2 = 2 r a instead of a triple loop:
    rank zero forces degree zero (a free), otherwise a is determined by
    (r, d) when integral.  O(bound^2) instead of O(bound^3)."""
    out = []
    rng = range(-bound, bound + 1)
    candidates = [(0, 0, a1) for a1 in rng]
    for r1 in rng:
        if r1 == 0:
            continue
        for d1 in rng:
            num = h2 * d1 * d1
            if num % (2 * r1) != 0:
                continue
            a1 = num // (2 * r1)
            if abs(a1) <= bound:
                candidates.append((r1, d1, a1))
    for w in candidates:
        r1, d1, a1 = w
        assert h2 * d1 * d1 - 2 * r1 * a1 == 0
        if pairing(v, w, h2) != 1:
            continue
        if d1 - r1 * s <= 0:
            continue
        A, C, D = acd(w, v, h2)
        if A * (t2 + s * s) + C * s + D != 0:
            continue
        if gcd(gcd(abs(r1), abs(d1)), abs(a1)) != 1:
            continue
        out.append(w)
    return sorted(out)


def minus_two_box_oracle(s, t2, h2, bound, ref):
    """Every w with entries bounded by ``bound``, <w^2> = -2, twisted
    degree d - r*s > 0 and charge on the line of Z(ref) at (s, t2), in
    (r, d, a) order; plain triple loop, alignment by the determinant of
    the two charges."""
    re_v, im_v = charge(ref, s, t2, h2)
    out = []
    rng = range(-bound, bound + 1)
    for r in rng:
        for d in rng:
            for a in rng:
                w = (r, d, a)
                if square(w, h2) != -2 or d - r * s <= 0:
                    continue
                re_w, im_w = charge(w, s, t2, h2)
                if re_w * im_v - im_w * re_v == 0:
                    out.append(w)
    return out


def minus_two_pair_scan_oracle(s, t2, h2, bound, ref):
    """Same list as minus_two_box_oracle in O(bound^2): every pair (r, d)
    with r != 0, a = (h2 d^2 + 2)/(2r) when integral, alignment by one
    test of the primitive normal of rho(., ref).  Needs Z(ref) != 0."""
    n0, n1, n2 = aligned_normal(ref, s, t2, h2)
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
            if (abs(a) <= bound and d - r * s > 0
                    and n0 * r + n1 * d + n2 * a == 0):
                out.append((r, d, a))
    return out


def category_walls_box_oracle(b, h2, t2max, rmax, amax):
    """Spherical classes u with twisted degree zero at beta = b*H and an
    in-range wall value, by scanning ranks 1..rmax and entries |a| <=
    amax (normalized to positive rank)."""
    out = []
    for ru in range(1, rmax + 1):
        du = F(b) * ru
        if du.denominator != 1:
            continue
        du = int(du)
        for au in range(-amax, amax + 1):
            u = (ru, du, au)
            if square(u, h2) != -2:
                continue
            _, _, a_b = twisted(u, F(b), h2)
            t2 = 2 * a_b / (ru * h2)
            if 0 < t2 <= t2max:
                out.append((u, t2))
    return sorted(out)
