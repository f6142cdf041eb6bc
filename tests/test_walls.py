"""Wall loci, the wall-vector criterion, enumeration, chambers, sides."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mukaistab import (
    C_MINUS, C_PLUS, ON_WALL, CategoryWall, ChamberRay, Circle, Empty,
    Everywhere, Region, Surface, VerticalLine, category_walls_k3,
    central_charge, chambers_on_ray, enumerate_walls, is_wall_vector,
    mukai_square, mv, param, phase_key, reduced_sigma, wall_locus, wall_side,
)
from mukaistab.classification import _aligned_normal
from mukaistab.lattice import _kernel_basis_of_functional
from mukaistab.errors import (
    BoundOverflow, NonIntegral, NonPositiveSquare, NotK3, NotPrimitive,
    ZeroCharge, ZeroDegree,
)
from mukaistab.walls import _clip_degree_interval

AB = Surface("abelian", 2)
K3 = Surface("k3", 2)
F = Fraction

V_GOLD = mv(1, 0, -2)
GOLD_REGION = Region(F(-3), F(0), F(1, 100), F(4))

ints = st.integers(min_value=-15, max_value=15)
vectors = st.builds(mv, ints, ints, ints)


# ---------------------------------------------------------------------------
# wall_locus

def test_wall_locus_golden_circle():
    w = wall_locus(mv(1, -1, 1), V_GOLD, AB)
    assert w.geometry == Circle(F(-3, 2), F(1, 4))
    assert (w.A, w.C, w.D) == (1, 3, 2)


def test_wall_locus_proportional_is_everywhere():
    assert isinstance(wall_locus(2 * V_GOLD, V_GOLD, AB).geometry, Everywhere)


def test_wall_locus_degenerate_radius_is_empty():
    w = wall_locus(mv(1, 0, 0), mv(0, 1, 0), AB)
    assert (w.A, w.C, w.D) == (1, 0, 0)
    assert isinstance(w.geometry, Empty)


def test_wall_locus_negative_radius_sq_is_empty():
    # squares 2, 2 with cross pairing 1: radius^2 = (1 - 4)/(h2 m)^2 < 0
    v1, v = mv(1, 1, 0), mv(1, 0, -3)
    assert mukai_square(v1, AB) == 2
    assert mukai_square(v - v1, AB) == 2
    assert isinstance(wall_locus(v1, v, AB).geometry, Empty)


def test_wall_locus_vertical_line():
    w = wall_locus(mv(1, 0, -1), V_GOLD, AB)
    assert w.geometry == VerticalLine(F(0))


@given(vectors, vectors, st.integers(-5, 5))
def test_wall_locus_unchanged_by_adding_multiples_of_v(v1, v, k):
    """rho(v1 + k v, v) = rho(v1, v), so the (A, C, D) data agree."""
    if v1.is_zero() or v.is_zero() or (v1 + k * v).is_zero():
        return
    w1 = wall_locus(v1, v, AB)
    w2 = wall_locus(v1 + k * v, v, AB)
    assert (w1.A, w1.C, w1.D) == (w2.A, w2.C, w2.D)


@given(vectors, vectors, st.integers(1, 5))
def test_wall_acd_normalization_kills_scaling(v1, v, k):
    if v1.is_zero() or v.is_zero():
        return
    w1 = wall_locus(v1, v, AB)
    w2 = wall_locus(k * v1, v, AB)
    assert w1.acd_key() == w2.acd_key()


@given(vectors, vectors)
def test_wall_locus_matches_independent_acd(v1, v):
    if v1.is_zero() or v.is_zero():
        return
    w = wall_locus(v1, v, AB)
    A, C, D = oracles.acd(v1.as_tuple(), v.as_tuple(), 2)
    assert (w.A, w.C, w.D) == (A, C, D)


# ---------------------------------------------------------------------------
# is_wall_vector

def test_is_wall_vector_golden_true():
    rep = is_wall_vector(mv(1, -1, 1), V_GOLD, AB)
    assert rep.kind == "abelian" and rep.is_wall and not rep.necessary_only


def test_is_wall_vector_zero_cross_pairing():
    assert not is_wall_vector(mv(1, 0, 0), mv(1, 1, 0), AB)


def test_is_wall_vector_proportional():
    assert not is_wall_vector(V_GOLD, V_GOLD, AB)
    assert not is_wall_vector(3 * V_GOLD, V_GOLD, AB)


def test_is_wall_vector_rejects_empty_circle():
    """Numeric conditions alone are not enough: both squares >= 0 and
    positive cross pairing, but the locus has negative radius squared."""
    v1, v = mv(1, 1, 0), mv(1, 0, -3)
    v2 = v - v1
    assert mukai_square(v1, AB) >= 0 and mukai_square(v2, AB) >= 0
    assert oracles.pairing(v1.as_tuple(), v2.as_tuple(), 2) == 1
    assert not is_wall_vector(v1, v, AB)


def test_is_wall_vector_rejects_vertical_locus():
    """m = 0 degenerations sit on d_beta(v) = 0 and never destabilize."""
    v1 = mv(0, 0, -1)  # -rho: cross pairing with v is positive
    rep = is_wall_vector(v1, V_GOLD, AB)
    assert not rep.is_wall


def test_is_wall_vector_errors():
    with pytest.raises(NonPositiveSquare):
        is_wall_vector(mv(1, -1, 1), mv(1, 0, 0), AB)  # <v^2> = 0
    with pytest.raises(NonIntegral):
        is_wall_vector(mv(F(1, 2), 0, 0), V_GOLD, AB)


def test_is_wall_vector_k3_is_flagged_necessary_only():
    rep = is_wall_vector(mv(1, -1, 1), V_GOLD, K3)
    assert rep.kind == "k3" and rep.necessary_only


def test_is_wall_vector_k3_condition_b_matches_its_fraction_form():
    """K3 condition (b) is q1 < x1*q/x + 2*x*x1 on the degrees x1, x of v1
    and v over d_beta_min = 1/den(s), and false at x = 0; the Fraction
    form is the oracle of the integer test, on seeded inputs with h2 in
    {2, 4, 6}, x of either sign or 0, and both answers."""
    rng = random.Random(20261023)
    seen = set()
    for i in range(4000):
        h2 = rng.choice((2, 4, 6))
        v = (rng.randint(-3, 3), rng.randint(-4, 4), rng.randint(-6, 6))
        v1 = tuple(rng.randint(-6, 6) for _ in range(3))
        q = oracles.square(v, h2)
        if q <= 0:
            continue
        s = F(rng.randint(-9, 9), rng.randint(1, 4))
        if i % 5 == 0 and v[0]:
            s = F(v[1], v[0])  # x = 0
        x1 = v1[1] * s.denominator - v1[0] * s.numerator
        x = v[1] * s.denominator - v[0] * s.numerator
        q1 = oracles.square(v1, h2)
        want = x != 0 and q1 < F(x1 * q, x) + 2 * x * x1
        got = is_wall_vector(mv(*v1), mv(*v), Surface("k3", h2), s=s).details["b"]
        assert got is want, (h2, v1, v, s)
        seen.add(((x > 0) - (x < 0), want))
    assert seen == {(-1, False), (-1, True), (0, False), (1, False), (1, True)}


def test_is_wall_vector_matches_point_oracle_on_small_box():
    """Spot version of the exhaustive acceptance check: squares as standing
    hypotheses, point existence decided by independent sampling."""
    v = (1, 0, -2)
    V = mv(*v)
    for r1 in range(-4, 5):
        for d1 in range(-4, 5):
            for a1 in range(-4, 5):
                v1 = (r1, d1, a1)
                v2 = (v[0] - r1, v[1] - d1, v[2] - a1)
                if oracles.square(v1, 2) >= 0 and oracles.square(v2, 2) >= 0:
                    expect = oracles.wall_point_oracle(v1, v, 2)[0]
                else:
                    expect = False
                assert bool(is_wall_vector(mv(*v1), V, AB)) == expect


def test_is_wall_vector_matches_point_oracle_seeded():
    """Seeded check of the verdict and of the locus flag on abelian
    surfaces with h2 in {2, 4, 6} and v of positive, negative and zero
    rank, plus the two rank-one degenerations of the WallVectorReport
    docstring.  The flag is checked against an independent circle test
    (a circle whose span meets the half-line d_beta(v) > 0) and, with the
    numeric conditions, against the point-existence oracle."""
    rng = random.Random(20261020)
    cases = [(2, (1, 1, 0), (1, 0, -3)),   # squares 2, pairing 1: empty locus
             (2, (0, 0, -1), (1, 0, -2))]  # vertical line s = d/r
    while len(cases) < 3000:
        h2, r = rng.choice((2, 4, 6)), (1, -1, 0)[len(cases) % 3]
        v = (r * rng.randint(1, 4), rng.randint(-4, 4), rng.randint(-4, 4))
        if h2 * v[1] ** 2 - 2 * v[0] * v[2] > 0 and gcd(*v) == 1:
            cases.append((h2, tuple(rng.randint(-5, 5) for _ in range(3)), v))
    flags = {}
    for h2, v1, v in cases:
        v2 = tuple(x - y for x, y in zip(v, v1))
        rep = is_wall_vector(mv(*v1), mv(*v), Surface("abelian", h2))
        numeric = rep.details["numeric"]
        meets = rep.details["locus_meets_positive_degree"]
        if oracles.square(v1, h2) >= 0 and oracles.square(v2, h2) >= 0:
            expect = oracles.wall_point_oracle(v1, v, h2)[0]
        else:
            expect = False
        assert rep.is_wall == expect == (numeric and meets)
        A, C, D = oracles.acd(v1, v, h2)
        circle = A != 0 and C * C > 4 * A * D
        assert meets == (numeric and circle and
                         oracles.open_interval_meets_circle_span(
                             oracles.halfline(v[0], v[1]), F(-C, 2 * A),
                             F(C * C - 4 * A * D, 4 * A * A)))
        flags[numeric, meets, v[0] > 0, v[0] < 0] = True
    assert len(flags) == 9  # meets or not on numeric classes of each rank


def test_point_oracle_answers_literally_for_proportional_v1():
    """For non-primitive v the point oracle finds a witness for v1 = v/4,
    since v1 and v - v1 = 3v/4 both have charge in the domain; the
    criterion says False (proportional), so proportional v1 must be
    excluded before the two are compared."""
    v1, v = (1, 0, -1), (4, 0, -4)
    exists, witness = oracles.wall_point_oracle(v1, v, 2)
    assert exists and witness is not None
    rep = is_wall_vector(mv(*v1), mv(*v), AB)
    assert rep.details["proportional"] and not rep.is_wall


# ---------------------------------------------------------------------------
# enumerate_walls

def test_enumerate_walls_golden_region():
    walls = enumerate_walls(V_GOLD, AB, GOLD_REGION)
    assert len(walls) == 1
    (w,) = walls
    assert w.geometry == Circle(F(-3, 2), F(1, 4))
    assert w.acd_key() == (1, 3, 2)
    assert w.v1.is_integral()
    assert bool(is_wall_vector(w.v1, V_GOLD, AB))


def test_enumerate_walls_matches_box_oracle():
    got = {w.acd_key(): (w.geometry.center_s, w.geometry.radius_sq)
           for w in enumerate_walls(V_GOLD, AB, GOLD_REGION)}
    want = oracles.wall_set_box_oracle((1, 0, -2), 2,
                                       (F(-3), F(0), F(1, 100), F(4)), 12)
    assert got == want


def test_enumerate_walls_wider_region_against_oracle():
    v = mv(1, 0, -1)
    reg = Region(F(-2), F(2), F(1, 10), F(3))
    got = {w.acd_key(): (w.geometry.center_s, w.geometry.radius_sq)
           for w in enumerate_walls(v, AB, reg)}
    want = oracles.wall_set_box_oracle((1, 0, -1), 2,
                                       (F(-2), F(2), F(1, 10), F(3)), 12)
    assert got == want


def test_walk_window_matches_oracle_on_pencil_circles():
    """The walk's region window at its edges, against the independent
    oracle, which tracks the open end s = d/r: circles of the pencil of
    seeded primitive v of positive, negative and zero rank on abelian and
    K3 surfaces with h2 in {2, 4, 6}, cut by a class v1 with both squares
    >= 0 and cross pairing > 0, so that the walk lists the circle exactly
    when its window holds the circle's fiber; boxes and rays with an
    s-end exactly at d/r; t2 windows whose ends are the height at an end
    of J or at its peak, or a millionth of it off, so that circles both
    meet and miss the region at an edge of the window."""
    rng = random.Random(20261019)
    seen, edges = {True: 0, False: 0}, {True: 0, False: 0}
    while sum(seen.values()) < 240:
        S = Surface(rng.choice(("abelian", "k3")), rng.choice((2, 4, 6)))
        r = (1, -1, 0)[sum(seen.values()) % 3] * rng.randint(1, 4)
        v = (r, rng.randint(-5, 5), rng.randint(-5, 5))
        q = S.h2 * v[1] ** 2 - 2 * r * v[2]
        v1 = tuple(rng.randint(-5, 5) for _ in range(3))
        v2 = tuple(x - y for x, y in zip(v, v1))
        q1, q2 = oracles.square(v1, S.h2), oracles.square(v2, S.h2)
        if (q <= 0 or gcd(*v) != 1 or min(q1, q2) < 0
                or oracles.pairing(v1, v2, S.h2) <= 0):
            continue
        wall = wall_locus(mv(*v1), mv(*v), S)
        if not isinstance(wall.geometry, Circle):
            continue
        c, R2 = wall.geometry.center_s, wall.geometry.radius_sq
        if r:
            assert (F(v[1], r) - c) ** 2 - R2 == F(q, S.h2 * r * r)
        end = F(v[1], r) if r else c + F(rng.randint(-8, 8), 4)
        w = rng.choice((0, F(rng.randint(1, 16), rng.randint(1, 4))))
        s_min, s_max = rng.choice(((end - w, end), (end, end + w),
                                   (end - w, end + w)))
        J = _clip_degree_interval(mv(*v), s_min.numerator * s_max.denominator,
                                  s_max.numerator * s_min.denominator,
                                  s_min.denominator * s_max.denominator)
        if J is None:  # a ray at s = d/r, or a box on the wrong side
            assert not oracles.circle_meets_region_oracle(
                c, R2, v, (s_min, s_max, F(1, 100), R2 + 1), S.h2)
            continue
        L, H, N = J
        lo, hi = F(L, N), F(H, N)
        heights = (R2 - (x - c) ** 2 for x in (lo, hi, min(max(c, lo), hi)))
        # the heights, and a millionth of one above and below them
        marks = {x * (1 + e) for x in heights if x > 0
                 for e in (0, F(1, 10 ** 6), F(-1, 10 ** 6))}
        pool = sorted(marks) + [F(rng.randint(1, 40), rng.randint(1, 10))]
        t2_min, t2_max = sorted((rng.choice(pool), rng.choice(pool)))
        reg = (s_min, s_max, t2_min, t2_max)
        got = wall.acd_key() in {
            w.acd_key() for w in enumerate_walls(mv(*v), S, Region(*reg))}
        assert got == oracles.circle_meets_region_oracle(c, R2, v, reg, S.h2)
        seen[got] += 1
        edges[got] += t2_min in marks or t2_max in marks
    assert min(seen.values()) > 60 and min(edges.values()) > 15


@pytest.mark.parametrize("S, v, reg", [
    (AB, (2, -2, -3), (F(-3), F(1), F(1, 4), F(3))),
    (K3, (2, -1, -4), (F(-5, 2), F(3, 2), F(1, 4), F(3))),
])
def test_enumerate_walls_region_straddling_the_vertical_wall(S, v, reg):
    # the region crosses s = d/r, where d_beta(v) changes sign: a circle
    # that meets the region only where d_beta(v) <= 0 is no wall of it
    got = {w.acd_key(): (w.geometry.center_s, w.geometry.radius_sq)
           for w in enumerate_walls(mv(*v), S, Region(*reg))}
    want = oracles.wall_set_box_oracle(v, 2, reg, 12,
                                       sq_floor=0 if S is AB else -2)
    assert got == want


@pytest.mark.parametrize("v, reg", [
    ((1, 0, -2), (F(-3), F(0), F(1, 20), F(4))),
    ((1, 0, -5), (F(-4), F(0), F(1, 8), F(6))),
    ((2, 1, -5), (F(-3), F(1, 2), F(1, 4), F(5))),
    ((3, -1, -2), (F(-2), F(-1, 3), F(1, 6), F(5))),
    ((-1, 1, 3), (F(-1), F(3), F(1, 4), F(5))),
    ((0, 1, 3), (F(-3), F(4), F(1, 8), F(5))),
])
def test_abelian_walls_match_box_oracle_beyond_the_step_box(v, reg):
    """On abelian surfaces the walk does not evaluate the step 2-4 box:
    a wall member has both twisted degrees positive at its wall point.
    The oracle scans every class with entries up to well past that box's
    bounds on r1 (step 3) and d1 (step 4) and finds the same walls."""
    r, d, a = v
    q, s_abs = 2 * d * d - 2 * r * a, max(abs(reg[0]), abs(reg[1]))
    r1_max = abs(r) + isqrt(2 * (q - 1) * reg[2].denominator
                            // (2 * reg[2].numerator)) + 1
    d1_max = abs(d) + (r1_max + abs(r)) * s_abs
    box = int(max(r1_max, d1_max)) + 3
    got = {w.acd_key(): (w.geometry.center_s, w.geometry.radius_sq)
           for w in enumerate_walls(mv(*v), AB, Region(*reg))}
    assert got and got == oracles.wall_set_box_oracle(v, 2, reg, box)


def test_enumerate_walls_sorted_deterministically():
    v = mv(2, 1, -1)
    reg = Region(F(-2), F(2), F(1, 4), F(2))
    walls = enumerate_walls(v, AB, reg)
    keys = [(w.geometry.center_s, w.geometry.radius_sq, w.acd_key())
            for w in walls]
    assert keys == sorted(keys)
    assert len(set(w.acd_key() for w in walls)) == len(walls)


def test_enumerate_walls_k3_runs():
    walls = enumerate_walls(V_GOLD, K3, Region(F(-2), F(-1), F(1, 2), F(2)))
    for w in walls:
        assert isinstance(w.geometry, Circle)


@pytest.mark.parametrize("v, reg", [
    ((1, 0, -2), (F(-2), F(-1), F(1, 2), F(2))),
    ((1, 0, -3), (F(-3), F(0), F(1, 4), F(4))),
    ((2, 1, -2), (F(-2), F(1, 2), F(1, 4), F(3))),
])
def test_enumerate_walls_k3_matches_box_oracle(v, reg):
    got = {w.acd_key(): (w.geometry.center_s, w.geometry.radius_sq)
           for w in enumerate_walls(mv(*v), K3, Region(*reg))}
    want = oracles.wall_set_box_oracle(v, 2, reg, 14, sq_floor=-2)
    assert got == want


@pytest.mark.parametrize("S, v, n", [
    (AB, (1, 0, -10), 3932),
    (AB, (2, 1, -10), 8810),
    (K3, (1, 0, -10), 4920),
    (K3, (2, 1, -10), 9954),
])
def test_enumerate_walls_cap_counts_every_candidate(S, v, n):
    # cap counts the steps of the pencil walk (m-lines plus fibers):
    # cap = steps suffices, cap = steps - 1 overflows.  n is the size of
    # the (r1, d1, a1) candidate stream cap counted before; the walk
    # takes far fewer steps, so a cap that sufficed then still does.
    reg = (F(-8), F(0), F(1, 50), F(20))
    steps = oracles.walk_steps_oracle(v, S.h2, S.kind, reg)
    assert 0 < steps < n
    reg = Region(*reg)
    enumerate_walls(mv(*v), S, reg, cap=steps)
    with pytest.raises(BoundOverflow):
        enumerate_walls(mv(*v), S, reg, cap=steps - 1)


@pytest.mark.parametrize("S, v, reg, n", [
    (AB, (0, 3, 1), (F(-4), F(4), F(1, 10), F(10)), 1282),      # r = 0
    (K3, (0, 2, -1), (F(-3), F(3), F(1, 20), F(10)), 914),      # r = 0
    (AB, (-1, 3, -2), (F(-5, 2), F(1), F(1, 20), F(10)), 782),  # r < 0
    (K3, (-2, 1, 3), (F(-1, 4), F(2), F(1, 20), F(10)), 688),   # r < 0
    (K3, (1, 0, -10), (F(-3), F(-3), F(1, 50), F(20)), 226),    # K3 ray
    (K3, (2, 1, -4), (F(-1, 2), F(-1, 2), F(1, 20), F(8)), 131),
    # r != 0: the least y^2 at the near end of x(J) (41 steps), at its
    # far end with x(J) open at 0 (41), and at x0 with a greatest y^2 (66)
    (AB, (1, 0, -10), (F(-8), F(-5), F(1, 50), F(20)), 1066),
    (AB, (1, 0, -10), (F(-2), F(0), F(1, 50), F(20)), 1640),
    (AB, (1, 0, -10), (F(-8), F(-1), F(1, 50), F(20)), 3171),
    # r = 0 with the center a/(h2 d) = 1/6 outside J (8 steps), and a ray (4)
    (AB, (0, 3, 1), (F(1), F(4), F(1, 10), F(10)), 542),
    (AB, (0, 3, 1), (F(2), F(2), F(1, 10), F(10)), 98),
])
def test_enumerate_walls_cap_counts_every_candidate_on_each_branch(S, v, reg,
                                                                   n):
    # cap = steps, the exact number of m-lines plus fibers the walk
    # visits on each branch of its fiber window (r = 0, r < 0, rays, and
    # each end of the region window), walks to the end and returns the
    # walls and representatives of the class-by-class scan;
    # cap = steps - 1 overflows.  n is the size of the candidate stream
    # cap counted before, as that scan counts it.
    best, size = oracles.wall_stream_oracle(v, S.h2, S.kind, reg)
    steps = oracles.walk_steps_oracle(v, S.h2, S.kind, reg)
    assert size == n
    assert 0 < steps < n
    reg = Region(*reg)
    walls = enumerate_walls(mv(*v), S, reg)
    assert {w.acd_key(): w.v1.as_tuple() for w in walls} == {
        key: v1 for key, (_, v1) in best.items()}
    assert enumerate_walls(mv(*v), S, reg, cap=steps) == walls
    with pytest.raises(BoundOverflow):
        enumerate_walls(mv(*v), S, reg, cap=steps - 1)


def test_enumerate_walls_work_is_bounded_by_cap():
    """The walk's m-lines grow as 1/sqrt(t2_min): the default cap covers
    t2_min = 10^-8 (10^4 lines), and 10^-30 (10^15 lines) overflows at
    once instead of looping.  The steps are counted by arithmetic, not by
    len(): more than sys.maxsize m-lines (10^-40, about 10^20 lines) or
    fibers (the m = 1 line of (1, 0, -10^40) over [-2*10^39, -1], about
    8*10^39 fibers whose circles meet the region) overflow too, where
    len() ended in an OverflowError."""
    reg = Region(F(-3), F(0), F(1, 10 ** 8), F(4))
    walls = enumerate_walls(V_GOLD, AB, reg)
    assert walls == enumerate_walls(V_GOLD, AB, reg, cap=10 ** 9)
    assert len(walls) == 5
    with pytest.raises(BoundOverflow):
        enumerate_walls(V_GOLD, AB, Region(F(-3), F(0), F(1, 10 ** 30), F(4)))
    tiny = F(1, 10 ** 40)
    with pytest.raises(BoundOverflow):
        enumerate_walls(V_GOLD, K3, Region(F(-3), F(0), tiny, F(2)))
    with pytest.raises(BoundOverflow):
        chambers_on_ray(V_GOLD, K3, F(-1), (tiny, F(2)))
    with pytest.raises(BoundOverflow, match="more than 5 walk steps"):
        enumerate_walls(mv(1, 0, -10 ** 40), AB,
                        Region(F(-2 * 10 ** 39), F(-1), F(10 ** 78),
                               F(10 ** 80)), cap=5)


def test_enumerate_walls_errors():
    with pytest.raises(NonPositiveSquare):
        enumerate_walls(mv(1, 0, 1), AB, GOLD_REGION)   # <v^2> = -2
    with pytest.raises(NonPositiveSquare):
        enumerate_walls(mv(0, 0, 1), AB, GOLD_REGION)   # d_beta == 0 ray
    with pytest.raises(NotPrimitive):
        enumerate_walls(2 * V_GOLD, AB, GOLD_REGION)
    with pytest.raises(NonIntegral):
        enumerate_walls(mv(F(1, 2), 0, -2), AB, GOLD_REGION)
    with pytest.raises(ZeroDegree):
        enumerate_walls(V_GOLD, AB, Region(F(1), F(2), F(1, 100), F(4)))
    with pytest.raises(BoundOverflow):
        enumerate_walls(V_GOLD, AB, GOLD_REGION, cap=3)


def test_negative_cap_raises_before_any_scan():
    # with a region that has candidates (GOLD_REGION) and one that has none
    # (a ray above every wall of V_GOLD), cap = -1 is refused the same way
    empty_ray = Region(F(-1, 2), F(-1, 2), F(10), F(20))
    assert enumerate_walls(V_GOLD, AB, empty_ray, cap=0) == []
    for reg in (GOLD_REGION, empty_ray):
        with pytest.raises(ValueError, match="cap must be nonnegative"):
            enumerate_walls(V_GOLD, AB, reg, cap=-1)
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        chambers_on_ray(V_GOLD, AB, F(-3, 2), (F(1, 10), F(4)), cap=-1)


def test_region_validation():
    with pytest.raises(ValueError):
        Region(F(0), F(-1), F(1, 2), F(1))   # s_min > s_max
    with pytest.raises(ValueError):
        Region(F(0), F(1), F(0), F(1))       # t2_min must be positive
    with pytest.raises(ValueError):
        Region(F(0), F(1), F(2), F(1))       # empty t2 window


# ---------------------------------------------------------------------------
# chambers_on_ray

def test_chambers_golden_ray():
    ray = chambers_on_ray(V_GOLD, AB, F(-3, 2), (F(1, 100), F(4)))
    assert ray.cut_points == (F(1, 4),)
    assert ray.chambers == ((F(1, 100), F(1, 4)), (F(1, 4), F(4)))


def test_chambers_ray_missing_all_walls():
    ray = chambers_on_ray(V_GOLD, AB, F(-3, 2), (F(1, 2), F(4)))
    assert ray.cut_points == ()
    assert ray.chambers == ((F(1, 2), F(4)),)


def test_chambers_zero_degree_ray():
    with pytest.raises(ZeroDegree):
        chambers_on_ray(V_GOLD, AB, F(0), (F(1, 100), F(4)))


def test_chambers_cut_points_sorted_and_interior():
    v = mv(1, 0, -1)
    ray = chambers_on_ray(v, AB, F(-1, 2), (F(1, 100), F(4)))
    assert list(ray.cut_points) == sorted(set(ray.cut_points))
    for c in ray.cut_points:
        assert F(1, 100) < c <= F(4)
    # chambers tile the window around the cuts
    edges = [F(1, 100)] + list(ray.cut_points) + [F(4)]
    expect = tuple((a, b) for a, b in zip(edges, edges[1:]) if a < b)
    assert ray.chambers == expect


def test_chambers_category_cut_flag_abelian_raises():
    with pytest.raises(NotK3):
        chambers_on_ray(V_GOLD, AB, F(-3, 2), (F(1, 100), F(4)),
                        cut_category_walls=True)


@pytest.mark.parametrize("cap", [0, 3, 10 ** 6])
def test_chambers_category_cut_flag_abelian_raises_before_the_walk(cap):
    """The category walls are asked for before the pencil is walked, so
    the error of this invalid request does not depend on cap (at caps 0
    and 3 the walk alone would raise BoundOverflow)."""
    with pytest.raises(NotK3):
        chambers_on_ray(V_GOLD, AB, F(-3, 2), (F(1, 100), F(4)),
                        cut_category_walls=True, cap=cap)


def test_chambers_category_cut_flag_k3():
    plain = chambers_on_ray(V_GOLD, K3, F(0) - F(3, 2), (F(1, 100), F(4)))
    cut = chambers_on_ray(V_GOLD, K3, F(-3, 2), (F(1, 100), F(4)),
                          cut_category_walls=True)
    assert set(plain.cut_points) <= set(cut.cut_points)


@pytest.mark.parametrize("v, s, t2, cuts, steps", [
    # the golden circle, height 1/4 at s = -3/2, at either closed end
    ((1, 0, -2), F(-3, 2), (F(1, 4), F(4)), (F(1, 4),), 4),
    ((1, 0, -2), F(-3, 2), (F(1, 100), F(1, 4)), (F(1, 4),), 12),
    # r < 0, and r = 0 (the disc window): a cut at each end of the window
    ((-1, 3, -2), F(-1), (F(1), F(3)), (F(1), F(3)), 6),
    ((0, 2, 1), F(1, 3), (F(1, 18), F(5, 9)), (F(1, 18), F(5, 9)), 9),
])
def test_chambers_ray_window_ends_are_closed(v, s, t2, cuts, steps):
    # a wall crossing the ray exactly at t2_min or t2_max is cut; steps is
    # the smallest cap that succeeds, counted by the oracle
    assert oracles.walk_steps_oracle(v, 2, "abelian", (s, s) + t2) == steps
    ray = chambers_on_ray(mv(*v), AB, s, t2, cap=steps)
    assert ray.cut_points == cuts
    assert ray.chambers == ((t2[0], t2[1]),)
    with pytest.raises(BoundOverflow):
        chambers_on_ray(mv(*v), AB, s, t2, cap=steps - 1)


@pytest.mark.parametrize("S, s, t2, flag, cuts, chambers", [
    # the golden circle's cut at t^2 = 1/4 on either end, and inside
    (AB, F(-3, 2), (F(1, 4), F(4)), False, (F(1, 4),), ((F(1, 4), F(4)),)),
    (AB, F(-3, 2), (F(1, 10), F(1, 4)), False, (F(1, 4),),
     ((F(1, 10), F(1, 4)),)),
    (AB, F(-3, 2), (F(1, 10), F(4)), False, (F(1, 4),),
     ((F(1, 10), F(1, 4)), (F(1, 4), F(4)))),
    # a degenerate ray (t2_min == t2_max), on the cut and off it
    (AB, F(-3, 2), (F(1, 4), F(1, 4)), False, (F(1, 4),), ()),
    (AB, F(-3, 2), (F(1), F(1)), False, (), ()),
    # the K3 category wall for b = -1/2, at t^2 = 1/4, is the only cut
    (K3, F(-1, 2), (F(1, 4), F(4)), True, (F(1, 4),), ((F(1, 4), F(4)),)),
    (K3, F(-1, 2), (F(1, 100), F(1, 4)), True, (F(1, 4),),
     ((F(1, 100), F(1, 4)),)),
    (K3, F(-1, 2), (F(1, 4), F(1, 4)), True, (F(1, 4),), ()),
    (K3, F(-1, 2), (F(1, 2), F(4)), True, (), ((F(1, 2), F(4)),)),
    (K3, F(-1, 2), (F(1, 100), F(4)), False, (), ((F(1, 100), F(4)),)),
])
def test_chambers_on_ray_cuts_at_the_ends_and_degenerate_rays(
        S, s, t2, flag, cuts, chambers):
    # the answers chambers_on_ray gave when it sorted Fraction cuts; a cut
    # on an end of the window is kept, and a chamber is never empty
    ray = chambers_on_ray(V_GOLD, S, s, t2, cut_category_walls=flag)
    assert ray == ChamberRay(s, cuts, chambers)
    assert all(type(x) is F for x in ray.cut_points)


def test_chambers_on_ray_matches_candidate_stream_seeded():
    """Seeded differential against the class-by-class scan: the cuts are
    t^2 = -(A s^2 + C s + D)/A over the walls (A:C:D) that the scan finds
    on the ray Region(s, s, lo, hi), plus, on half the K3 rays, the
    category walls of a box scan.  v in [-4, 4]^3 with ranks -4..4 (rays
    with r = 0 take the disc window), abelian and K3 with h2 in {2, 4, 6};
    the cuts at cap = the walk's step count, BoundOverflow one below."""
    rng = random.Random(20261020)
    done = walls = flagged = 0
    while done < 180:
        S = Surface(rng.choice(("abelian", "k3")), rng.choice((2, 4, 6)))
        v = (done % 9 - 4, rng.randint(-4, 4), rng.randint(-4, 4))
        s = F(rng.randint(-8, 8), rng.randint(1, 4))
        if (S.h2 * v[1] ** 2 - 2 * v[0] * v[2] <= 0 or gcd(*v) != 1
                or v[1] - v[0] * s <= 0):
            continue
        lo = rng.choice((F(1, 40), F(1, 20), F(1, 7), F(1, 3), F(1)))
        hi = lo + rng.choice((F(0), F(1, 2), F(3), F(20)))
        flag = S.kind == "k3" and rng.random() < 0.5
        reg = (s, s, lo, hi)
        want = {-(A * s * s + C * s + D) / A for A, C, D in
                oracles.wall_stream_oracle(v, S.h2, S.kind, reg)[0]}
        walls += bool(want)
        if flag:
            p, n = s.numerator, s.denominator
            want |= {t2 for _, t2 in oracles.category_walls_box_oracle(
                s, S.h2, hi, 2 * n, S.h2 // 2 * p * p + 1) if lo <= t2}
            flagged += 1
        steps = oracles.walk_steps_oracle(v, S.h2, S.kind, reg)
        ray = chambers_on_ray(mv(*v), S, s, (lo, hi), flag, cap=steps)
        assert ray.cut_points == tuple(sorted(want))
        if steps:
            with pytest.raises(BoundOverflow):
                chambers_on_ray(mv(*v), S, s, (lo, hi), flag, cap=steps - 1)
        done += 1
    assert walls > 45 and flagged > 30


def _error_class(call):
    """The class of the exception call() raised, or None if it returned."""
    try:
        call()
    except Exception as e:  # noqa: BLE001 - the class is what is compared
        return type(e)
    return None


def test_chambers_on_ray_checks_input_in_the_order_of_enumerate_walls():
    """A ray and the one-point region at its s run one order of checks:
    chambers_on_ray raises the class that enumerate_walls raises on
    Region(s, s, lo, hi), or both return.  Seeded draws mix valid input
    with a non-primitive v, a square <= 0, a cap that is no int and an s
    where d_beta(v) <= 0, alone or together, after the two zero-degree
    rays with a second fault (a non-primitive v, and a cap "x" too)."""
    rng = random.Random(20261021)
    cases = [(mv(2, 0, -2), AB, F(1), (1, 2), 10 ** 6),
             (mv(2, 0, -2), AB, F(1), (1, 2), "x")]
    while len(cases) < 400:
        S = Surface(rng.choice(("abelian", "k3")), rng.choice((2, 4, 6)))
        v = mv(*(rng.randint(-4, 4) for _ in range(3)))
        lo = F(rng.randint(1, 8), 4)
        cases.append((rng.choice((1, 1, 1, 2)) * v, S,
                      F(rng.randint(-6, 6), rng.randint(1, 3)),
                      (lo, lo + rng.choice((0, 1, 5))),
                      rng.choice((10 ** 6, 10 ** 6, 10 ** 6, 0, "x", 2.0))))
    seen = set()
    for v, S, s, t2, cap in cases:
        got = _error_class(lambda: chambers_on_ray(v, S, s, t2, cap=cap))
        assert got is _error_class(
            lambda: enumerate_walls(v, S, Region(s, s, *t2), cap=cap))
        seen.add(got)
    assert {None, NotPrimitive, NonPositiveSquare, NonIntegral,
            ZeroDegree} <= seen


# the K3 list is not local (ROADMAP item 6(0)): on the degree-6 K3
# surface, the wall (6, 9, -17) of v = (2, 4, -1), representative
# (1, 1, 4), crosses the ray s = 1 at t^2 = 163/48 - (7/4)^2 = 1/3
K3_6, V_LOCAL, RAY_T2 = Surface("k3", 6), mv(2, 4, -1), (F(1, 50), F(20))


def test_k3_locality_witness():
    """The region [-399, 2] x [1/50, 20] lists the wall, and the oracle
    says its circle meets the ray s = 1 over the same t^2 range."""
    wide = enumerate_walls(V_LOCAL, K3_6, Region(F(-399), F(2), *RAY_T2))
    wall, = [w for w in wide if w.acd_key() == (6, 9, -17)]
    g = wall.geometry
    assert (g.center_s, g.radius_sq, wall.v1) == (F(-3, 4), F(163, 48),
                                                   mv(1, 1, 4))
    assert oracles.circle_meets_region_oracle(
        g.center_s, g.radius_sq, (2, 4, -1), (F(1), F(1), *RAY_T2), 6)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the K3 step-4 box depends on the region, so the "
                          "ray misses a wall that its circle crosses")
def test_k3_ray_cuts_the_walls_of_a_wider_region():
    ray = chambers_on_ray(V_LOCAL, K3_6, F(1), RAY_T2)
    if F(1, 3) not in ray.cut_points:  # no assert: tier-1 also runs under -O
        raise AssertionError(f"t^2 = 1/3 is not among {ray.cut_points}")


def test_walls_of_a_subregion_are_the_walls_of_a_wider_one_meeting_it():
    """Locality, seeded over regions R inside R', abelian and K3 with h2
    in {2, 4, 6}.  On abelian surfaces the walls of R are the walls of R'
    whose circle meets R (by the oracle).  On K3 they are among them: a
    pair with a spherical part counts only inside the step 2-4 box of its
    region (ROADMAP item 6(0)).  And every K3 wall with a member pair of
    squares >= 0, found by a class scan past the step 2-4 box of R, is a
    wall of R: a wall that R misses has only spherical members, like the
    one of test_k3_locality_witness."""
    rng = random.Random(20261022)
    done = nonempty = scanned = 0
    while done < 600:
        S = Surface(rng.choice(("abelian", "k3")), rng.choice((2, 4, 6)))
        r, d, a = v = tuple(rng.randint(-3, 3) for _ in range(3))
        q = S.h2 * d * d - 2 * r * a
        if q <= 0 or gcd(*v) != 1:
            continue
        # about d/r, where the walls of v are, on its positive-degree side
        c = F(d, r) if r else F(rng.randint(-4, 4))
        sign = -1 if r > 0 else 1
        s_out = sorted(c + sign * F(rng.randint(-2, 4), rng.randint(1, 2))
                       for _ in range(2))
        t2_out = sorted(F(rng.randint(1, 40), 16) for _ in range(2))
        s_in = sorted(rng.choice((s_out[0], s_out[1],
                                  (s_out[0] + s_out[1]) / 2))
                      for _ in range(2))
        t2_in = sorted(rng.choice((t2_out[0], t2_out[1],
                                   (t2_out[0] + t2_out[1]) / 2))
                       for _ in range(2))
        inner = (*s_in, *t2_in)
        if max(d - r * s_in[0], d - r * s_in[1]) <= 0:
            continue  # d_beta(v) <= 0 on R: ZeroDegree
        wide = enumerate_walls(mv(*v), S, Region(*s_out, *t2_out))
        meets = {w.acd_key() for w in wide
                 if oracles.circle_meets_region_oracle(
                     w.geometry.center_s, w.geometry.radius_sq, v, inner,
                     S.h2)}
        got = {w.acd_key() for w in enumerate_walls(mv(*v), S,
                                                    Region(*inner))}
        nonempty += bool(got)
        done += 1
        if S.kind == "abelian":
            assert got == meets
            continue
        assert got <= meets
        # past the step 2-4 box of R: its bounds on r1 and d1, plus three
        t2_min = t2_in[0]
        r1_max = abs(r) + isqrt(2 * (q + 2) * t2_min.denominator
                                // (S.h2 * t2_min.numerator)) + 1
        s_abs = max(abs(s_in[0]), abs(s_in[1]))
        box = max(r1_max, int(abs(d) + (r1_max + abs(r)) * s_abs) + 1) + 3
        if box <= 20:  # the scan takes box^3 steps
            plain = set(oracles.wall_set_box_oracle(v, S.h2, inner, box))
            assert plain <= got
            scanned += bool(plain)
    assert nonempty > 120 and scanned > 20


# ---------------------------------------------------------------------------
# wall_side

def test_wall_side_three_point_golden():
    w1 = mv(1, -1, 1)
    s = F(-3, 2)
    assert wall_side(V_GOLD, w1, param(s, F(1)), AB) == C_PLUS
    assert wall_side(V_GOLD, w1, param(s, F(1, 4)), AB) == ON_WALL
    assert wall_side(V_GOLD, w1, param(s, F(1, 8)), AB) == C_MINUS


def test_wall_side_zero_charge():
    with pytest.raises(ZeroCharge):
        wall_side(V_GOLD, mv(0, 0, 0), param(F(-3, 2), F(1)), AB)


def test_wall_side_zero_charge_messages():
    """Z(v) = 0 is reported before Z(w1) = 0: at s = 0, t2 = 1 on AB the
    charge of (r, 0, a) is r - a, so (1,0,1) and (2,0,2) have none."""
    p = param(0, 1)
    for v, w1, zero in ((mv(1, 0, 1), mv(1, 0, 0), "(1,0,1)"),
                        (mv(1, 0, 0), mv(2, 0, 2), "(2,0,2)"),
                        (mv(1, 0, 1), mv(2, 0, 2), "(1,0,1)")):
        with pytest.raises(ZeroCharge) as err:
            wall_side(v, w1, p, AB)
        assert str(err.value) == f"Z({zero}) = 0 at s=0, t2=1"


@given(st.fractions(min_value=F(-19, 10), max_value=F(-11, 10),
                    max_denominator=40))
def test_wall_side_sign_matches_reduced_sigma_on_golden_circle(s):
    """Crossing the golden circle flips the side; on it, OnWall."""
    from mukaistab import reduced_sigma
    w1 = mv(1, -1, 1)
    r2 = F(1, 4) - (s + F(3, 2)) ** 2
    if r2 <= 0:
        return
    inside = param(s, r2 / 2)
    on = param(s, r2)
    outside = param(s, r2 * 2)
    assert wall_side(V_GOLD, w1, on, AB) == ON_WALL
    for p in (inside, outside):
        side = wall_side(V_GOLD, w1, p, AB)
        rho = reduced_sigma(w1, V_GOLD, p, AB)
        assert side == (C_PLUS if rho > 0 else C_MINUS)


def _side_by_definition(v, w1, p, S):
    """wall_side as its docstring defines it: phase_key raises ZeroCharge
    for Z(v), then for Z(w1); rho(w1, v) = 0 is OnWall; otherwise CPlus
    exactly when phase_key(v) > phase_key(w1)."""
    key_v, key_w1 = phase_key(v, p, S), phase_key(w1, p, S)
    if reduced_sigma(w1, v, p, S) == 0:
        return ON_WALL
    return C_PLUS if key_v > key_w1 else C_MINUS


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroCharge as e:
        return ("ZeroCharge", str(e))


def test_wall_side_matches_its_definition_seeded():
    """wall_side against phase_key order and rho = 0 on seeded classes:
    random pairs, pairs on the real axis (Im Z = 0, Re < 0 or Re > 0, the
    bands 1 and 3), pairs in the plane aligned with v (aligned and
    anti-aligned charges) and zero charges, alone or on both classes."""
    rng = random.Random(1801)
    seen = set()
    for _ in range(4000):
        S = rng.choice((AB, K3, Surface("abelian", 4), Surface("k3", 6)))
        s = F(rng.randint(-8, 8), rng.randint(1, 4))
        p = param(s, F(rng.randint(1, 40), rng.randint(1, 6)))
        zero = (1, s, S.h2 * (p.t2 + s * s) / 2)  # Z = 0 at p

        def real():  # d = r*s, so Im Z = 0
            r = s.denominator * rng.choice((-2, -1, 1, 2))
            return mv(r, r * s, rng.randint(-12, 12))

        def rand():
            return mv(*(rng.randint(-6, 6) for _ in range(3)))

        kind = rng.choice(("random", "real", "aligned", "zero"))
        v = real() if kind == "real" and rng.random() < 0.5 else rand()
        if kind == "real":
            w1 = real()
        elif kind == "aligned" and not central_charge(v, p, S).is_zero():
            b1, b2 = _kernel_basis_of_functional(*_aligned_normal(v, p, S))
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            w1 = mv(*(x * i + y * j for i, j in zip(b1, b2)))
        elif kind == "zero":
            v, w1 = rng.choice(((mv(*zero), rand()), (rand(), mv(*zero)),
                                (mv(*zero), mv(*(-2 * x for x in zero)))))
        else:
            w1 = rand()
        want = _outcome(_side_by_definition, v, w1, p, S)
        assert _outcome(wall_side, v, w1, p, S) == want, (v, w1, p, S)
        if isinstance(want, tuple):
            seen.add(("error names v", want[1].startswith(f"Z({v})"),
                      central_charge(w1, p, S).is_zero()))
        else:
            bands = phase_key(v, p, S).band, phase_key(w1, p, S).band
            seen.add(("bands",) + bands + (want,))
    pairs = {x[1:3] for x in seen if x[0] == "bands"}
    assert pairs == {(b, c) for b in range(4) for c in range(4)}
    for b, c in ((0, 2), (2, 0), (1, 3), (3, 1)):  # anti-aligned charges
        assert ("bands", b, c, ON_WALL) in seen
    for b in (0, 2):  # one open half-plane: the wall and both of its sides
        assert {("bands", b, b, ON_WALL), ("bands", b, b, C_PLUS),
                ("bands", b, b, C_MINUS)} <= seen
    # Z(v) = 0 is named before Z(w1) = 0, and Z(w1) = 0 alone is named
    assert {("error names v", True, True), ("error names v", True, False),
            ("error names v", False, True)} <= seen


# ---------------------------------------------------------------------------
# category walls (K3)

def test_category_walls_golden():
    assert category_walls_k3(F(0), K3, F(4)) == [CategoryWall(mv(1, 0, 1), F(1))]
    assert category_walls_k3(F(0), K3, F(1, 2)) == []
    assert category_walls_k3(F(1, 2), K3, F(4)) == [
        CategoryWall(mv(2, 1, 1), F(1, 4))]


def test_category_walls_abelian_raises():
    with pytest.raises(NotK3):
        category_walls_k3(F(0), AB, F(4))


@pytest.mark.parametrize("b", [F(0), F(1, 2), F(1, 3), F(-2, 5), F(3)])
def test_category_walls_match_box_oracle(b):
    got = [(w.u.as_tuple(), w.t2) for w in category_walls_k3(b, K3, F(4))]
    want = [(tuple(F(x) for x in u), t2)
            for u, t2 in oracles.category_walls_box_oracle(b, 2, F(4), 60, 400)]
    assert sorted(got) == want


def test_category_wall_classes_are_spherical_and_orthogonal():
    for b in (F(0), F(1, 2), F(-1, 3), F(5, 4)):
        for w in category_walls_k3(b, K3, F(9)):
            assert mukai_square(w.u, K3) == -2
            assert w.u.d == w.u.r * b  # twisted degree vanishes at b
            assert w.t2 > 0


# ---------------------------------------------------------------------------
# enumerate_walls against a scan of its candidate stream

def _check_against_stream(v, S, reg, cap=10 ** 6):
    """Walls, their order and representatives exactly as the
    class-by-class scan of the candidate stream gives them, or
    BoundOverflow exactly when cap is below the walk's step count."""
    best = oracles.wall_stream_oracle(v, S.h2, S.kind, reg)[0]
    steps = oracles.walk_steps_oracle(v, S.h2, S.kind, reg)

    def order(key):  # center, radius^2, key: the order of the list
        A, C, D = key
        c = F(-C, 2 * A)
        return (c, c * c - F(D, A), key)
    if steps > cap:
        with pytest.raises(BoundOverflow, match=f"more than {cap} walk steps"):
            enumerate_walls(mv(*v), S, Region(*reg), cap=cap)
        return None
    got = enumerate_walls(mv(*v), S, Region(*reg), cap=cap)
    assert [(w.acd_key(), w.v1.as_tuple()) for w in got] == [
        (key, best[key][1]) for key in sorted(best, key=order)]
    # the (A, C, D) and Circle built on the walk's ints are the locus's own
    assert all(w == wall_locus(w.v1, mv(*v), S) for w in got)
    enumerate_walls(mv(*v), S, Region(*reg), cap=steps)
    if steps:
        with pytest.raises(BoundOverflow):
            enumerate_walls(mv(*v), S, Region(*reg), cap=steps - 1)
    return got


@pytest.mark.parametrize("S, v, reg", [
    # q1 = q2 = 0: disc = <v^2>^2/4 on the bound (r < 0 here)
    (AB, (-1, 2, -2), (F(-1), F(0), F(1, 100), F(1))),
    (AB, (-1, 2, -2), (F(-1, 2), F(-1, 2), F(1, 10), F(1))),
    # the golden circle (center -3/2, radius^2 1/4) touching t2_min
    (AB, (1, 0, -2), (F(-3), F(0), F(1, 4), F(4))),
    (AB, (1, 0, -2), (F(-3, 2), F(-3, 2), F(1, 4), F(4))),
    (K3, (1, 0, -2), (F(-3, 2), F(-3, 2), F(1, 4), F(4))),
    # rank zero, rank negative, a box straddling s = d/r
    (AB, (0, 1, -3), (F(-2), F(3), F(1, 20), F(5))),
    (K3, (0, 2, 1), (F(-1), F(1), F(1, 30), F(4))),
    (K3, (0, 1, 2), (F(1, 3), F(1, 3), F(1, 10), F(4))),
    (AB, (-2, 1, 3), (F(-4), F(1), F(1, 10), F(6))),
    (K3, (-1, 3, -2), (F(-1, 2), F(-1, 2), F(1, 20), F(8))),
    (K3, (2, -1, -4), (F(-5, 2), F(3, 2), F(1, 25), F(3))),
    (Surface("abelian", 4), (1, 1, -3), (F(-3), F(1), F(1, 15), F(6))),
    (Surface("k3", 6), (2, 1, -2), (F(-2), F(1, 2), F(1, 15), F(9))),
    # K3: (-8, -11, -15) ties (-5, -7, -10) on |q1| = 2 and is smaller,
    # but |r1| = 8 is past the step-3 bound 5, so the box keeps it out
    (K3, (-3, -4, -5), (F(-1, 4), F(27, 4), F(1), F(3, 2))),
])
def test_enumerate_walls_matches_candidate_stream_named(S, v, reg):
    assert _check_against_stream(v, S, reg)


def test_enumerate_walls_matches_candidate_stream_seeded():
    """Seeded differential against the scan: v in [-4, 4]^3 (rank zero and
    negative included), abelian and K3 with h2 in {2, 4, 6}, boxes, rays
    and boxes across s = d/r, caps around the walk's step count and the
    default one."""
    rng = random.Random(20261018)
    kinds = ("abelian", "k3")
    done = walls = overflows = 0
    while done < 400:
        S = Surface(rng.choice(kinds), rng.choice((2, 4, 6)))
        v = tuple(rng.randint(-4, 4) for _ in range(3))
        q = S.h2 * v[1] ** 2 - 2 * v[0] * v[2]
        if q <= 0 or gcd(*v) != 1:
            continue
        t2_min = rng.choice((F(1, 60), F(1, 20), F(1, 7), F(1, 3), F(1)))
        t2_max = t2_min + rng.choice((F(0), F(1, 2), F(3), F(20)))
        shape = rng.choice(("box", "ray", "straddle"))
        if shape == "straddle" and v[0] == 0:
            continue
        if shape == "straddle":
            cut = F(v[1], v[0])
            s_min = cut - F(rng.randint(1, 12), rng.randint(1, 4))
            s_max = cut + F(rng.randint(1, 12), rng.randint(1, 4))
        else:
            s_min = F(rng.randint(-18, 12), rng.randint(1, 3))
            s_max = s_min + (0 if shape == "ray" else F(rng.randint(1, 12), 2))
        # positive degree somewhere on [s_min, s_max]
        if v[1] - v[0] * s_min <= 0 and v[1] - v[0] * s_max <= 0:
            continue
        reg = (s_min, s_max, t2_min, t2_max)
        steps = oracles.walk_steps_oracle(v, S.h2, S.kind, reg)
        cap = rng.choice((10 ** 6, rng.randint(0, 2 * steps)))
        got = _check_against_stream(v, S, reg, cap)
        done += 1
        walls += bool(got)
        overflows += got is None
    assert walls > 100 and overflows > 20
