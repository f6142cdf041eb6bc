"""Bounded searches and the decomposition decision tree."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from mukaistab import (
    EXC_ISOTROPIC, EXC_RANK_TWO, INCONCLUSIVE, STABLE_PAIR, RHO,
    StableExistenceReport, Surface, a2_pattern, central_charge,
    classify_decomposition, d_beta, find_isotropic_pairing_one,
    find_minus_two_aligned, mukai_pairing, mukai_square, mv, param,
    reduced_sigma, stable_existence,
)
from mukaistab.classification import _aligned_normal
from mukaistab.lattice import _kernel_basis_of_functional
from mukaistab.errors import (
    BoundOverflow, NonIntegral, NonPositiveSquare, NotAligned, NotK3,
    NotPrimitive, ZeroCharge, ZeroDegree,
)

AB = Surface("abelian", 2)
K3 = Surface("k3", 2)
F = Fraction
V = mv(1, 0, -2)
WALL_P = param(F(-3, 2), F(1, 4))   # on the golden wall of V
OFF_P = param(F(-1), F(3, 2))       # aligned with (4,-2,1), not a wall of V


# ---------------------------------------------------------------------------
# find_isotropic_pairing_one

def test_ipo_at_wall_point():
    got = find_isotropic_pairing_one(V, WALL_P, AB, bound=6)
    assert mv(1, -1, 1) in got
    for w in got:
        assert mukai_square(w, AB) == 0
        assert mukai_pairing(V, w, AB) == 1
        assert reduced_sigma(w, V, WALL_P, AB) == 0
        assert d_beta(w, WALL_P.s, AB) > 0
        assert w.is_primitive()


def test_ipo_off_wall_excludes_the_aligned_isotropic():
    """(4,-2,1) is aligned and isotropic here but pairs to 7, and nothing
    else qualifies: the complete search comes back empty."""
    assert mukai_square(mv(4, -2, 1), AB) == 0
    assert reduced_sigma(mv(4, -2, 1), V, OFF_P, AB) == 0
    assert mukai_pairing(V, mv(4, -2, 1), AB) == 7
    assert find_isotropic_pairing_one(V, OFF_P, AB, bound=50) == []


def test_ipo_bound_zero():
    assert find_isotropic_pairing_one(V, WALL_P, AB, bound=0) == []


def test_ipo_rho_vector():
    assert find_isotropic_pairing_one(RHO, OFF_P, AB, bound=8) == []


def test_ipo_errors():
    with pytest.raises(NonIntegral) as err:
        find_isotropic_pairing_one(mv(F(1, 2), 0, 0), OFF_P, AB, bound=5)
    assert str(err.value) == "search needs an integral v, got (1/2,0,0)"
    with pytest.raises(ZeroCharge) as err:
        # Z((1,0,1)) = 0 at s=0, t2=1 on the abelian surface
        find_isotropic_pairing_one(mv(1, 0, 1), param(F(0), F(1)), AB, bound=5)
    assert str(err.value) == "Z((1,0,1)) = 0 at s=0, t2=1"
    # huge bounds are harmless: the line search scans no box, the bound
    # only filters its at most two points
    assert mv(1, -1, 1) in find_isotropic_pairing_one(V, WALL_P, AB,
                                                      bound=10 ** 4)


@pytest.mark.parametrize("v,s,t2", [
    ((1, 0, -2), F(-3, 2), F(1, 4)),
    ((1, 0, -2), F(-1), F(3, 2)),
    ((1, 0, -1), F(-1, 2), F(1, 2)),
    ((2, 1, -1), F(-1), F(2)),
    ((1, -1, 1), F(1, 3), F(5, 9)),
    ((3, 1, 0), F(-2, 3), F(1, 2)),
])
def test_ipo_matches_box_oracle(v, s, t2):
    p = param(s, t2)
    got = [w.as_tuple() for w in
           find_isotropic_pairing_one(mv(*v), p, AB, bound=8)]
    got = sorted(tuple(int(c) for c in w) for w in got)
    want = oracles.ipo_box_oracle(v, s, t2, 2, 8)
    assert got == want


def test_ipo_line_search_is_complete_beyond_any_box():
    """Nothing new appears when the bound grows: the line carries at most
    two rational isotropic points."""
    a = find_isotropic_pairing_one(V, WALL_P, AB, bound=10)
    b = find_isotropic_pairing_one(V, WALL_P, AB, bound=60)
    small = [w for w in b if max(abs(c) for c in w.as_tuple()) <= 10]
    assert a == small and len(b) <= 2


def _isotropic_pairing_one_point(h2, rng):
    """(v, s, t2) on the wall of a random primitive isotropic w with
    <v, w> = 1 and d_beta(w) > 0 (w and v flip sign together), or None
    when the draw misses."""
    r = rng.choice([x for x in range(-6, 7) if x])
    d = rng.randint(-6, 6)
    if (h2 * d * d) % (2 * r):
        return None
    w = (r, d, h2 * d * d // (2 * r))
    if gcd(gcd(r, d), w[2]) != 1:
        return None
    for _ in range(200):
        v = tuple(rng.randint(-6, 6) for _ in range(3))
        if oracles.pairing(v, w, h2) == 1:
            point = _point_on_circle(w, v, h2, rng)
            if point is None or d == r * point[0]:
                return None
            sign = 1 if d > r * point[0] else -1
            return (tuple(sign * x for x in v), *point)
    return None


@pytest.mark.parametrize("S", [Surface("abelian", 2), Surface("abelian", 4),
                               Surface("k3", 2), Surface("k3", 6)],
                         ids=lambda S: f"{S.kind}{S.h2}")
def test_ipo_and_stable_existence_match_box_oracle_on_every_surface(S):
    """Seeded points, half of them on the wall of an isotropic class w
    with <v, w> = 1: the search equals the bound-30 box oracle, raises
    ZeroCharge exactly when Z(v) = 0, and stable_existence answers Yes
    or the search's first witness, never Inconclusive."""
    rng = random.Random(4000 + S.h2 + (S.kind == "k3"))
    cases = hits = 0
    while cases < 24:
        if cases % 2:
            drawn = _isotropic_pairing_one_point(S.h2, rng)
            if drawn is None:
                continue
            v, s, t2 = drawn
        else:
            v = tuple(rng.randint(-8, 8) for _ in range(3))
            s = F(rng.randint(-16, 16), rng.randint(1, 4))
            t2 = F(rng.randint(1, 16), rng.randint(1, 4))
        cases += 1
        p = param(s, t2)
        if oracles.charge(v, s, t2, S.h2) == (0, 0):
            with pytest.raises(ZeroCharge):
                find_isotropic_pairing_one(mv(*v), p, S, bound=30)
            continue
        got = find_isotropic_pairing_one(mv(*v), p, S, bound=30)
        want = oracles.ipo_box_oracle_fast(v, s, t2, S.h2, 30)
        assert [w.as_tuple() for w in got] == want
        hits += bool(want)
        if oracles.square(v, S.h2) > 0 and v[1] - v[0] * s > 0:
            rep = stable_existence(mv(*v), p, S)
            full = find_isotropic_pairing_one(mv(*v), p, S, bound=10 ** 9)
            if full:
                assert rep == StableExistenceReport("ExceptionalWitness",
                                                    witness=full[0])
            else:
                assert rep == StableExistenceReport("Yes")
    assert hits >= 6


@pytest.mark.parametrize("bound", [0, 1, 20])
def test_classify_zero_charge_pair_raises_at_every_bound(bound):
    """(1,0,0) and (1,1,1) have charges -i*t and +i*t at s = 1/2,
    t2 = 1/4: aligned, but v = (2,1,1) has Z(v) = 0, so there is no
    search line and no bound can stand in for one (classify takes no
    bound; the pairing-one search raises at every bound)."""
    parts = [(1, mv(1, 0, 0)), (1, mv(1, 1, 1))]
    p = param(F(1, 2), F(1, 4))
    with pytest.raises(ZeroCharge):
        classify_decomposition(parts, p, AB)
    with pytest.raises(ZeroCharge):
        find_isotropic_pairing_one(mv(2, 1, 1), p, AB, bound=bound)


# ---------------------------------------------------------------------------
# the aligned plane Lambda = ker n and the pairing-one line on it

def _zero_charge_draw(h2, rng):
    """(v, s, t2) with Z(v) = 0: d = r*s and a = h2*r*(t2 + s^2)/2."""
    while True:
        r = rng.choice([x for x in range(-4, 5) if x])
        s = F(rng.randint(-5, 5), rng.choice([1, abs(r)]))
        t2 = F(rng.randint(1, 6), rng.randint(1, 3))
        d, a = r * s, F(h2, 2) * r * (t2 + s * s)
        if d.denominator == 1 and a.denominator == 1:
            return (r, int(d), int(a)), s, t2


@pytest.mark.parametrize("S", [Surface("abelian", 2), Surface("abelian", 4),
                               Surface("k3", 2), Surface("k3", 6)],
                         ids=lambda S: f"{S.kind}{S.h2}")
def test_aligned_normal_is_the_primitive_normal_of_rho(S):
    """Seeded (v, p), one in four with Z(v) = 0 and one in eight with a
    rational v: _aligned_normal raises ZeroCharge exactly when
    central_charge(v) is zero; otherwise n is primitive, its
    rho-coefficient has the sign of -d_beta(v), and n.w = 0 exactly when
    reduced_sigma(w, v, p) = 0 on the box |entries| <= 3."""
    rng = random.Random(7000 + S.h2 + (S.kind == "k3"))
    box = [(r, d, a) for r in range(-3, 4) for d in range(-3, 4)
           for a in range(-3, 4)]
    zeros = 0
    for case in range(24):
        if case % 4 == 0:
            v, s, t2 = _zero_charge_draw(S.h2, rng)
        else:
            v = tuple(rng.randint(-6, 6) for _ in range(3))
            s = F(rng.randint(-12, 12), rng.randint(1, 4))
            t2 = F(rng.randint(1, 12), rng.randint(1, 4))
        V, p = mv(*v), param(s, t2)
        if case % 8 == 1:
            V = mv(F(v[0], 2), v[1], F(v[2], 3))
        if central_charge(V, p, S).is_zero():
            zeros += 1
            with pytest.raises(ZeroCharge):
                _aligned_normal(V, p, S)
            continue
        n = _aligned_normal(V, p, S)
        assert gcd(*n) == 1
        assert n[2] * d_beta(V, s, S) <= 0
        assert (n[2] == 0) == (d_beta(V, s, S) == 0)
        for w in box:
            assert ((n[0] * w[0] + n[1] * w[1] + n[2] * w[2] == 0)
                    == (reduced_sigma(mv(*w), V, p, S) == 0))
    assert zeros >= 6


def _plane_data(v, p, S):
    """(g, u): <v, ·> takes the values g*Z on the aligned plane Lambda,
    and the primitive u spans Lambda ∩ v^perp (the direction of the
    pairing-one line), found from the cross product of the two normals."""
    n = _aligned_normal(mv(*v), p, S)
    b1, b2 = _kernel_basis_of_functional(*n)
    g = gcd(oracles.pairing(v, b1, S.h2), oracles.pairing(v, b2, S.h2))
    m = (-v[2], S.h2 * v[1], -v[0])
    u = (n[1] * m[2] - n[2] * m[1], n[2] * m[0] - n[0] * m[2],
         n[0] * m[1] - n[1] * m[0])
    return g, tuple(x // gcd(*u) for x in u)


@pytest.mark.parametrize("S,v,s,t2,g,linear,want,rejected", [
    # u = (1,0,0) is isotropic: the quadratic in k is linear
    (K3, (1, 0, 0), F(-1, 2), F(1, 4), 1, True, [(-1, 1, -1)], None),
    # gcd(p1, p2) = 2: <v, ·> never takes the value 1 on H, and the
    # aligned isotropic (1,0,0) of positive degree pairs to 2
    (AB, (1, 1, -2), F(-3, 2), F(3, 4), 2, False, [], (1, 0, 0)),
    # two roots, and d_beta((-1,0,0)) = -1/3 removes one
    (K3, (2, -1, 1), F(-1, 3), F(2, 9), 1, False, [(-1, 1, -1)], (-1, 0, 0)),
    # two roots, both of positive degree
    (K3, (0, 1, -1), F(-1, 2), F(1, 4), 1, False,
     [(-1, 1, -1), (1, 0, 0)], None),
    # d_beta(v) = 0 with Re Z(v) = -1: every aligned class has degree 0,
    # so the root (0,0,1) is removed by d_beta > 0, not kept by >= 0
    (AB, (-1, 0, 0), F(0), F(1), 1, True, [], (0, 0, 1)),
], ids=["linear", "gcd-two", "one-root-removed", "two-roots", "degree-zero"])
def test_ipo_root_solver_branches(S, v, s, t2, g, linear, want, rejected):
    p = param(s, t2)
    g_got, u = _plane_data(v, p, S)
    assert (g_got, oracles.square(u, S.h2) == 0) == (g, linear)
    got = find_isotropic_pairing_one(mv(*v), p, S, bound=10 ** 9)
    assert [w.as_tuple() for w in got] == want
    assert want == oracles.ipo_box_oracle_fast(v, s, t2, S.h2, 12)
    if rejected is not None:
        # isotropic and aligned, but off by exactly one condition
        w = mv(*rejected)
        assert mukai_square(w, S) == 0 and reduced_sigma(w, mv(*v), p, S) == 0
        assert ((mukai_pairing(mv(*v), w, S), d_beta(w, s, S) > 0)
                in [(g, True), (1, False)])


# ---------------------------------------------------------------------------
# find_minus_two_aligned

def test_minus_two_golden_unique():
    got = find_minus_two_aligned(param(F(1, 2), F(3, 4)), K3, 3, mv(1, 0, 0))
    assert got == [mv(1, 1, 2)]
    u = got[0]
    assert mukai_square(u, K3) == -2
    assert reduced_sigma(u, mv(1, 0, 0), param(F(1, 2), F(3, 4)), K3) == 0
    assert d_beta(u, F(1, 2), K3) > 0


def test_minus_two_abelian_raises():
    with pytest.raises(NotK3):
        find_minus_two_aligned(param(F(1, 2), F(3, 4)), AB, 3, mv(1, 0, 0))


def test_minus_two_tiny_bound_empty():
    assert find_minus_two_aligned(param(F(1, 3), F(7, 5)), K3, 1, mv(1, 0, 0)) == []


def test_minus_two_zero_charge_reference():
    # Z((1,0,1)) vanishes at s=0, t2=1 on the K3 with h2=2
    with pytest.raises(ZeroCharge):
        find_minus_two_aligned(param(F(0), F(1)), K3, 3, mv(1, 0, 1))


def test_minus_two_bound_overflow():
    with pytest.raises(BoundOverflow):
        find_minus_two_aligned(param(F(1, 2), F(3, 4)), K3, 10 ** 4, mv(1, 0, 0))


def test_minus_two_bound_100_is_in_reach():
    """The scan visits 2*bound*(2*bound + 1) (r, d) pairs, so bound 100
    (past the old (2*bound + 1)^3 cap) runs, and what it returns keeps
    the contract."""
    p, ref = param(F(1, 2), F(3, 4)), mv(1, 0, 0)
    got = find_minus_two_aligned(p, K3, 100, ref)
    assert got == [mv(1, 1, 2)]
    for u in got:
        assert mukai_square(u, K3) == -2
        assert d_beta(u, p.s, K3) > 0
        assert reduced_sigma(u, ref, p, K3) == 0
        assert max(abs(c) for c in u.as_tuple()) <= 100


def test_minus_two_pell_pair_counterexample():
    """Aligned -2 classes are not unique: at s = -3/2, t2 = 1 the
    reference (1,0,-2) lines up (-1,2,-5) and (25,-18,13).  The search
    returns the first alone below bound 25 and both, in (r, d, a) order,
    once the box holds the second."""
    p, ref = param(F(-3, 2), F(1)), mv(1, 0, -2)
    assert (oracles.minus_two_box_oracle(p.s, p.t2, 2, 25, ref.as_tuple())
            == [(-1, 2, -5), (25, -18, 13)])
    assert find_minus_two_aligned(p, K3, 9, ref) == [mv(-1, 2, -5)]
    assert find_minus_two_aligned(p, K3, 40, ref) == [mv(-1, 2, -5),
                                                      mv(25, -18, 13)]


def _point_on_circle(u, w, h2, rng):
    """A rational point (s, t2) where u and w are aligned, or None when
    their locus is no circle or line in the upper half plane."""
    A, C, D = oracles.acd(u, w, h2)
    if A == 0:
        if C == 0:
            return None
        return F(-D) / C, F(rng.randint(1, 9), rng.randint(1, 4))
    c = -C / (2 * A)
    R2 = c * c - D / A
    if R2 <= 0:
        return None
    k = rng.randint(1, 4)
    j = rng.randint(-isqrt(int(R2 * k * k)), isqrt(int(R2 * k * k)))
    if F(j, k) ** 2 >= R2:
        return None
    return c + F(j, k), R2 - F(j, k) ** 2


def _flip_to_positive_degree(u, s):
    return u if u[1] - u[0] * s > 0 else tuple(-x for x in u)


def test_minus_two_matches_box_oracle():
    """Seeded points on the alignment circle of a random -2 class u with
    a random reference, and (one case in six) of two -2 classes u, u'
    with reference u + u', which puts two classes in the box."""
    rng = random.Random(20111)
    spherical = {h2: [(r, d, a) for r in range(-6, 7) for d in range(-6, 7)
                      for a in range(-6, 7)
                      if oracles.square((r, d, a), h2) == -2]
                 for h2 in (2, 4, 6)}
    cases = multi = 0
    while cases < 60:
        h2 = rng.choice((2, 4, 6))
        u = rng.choice(spherical[h2])
        pair = cases % 6 == 0
        w = (rng.choice(spherical[h2]) if pair
             else tuple(rng.randint(-4, 4) for _ in range(3)))
        point = _point_on_circle(u, w, h2, rng)
        if point is None:
            continue
        s, t2 = point
        if pair:
            u, w = _flip_to_positive_degree(u, s), _flip_to_positive_degree(w, s)
            ref = tuple(x + y for x, y in zip(u, w))
            bound = rng.randint(max(map(abs, u + w)), 6)
        else:
            ref, bound = w, rng.randint(0, 6)
        cases += 1
        p, S = param(s, t2), Surface("k3", h2)
        if oracles.charge(ref, s, t2, h2) == (0, 0):
            with pytest.raises(ZeroCharge):
                find_minus_two_aligned(p, S, bound, mv(*ref))
            continue
        want = oracles.minus_two_box_oracle(s, t2, h2, bound, ref)
        multi += len(want) > 1
        got = find_minus_two_aligned(p, S, bound, mv(*ref))
        assert [x.as_tuple() for x in got] == want
    assert multi >= 1


def _assert_minus_two_answer(p, S, bound, ref, want):
    """find_minus_two_aligned returns the list ``want`` of an oracle, of
    any length."""
    got = find_minus_two_aligned(p, S, bound, mv(*ref))
    assert [x.as_tuple() for x in got] == want


def _matches_box_oracle(s, t2, h2, bound, ref):
    """Check one call against minus_two_box_oracle, or ZeroCharge when
    Z(ref) = 0; returns the oracle's list (None for Z(ref) = 0)."""
    p, S = param(s, t2), Surface("k3", h2)
    if oracles.charge(ref, s, t2, h2) == (0, 0):
        with pytest.raises(ZeroCharge):
            find_minus_two_aligned(p, S, bound, mv(*ref))
        return None
    want = oracles.minus_two_box_oracle(s, t2, h2, bound, ref)
    _assert_minus_two_answer(p, S, bound, ref, want)
    return want


def _rank_quadratic(s, t2, h2, ref, r):
    """(alpha, beta, gamma): alignment with ref at rank r, times 2r and
    halved, as alpha*d^2 + beta*d + gamma = 0."""
    n0, n1, n2 = _aligned_normal(mv(*ref), param(s, t2), Surface("k3", h2))
    return n2 * h2 // 2, n1 * r, n0 * r * r + n2


def _integer_roots(alpha, beta, gamma):
    disc = beta * beta - 4 * alpha * gamma
    return sorted({F(e - beta, 2 * alpha) for e in (-isqrt(disc), isqrt(disc))
                   if (e - beta) % (2 * alpha) == 0})


@pytest.mark.parametrize("s, t2, h2, bound, ref, r, branch", [
    # d_beta(ref) = 0 at s, so d_beta(w) = 0 for every aligned w
    (F(0), F(1), 2, 6, (1, 0, 0), 1, "alpha = 0"),
    (F(1), F(1, 4), 2, 6, (-3, -2, -1), 1, "disc < 0"),
    (F(4, 3), F(1, 3), 2, 6, (0, -2, -2), 1, "square disc, no integer root"),
    # the root d = 0 passes every filter but 2r | h2*d^2 + 2
    (F(-1, 2), F(1, 3), 2, 6, (0, -3, 2), 2, "integer root, a not integral"),
    # both roots of the rank give classes of the box; alpha > 0, then < 0
    (F(3, 2), F(1, 4), 2, 5, (2, 0, 2), -1, "two integer roots"),
    (F(5, 2), F(1, 4), 2, 5, (-3, -2, -3), -1, "two integer roots"),
    (F(1, 2), F(3, 4), 2, 0, (1, 0, 0), 1, "bound 0"),
    # the one class of the box has rank bound, then -bound
    (F(1, 4), F(1, 16), 2, 2, (0, 2, 3), 2, "class at the box's edge"),
    (F(17, 2), F(1, 4), 2, 2, (3, 1, -3), -2, "class at the box's edge"),
])
def test_minus_two_rank_branches_match_box_oracle(s, t2, h2, bound, ref, r,
                                                  branch):
    """One case per branch of the per-rank solve, each named by what its
    quadratic at rank r does, and each equal to the box oracle."""
    alpha, beta, gamma = _rank_quadratic(s, t2, h2, ref, r)
    disc = beta * beta - 4 * alpha * gamma
    want = _matches_box_oracle(s, t2, h2, bound, ref)
    if branch == "alpha = 0":
        assert alpha == 0 and want == []
    elif branch == "disc < 0":
        assert alpha != 0 and disc < 0
    elif branch == "square disc, no integer root":
        assert alpha != 0 and isqrt(disc) ** 2 == disc
        assert _integer_roots(alpha, beta, gamma) == []
    elif branch == "integer root, a not integral":
        assert _integer_roots(alpha, beta, gamma) == [0] and 2 % (2 * r)
        assert want == []
    elif branch == "two integer roots":
        ds = _integer_roots(alpha, beta, gamma)
        assert len(ds) == 2
        assert all((r, d) in [w[:2] for w in want] for d in ds)
    elif branch == "bound 0":
        assert bound == 0 and want == []
    else:
        assert abs(r) == bound and [w[0] for w in want] == [r]


def test_minus_two_per_rank_solve_matches_box_oracle():
    """Seeded differential at bounds up to 12 over h2 in {2, 4, 6}: points
    on the alignment circle of a -2 class u with a random reference, of
    two -2 classes with reference their sum (two or more classes in the
    box), and references with Z = 0 at the point."""
    rng = random.Random(17003)
    spherical = {h2: [(r, d, a) for r in range(-6, 7) for d in range(-6, 7)
                      for a in range(-6, 7)
                      if oracles.square((r, d, a), h2) == -2]
                 for h2 in (2, 4, 6)}
    seen = []
    while len(seen) < 90:
        h2 = rng.choice((2, 4, 6))
        bound = rng.randint(0, 12)
        if len(seen) % 10 == 0:
            ref, s, t2 = _zero_charge_draw(h2, rng)
        else:
            u = rng.choice(spherical[h2])
            pair = len(seen) % 5 == 0
            w = (rng.choice(spherical[h2]) if pair
                 else tuple(rng.randint(-4, 4) for _ in range(3)))
            point = _point_on_circle(u, w, h2, rng)
            if point is None:
                continue
            s, t2 = point
            if pair:
                u = _flip_to_positive_degree(u, s)
                w = _flip_to_positive_degree(w, s)
                ref = tuple(x + y for x, y in zip(u, w))
                bound = rng.randint(max(map(abs, u + w)), 12)
            else:
                ref = w
        want = _matches_box_oracle(s, t2, h2, bound, ref)
        seen.append("zero charge" if want is None else min(len(want), 2))
    assert all(seen.count(k) >= 3 for k in (0, 1, 2, "zero charge")), seen


def test_minus_two_matches_pair_scan_at_large_bounds():
    """Equal to the (r, d) pair scan at bounds 13 to 200 on seeded K3
    points on -2 alignment circles."""
    rng = random.Random(17004)
    spherical = {h2: [(r, d, a) for r in range(-5, 6) for d in range(-5, 6)
                      for a in range(-5, 6)
                      if oracles.square((r, d, a), h2) == -2]
                 for h2 in (2, 4, 6)}
    sizes = []
    while len(sizes) < 50:
        h2 = rng.choice((2, 4, 6))
        u = rng.choice(spherical[h2])
        ref = tuple(rng.randint(-4, 4) for _ in range(3))
        point = _point_on_circle(u, ref, h2, rng)
        if point is None or oracles.charge(ref, *point, h2) == (0, 0):
            continue
        s, t2 = point
        bound = rng.randint(13, 200)
        want = oracles.minus_two_pair_scan_oracle(s, t2, h2, bound, ref)
        _assert_minus_two_answer(param(s, t2), Surface("k3", h2), bound, ref,
                                 want)
        sizes.append(len(want))
    assert 0 in sizes and 1 in sizes and max(sizes) >= 2


def test_minus_two_bound_1117_at_the_golden_point():
    """The largest bound the contract accepts, 4992990 (r, d) pairs."""
    got = find_minus_two_aligned(param(F(1, 2), F(3, 4)), K3, 1117, mv(1, 0, 0))
    assert got == [mv(1, 1, 2)]


# ---------------------------------------------------------------------------
# the A2 pattern

def test_a2_pattern_is_unrepresentable_in_this_lattice():
    """The pattern Gram [[0,1,1],[1,0,1],[1,1,0]] has signature (1,2) but
    the lattice has signature (2,1), so no honest triple matches; the
    detector must agree with the Gram test everywhere — both all-False."""
    iso = [mv(r, d, a)
           for r in range(-5, 6) for d in range(-5, 6) for a in range(-5, 6)
           if (r, d, a) != (0, 0, 0) and 2 * d * d - 2 * r * a == 0]
    pairs = [(x, y) for i, x in enumerate(iso) for y in iso[i + 1:]
             if mukai_pairing(x, y, AB) == 1]
    assert len(pairs) > 20  # pairs are plentiful; triples never close up
    fired = 0
    for x, y in pairs:
        for z in iso:
            if z == x or z == y:
                continue
            parts = [(1, x), (1, y), (1, z)]
            gram_is_a2 = (mukai_pairing(x, z, AB) == 1
                          and mukai_pairing(y, z, AB) == 1)
            assert a2_pattern(parts, AB) == gram_is_a2
            if a2_pattern(parts, AB):
                fired += 1
                assert mukai_square(x + y + z, AB) == 6
    assert fired == 0


def test_a2_pattern_rejects_shape_mismatches():
    x, y = mv(1, -1, 1), mv(-1, 2, -4)     # isotropic, pairing 1
    assert not a2_pattern([(1, x), (1, y)], AB)                 # two parts
    assert not a2_pattern([(2, x), (1, y), (1, x + y)], AB)     # bad mult
    assert not a2_pattern([(1, x), (1, y), (1, mv(0, 1, -3))], AB)  # square 2


# ---------------------------------------------------------------------------
# classify_decomposition

def test_classify_four_or_more():
    parts = [(2, mv(1, -1, 1)), (2, mv(0, 1, -3))]
    rep = classify_decomposition(parts, WALL_P, AB)
    assert rep.verdict == STABLE_PAIR and rep.certified


def test_classify_triple_without_the_pattern():
    parts = [(1, mv(1, -1, 1)), (1, mv(0, 1, -3)), (1, mv(-1, 2, -4))]
    rep = classify_decomposition(parts, WALL_P, AB)
    assert rep.verdict == STABLE_PAIR


def test_classify_rank_two_case():
    # two aligned isotropic classes with pairing one
    x, y = mv(1, -1, 1), mv(-1, 2, -4)
    assert mukai_pairing(x, y, AB) == 1
    rep = classify_decomposition([(1, x), (1, y)], WALL_P, AB)
    assert rep.verdict == EXC_RANK_TWO
    assert set(rep.witnesses) == {x, y}


def test_classify_pair_delegates_to_the_isotropic_search():
    # squares 0 and 2 with pairing 1: not the structural case, but the
    # summed class has an aligned isotropic partner at the wall point
    parts = [(1, mv(1, -1, 1)), (1, mv(0, 1, -3))]
    rep = classify_decomposition(parts, WALL_P, AB)
    assert rep.verdict == EXC_ISOTROPIC
    (w1,) = rep.witnesses
    assert mukai_square(w1, AB) == 0
    assert mukai_pairing(V, w1, AB) == 1


def test_classify_pair_stable_off_wall():
    parts = [(1, mv(4, -2, 1)), (1, mv(-3, 2, -3))]
    assert sum((n * w for n, w in parts), mv(0, 0, 0)) == V
    rep = classify_decomposition(parts, OFF_P, AB)
    assert rep.verdict == STABLE_PAIR and rep.certified


def test_classify_single_part_is_inconclusive():
    rep = classify_decomposition([(1, mv(1, -1, 1))], WALL_P, AB)
    assert rep.verdict == INCONCLUSIVE and not rep.certified
    assert rep.bound is None  # no verdict depends on a box


def test_classify_part_validation():
    with pytest.raises(NotAligned) as err:
        classify_decomposition([(1, mv(1, -1, 1)), (1, mv(1, 0, 0))],
                               WALL_P, AB)
    assert str(err.value) == "rho((1,-1,1), (1,0,0)) = 1 != 0 at s=-3/2, t2=1/4"
    with pytest.raises(NotAligned) as err:
        classify_decomposition([(1, mv(1, -1, 1)), (1, mv(1, -1, 1))],
                               WALL_P, AB)
    assert str(err.value) == "parts must be pairwise distinct classes"
    with pytest.raises(NonIntegral) as err:
        classify_decomposition([(0, mv(1, -1, 1))], WALL_P, AB)
    assert str(err.value) == "multiplicity must be a positive integer, got 0"
    with pytest.raises(NotPrimitive) as err:
        classify_decomposition([(1, mv(2, -2, 2))], WALL_P, AB)
    assert str(err.value) == "part (2,-2,2) has content 2"
    with pytest.raises(NotAligned) as err:
        classify_decomposition([], WALL_P, AB)
    assert str(err.value) == "empty decomposition"
    # the texts of the other checks, in the order the parts are read: a
    # multiplicity that is not an int, a rational part, the zero class,
    # a duplicate after two valid parts and a rho value that is a fraction
    for parts, cls, text in (
            ([(1, mv(1, -1, 1)), (F(1), mv(1, 0, 0))], NonIntegral,
             "multiplicity must be a positive integer, got Fraction(1, 1)"),
            ([(2, mv(F(1, 2), -1, 1))], NonIntegral,
             "part (1/2,-1,1) is not integral"),
            ([(1, mv(F(1, 2), -1, 1)), (1, mv(2, 2, 2))], NonIntegral,
             "part (1/2,-1,1) is not integral"),
            ([(1, mv(0, 0, 0))], NotPrimitive, "part (0,0,0) has content 0"),
            ([(1, mv(3, 0, -6)), (0, mv(1, 0, 0))], NotPrimitive,
             "part (3,0,-6) has content 3"),
            ([(1, mv(1, -1, 1)), (1, mv(0, 1, -3)), (1, mv(1, -1, 1))],
             NotAligned, "parts must be pairwise distinct classes"),
            ([(1, mv(1, -1, 1)), (1, mv(0, 1, -3)), (1, mv(2, -1, 0))],
             NotAligned, "rho((1,-1,1), (2,-1,0)) = 1/2 != 0 at s=-3/2, t2=1/4")):
        with pytest.raises(cls) as err:
            classify_decomposition(parts, WALL_P, AB)
        assert str(err.value) == text


def test_classify_is_permutation_invariant():
    parts = [(1, mv(1, -1, 1)), (1, mv(0, 1, -3))]
    a = classify_decomposition(parts, WALL_P, AB)
    b = classify_decomposition(list(reversed(parts)), WALL_P, AB)
    assert a.verdict == b.verdict
    assert set(a.witnesses) == set(b.witnesses)


# ---------------------------------------------------------------------------
# stable_existence

def test_stable_existence_yes_off_wall():
    rep = stable_existence(V, OFF_P, AB)
    assert rep.verdict == "Yes" and rep.certified


def test_stable_existence_witness_on_wall():
    rep = stable_existence(V, WALL_P, AB)
    assert rep.verdict == "ExceptionalWitness"
    assert mukai_square(rep.witness, AB) == 0
    assert mukai_pairing(V, rep.witness, AB) == 1


def test_stable_existence_preconditions():
    with pytest.raises(NonPositiveSquare) as err:
        stable_existence(mv(1, 0, 0), OFF_P, AB)
    assert str(err.value) == "<v^2> = 0 <= 0 for (1,0,0)"
    with pytest.raises(ZeroDegree) as err:
        stable_existence(V, param(F(1), F(1)), AB)
    assert str(err.value) == "d_beta((1,0,-2)) = -1 <= 0 at s = 1"
    with pytest.raises(NonIntegral) as err:
        stable_existence(mv(F(1, 2), 0, -2), OFF_P, AB)
    assert str(err.value) == "needs an integral v, got (1/2,0,-2)"
    # a negative square, and a twisted degree that is a fraction or zero
    with pytest.raises(NonPositiveSquare) as err:
        stable_existence(mv(1, 0, 3), OFF_P, AB)
    assert str(err.value) == "<v^2> = -6 <= 0 for (1,0,3)"
    with pytest.raises(ZeroDegree) as err:
        stable_existence(mv(3, 1, -2), param(F(1, 2), F(1)), AB)
    assert str(err.value) == "d_beta((3,1,-2)) = -1/2 <= 0 at s = 1/2"
    with pytest.raises(ZeroDegree) as err:
        stable_existence(mv(2, 1, -2), param(F(1, 2), F(1)), AB)
    assert str(err.value) == "d_beta((2,1,-2)) = 0 <= 0 at s = 1/2"


# ---------------------------------------------------------------------------
# pairing lemmas on aligned samples

def _aligned_samples(v, rng_points):
    """Integral classes aligned with v at each point, from a box scan."""
    for s, t2 in rng_points:
        p = param(s, t2)
        buddies = []
        for r in range(-6, 7):
            for d in range(-6, 7):
                for a in range(-6, 7):
                    w = mv(r, d, a)
                    if w.is_zero():
                        continue
                    if reduced_sigma(w, v, p, AB) == 0:
                        buddies.append(w)
        yield p, buddies


POINTS = [(F(-3, 2), F(1, 4)), (F(-1), F(3, 2)), (F(-1, 2), F(1, 2))]


def test_pairing_lemma_nonnegativity_on_aligned_pairs():
    """Aligned semistable-type classes (square >= 0) of positive twisted
    degree pair nonnegatively, and a vanishing pairing forces isotropy
    plus proportionality."""
    for p, buddies in _aligned_samples(V, POINTS):
        positives = [w for w in buddies
                     if d_beta(w, p.s, AB) > 0 and mukai_square(w, AB) >= 0]
        for w1 in positives:
            for w2 in positives:
                pr = mukai_pairing(w1, w2, AB)
                assert pr >= 0
                if pr == 0 and w1 != w2:
                    assert mukai_square(w1, AB) == 0
                    # proportional: all 2x2 minors vanish
                    t1, t2_ = w1.as_tuple(), w2.as_tuple()
                    assert all(t1[i] * t2_[j] - t1[j] * t2_[i] == 0
                               for i in range(3) for j in range(3))


def test_pairing_lemma_degree_propagation():
    """Aligned semistable-type classes with positive pairing: positive
    degree on one side forces it on the other."""
    for p, buddies in _aligned_samples(V, POINTS):
        ok = [w for w in buddies if mukai_square(w, AB) >= 0]
        for w1 in ok:
            if d_beta(w1, p.s, AB) <= 0:
                continue
            for w2 in ok:
                if mukai_pairing(w1, w2, AB) > 0:
                    assert d_beta(w2, p.s, AB) > 0


def test_pairing_lemma_reduction_step():
    """Aligned pairing-one pairs reduce: the smaller square is 0 and
    subtracting (q2/2) copies of w1 from w2 lands on an isotropic class
    of positive degree."""
    for p, buddies in _aligned_samples(V, POINTS):
        ok = [w for w in buddies if mukai_square(w, AB) >= 0]
        for w1 in ok:
            if d_beta(w1, p.s, AB) <= 0:
                continue
            for w2 in ok:
                if mukai_pairing(w1, w2, AB) != 1:
                    continue
                q1, q2 = mukai_square(w1, AB), mukai_square(w2, AB)
                if q1 > q2:
                    continue
                assert q1 == 0
                w = w2 - (q2 / 2) * w1
                assert mukai_square(w, AB) == 0
                assert d_beta(w, p.s, AB) > 0
