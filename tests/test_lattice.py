"""Lattice layer: pairing, twisted invariants, orthogonal complements."""

import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from mukaistab import (
    RHO, FMTransform, MukaiVector, StabilityParam, Surface, TwistedInvariants, ample_class,
    central_charge, d_beta, d_beta_min, exp_vector, fm_apply, fm_inverse, mukai_pairing,
    mukai_square, mv, omega_sx, omega_x, perp_basis, phase_key, rat,
    reduced_sigma, retwist, sheaf_vector, sigma_coefficients, transform_central_charge, twisted_invariants, untwist,
)
from mukaistab.classification import _aligned_normal
from mukaistab.errors import (Degenerate, NonIntegral, NonPositive,
                              OutOfDomain, Zero, ZeroCharge)
from mukaistab.lattice import _kernel_basis_of_functional

AB = Surface("abelian", 2)
K3 = Surface("k3", 2)
SURFACES = [AB, K3, Surface("abelian", 8), Surface("k3", 6)]

ints = st.integers(min_value=-50, max_value=50)
vectors = st.builds(mv, ints, ints, ints)
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
surfaces = st.sampled_from(SURFACES)


def test_pairing_goldens():
    assert mukai_pairing(mv(1, 0, 0), mv(0, 0, 1), AB) == -1
    assert mukai_pairing(mv(0, 1, 0), mv(0, 1, 0), AB) == 2
    assert mukai_square(mv(1, 0, -2), AB) == 4
    assert mukai_square(mv(1, 0, 1), K3) == -2
    assert RHO == mv(0, 0, 1)


def test_rat_refuses_floats():
    assert rat("3/2") == Fraction(3, 2)
    with pytest.raises(TypeError):
        rat(0.5)


def test_value_constructors_refuse_floats():
    """TwistedInvariants and FMTransform coerce their rational fields as
    MukaiVector does: a float is refused at construction with rat's
    TypeError, not deep inside the integer kernels, and ints and 'p/q'
    strings become Fractions."""
    with pytest.raises(TypeError, match="refusing float"):
        retwist(TwistedInvariants(0.5, 1, 2), 0, 1, AB)
    with pytest.raises(TypeError, match="refusing float"):
        transform_central_charge(FMTransform(1, 0.5),
                                 StabilityParam(0, None, 1), AB)
    for fields in ((1, 0.5, 2), (1, 1, 0.5)):
        with pytest.raises(TypeError, match="refusing float"):
            TwistedInvariants(*fields)
    ti, T = TwistedInvariants(1, "3/2", -2), FMTransform(2, "1/2")
    assert ti.as_tuple() == (1, Fraction(3, 2), -2) and T.c == Fraction(1, 2)
    assert all(type(x) is Fraction for x in ti.as_tuple() + (T.c,))


def test_surface_validation():
    with pytest.raises(ValueError):
        Surface("elliptic", 2)
    with pytest.raises(ValueError):
        Surface("abelian", 3)  # odd
    with pytest.raises(ValueError):
        Surface("k3", 0)
    assert AB.epsilon == 0 and K3.epsilon == 1


def test_sheaf_vector_epsilon():
    # structure sheaf: chi = 0 on abelian, chi = 2 on K3
    assert sheaf_vector(1, 0, 0, AB) == mv(1, 0, 0)
    assert sheaf_vector(1, 0, 2, K3) == mv(1, 0, 1)
    assert sheaf_vector(2, -1, 3, K3) == mv(2, -1, 1)


@given(rationals, rationals, rationals, st.integers(-9, 9).filter(bool))
def test_vector_from_ints_matches_the_fraction_constructor(r, d, a, k):
    """MukaiVector._of(k*r', k*d', k*a', k*den) for (r, d, a) = (r', d',
    a')/den is the vector MukaiVector(r, d, a): the same canonical _q
    (den > 0, gcd 1), repr, hash (that of the Fraction triple) and ==."""
    den = lcm(r.denominator, d.denominator, a.denominator)
    num = [k * x.numerator * (den // x.denominator) for x in (r, d, a)]
    v, w = MukaiVector._of(*num, k * den), mv(r, d, a)
    assert v._q == w._q and repr(v) == repr(w) and v == w
    assert hash(v) == hash(w) == hash((r, d, a))
    R, D, A, N = v._q
    assert N > 0 and gcd(R, D, A, N) == 1 and (R, D, A) == (r * N, d * N, a * N)
    assert v.as_tuple() == (r, d, a) and v.is_integral() == (N == 1)


def test_pickles_made_before_the_int_form_load():
    """Protocol-2 bytes of MukaiVector(1/2, -3, -5/7), as pickled when the
    class stored three Fractions: they load to an equal vector, and the
    class still reduces to its Fraction triple."""
    old = (b"\x80\x02cmukaistab.lattice\nMukaiVector\nq\x00cfractions\n"
           b"Fraction\nq\x01K\x01K\x02\x86q\x02Rq\x03h\x01J\xfd\xff\xff\xff"
           b"K\x01\x86q\x04Rq\x05h\x01J\xfb\xff\xff\xffK\x07\x86q\x06Rq"
           b"\x07\x87q\x08Rq\t.")
    v = mv("1/2", -3, "-5/7")
    assert pickle.loads(old) == v and pickle.loads(old)._q == (7, -42, -10, 14)
    assert v.__reduce__() == (MukaiVector, (Fraction(1, 2), -3, Fraction(-5, 7)))


@given(vectors, vectors, surfaces)
def test_pairing_symmetric(x, y, S):
    assert mukai_pairing(x, y, S) == mukai_pairing(y, x, S)


@given(vectors, vectors, vectors, st.integers(-9, 9), surfaces)
def test_pairing_bilinear(x, y, z, k, S):
    assert (mukai_pairing(x + y, z, S)
            == mukai_pairing(x, z, S) + mukai_pairing(y, z, S))
    assert mukai_pairing(k * x, z, S) == k * mukai_pairing(x, z, S)
    assert mukai_pairing(-x, z, S) == -mukai_pairing(x, z, S)


@given(vectors, surfaces)
def test_square_even_on_integral(v, S):
    assert mukai_square(v, S) % 2 == 0


@given(rationals, surfaces)
def test_exp_is_isotropic(s, S):
    assert mukai_square(exp_vector(s, S), S) == 0


@given(vectors, rationals, surfaces)
def test_a_beta_is_minus_pairing_with_exp(v, s, S):
    ti = twisted_invariants(v, s, S)
    assert ti.a_b == -mukai_pairing(v, exp_vector(s, S), S)
    assert ti.r_b == v.r
    assert ti.d_b == d_beta(v, s, S)


@given(vectors, rationals, surfaces)
def test_untwist_inverts_twist(v, s, S):
    assert untwist(twisted_invariants(v, s, S), s, S) == v


@given(vectors, rationals, rationals, surfaces)
def test_retwist_matches_fresh_twist(v, s1, s2, S):
    ti = twisted_invariants(v, s1, S)
    assert retwist(ti, s1, s2, S) == twisted_invariants(v, s2, S)


@given(vectors, vectors, rationals, surfaces)
def test_twisting_is_an_isometry(x, y, s, S):
    tx = mv(*twisted_invariants(x, s, S).as_tuple())
    ty = mv(*twisted_invariants(y, s, S).as_tuple())
    assert mukai_pairing(tx, ty, S) == mukai_pairing(x, y, S)


@pytest.mark.parametrize("s", [Fraction(0), Fraction(1, 2), Fraction(-3, 7),
                               Fraction(5, 3), Fraction(-2)])
def test_d_beta_min_attained(s):
    assert d_beta_min(s, AB) == Fraction(1, s.denominator)
    # the bound is sharp and nothing smaller occurs in a search box
    best = None
    for r in range(-12, 13):
        for d in range(-12, 13):
            db = d - r * s
            if db > 0 and (best is None or db < best):
                best = db
    assert best == d_beta_min(s, AB)


@given(vectors, surfaces)
def test_perp_basis_spans_the_orthogonal_lattice(v, S):
    if v.is_zero():
        return
    b1, b2 = perp_basis(v, S)
    assert b1.is_integral() and b2.is_integral()
    assert mukai_pairing(b1, v, S) == 0
    assert mukai_pairing(b2, v, S) == 0
    # independence: some 2x2 minor of (b1, b2) is nonzero
    t1, t2 = b1.as_tuple(), b2.as_tuple()
    minors = [t1[i] * t2[j] - t1[j] * t2[i]
              for i in range(3) for j in range(i + 1, 3)]
    assert any(m != 0 for m in minors)


@given(vectors, st.integers(-6, 6), st.integers(-6, 6), surfaces)
def test_perp_basis_is_saturated(v, x, y, S):
    """Any integral vector orthogonal to v must be an integer combination
    of the two basis vectors (the sublattice is primitive)."""
    if v.is_zero():
        return
    b1, b2 = perp_basis(v, S)
    w = x * b1 + y * b2
    # re-solve for the coefficients through an invertible pair of coordinates
    t1, t2, tw = b1.as_tuple(), b2.as_tuple(), w.as_tuple()
    for i in range(3):
        for j in range(i + 1, 3):
            det = t1[i] * t2[j] - t1[j] * t2[i]
            if det:
                alpha = Fraction(tw[i] * t2[j] - tw[j] * t2[i], det)
                beta = Fraction(t1[i] * tw[j] - t1[j] * tw[i], det)
                assert alpha == x and beta == y
                return
    raise AssertionError("basis was degenerate")


def test_perp_basis_saturation_against_scan():
    # every orthogonal integral vector in a small box is an integer combo
    for v in (mv(1, 0, -2), mv(2, 1, 0), mv(0, 0, 1), mv(3, -2, 5)):
        b1, b2 = perp_basis(v, AB)
        t1, t2 = b1.as_tuple(), b2.as_tuple()
        dets = [(i, j, t1[i] * t2[j] - t1[j] * t2[i])
                for i in range(3) for j in range(i + 1, 3)]
        i, j, det = next(d for d in dets if d[2] != 0)
        found = 0
        for r in range(-4, 5):
            for d in range(-4, 5):
                for a in range(-4, 5):
                    w = mv(r, d, a)
                    if mukai_pairing(w, v, AB) != 0:
                        continue
                    found += 1
                    tw = w.as_tuple()
                    alpha = Fraction(tw[i] * t2[j] - tw[j] * t2[i], det)
                    beta = Fraction(t1[i] * tw[j] - t1[j] * tw[i], det)
                    assert alpha.denominator == 1 and beta.denominator == 1
                    assert alpha * b1 + beta * b2 == w
        assert found > 0


def _kernel_cross(n):
    b1, b2 = _kernel_basis_of_functional(*n)
    for b in (b1, b2):
        assert n[0] * b[0] + n[1] * b[1] + n[2] * b[2] == 0
    return b1, b2, (b1[1] * b2[2] - b1[2] * b2[1],
                    b1[2] * b2[0] - b1[0] * b2[2],
                    b1[0] * b2[1] - b1[1] * b2[0])


@given(st.tuples(ints, ints, ints).filter(any))
def test_kernel_basis_of_functional_is_saturated(n):
    """Two kernel vectors of a nonzero functional n span the whole
    integral kernel exactly when their cross product is the primitive
    normal n/content(n), up to sign (its content is the index of their
    span).  perp_basis only reaches normals whose middle entry is a
    multiple of h2; this covers every functional, zero and negative
    entries included."""
    g = gcd(*n)
    _, _, c = _kernel_cross(n)
    assert c in (tuple(x // g for x in n), tuple(-x // g for x in n))


@pytest.mark.parametrize("n", [(0, 0, 1), (0, 0, -5), (0, 4, 0), (-3, 0, 0),
                               (0, -6, 9), (4, 0, -6), (6, 10, 15),
                               (-2, -3, 5), (-7, 7, -7)])
def test_kernel_basis_of_functional_against_scan(n):
    """Every kernel vector in the box |x_i| <= 5 is an integer
    combination of the basis (solved through a nonzero minor)."""
    b1, b2, c = _kernel_cross(n)
    i, j = next((i, j) for i, j in ((1, 2), (2, 0), (0, 1))
                if c[3 - i - j] != 0)
    det = b1[i] * b2[j] - b1[j] * b2[i]
    found = 0
    box = range(-5, 6)
    for x in [(x0, x1, x2) for x0 in box for x1 in box for x2 in box]:
        if n[0] * x[0] + n[1] * x[1] + n[2] * x[2]:
            continue
        found += 1
        alpha = Fraction(x[i] * b2[j] - x[j] * b2[i], det)
        beta = Fraction(b1[i] * x[j] - b1[j] * x[i], det)
        assert alpha.denominator == 1 and beta.denominator == 1
        assert tuple(alpha * p + beta * q for p, q in zip(b1, b2)) == x
    assert found > 1


def test_perp_basis_errors():
    with pytest.raises(NonIntegral):
        perp_basis(mv(Fraction(1, 2), 0, 0), AB)
    with pytest.raises(Zero):
        perp_basis(mv(0, 0, 0), AB)


@given(vectors, st.integers(2, 7))
def test_content_scales(v, k):
    if v.is_zero():
        return
    assert (k * v).content() == k * v.content()


def test_kernels_exact_on_rational_input():
    """The integer kernels equal their tuple formulas in oracles.py exactly
    on rational classes (denominators up to 60, as fm_apply images have)
    at rational s, t2 and t with large denominators, and every number they
    return is a Fraction; omega_sx also raises Degenerate and NonPositive
    where its oracle says so.  The vectors built from the twist (e^{sH},
    kernel classes, fm_apply) and v + w, v - w and k*v are checked too."""
    rng = random.Random(20261018)
    pick = random.Random(20261019)  # omega_sx's draws, apart from the rest
    more = random.Random(20261020)  # and the vector-building kernels' draws

    def q(den, lo=-6, hi=6, rng=rng):
        d = rng.randint(1, den)
        return Fraction(rng.randint(lo * d, hi * d), d)

    def exact(got, want):
        assert got == want
        assert all(type(x) is Fraction for x in got)

    for i in range(2000):
        S = SURFACES[i % 4]
        h2 = S.h2
        v, w = mv(q(60), q(60), q(60)), mv(q(60), q(60), q(60))
        s, t2 = q(10 ** 6, -5, 5), q(10 ** 6, 0, 20) or Fraction(1)
        p, pt = StabilityParam(s, t2), StabilityParam(s, None, q(999, 0, 3) or 1)
        vt, wt = v.as_tuple(), w.as_tuple()
        exact((mukai_pairing(v, w, S), mukai_square(v, S)),
              (oracles.pairing(vt, wt, h2), oracles.square(vt, h2)))
        exact(twisted_invariants(v, s, S).as_tuple(), oracles.twisted(vt, s, h2))
        s2 = q(10 ** 6, -5, 5)
        exact(retwist(TwistedInvariants(*oracles.twisted(vt, s2, h2)), s2, s, S)
              .as_tuple(), oracles.twisted(vt, s, h2))
        exact(untwist(twisted_invariants(w, s, S), s, S).as_tuple(), wt)
        exact(untwist(TwistedInvariants(*vt), s, S).as_tuple(),
              oracles.untwist(vt, s, h2))
        re, im = oracles.charge(vt, s, t2, h2)
        z = central_charge(v, p, S)
        exact((z.re, z.im_over_t), (re, im))
        acd = oracles.acd(wt, vt, h2)
        exact(sigma_coefficients(w, v, S), acd)
        exact((reduced_sigma(w, v, p, S),),
              (acd[0] * (t2 + s * s) + acd[1] * s + acd[2],))
        if re or im:
            exact((phase_key(v, p, S).slope,), (-re / im if im else 0,))
        normal = oracles.aligned_normal(vt, s, t2, h2)
        if normal is None:
            with pytest.raises(ZeroCharge):
                _aligned_normal(v, p, S)
        else:
            assert _aligned_normal(v, p, S) == normal
        if v.r != 0 and oracles.twisted(vt, s, h2)[1] != 0:
            rep = ample_class(v, p, S)
            phi, xi1, xi2, xi_omega = oracles.ample(vt, s, t2, h2)
            exact((rep.phi,) + rep.xi1.as_tuple() + rep.xi2.as_tuple()
                  + rep.xi_omega.as_tuple(), (phi,) + xi1 + xi2 + xi_omega)
        x = q(60, 0, 4)
        want = oracles.omega_x(vt, s, x, h2)
        if want is None:
            with pytest.raises(OutOfDomain):
                omega_x(v, s, x, S)
        else:
            exact((omega_x(v, s, x, S),), (want,))
        # absolute x: relative to s, free, or at the pole x r = d
        xa = pick.choice((s + x, q(60, -5, 5, pick), v.d / v.r if v.r else s))
        want = oracles.omega_sx(vt, s, xa, h2)
        if want is None:
            with pytest.raises(Degenerate):
                omega_sx(v, s, xa, S)
        elif want <= 0:
            with pytest.raises(NonPositive):
                omega_sx(v, s, xa, S)
        else:
            exact((omega_sx(v, s, xa, S),), (want,))
        T = FMTransform(rng.choice((-3, -2, -1, 1, 2, 3)), q(6, -3, 3))
        exact(fm_inverse(T, v, S).as_tuple(),
              oracles.untwist((-vt[2] * T.r1, vt[1] * (1 if T.r1 > 0 else -1),
                               -vt[0] / T.r1), T.c, h2))
        tc = transform_central_charge(T, pt, S)
        exact((tc.zeta_re, tc.zeta_im, tc.xi_coeff, tc.eta_coeff),
              oracles.transformed_charge(T.r1, T.c, s, pt.t, h2))
        exact(fm_apply(T, v, S).as_tuple(),
              oracles.fm_map(oracles.twisted(vt, T.c, h2), T.r1))
        c, k = q(60, -3, 3, more), q(60, rng=more)
        exact(exp_vector(c, S).as_tuple(), oracles.exp(c, h2))
        exact(FMTransform(T.r1, c).kernel_class(S).as_tuple(),
              oracles.scale(T.r1, oracles.exp(c, h2)))
        exact((v + w).as_tuple() + (v - w).as_tuple() + (k * v).as_tuple(),
              oracles.add(vt, wt) + oracles.add(vt, oracles.scale(-1, wt))
              + oracles.scale(k, vt))
