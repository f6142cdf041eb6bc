"""Orthogonal pair, ample direction, and the two omega constructors."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mukaistab import (
    Surface, ample_class, central_charge, d_beta, mukai_pairing, mv, omega_sx,
    omega_x, param, reduced_sigma, twisted_invariants,
)
from mukaistab.errors import OutOfDomain, ZeroDegree, ZeroRank

AB = Surface("abelian", 2)
F = Fraction
V = mv(1, 0, -2)

ints = st.integers(min_value=-12, max_value=12)
vectors = st.builds(mv, ints, ints, ints)
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)
pos_rationals = st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8)


T2S = (F(1, 4), F(1), F(3))  # xi1 and xi2 do not depend on t^2


def test_xi_pair_golden():
    """The pair (xi1, xi2) of ample_class at s = -1, at each t^2."""
    for t2 in T2S:
        rep = ample_class(V, param(F(-1), t2), AB)
        assert rep.xi1 == mv(0, 1, 0)
        assert rep.xi2 == mv(-1, 1, -2)


@given(vectors, rationals)
def test_xi_pair_is_orthogonal_to_v(v, s):
    """ample_class's xi1 and xi2 pair to zero with v, and are the same
    at every t^2."""
    if v.r == 0:
        with pytest.raises(ZeroRank):
            ample_class(v, param(s, 1), AB)
        return
    if d_beta(v, s, AB) == 0:
        with pytest.raises(ZeroDegree):
            ample_class(v, param(s, 1), AB)
        return
    pairs = {(rep.xi1, rep.xi2)
             for rep in (ample_class(v, param(s, t2), AB) for t2 in T2S)}
    assert len(pairs) == 1
    (xi1, xi2), = pairs
    assert mukai_pairing(xi1, v, AB) == 0
    assert mukai_pairing(xi2, v, AB) == 0
    # independence inside the rank-2 orthogonal complement
    assert xi1.r == 0 and xi2.r != 0


def test_ample_class_golden():
    # phi = t^2 + 1 and xi_omega = (-2, t^2 + 3, -4) along s = -1
    for t2 in (F(3, 2), F(1), F(7, 3)):
        rep = ample_class(V, param(F(-1), t2), AB)
        assert rep.phi == t2 + 1
        assert rep.xi_omega == mv(-2, t2 + 3, -4)
        assert mukai_pairing(V, rep.xi_omega, AB) == 0
    rep = ample_class(V, param(F(-1), F(3, 2)), AB)
    assert rep.xi1 == mv(0, 1, 0) and rep.xi2 == mv(-1, 1, -2)
    assert rep.phi == F(5, 2)


def test_ample_class_errors():
    with pytest.raises(ZeroRank):
        ample_class(mv(0, 1, 0), param(F(-1), F(1)), AB)
    with pytest.raises(ZeroDegree):
        ample_class(V, param(F(0), F(1)), AB)  # d_beta(v) = 0 at s = 0


@given(st.sampled_from([mv(1, 0, -2), mv(1, -1, 1), mv(2, 1, -1), mv(3, -2, 0)]),
       rationals, pos_rationals)
def test_ample_class_annihilates_the_aligned_plane(v, s, t2):
    """<v2, xi_omega> = 0 for every class whose charge is parallel to v."""
    if v.r == 0 or d_beta(v, s, AB) == 0:
        return
    p = param(s, t2)
    rep = ample_class(v, p, AB)
    hits = 0
    for r in range(-3, 4):
        for d in range(-3, 4):
            for a in range(-3, 4):
                w = mv(r, d, a)
                if reduced_sigma(w, v, p, AB) == 0:
                    hits += 1
                    assert mukai_pairing(w, rep.xi_omega, AB) == 0
    assert hits >= 3  # v itself, its negative, zero, ...


@given(pos_rationals, pos_rationals)
def test_ample_class_injective_in_t2(t2a, t2b):
    if t2a == t2b:
        return
    ra = ample_class(V, param(F(-1), t2a), AB)
    rb = ample_class(V, param(F(-1), t2b), AB)
    assert ra.xi_omega != rb.xi_omega


def test_omega_x_golden():
    assert omega_x(V, F(-1), F(1, 2), AB) == F(3, 2)
    # the resulting point is aligned with the rank-4 kernel class
    p = param(F(-1), F(3, 2))
    assert reduced_sigma(mv(4, -2, 1), V, p, AB) == 0


def test_omega_x_domain_errors():
    with pytest.raises(OutOfDomain):
        omega_x(V, F(-1), F(1), AB)       # right endpoint d_b/r_b
    with pytest.raises(OutOfDomain):
        omega_x(V, F(-1), F(-1, 4), AB)   # below the left endpoint
    with pytest.raises(OutOfDomain):
        omega_x(V, F(-1), F(0), AB)       # left endpoint itself
    with pytest.raises(OutOfDomain):
        omega_x(mv(1, 0, 2), F(-1), F(1, 2), AB)  # twisted degree <= 0


@given(st.fractions(min_value=F(1, 16), max_value=F(15, 16), max_denominator=16))
def test_omega_x_positive_on_the_open_domain(x):
    t2 = omega_x(V, F(-1), x, AB)
    assert t2 > 0


def test_omega_sx_golden_alignment_at_each_base_point():
    """One absolute x, three base twists: the t^2 values differ but each
    resulting point is aligned with the same rank-4 class."""
    w1 = mv(4, -2, 1)
    expected = {F(-1): F(3, 2), F(-3, 2): F(5, 2), F(-2): F(3)}
    for s, t2 in expected.items():
        got = omega_sx(V, s, F(-1, 2), AB)
        assert got == t2
        assert reduced_sigma(w1, V, param(s, got), AB) == 0


def test_omega_sx_errors():
    """The pole and t^2 <= 0 are both OutOfDomain, told apart by the
    detail."""
    with pytest.raises(OutOfDomain, match=r"^pole at x = 0 \(x rk = degree\)$"):
        omega_sx(V, F(-1), F(0), AB)      # x r = d at the untwisted origin
    with pytest.raises(OutOfDomain, match=r"^t\^2 = 0 <= 0 at x = -2$"):
        omega_sx(V, F(-1), F(-2), AB)
    with pytest.raises(OutOfDomain, match=r"^t\^2 = -6 <= 0 at x = 2$"):
        omega_sx(V, F(-1), F(2), AB)


@given(st.sampled_from([mv(1, 0, -2), mv(1, -1, 1), mv(2, 1, -2), mv(1, 2, 0)]),
       rationals,
       st.fractions(min_value=F(1, 12), max_value=2, max_denominator=12))
def test_omega_sx_is_omega_x_in_shifted_coordinates(v, s, x_rel):
    try:
        t2_rel = omega_x(v, s, x_rel, AB)
    except OutOfDomain:
        return
    assert omega_sx(v, s, s + x_rel, AB) == t2_rel


@given(rationals, st.fractions(min_value=F(1, 12), max_value=F(11, 12),
                               max_denominator=12))
def test_omega_x_point_is_aligned_with_its_defining_class(s, x):
    """The construction solves for the t^2 making (s, t) sit on the wall
    between v and the sheaf-like class concentrated at x; cross-check by
    alignment with an explicit class built from the twisted data."""
    v = V
    try:
        t2 = omega_x(v, s, x, AB)
    except OutOfDomain:
        return
    # the charge of v at (s, t2) must be real-proportional to the charge
    # of the isotropic exp class at s + x, which pins t^2
    from mukaistab import exp_vector
    e = exp_vector(s + x, AB)
    assert reduced_sigma(e, v, param(s, t2), AB) == 0
