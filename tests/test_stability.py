"""Central charges, the reduced pairing determinant rho, phase ordering."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mukaistab import (
    RHO, Surface, central_charge, mukai_pairing, mv, param, phase_key,
    reduced_sigma, sigma_coefficients,
)
from mukaistab.errors import OutOfDomain, ZeroCharge

AB = Surface("abelian", 2)
K3 = Surface("k3", 2)

ints = st.integers(min_value=-30, max_value=30)
vectors = st.builds(mv, ints, ints, ints)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=10)
pos_rationals = st.fractions(min_value=Fraction(1, 10), max_value=5,
                             max_denominator=10)


def test_param_validation():
    p = param(Fraction(-3, 2), t=Fraction(1, 2))
    assert p.t2 == Fraction(1, 4) and p.require_t() == Fraction(1, 2)
    with pytest.raises(ValueError):
        param(0, t2=0)
    with pytest.raises(ValueError):
        param(0, t=Fraction(-1))
    with pytest.raises(ValueError):
        param(0, t2=Fraction(2), t=Fraction(1))  # inconsistent
    with pytest.raises(OutOfDomain):
        param(0, t2=Fraction(2)).require_t()  # sqrt(2) is not rational


def test_charge_goldens():
    # Z(rho) = -1 everywhere
    for s, t2 in ((Fraction(0), Fraction(1)), (Fraction(-3, 2), Fraction(1, 4))):
        z = central_charge(RHO, param(s, t2), AB)
        assert z.re == -1 and z.im_over_t == 0
    # H-part contributes pure imaginary at s=0
    z = central_charge(mv(0, 1, 0), param(Fraction(0), Fraction(1)), AB)
    assert z.re == 0 and z.im_over_t == 2
    assert z.im_at(Fraction(3)) == 6


@given(vectors, vectors, st.integers(-9, 9), rationals, pos_rationals)
def test_charge_is_additive(x, y, k, s, t2):
    p = param(s, t2)
    zx = central_charge(x, p, AB)
    zy = central_charge(y, p, AB)
    zs = central_charge(x + k * y, p, AB)
    assert zs.re == zx.re + k * zy.re
    assert zs.im_over_t == zx.im_over_t + k * zy.im_over_t


@given(vectors, rationals, pos_rationals)
def test_charge_is_pairing_with_exponential(v, s, t):
    """Re and Im of <e^{s + it}, v> against the explicit expansion:
    e^{(s+it)H} = (1, s+it, (s+it)^2 h2/2) componentwise."""
    p = param(s, t=t)
    z = central_charge(v, p, AB)
    h2 = 2
    # -<e^{sH + i tH}, v> expanded by hand over Q(i)
    re_exp = h2 * s * v.d - v.a - (s * s - t * t) * Fraction(h2, 2) * v.r
    im_exp = h2 * t * v.d - 2 * s * t * Fraction(h2, 2) * v.r
    assert z.re == re_exp
    assert z.im_at(t) == im_exp


def test_sigma_coefficients_golden():
    A, C, D = sigma_coefficients(mv(1, -1, 1), mv(1, 0, -2), AB)
    assert (A, C, D) == (1, 3, 2)
    p = param(Fraction(-3, 2), Fraction(1, 4))
    assert reduced_sigma(mv(1, -1, 1), mv(1, 0, -2), p, AB) == 0


@given(vectors, vectors, rationals, pos_rationals)
def test_reduced_sigma_closed_form(v1, v, s, t2):
    A, C, D = sigma_coefficients(v1, v, AB)
    p = param(s, t2)
    assert reduced_sigma(v1, v, p, AB) == A * (t2 + s * s) + C * s + D


@given(vectors, vectors, rationals, pos_rationals)
def test_reduced_sigma_is_the_charge_determinant(v1, v, s, t):
    """t * h2 * rho = Re Z(v1) Im Z(v) - Im Z(v1) Re Z(v), with rational t."""
    p = param(s, t=t)
    z1 = central_charge(v1, p, AB)
    z = central_charge(v, p, AB)
    det = z1.re * z.im_at(t) - z1.im_at(t) * z.re
    assert t * 2 * reduced_sigma(v1, v, p, AB) == det


@given(vectors, vectors, rationals, pos_rationals)
def test_reduced_sigma_antisymmetric(v1, v, s, t2):
    p = param(s, t2)
    assert reduced_sigma(v1, v, p, AB) == -reduced_sigma(v, v1, p, AB)
    assert reduced_sigma(v, v, p, AB) == 0


def test_parallel_transitivity():
    """All classes aligned with v at a fixed point are mutually aligned."""
    v = mv(1, 0, -2)
    p = param(Fraction(-3, 2), Fraction(1, 4))
    aligned = []
    for r in range(-3, 4):
        for d in range(-3, 4):
            for a in range(-3, 4):
                w = mv(r, d, a)
                if reduced_sigma(w, v, p, AB) == 0:
                    aligned.append(w)
    assert len(aligned) > 2
    for w1 in aligned:
        for w2 in aligned:
            assert reduced_sigma(w1, w2, p, AB) == 0


def test_phase_key_band_ordering():
    """Phases increase: upper half-plane, negative reals, lower half-plane,
    positive reals (one full revolution, never reached from below)."""
    p = param(Fraction(0), Fraction(1))
    up = phase_key(mv(0, 1, 0), p, AB)
    neg = phase_key(RHO, p, AB)
    low = phase_key(mv(0, -1, 0), p, AB)
    pos = phase_key(-1 * RHO, p, AB)
    assert up < neg < low < pos
    assert up.revolution == 0 and neg.revolution == 0
    assert low.revolution == 1 and pos.revolution == 1


def test_phase_key_slope_ordering_within_upper_band():
    # Z = 1 + it has smaller phase than Z = it, which is smaller than -1 + it
    p = param(Fraction(0), Fraction(1))
    small = phase_key(mv(0, 1, -1), p, AB)  # Z = 1 + it
    mid = phase_key(mv(0, 1, 0), p, AB)     # Z = it
    large = phase_key(mv(0, 1, 1), p, AB)   # Z = -1 + it
    assert small < mid < large
    assert small.band == mid.band == large.band == 0


def test_phase_key_zero_charge():
    with pytest.raises(ZeroCharge):
        phase_key(mv(0, 0, 0), param(Fraction(0), Fraction(1)), AB)


@given(vectors, st.integers(1, 8), rationals, pos_rationals)
def test_phase_key_scale_invariant(v, k, s, t2):
    """Positive rescaling never moves the phase."""
    p = param(s, t2)
    z = central_charge(v, p, AB)
    if z.is_zero():
        return
    assert phase_key(k * v, p, AB) == phase_key(v, p, AB)


@given(vectors, vectors, rationals, pos_rationals)
def test_epsilon_shifts_charge_real_part_only(v1, v, s, t2):
    """K3 vs abelian: sigma coefficients use only the vector entries, so the
    two kinds agree when fed the same numbers."""
    p = param(s, t2)
    assert sigma_coefficients(v1, v, AB) == sigma_coefficients(v1, v, K3)
    assert reduced_sigma(v1, v, p, AB) == reduced_sigma(v1, v, p, K3)
