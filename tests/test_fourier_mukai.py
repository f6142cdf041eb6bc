"""Lattice-level transforms: isometry, involution, charge matching."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mukaistab import (
    RHO, FMTransform, Surface, central_charge, dual, exp_vector, fm_apply,
    fm_inverse, l_divisor, make_transform, mukai_pairing, mv, param,
    transform_central_charge, twisted_invariants,
)
from mukaistab.errors import NonIntegral, NotPrimitive, OutOfDomain

AB = Surface("abelian", 2)
K3 = Surface("k3", 2)
F = Fraction

# all transforms with small rank and small denominator that admit an
# integral primitive kernel; collected once, deterministically
TRANSFORMS = []
for _r1 in [x for x in range(-6, 7) if x]:
    for _den in (1, 2, 3, 4):
        for _num in range(-8, 9):
            try:
                TRANSFORMS.append(make_transform(_r1, F(_num, _den), AB))
            except (NonIntegral, NotPrimitive):
                pass
TRANSFORMS = sorted(set(TRANSFORMS), key=lambda T: (T.r1, T.c))

ints = st.integers(min_value=-20, max_value=20)
vectors = st.builds(mv, ints, ints, ints)
transforms = st.sampled_from(TRANSFORMS)
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)
pos_rationals = st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8)


def test_make_transform_golden_kernels():
    assert make_transform(1, F(0), AB).kernel_class(AB) == mv(1, 0, 0)
    assert make_transform(4, F(-1, 2), AB).kernel_class(AB) == mv(4, -2, 1)
    assert make_transform(-1, F(2), AB).kernel_class(AB) == mv(-1, -2, -4)


def test_make_transform_errors():
    with pytest.raises(NonIntegral):
        make_transform(0, F(0), AB)
    with pytest.raises(NonIntegral):
        make_transform(F(1, 2), F(0), AB)
    with pytest.raises(NonIntegral):
        make_transform(2, F(1, 2), AB)   # kernel (2,1,1/2)
    with pytest.raises(NotPrimitive):
        make_transform(2, F(0), AB)      # kernel (2,0,0)


@pytest.mark.parametrize("r1", [0, 1.0])
def test_fm_transform_rejects_r1_that_is_not_a_nonzero_int(r1):
    # checked on construction, so fm_apply and fm_inverse never divide by 0
    with pytest.raises(NonIntegral,
                       match=f"^r1 must be a nonzero integer, got {r1!r}$"):
        FMTransform(r1, 0)


def test_kernel_is_isotropic_and_primitive():
    for T in TRANSFORMS:
        w = T.kernel_class(AB)
        assert w.is_integral() and w.is_primitive()
        assert mukai_pairing(w, w, AB) == 0


def test_fm_apply_basis_goldens():
    T = make_transform(1, F(0), AB)
    assert fm_apply(T, mv(1, 0, 0), AB) == mv(0, 0, -1)
    assert fm_apply(T, RHO, AB) == mv(-1, 0, 0)
    assert fm_apply(T, mv(1, 0, -2), AB) == mv(2, 0, -1)


def test_fm_apply_fractional_twist_golden():
    T = make_transform(4, F(-1, 2), AB)
    assert fm_apply(T, mv(1, 0, -2), AB) == mv(7, F(1, 2), F(-1, 4))


@given(transforms)
def test_fm_basis_images(T):
    """e^{cH} goes to -rho/r1 and rho goes to -r1 (up to the flat twist
    on the target side)."""
    assert fm_apply(T, exp_vector(T.c, AB), AB) == F(-1, T.r1) * RHO
    assert fm_apply(T, RHO, AB) == mv(-T.r1, 0, 0)


@given(transforms, vectors, vectors)
def test_fm_is_an_isometry(T, x, y):
    assert (mukai_pairing(fm_apply(T, x, AB), fm_apply(T, y, AB), AB)
            == mukai_pairing(x, y, AB))


@given(transforms, vectors)
def test_fm_inverse_round_trip(T, v):
    assert fm_inverse(T, fm_apply(T, v, AB), AB) == v
    assert fm_apply(T, fm_inverse(T, v, AB), AB) == v


@given(vectors, vectors)
def test_dual_is_an_isometry_and_involution(x, y):
    assert dual(dual(x)) == x
    assert mukai_pairing(dual(x), dual(y), AB) == mukai_pairing(x, y, AB)
    assert dual(x).d == -x.d and dual(x).r == x.r and dual(x).a == x.a


def test_l_divisor():
    assert l_divisor(F(1), F(1)) == 1
    assert l_divisor(F(1, 2), F(3, 2)) == F(7, 8)
    assert l_divisor(F(0), F(2)) == 1


@pytest.mark.parametrize("lam, t2", [(2, -1), (F(1, 2), 0), (0, 0), (3, -8)])
def test_l_divisor_needs_positive_t2(lam, t2):
    """The check is on t^2 itself: lambda^2 does not make up for t^2 <= 0
    (l_divisor(2, -1) once returned 3/2)."""
    with pytest.raises(OutOfDomain, match=r"^l_divisor needs t\^2 > 0$"):
        l_divisor(lam, t2)


def test_transform_central_charge_golden():
    # r1 = 1, lambda = c - s = 1, t = 1: zeta = 2i, xi = eta = 1/2
    T = make_transform(1, F(1), AB)
    tc = transform_central_charge(T, param(F(0), t=F(1)), AB)
    assert (tc.zeta_re, tc.zeta_im) == (0, 2)
    assert tc.xi_coeff == F(1, 2) and tc.eta_coeff == F(1, 2)


def test_transform_central_charge_needs_rational_t():
    T = make_transform(1, F(1), AB)
    with pytest.raises(OutOfDomain):
        transform_central_charge(T, param(F(0), t2=F(3, 2)), AB)


@given(transforms, st.fractions(min_value=-3, max_value=3, max_denominator=6),
       st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6))
def test_remark_identity(T, s, t):
    """|r1| * (L, xi) = lambda, pairing the slope divisor with the image
    parameter on the target surface."""
    p = param(s, t=t)
    lam = T.c - s
    tc = transform_central_charge(T, p, AB)
    ldiv = l_divisor(lam, p.t2)
    assert abs(T.r1) * ldiv * tc.xi_coeff * 2 == lam


@given(transforms, vectors,
       st.fractions(min_value=-3, max_value=3, max_denominator=6),
       st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6))
def test_diagram_identity(T, v, s, t):
    """Z at the transported parameter of the transformed vector equals
    zeta^{-1} times the original charge, as exact complex rationals."""
    p = param(s, t=t)
    tc = transform_central_charge(T, p, AB)
    zeta = (tc.zeta_re, tc.zeta_im)
    assert zeta != (0, 0)
    z = central_charge(v, p, AB)
    z_num = (z.re, z.im_at(t))
    # zeta^{-1} * z over Q(i)
    nrm = zeta[0] ** 2 + zeta[1] ** 2
    want = (F(zeta[0] * z_num[0] + zeta[1] * z_num[1], 1) / nrm,
            F(zeta[0] * z_num[1] - zeta[1] * z_num[0], 1) / nrm)
    q = param(tc.xi_coeff, t=tc.eta_coeff)
    w = central_charge(fm_apply(T, v, AB), q, AB)
    assert (w.re, w.im_at(tc.eta_coeff)) == want


@given(transforms, st.fractions(min_value=-3, max_value=3, max_denominator=6),
       st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6))
def test_transported_parameter_stays_in_the_half_plane(T, s, t):
    tc = transform_central_charge(T, param(s, t=t), AB)
    assert tc.eta_coeff > 0


@given(transforms, vectors)
def test_fm_respects_the_twisted_coordinates(T, v):
    """The transform in coordinates: twist at c, apply the matrix, read
    off at the target origin."""
    ti = twisted_invariants(v, T.c, AB)
    image = fm_apply(T, v, AB)
    sgn = 1 if T.r1 > 0 else -1
    assert image.r == -T.r1 * ti.a
    assert image.d == sgn * ti.d
    assert image.a == F(-1, T.r1) * ti.r
