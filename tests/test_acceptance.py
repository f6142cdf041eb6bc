"""Acceptance gate: twelve exact, zero-tolerance checks.

Each test is one criterion and prints one pass/fail line under
``pytest -v``.  Randomized criteria use pinned ``random.Random`` seeds so
every run exercises the same cases; all comparisons are exact rational
arithmetic (no tolerances anywhere).  The whole gate runs in well under
a minute.

Independent reference values come from tests/oracles.py, which shares no
code with the library: plain tuple arithmetic, brute-force box scans and
interval algebra only.
"""

import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import oracles
from mukaistab import (
    RHO, Region, Surface, ample_class, central_charge, d_beta, enumerate_walls,
    exp_vector, fm_apply, is_wall_vector, l_divisor, make_transform,
    mukai_pairing, mukai_square, mv, omega_sx, omega_x, param, reduced_sigma,
    transform_central_charge, twisted_invariants, wall_locus,
    category_walls_k3, find_isotropic_pairing_one,
)
from mukaistab.errors import NonIntegral, NotPrimitive, ZeroCharge

F = Fraction
AB = Surface("abelian", 2)
K3 = Surface("k3", 2)
SEED = 202608
ROOT = pathlib.Path(__file__).resolve().parent.parent

SURFACES = [Surface("abelian", 2), Surface("abelian", 4), Surface("k3", 2),
            Surface("k3", 6)]


def rand_vec(rng, bound):
    return mv(rng.randint(-bound, bound), rng.randint(-bound, bound),
              rng.randint(-bound, bound))


def rand_rat(rng, lo, hi, max_den):
    den = rng.randint(1, max_den)
    return F(rng.randint(lo * den, hi * den), den)


# all transforms with small rank and small denominator that admit an
# integral primitive kernel, in a deterministic order
TRANSFORMS = []
for _r1 in [x for x in range(-6, 7) if x]:
    for _den in (1, 2, 3, 4):
        for _num in range(-8, 9):
            try:
                TRANSFORMS.append(make_transform(_r1, F(_num, _den), AB))
            except (NonIntegral, NotPrimitive):
                pass
TRANSFORMS = sorted(set(TRANSFORMS), key=lambda T: (T.r1, T.c))


def test_criterion_01_pairing_and_twist_identities():
    """1000 randomized exact checks: pairing symmetry, bilinearity,
    a_beta = -<v, e^beta>, and re-twisting consistency."""
    rng = random.Random(SEED + 1)
    for _ in range(1000):
        S = rng.choice(SURFACES)
        x, y, z = (rand_vec(rng, 30) for _ in range(3))
        k = rng.randint(-5, 5)
        s1 = rand_rat(rng, -4, 4, 6)
        s2 = rand_rat(rng, -4, 4, 6)
        assert mukai_pairing(x, y, S) == mukai_pairing(y, x, S)
        assert (mukai_pairing(x + k * y, z, S)
                == mukai_pairing(x, z, S) + k * mukai_pairing(y, z, S))
        ti = twisted_invariants(x, s1, S)
        assert ti.a == -mukai_pairing(x, exp_vector(s1, S), S)
        # moving the base twist in one step or via a fresh twist agree
        assert twisted_invariants(ti, s2 - s1, S) == twisted_invariants(x, s2, S)


def test_criterion_02_reduced_sigma_closed_form():
    """rho(v1, v) = A(t^2+s^2) + Cs + D equals the charge determinant
    divided by t*h2 on 1000 random inputs."""
    rng = random.Random(SEED + 2)
    for _ in range(1000):
        S = rng.choice(SURFACES)
        v1, v = rand_vec(rng, 25), rand_vec(rng, 25)
        s = rand_rat(rng, -4, 4, 8)
        t = rand_rat(rng, 0, 3, 8) + F(1, 9)
        p = param(s, t=t)
        z1, z = central_charge(v1, p, S), central_charge(v, p, S)
        det = z1.re * z.im_at(t) - z1.im_at(t) * z.re
        assert det == t * S.h2 * reduced_sigma(v1, v, p, S)


def test_criterion_03_golden_wall_and_box_oracle():
    """v = (1,0,-2), v1 = e^{-H} on the abelian surface with h2 = 2 cut
    the circle (center -3/2, radius^2 1/4); enumerate_walls over
    s in [-3,0], t^2 in (1/100, 4] equals the |entries| <= 50 box scan."""
    v = mv(1, 0, -2)
    w = wall_locus(exp_vector(F(-1), AB), v, AB)
    assert (w.geometry.center_s, w.geometry.radius_sq) == (F(-3, 2), F(1, 4))
    reg = Region(F(-3), F(0), F(1, 100), F(4))
    got = {wl.acd_key(): (wl.geometry.center_s, wl.geometry.radius_sq)
           for wl in enumerate_walls(v, AB, reg)}
    want = oracles.wall_set_box_oracle((1, 0, -2), 2,
                                       (F(-3), F(0), F(1, 100), F(4)), 50)
    assert got == want
    assert got[(1, 3, 2)] == (F(-3, 2), F(1, 4))  # the golden circle


def test_criterion_04_wall_criterion_iff_exhaustive():
    """is_wall_vector agrees with the point-existence oracle for every
    integral v1 with |entries| <= 12 against the three fixed targets of
    square 2, 4 and 6 (squares >= 0 as standing hypotheses)."""
    targets = [(1, 0, -1), (1, 0, -2), (1, 0, -3)]
    assert [oracles.square(v, 2) for v in targets] == [2, 4, 6]
    rng12 = range(-12, 13)
    checked = walls_found = 0
    for v in targets:
        V = mv(*v)
        for r1 in rng12:
            for d1 in rng12:
                for a1 in rng12:
                    v1 = (r1, d1, a1)
                    v2 = (v[0] - r1, v[1] - d1, v[2] - a1)
                    if oracles.square(v1, 2) >= 0 and oracles.square(v2, 2) >= 0:
                        expect = oracles.wall_point_oracle(v1, v, 2)[0]
                    else:
                        expect = False
                    assert bool(is_wall_vector(mv(*v1), V, AB)) == expect
                    checked += 1
                    walls_found += expect
    assert checked == 3 * 25 ** 3
    assert walls_found > 0  # the agreement is not vacuous


def test_criterion_05_positivity_of_twisted_degrees():
    """500 aligned non-proportional pairs of square >= 0 classes satisfy
    d1 d2 <v1,v2> > 0 or d1 = d2 = 0 (twisted degrees at the alignment
    point).  Zero violations."""
    rng = random.Random(SEED + 5)
    points = [(F(-3, 2), F(1, 4)), (F(-1), F(3, 2)), (F(-1, 2), F(1, 2)),
              (F(1, 3), F(2, 9)), (F(0), F(1))]
    pairs = []
    for s, t2 in points:
        p = param(s, t2)
        groups = {}
        for r in range(-6, 7):
            for d in range(-6, 7):
                for a in range(-6, 7):
                    w = mv(r, d, a)
                    if w.is_zero() or mukai_square(w, AB) < 0:
                        continue
                    z = central_charge(w, p, AB)
                    # group by the projective direction of the charge:
                    # same key <=> R-linearly dependent charges
                    key = (("i", z.re / z.im_over_t) if z.im_over_t != 0
                           else ("r",))
                    groups.setdefault(key, []).append(w)
        for grp in groups.values():
            for i in range(len(grp)):
                for j in range(i + 1, len(grp)):
                    pairs.append((p, grp[i], grp[j]))
    checked = 0
    for p, w1, w2 in rng.sample(pairs, 700):
        t1, t2_ = w1.as_tuple(), w2.as_tuple()
        if all(t1[i] * t2_[j] - t1[j] * t2_[i] == 0
               for i in range(3) for j in range(3)):
            continue  # proportional pair: degenerate alignment
        assert reduced_sigma(w1, w2, p, AB) == 0
        d1, d2 = d_beta(w1, p.s, AB), d_beta(w2, p.s, AB)
        assert d1 * d2 * mukai_pairing(w1, w2, AB) > 0 or d1 == d2 == 0
        checked += 1
        if checked == 500:
            break
    assert checked == 500


def test_criterion_06_transform_isometry_and_basis_images():
    """1000 randomized <Phi x, Phi y> = <x, y> checks, plus the basis
    images Phi(e^gamma) = -rho/r1 and Phi(rho) = -r1 e^{gamma'} for 20
    transforms (the target-side twist gamma' is 0 in these coordinates)."""
    rng = random.Random(SEED + 6)
    assert len(TRANSFORMS) >= 20
    for _ in range(1000):
        T = rng.choice(TRANSFORMS)
        x, y = rand_vec(rng, 20), rand_vec(rng, 20)
        assert (mukai_pairing(fm_apply(T, x, AB), fm_apply(T, y, AB), AB)
                == mukai_pairing(x, y, AB))
    for T in TRANSFORMS[:20]:
        assert fm_apply(T, exp_vector(T.c, AB), AB) == -F(1, T.r1) * RHO
        assert fm_apply(T, RHO, AB) == -T.r1 * exp_vector(F(0), AB)


def test_criterion_07_transform_diagram_and_remark_identity():
    """200 random (T, v, p): the transported charge satisfies
    Z'(Phi v) = zeta^{-1} Z(v) exactly; |r1| (L, xi) = lambda; and the
    golden case r1 = 1, lambda = 1, t = 1 gives zeta = 2i, xi = eta = 1/2."""
    rng = random.Random(SEED + 7)
    for _ in range(200):
        T = rng.choice(TRANSFORMS)
        v = rand_vec(rng, 12)
        s = rand_rat(rng, -3, 3, 6)
        t = rand_rat(rng, 0, 3, 6) + F(1, 7)
        p = param(s, t=t)
        tc = transform_central_charge(T, p, AB)
        lam = T.c - s
        assert abs(T.r1) * l_divisor(lam, p.t2) * tc.xi_coeff * AB.h2 == lam
        zeta = (tc.zeta_re, tc.zeta_im)
        assert zeta != (0, 0)
        z = central_charge(v, p, AB)
        nrm = zeta[0] ** 2 + zeta[1] ** 2
        want = ((zeta[0] * z.re + zeta[1] * z.im_at(t)) / nrm,
                (zeta[0] * z.im_at(t) - zeta[1] * z.re) / nrm)
        q = param(tc.xi_coeff, t=tc.eta_coeff)
        w = central_charge(fm_apply(T, v, AB), q, AB)
        assert (w.re, w.im_at(tc.eta_coeff)) == want
    tc = transform_central_charge(make_transform(1, F(1), AB), param(F(0), t=F(1)), AB)
    assert (tc.zeta_re, tc.zeta_im, tc.xi_coeff, tc.eta_coeff) == (0, 2, F(1, 2), F(1, 2))


def test_criterion_08_ample_class_annihilates_aligned_classes():
    """Golden case v = (1,0,-2), s = -1: phi = t^2 + 1 and
    xi_omega = (-2, t^2+3, -4) with <v, xi_omega> = 0; 200 sampled
    wall-aligned classes pair to zero with xi_omega."""
    rng = random.Random(SEED + 8)
    v = mv(1, 0, -2)
    samples = []
    for t2 in [F(1), F(1, 4), F(7, 3), F(3), F(1, 2), F(4), F(3, 2)]:
        p = param(F(-1), t2)
        rep = ample_class(v, p, AB)
        assert rep.phi == t2 + 1
        assert rep.xi_omega == mv(-2, t2 + 3, -4)
        assert mukai_pairing(v, rep.xi_omega, AB) == 0
        for r in range(-9, 10):
            for d in range(-9, 10):
                for a in range(-9, 10):
                    w = mv(r, d, a)
                    if not w.is_zero() and reduced_sigma(w, v, p, AB) == 0:
                        samples.append((w, rep.xi_omega))
    assert len(samples) >= 200
    for w, xi_omega in rng.sample(samples, 200):
        assert mukai_pairing(w, xi_omega, AB) == 0


def test_criterion_09_omega_constructors():
    """omega_x(v=(1,0,-2), s=-1, x=1/2) = 3/2 with (4,-2,1) aligned
    there; the absolute-x form is base-independent at s = -1, -3/2, -2."""
    v, w1 = mv(1, 0, -2), mv(4, -2, 1)
    assert omega_x(v, F(-1), F(1, 2), AB) == F(3, 2)
    assert reduced_sigma(w1, v, param(F(-1), F(3, 2)), AB) == 0
    expected = {F(-1): F(3, 2), F(-3, 2): F(5, 2), F(-2): F(3)}
    for s, t2 in expected.items():
        got = omega_sx(v, s, F(-1, 2), AB)
        assert got == t2
        # every base point lands on the locus of the same reference class
        assert reduced_sigma(w1, v, param(s, got), AB) == 0


def test_criterion_10_k3_category_walls():
    """b = 0, h2 = 2 on the K3 side: exactly one category wall within
    t^2 <= 4, at t^2 = 1 from u = (1, 0, 1)."""
    walls = category_walls_k3(F(0), K3, F(4))
    assert len(walls) == 1
    assert walls[0].u == mv(1, 0, 1)
    assert walls[0].t2 == F(1)


def test_criterion_11_classification_detector_and_search():
    """The exceptional-triple detector, the A2 Gram test (all squares 0
    and all pairwise pairings 1, which forces total square 6), fires on
    no triple: the rank-3 lattice has signature (2,1) while the pattern's
    Gram matrix has signature (1,2), which is why classify_decomposition
    has no A2 verdict; find_isotropic_pairing_one matches the box-scan
    oracle on 50 random instances at bound 20."""
    rng = random.Random(SEED + 11)
    # the Gram test on random triples ...
    for _ in range(300):
        parts = [rand_vec(rng, 6) for _ in range(3)]
        gram_is_a2 = (all(mukai_square(w, AB) == 0 for w in parts)
                      and all(mukai_pairing(parts[i], parts[j], AB) == 1
                              for i in range(3) for j in range(3) if i < j))
        assert not gram_is_a2
    # ... and on every isotropic triple of the |entries| <= 5 box
    iso = [mv(r, d, a) for r in range(-5, 6) for d in range(-5, 6)
           for a in range(-5, 6)
           if (r, d, a) != (0, 0, 0) and oracles.square((r, d, a), 2) == 0]
    pairs_one = [(u, w) for i, u in enumerate(iso) for w in iso[i + 1:]
                 if mukai_pairing(u, w, AB) == 1]
    assert len(pairs_one) > 20
    fired = 0
    for u, w in pairs_one:
        for x in iso:
            if mukai_pairing(u, x, AB) == 1 and mukai_pairing(w, x, AB) == 1:
                assert mukai_square(u + w + x, AB) == 6
                fired += 1
    assert fired == 0

    # the fast box oracle is cross-validated against the plain one first
    small = [(mv(1, 0, -2), F(-3, 2), F(1, 4)), (mv(1, 0, -2), F(-1), F(3, 2)),
             (mv(2, 1, -1), F(-1, 2), F(1, 2)), (mv(1, 0, -3), F(0), F(1))]
    for v, s, t2 in small:
        assert (oracles.ipo_box_oracle(v.as_tuple(), s, t2, 2, 6)
                == oracles.ipo_box_oracle_fast(v.as_tuple(), s, t2, 2, 6))
    done = 0
    while done < 50:
        v = rand_vec(rng, 10)
        s = rand_rat(rng, -6, 6, 4)
        t2 = rand_rat(rng, 0, 4, 4) + F(1, 5)
        p = param(s, t2)
        if v.is_zero():
            continue
        try:
            got = find_isotropic_pairing_one(v, p, AB, bound=20)
        except ZeroCharge:
            continue
        want = oracles.ipo_box_oracle_fast(v.as_tuple(), s, t2, 2, 20)
        assert sorted(u.as_tuple() for u in got) == want
        done += 1


def test_criterion_12_cli_determinism():
    """Repeated runs of the golden walls command emit byte-identical
    JSON and byte-identical SVG."""
    base = [sys.executable, "-m", "mukaistab.cli", "walls", "--v", "1,0,-2",
            "--s-min", "-3", "--s-max", "0", "--t2-min", "1/100",
            "--t2-max", "4"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for fmt in ("json", "svg"):
        runs = [subprocess.run(base + ["--format", fmt], capture_output=True,
                               env=env)
                for _ in range(2)]
        assert all(r.returncode == 0 for r in runs)
        assert runs[0].stdout == runs[1].stdout
        assert len(runs[0].stdout) > 40
    payload = json.loads(subprocess.run(base, capture_output=True,
                                        env=env).stdout)
    assert payload["walls"][0]["geometry"]["center_s"] == "-3/2"
