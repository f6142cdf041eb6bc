"""Seeded input generation for the four benchmark workloads.

Nothing here imports mukaistab: inputs are built from plain integers and
Fractions, and every validity filter (nonzero charge, positive degree,
points on a wall, ...) is decided with the tuple formulas of
``tests/oracles.py``.  An op is ``{"calls": [{"fn": name, "args": [...]}]}``
with arguments in the tagged JSON form that ``worker.decode`` and
``ref.plain`` read:

    {"v": [r, d, a]}        a Mukai vector (entries int or "p/q")
    {"S": [kind, h2]}       a surface
    {"p": [s, t2, t]}       a stability parameter (t may be null)
    {"q": "p/q"}            a rational
    {"R": [s0, s1, t0, t1]} a region
    {"T": [r1, c]}          a Fourier-Mukai transform

The same seed always gives the same op list; the workload name is mixed
into the seed so the workloads draw independent streams.
"""

import random
from functools import lru_cache
from fractions import Fraction as F
from math import gcd

import oracles
import ref

AB2, K32, AB4, K36 = ("abelian", 2), ("k3", 2), ("abelian", 4), ("k3", 6)

# wall-sweep: <v^2> strata spanning the ladder (1,0,-2) ... (1,0,-20),
# over the region [-8,0] x [1/50,20] on both surface kinds with h2 = 2
SWEEP_Q = (4, 6, 8, 10, 14, 20, 28, 40)
SWEEP_REGION = (-8, 0, F(1, 50), 20)
# the rays of one op: one per t2_min, which sets most of a ray's cost, so
# that the seeded s and t2_max move an op's cost far less than its class
SWEEP_T2_MIN = (F(1, 2), F(2))
SWEEP_T2_MAX = (F(5), F(10), F(20))
SWEEP_ROUNDS = 12
# spherical-search: bounds cycled in a seeded order inside every block.  An
# op's cost is set mostly by its bound, so the ops form one cluster per
# bound; an odd count puts op_p50_ms inside the middle cluster, not in the
# gap between two clusters, where a one-op shift would move it a lot
SPHERE_BOUNDS = (3, 4, 5, 6, 7, 8, 9)
# point-mix: distinct ops, each one call of every kind, cycled by the worker
MIX_OPS = 200


def enc_q(x):
    x = F(x)
    return x.numerator if x.denominator == 1 else str(x)


def V(v):
    return {"v": [enc_q(x) for x in v]}


def S_(s):
    return {"S": list(s)}


def P(s, t2, t=None):
    return {"p": [enc_q(s), enc_q(t2), None if t is None else enc_q(t)]}


def Q(x):
    return {"q": enc_q(x)}


def call(fn, *args):
    return {"fn": fn, "args": list(args)}


def rand_rat(rng, lo, hi, max_den):
    den = rng.randint(1, max_den)
    return F(rng.randint(int(lo * den), int(hi * den)), den)


def rand_vec(rng, bound):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(3))
        if any(v):
            return v


def primitive(v):
    return gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2])) == 1


def dbeta(v, s):
    return v[1] - v[0] * s


def charge_nonzero(v, s, t2, h2):
    return oracles.charge(v, s, t2, h2) != (0, 0)


# ---------------------------------------------------------------------------
# wall-sweep

def sweep_pool(q):
    """Every primitive (r, d, a) with r in 1..3, d in -3..8 and <v^2> = q
    on an h2 = 2 surface whose degree is positive somewhere on the
    region's s-range."""
    out = []
    for r in (1, 2, 3):
        for d in range(-3, 9):
            num = 2 * d * d - q
            if num % (2 * r):
                continue
            v = (r, d, num // (2 * r))
            if primitive(v) and F(d, r) > SWEEP_REGION[0]:
                out.append(v)
    return out


def sweep_ray(rng, v, lo):
    r, d, _ = v
    s_hi = min(F(SWEEP_REGION[1]), F(d, r))
    while True:
        s = rand_rat(rng, SWEEP_REGION[0], s_hi, 4)
        if dbeta(v, s) > 0:
            break
    hi = rng.choice(SWEEP_T2_MAX)
    return s, lo, hi


def sweep_classes():
    """The classes of every seed: SWEEP_ROUNDS per stratum, drawn once from
    each pool with a fixed generator, so that every seed runs the same
    cost mix."""
    rng = random.Random("wall-sweep classes")
    strata = []
    for kind in ("abelian", "k3"):
        for q in SWEEP_Q:
            pool = sweep_pool(q)
            strata.append([(kind, v) for v in rng.sample(pool, SWEEP_ROUNDS)])
    return strata


def sweep_walls_call(kind, v):
    return call("walls.enumerate_walls", V(v), S_((kind, 2)),
                {"R": [enc_q(x) for x in SWEEP_REGION]})


def wall_sweep(seed):
    """SWEEP_ROUNDS rounds; round i visits the i-th class of every stratum
    in a seeded order, each with seeded rays.  No class appears twice."""
    rng = random.Random(f"wall-sweep:{seed}")
    strata = sweep_classes()
    ops = []
    for i in range(SWEEP_ROUNDS):
        order = list(range(len(strata)))
        rng.shuffle(order)
        for k in order:
            kind, v = strata[k][i]
            calls = [sweep_walls_call(kind, v)]
            for lo in SWEEP_T2_MIN:
                s, lo, hi = sweep_ray(rng, v, lo)
                calls.append(call("walls.chambers_on_ray", V(v),
                                  S_((kind, 2)), Q(s), [enc_q(lo), enc_q(hi)]))
            ops.append({"calls": calls})
    return ops


def wall_sweep_warmup():
    return {"calls": [
        sweep_walls_call("abelian", (1, 0, -2)),
        call("walls.chambers_on_ray", V((1, 0, -2)), S_(AB2), Q(F(-1, 2)),
             ["1/50", 20])]}


# ---------------------------------------------------------------------------
# point-mix

def _point(rng):
    return rand_rat(rng, -4, 4, 6), F(rng.randint(1, 36), rng.randint(1, 6))


def _point_with_t(rng):
    t = rand_rat(rng, F(1, 4), 3, 4)
    while t <= 0:
        t = rand_rat(rng, F(1, 4), 3, 4)
    return rand_rat(rng, -4, 4, 6), t * t, t


@lru_cache(maxsize=None)
def transforms(h2):
    """All (r1, c) with |r1| <= 4, c = n/m (m <= 3, |c| <= 3) whose kernel
    class r1*e^{cH} is integral and primitive on the h2 surface."""
    out = []
    for r1 in (-4, -3, -2, -1, 1, 2, 3, 4):
        for den in (1, 2, 3):
            for num in range(-3 * den, 3 * den + 1):
                c = F(num, den)
                if c.denominator != den:
                    continue
                w = (F(r1), r1 * c, r1 * c * c * h2 / 2)
                if all(x.denominator == 1 for x in w) and primitive(
                        tuple(int(x) for x in w)):
                    out.append((r1, c))
    return out


def _isotropic_hit(rng, h2):
    """(v, s, t2): an isotropic w with <v, w> = 1 aligns with v at (s, t2)
    with both degrees positive, so the pairing-one searches have a
    witness to find."""
    while True:
        r = rng.randint(1, 3)
        d = rng.randint(-3, 3)
        if (h2 * d * d) % (2 * r):
            continue
        w = (r, d, h2 * d * d // (2 * r))
        if not primitive(w):
            continue
        v = rand_vec(rng, 5)
        if oracles.pairing(v, w, h2) != 1 or oracles.square(v, h2) <= 0:
            continue
        A, C, D = oracles.acd(w, v, h2)
        if A == 0:
            continue
        for _ in range(20):
            s = rand_rat(rng, -4, 4, 4)
            t2 = -(C * s + D) / A - s * s
            if t2 > 0 and dbeta(w, s) > 0 and dbeta(v, s) > 0:
                return v, s, t2


def _aligned_parts(rng, h2):
    """Two distinct primitive classes and a point where they align."""
    while True:
        v1, v2 = rand_vec(rng, 3), rand_vec(rng, 3)
        if v1 == v2 or not (primitive(v1) and primitive(v2)):
            continue
        A, C, D = oracles.acd(v1, v2, h2)
        if A == 0:
            continue
        s = rand_rat(rng, -3, 3, 4)
        t2 = -(C * s + D) / A - s * s
        if t2 > 0:
            return v1, v2, s, t2


def line_degenerate(v, s, t2, h2):
    """Do <v, w> = 1 and alignment with v at (s, t2) fail to cut a line?
    The pairing-one searches then fall back to an O(bound^3) box scan,
    an enumeration that does not belong in the microsecond-scale mix."""
    r, d, a = v
    Q = t2 + s * s
    n1 = (-a, h2 * d, -r)
    n2 = (F(h2, 2) * d * Q - a * s, -F(h2, 2) * r * Q + a, r * s - d)
    return (n1[1] * n2[2] == n1[2] * n2[1] and n1[2] * n2[0] == n1[0] * n2[2]
            and n1[0] * n2[1] == n1[1] * n2[0])


def _aligned_pair_call(rng, h2, multiplicities):
    """Parts for classify_decomposition whose pairing-one line, when the
    total multiplicity is 2, is not degenerate."""
    while True:
        v1, v2, s, t2 = _aligned_parts(rng, h2)
        n1, n2 = rng.choice(multiplicities)
        v = tuple(n1 * v1[i] + n2 * v2[i] for i in range(3))
        if n1 + n2 > 2 or not line_degenerate(v, s, t2, h2):
            return n1, v1, n2, v2, s, t2


def _mix_call(rng, fn):
    """One valid call of ``fn``: inputs on which it must not raise."""
    surf = rng.choice((AB2, K32, AB4, K36))
    h2 = surf[1]
    while True:
        v, w = rand_vec(rng, 6), rand_vec(rng, 6)
        s, t2 = _point(rng)
        if fn == "lattice.mukai_pairing":
            return call(fn, V(v), V(w), S_(surf))
        if fn == "lattice.twisted_invariants":
            return call(fn, V(v), Q(s), S_(surf))
        if fn == "lattice.perp_basis":
            return call(fn, V(v), S_(surf))
        if fn == "stability.central_charge":
            return call(fn, V(v), P(s, t2), S_(surf))
        if fn == "stability.reduced_sigma":
            return call(fn, V(v), V(w), P(s, t2), S_(surf))
        if fn == "stability.phase_key":
            if charge_nonzero(v, s, t2, h2):
                return call(fn, V(v), P(s, t2), S_(surf))
        elif fn == "walls.wall_side":
            if charge_nonzero(v, s, t2, h2) and charge_nonzero(w, s, t2, h2):
                return call(fn, V(v), V(w), P(s, t2), S_(surf))
        elif fn == "walls.is_wall_vector":
            v, w = rand_vec(rng, 3), rand_vec(rng, 3)
            if oracles.square(v, 2) > 0:
                return call(fn, V(w), V(v), S_(AB2))
        elif fn == "walls.category_walls_k3":
            b = rand_rat(rng, -3, 3, 6)
            return call(fn, Q(b), S_(rng.choice((K32, K36))),
                        Q(rng.choice((F(1, 20), F(1, 4), F(1), F(4)))))
        elif fn in ("fourier_mukai.fm_apply", "fourier_mukai.fm_inverse"):
            r1, c = rng.choice(transforms(h2))
            return call(fn, {"T": [r1, enc_q(c)]}, V(v), S_(surf))
        elif fn == "fourier_mukai.transform_central_charge":
            r1, c = rng.choice(transforms(h2))
            s, t2, t = _point_with_t(rng)
            return call(fn, {"T": [r1, enc_q(c)]}, P(s, t2, t), S_(surf))
        elif fn == "polarization.ample_class":
            if v[0] != 0 and dbeta(v, s) != 0:
                return call(fn, V(v), P(s, t2), S_(surf))
        elif fn == "polarization.omega_x":
            _, d, a = oracles.twisted(v, s, h2)
            if d > 0:
                x0 = max(2 * a / (h2 * d), F(0))
                hi = d / v[0] if v[0] > 0 else x0 + 5
                if hi > x0:
                    x = x0 + (hi - x0) * rng.randint(1, 6) / 7
                    return call(fn, V(v), Q(s), Q(x), S_(surf))
        elif fn == "classification.stable_existence":
            if rng.random() < 0.5:
                v, s, t2 = _isotropic_hit(rng, h2)
            if (oracles.square(v, h2) > 0 and dbeta(v, s) > 0
                    and not line_degenerate(v, s, t2, h2)):
                return call(fn, V(v), P(s, t2), S_(surf))
        elif fn == "classification.find_isotropic_pairing_one":
            if rng.random() < 0.5:
                v, s, t2 = _isotropic_hit(rng, h2)
            if charge_nonzero(v, s, t2, h2):
                return call(fn, V(v), P(s, t2), S_(surf), rng.randint(2, 6))
        elif fn == "classification.classify_decomposition":
            n1, v1, n2, v2, s, t2 = _aligned_pair_call(
                rng, h2, ((1, 1), (1, 1), (2, 1), (1, 2), (2, 2)))
            return call(fn, [[n1, V(v1)], [n2, V(v2)]], P(s, t2), S_(surf))
        else:
            raise ValueError(fn)


MIX_FNS = (
    "lattice.mukai_pairing", "lattice.twisted_invariants",
    "lattice.perp_basis", "stability.central_charge", "stability.phase_key",
    "stability.reduced_sigma", "walls.wall_side", "walls.is_wall_vector",
    "walls.category_walls_k3", "fourier_mukai.fm_apply",
    "fourier_mukai.fm_inverse", "fourier_mukai.transform_central_charge",
    "polarization.ample_class", "polarization.omega_x",
    "classification.stable_existence",
    "classification.classify_decomposition",
    "classification.find_isotropic_pairing_one",
)


def point_mix(seed):
    """MIX_OPS ops; each op holds one call of every kind in a seeded order,
    so every op has the same mix.  An op's latency is the sum of its calls:
    the calls' costs fall into clusters by kind, and a percentile of single
    calls would sit on a cluster's edge, where it jumps when a seed or a
    change to one kind moves that edge."""
    rng = random.Random(f"point-mix:{seed}")
    ops = []
    for _ in range(MIX_OPS):
        fns = list(MIX_FNS)
        rng.shuffle(fns)
        ops.append({"calls": [_mix_call(rng, fn) for fn in fns]})
    return ops


def point_mix_warmup():
    return {"calls": [call("lattice.mukai_pairing", V((1, 0, -2)),
                           V((1, -1, 1)), S_(AB2))]}


# ---------------------------------------------------------------------------
# spherical-search

SPHERE_CLASSES = [(1, 0, -5), (1, 0, -10), (2, 1, -10), (3, 1, -7),
                  (1, 1, -4), (2, 1, -3), (1, 0, -2), (1, -1, -6)]


def sphere_point(rng, v):
    """A point on a K3 wall of v: the locus of some v1 passing the K3
    enumeration window (both squares >= -2, positive cross pairing, not
    proportional), at a rational s where the degree of v is positive."""
    h2 = 2
    while True:
        v1 = rand_vec(rng, 4)
        v2 = tuple(v[i] - v1[i] for i in range(3))
        q1, q2 = oracles.square(v1, h2), oracles.square(v2, h2)
        if q1 < -2 or q2 < -2 or oracles.pairing(v1, v2, h2) <= 0:
            continue
        A, C, D = oracles.acd(v1, v, h2)
        if A == 0:
            continue
        c = -C / (2 * A)
        R2 = c * c - D / A
        if R2 <= 0:
            continue
        for _ in range(10):
            s = c + rand_rat(rng, -3, 3, 4)
            t2 = R2 - (s - c) ** 2
            if t2 > 0 and dbeta(v, s) > 0 and oracles.charge(v, s, t2, h2) != (0, 0):
                return s, t2


def spherical_search(seed, blocks=125):
    """Blocks of one op per bound in SPHERE_BOUNDS, in a seeded order.  In
    each block exactly one seeded op has two or more qualifying classes
    within its bound (the case the library reports as a
    UniquenessViolation) and the others at most one, so the defect shows
    at the same share, 1/len(SPHERE_BOUNDS), in every run."""
    rng = random.Random(f"spherical-search:{seed}")
    ops = []
    for _ in range(blocks):
        bounds = list(SPHERE_BOUNDS)
        rng.shuffle(bounds)
        multi = rng.randrange(len(bounds))
        for k, b in enumerate(bounds):
            while True:
                v = rng.choice(SPHERE_CLASSES)
                s, t2 = sphere_point(rng, v)
                if (len(ref.minus_two(s, t2, 2, b, v)) >= 2) == (k == multi):
                    break
            ops.append({"calls": [call("classification.find_minus_two_aligned",
                                       P(s, t2), S_(K32), b, V(v))]})
    return ops


def spherical_warmup():
    return {"calls": [call("classification.find_minus_two_aligned",
                           P(F(-3, 2), 1), S_(K32), 3, V((1, 0, -2)))]}


# ---------------------------------------------------------------------------
# cli-session

K3_JSON = '{"kind":"k3","h2":2}'


def _vs(v):
    return ",".join(str(x) for x in v)


CLI_WALL_VS = ((1, 0, -2), (1, 0, -3), (1, 1, -2), (2, 1, -1), (1, -1, -2))
CLI_CHAMBER_VS = ((1, 0, -2), (1, 0, -4), (1, 1, -3))
CLI_CHAMBER_S = ("-3", "-5/2", "-2", "-3/2", "-1", "-3/4", "-1/2", "-1/4")


def cli_wall_pool(sub):
    """Every walls/plot argument list the session can draw; the outputs
    of these are pinned (see pin.py)."""
    out = []
    for v in CLI_WALL_VS:
        for t2_min in ("1/4", "1/2", "1"):
            for surf in ([], ["--surface", K3_JSON]):
                argv = [sub, "--v", _vs(v), "--s-min", "-3", "--s-max", "0",
                        "--t2-min", t2_min, "--t2-max", "10"] + surf
                if sub == "plot":
                    out.append(argv)
                else:
                    out.extend(argv + ["--format", f]
                               for f in ("json", "plain", "svg"))
    return out


def cli_chambers_pool():
    out = []
    for v in CLI_CHAMBER_VS:
        for s in CLI_CHAMBER_S:
            if dbeta(v, F(s)) <= 0:
                continue
            for extra in ([], ["--surface", K3_JSON, "--cut-category-walls"]):
                out.append(["chambers", "--v", _vs(v), "--s", s, "--t2-min",
                            "1/10", "--t2-max", "10"] + extra)
    return out


def cli_argv(rng, sub):
    """Small valid arguments for one subcommand."""
    while True:
        v, w = rand_vec(rng, 5), rand_vec(rng, 5)
        s, t2 = _point(rng)
        if sub == "pair":
            return [sub, "--x", _vs(v), "--y", _vs(w)]
        if sub == "twist":
            return [sub, "--v", _vs(v), "--s", str(s), "--to",
                    str(rand_rat(rng, -3, 3, 4))]
        if sub == "charge":
            if rng.random() < 0.5:
                s, t2, t = _point_with_t(rng)
                return [sub, "--v", _vs(v), "--s", str(s), "--t", str(t)]
            return [sub, "--v", _vs(v), "--s", str(s), "--t2", str(t2)]
        if sub in ("walls", "plot"):
            return rng.choice(cli_wall_pool(sub))
        if sub == "chambers":
            return rng.choice(cli_chambers_pool())
        if sub == "side":
            if charge_nonzero(v, s, t2, 2) and charge_nonzero(w, s, t2, 2):
                return [sub, "--v", _vs(v), "--w1", _vs(w), "--s", str(s),
                        "--t2", str(t2)]
        elif sub == "fm":
            r1, c = rng.choice(transforms(2))
            return [sub, "--r1", str(r1), "--c", str(c), "--v", _vs(v)]
        elif sub == "fm-charge":
            r1, c = rng.choice(transforms(2))
            s, _, t = _point_with_t(rng)
            return [sub, "--r1", str(r1), "--c", str(c), "--s", str(s),
                    "--t", str(t)]
        elif sub == "ample":
            if v[0] != 0 and dbeta(v, s) != 0:
                return [sub, "--v", _vs(v), "--s", str(s), "--t2", str(t2)]
        elif sub == "omega-x":
            _, d, a = oracles.twisted(v, s, 2)
            if d > 0:
                x0 = max(a / d, F(0))
                hi = d / v[0] if v[0] > 0 else x0 + 5
                if hi > x0:
                    x = x0 + (hi - x0) * rng.randint(1, 6) / 7
                    return [sub, "--v", _vs(v), "--s", str(s), "--x", str(x)]
        elif sub == "classify":
            n1, v1, _, v2, s, t2 = _aligned_pair_call(rng, 2, ((1, 1), (2, 1)))
            return [sub, "--parts", f"{n1}*{_vs(v1)};{_vs(v2)}",
                    "--s", str(s), "--t2", str(t2)]
        elif sub == "k3-category-walls":
            return [sub, "--b", str(rand_rat(rng, -3, 3, 6)), "--t2-max",
                    rng.choice(("1/20", "1", "4"))]
        else:
            raise ValueError(sub)


CLI_SUBCOMMANDS = ("pair", "twist", "charge", "walls", "chambers", "side",
                   "fm", "fm-charge", "ample", "omega-x", "classify",
                   "k3-category-walls", "plot")

# (argv, expected exit code, expected error code): malformed input exits 1,
# a domain error 2, an exhausted search bound 3
CLI_ERRORS = (
    (["pair", "--x", "1,0", "--y", "1,0,-2"], 1, "UsageError"),
    (["charge", "--v", "1,0,-2", "--s", "0"], 1, "UsageError"),
    (["twist", "--v", "1,0,-2", "--s", "1/0"], 1, "UsageError"),
    (["walls", "--v", "1,0,-2"], 1, "UsageError"),
    (["bogus"], 1, "UsageError"),
    (["fm", "--r1", "x", "--c", "0", "--v", "1,0,0"], 1, "UsageError"),
    (["pair", "--x", "1,0,-2", "--y", "1,0,-2", "--surface", "{bad"], 1,
     "UsageError"),
    (["walls", "--v", "2,0,-2", "--s-min", "-1", "--s-max", "0",
      "--t2-min", "1", "--t2-max", "2"], 2, "NotPrimitive"),
    (["walls", "--v", "1,0,1", "--s-min", "-1", "--s-max", "0",
      "--t2-min", "1", "--t2-max", "2"], 2, "NonPositiveSquare"),
    (["k3-category-walls", "--b", "0", "--t2-max", "1",
      "--surface", '{"kind":"abelian","h2":2}'], 2, "NotK3"),
    (["fm", "--r1", "2", "--c", "0", "--v", "1,0,0"], 2, "NotPrimitive"),
    (["omega-x", "--v", "1,0,-2", "--s", "1", "--x", "1"], 2, "OutOfDomain"),
    (["chambers", "--v", "1,0,-2", "--s", "1", "--t2-min", "1",
      "--t2-max", "2"], 2, "ZeroDegree"),
    (["side", "--v", "1,0,-2", "--w1", "1,0,1", "--s", "0", "--t2", "1"], 2,
     "ZeroCharge"),
    (["walls", "--v", "1,0,-10", "--s-min", "-8", "--s-max", "0",
      "--t2-min", "1/50", "--t2-max", "20", "--cap", "50"], 3,
     "BoundOverflow"),
    (["chambers", "--v", "1,0,-10", "--s", "-3", "--t2-min", "1/50",
      "--t2-max", "20", "--cap", "10"], 3, "BoundOverflow"),
)


def cli_session(seed, blocks=40):
    """Blocks of one success per subcommand and one error input from
    CLI_ERRORS, in a seeded order: the error share is 1/14."""
    rng = random.Random(f"cli-session:{seed}")
    ops = []
    for _ in range(blocks):
        block = [{"calls": [call("cli." + sub, *cli_argv(rng, sub))],
                  "expect_exit": 0} for sub in CLI_SUBCOMMANDS]
        argv, code, err = rng.choice(CLI_ERRORS)
        block.append({"calls": [call("cli.error", *argv)],
                      "expect_exit": code, "expect_error": err})
        rng.shuffle(block)
        ops.extend(block)
    return ops


def cli_warmup():
    return {"calls": [call("cli.pair", "pair", "--x", "1,0,-2",
                           "--y", "1,0,-2")]}


# workload -> (op generator, fixed warm-up op, block: the op count of one
# round of the generator's mix; runs stop only at block boundaries)
WORKLOADS = {
    "wall-sweep": (wall_sweep, wall_sweep_warmup, 2 * len(SWEEP_Q)),
    "point-mix": (point_mix, point_mix_warmup, 1),
    "spherical-search": (spherical_search, spherical_warmup,
                         len(SPHERE_BOUNDS)),
    "cli-session": (cli_session, cli_warmup, len(CLI_SUBCOMMANDS) + 1),
}
