"""Reference checks for every benchmark op, independent of mukaistab.

Values come from the tuple formulas and brute-force scans of
``tests/oracles.py``, from the formulas stated in the library's
docstrings re-derived on plain tuples here, from an integer scan for the
square -2 classes, and, where no oracle exists (K3 wall sets and the
CLI's walls/chambers/plot output), from hashes pinned in ``pinned.json``
by ``pin.py``.  A check sees the op's decoded arguments and the
canonical output the worker recorded, and returns True when they agree.
"""

import hashlib
import json
import os
from fractions import Fraction as F
from math import gcd

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
IPO_BOX = 8      # box of the isotropic pairing-one oracle
WALL_BOX = 4     # box of the abelian wall-set subset check


def plain(x):
    """Tagged JSON argument -> plain tuples and Fractions."""
    if isinstance(x, dict):
        (tag, val), = x.items()
        if tag == "v":
            return tuple(F(e) for e in val)
        if tag == "S":
            return tuple(val)
        if tag == "p":
            return tuple(None if e is None else F(e) for e in val)
        if tag == "q":
            return F(val)
        if tag == "R":
            return tuple(F(e) for e in val)
        if tag == "T":
            return (val[0], F(val[1]))
        raise ValueError(tag)
    if isinstance(x, list):
        return [plain(e) for e in x]
    return x


def vs(v):
    return ",".join(str(F(e)) for e in v)


def digest(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()
                          ).hexdigest()[:20]


def load_pins():
    with open(os.path.join(HERE, "pinned.json")) as fh:
        return json.load(fh)


def sigma(v1, v, s, t2, h2):
    A, C, D = oracles.acd(v1, v, h2)
    return A * (t2 + s * s) + C * s + D


def phase(v, s, t2, h2):
    re, im = oracles.charge(v, s, t2, h2)
    if im > 0:
        return (0, -re / im)
    if im == 0:
        return (1 if re < 0 else 3, F(0))
    return (2, -re / im)


def side(v, w1, s, t2, h2):
    if sigma(w1, v, s, t2, h2) == 0:
        return "OnWall"
    return "CPlus" if phase(v, s, t2, h2) > phase(w1, s, t2, h2) else "CMinus"


def fm_image(r1, c, v, h2):
    r, d, a = oracles.twisted(v, c, h2)
    return (-r1 * a, (1 if r1 > 0 else -1) * d, F(-r) / r1)


def transformed(r1, c, s, t, h2):
    lam = c - s
    re = (lam * lam - t * t) * h2 / 2
    im = lam * t * h2
    scale = h2 * (lam * lam + t * t) / (2 * abs(r1) * (re * re + im * im))
    return (-r1 * re, r1 * im, lam * scale, t * scale)


def ample(v, s, t2, h2):
    r, d, a = v
    _, d_b, a_b = oracles.twisted(v, s, h2)
    phi = (r * h2 * t2 / 2 - a_b) / d_b
    xi1 = (F(0), F(1), d / r * h2)
    xi2 = (F(-1), -s, -s * s * h2 / 2 + a_b / r)
    xi = tuple(phi * xi1[i] + h2 * xi2[i] for i in range(3))
    assert oracles.pairing(v, xi, h2) == 0
    return phi, xi1, xi2, xi


def omega(v, s, x, h2):
    _, d, a = oracles.twisted(v, s, h2)
    return 2 * (x * (a - d * h2 * x / 2) / (x * v[0] - d)) / h2


def ipo_witness_ok(w, v, s, t2, h2, box):
    """w is a valid isotropic pairing-one witness and the least one: the
    first of the oracle's box if it lies in the box, else below it."""
    w = tuple(F(e) for e in w.split(","))
    if any(e.denominator != 1 for e in w):
        return False
    wi = tuple(int(e) for e in w)
    if not (primitive(wi) and oracles.square(wi, h2) == 0
            and oracles.pairing(v, wi, h2) == 1
            and sigma(wi, v, s, t2, h2) == 0 and wi[1] - wi[0] * s > 0):
        return False
    if max(map(abs, wi)) <= IPO_BOX:
        return bool(box) and wi == box[0]
    return not box or wi < box[0]


def primitive(v):
    return gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2])) == 1


def ints(v):
    return tuple(int(e) for e in v)


def ipo_box(v, s, t2, h2, bound=IPO_BOX):
    return oracles.ipo_box_oracle_fast(ints(v), s, t2, h2, bound)


def minus_two(s, t2, h2, bound, ref):
    """Every integral w with entries bounded by ``bound``, <w^2> = -2,
    d_beta(w) > 0 and aligned with ref at (s, t2), in (r, d, a) order.
    The square fixes a from (r, d): rank zero would need h2 d^2 = -2."""
    out = []
    for r in range(-bound, bound + 1):
        if r == 0:
            continue
        for d in range(-bound, bound + 1):
            num = h2 * d * d + 2
            if num % (2 * r):
                continue
            w = (r, d, num // (2 * r))
            if (abs(w[2]) <= bound and d - r * s > 0
                    and sigma(w, ref, s, t2, h2) == 0):
                out.append(w)
    return sorted(out)


# ---------------------------------------------------------------------------
# per-call checks: (args, out) -> bool, out never an error here

def _perp(args, out):
    v, (_, h2) = args
    b1, b2 = (tuple(F(e) for e in b.split(",")) for b in out)
    if any(e.denominator != 1 for e in b1 + b2):
        return False
    if oracles.pairing(b1, v, h2) or oracles.pairing(b2, v, h2):
        return False
    n = (-v[2], h2 * v[1], -v[0])
    g = gcd(gcd(int(n[0]), int(n[1])), int(n[2]))
    cross = (b1[1] * b2[2] - b1[2] * b2[1], b1[2] * b2[0] - b1[0] * b2[2],
             b1[0] * b2[1] - b1[1] * b2[0])
    return cross in (tuple(x / g for x in n), tuple(-x / g for x in n))


def _stable(args, out):
    v, (s, t2, _), (_, h2) = args
    verdict, witness, certified, bound = out
    box = ipo_box(v, s, t2, h2)
    if verdict == "Yes":
        return not box and witness is None and certified and bound is None
    return (verdict == "ExceptionalWitness" and certified and bound is None
            and ipo_witness_ok(witness, v, s, t2, h2, box))


def classify_ok(parts, s, t2, h2, verdict, witnesses, certified, bound):
    total = sum(n for n, _ in parts)
    vecs = [ints(v) for _, v in parts]
    if total >= 3:  # three-part A2 patterns are never generated
        return (verdict, witnesses, certified, bound) == (
            "StablePairExists", [], True, None)
    if (len(vecs) == 2 and all(oracles.square(x, h2) == 0 for x in vecs)
            and oracles.pairing(vecs[0], vecs[1], h2) == 1):
        return (verdict, witnesses, certified, bound) == (
            "ExceptionalRankTwoCase", [vs(x) for x in vecs], True, None)
    v = tuple(sum(n * x[i] for n, x in zip((n for n, _ in parts), vecs))
              for i in range(3))
    box = ipo_box(v, s, t2, h2)
    if not box:
        return (verdict, witnesses, certified, bound) == (
            "StablePairExists", [], True, None)
    return (verdict == "ExceptionalIsotropicPairingOne" and certified
            and bound is None and len(witnesses) == 1
            and ipo_witness_ok(witnesses[0], v, s, t2, h2, box))


def _classify(args, out):
    parts, (s, t2, _), (_, h2) = args
    return classify_ok(parts, s, t2, h2, *out)


def _fm_inverse(args, out):
    (r1, c), w, (_, h2) = args
    return fm_image(r1, c, tuple(F(e) for e in out.split(",")), h2) == w


def is_wall(v1, v, h2):
    """Squares >= 0 and v1 not proportional to v are standing hypotheses
    of the abelian criterion; the point oracle decides the rest.  (For a
    non-primitive v, a proportional v1 = k v with 0 < k < 1 has a wall
    point by the oracle, but is excluded by the criterion.)"""
    v2 = tuple(v[i] - v1[i] for i in range(3))
    proportional = (v1[0] * v[1] == v[0] * v1[1] and v1[0] * v[2] == v[0] * v1[2]
                    and v1[1] * v[2] == v[1] * v1[2])
    return (oracles.square(v1, h2) >= 0 and oracles.square(v2, h2) >= 0
            and not proportional and oracles.wall_point_oracle(v1, v, h2)[0])


def _category(args):
    b, (_, h2), t2max = args
    return [[vs(u), str(t2)] for u, t2 in oracles.category_walls_box_oracle(
        b, h2, t2max, b.denominator, h2 // 2 * b.numerator ** 2 + 1)]


def _phase_key(key):
    return [key[0], str(key[1])]


def _ample_class(phi, xi1, xi2, xi):
    return [str(phi), vs(xi1), vs(xi2), vs(xi)]


EXPECT = {
    "lattice.mukai_pairing": lambda a: str(oracles.pairing(a[0], a[1], a[2][1])),
    "lattice.twisted_invariants": lambda a: [
        str(x) for x in oracles.twisted(a[0], a[1], a[2][1])],
    "stability.central_charge": lambda a: [
        str(x) for x in oracles.charge(a[0], a[1][0], a[1][1], a[2][1])],
    "stability.phase_key": lambda a: _phase_key(
        phase(a[0], a[1][0], a[1][1], a[2][1])),
    "stability.reduced_sigma": lambda a: str(
        sigma(a[0], a[1], a[2][0], a[2][1], a[3][1])),
    "walls.wall_side": lambda a: side(a[0], a[1], a[2][0], a[2][1], a[3][1]),
    "walls.is_wall_vector": lambda a: is_wall(ints(a[0]), ints(a[1]), a[2][1]),
    "walls.category_walls_k3": _category,
    "fourier_mukai.fm_apply": lambda a: vs(
        fm_image(a[0][0], a[0][1], a[1], a[2][1])),
    "fourier_mukai.transform_central_charge": lambda a: [
        str(x) for x in transformed(a[0][0], a[0][1], a[1][0], a[1][2],
                                    a[2][1])],
    "polarization.ample_class": lambda a: _ample_class(
        *ample(a[0], a[1][0], a[1][1], a[2][1])),
    "polarization.omega_x": lambda a: str(omega(a[0], a[1], a[2], a[3][1])),
    "classification.find_isotropic_pairing_one": lambda a: [
        vs(w) for w in ipo_box(a[0], a[1][0], a[1][1], a[2][1], a[3])],
    "classification.find_minus_two_aligned": lambda a: [
        vs(w) for w in minus_two(a[0][0], a[0][1], a[1][1], a[2], a[3])],
}

PREDICATE = {
    "lattice.perp_basis": _perp,
    "fourier_mukai.fm_inverse": _fm_inverse,
    "classification.stable_existence": _stable,
    "classification.classify_decomposition": _classify,
}


# ---------------------------------------------------------------------------
# wall-sweep

def wall_key(kind, v):
    return f"{kind}:{vs(v)}"


def walls_ok(v, surf, reg, out, pins):
    """The wall list equals its pinned hash and is sound."""
    return (pins["walls"].get(wall_key(surf[0], v)) == digest(out)
            and walls_sound(v, surf, reg, out))


def walls_sound(v, surf, reg, out):
    """Every wall is sound (its representative re-derives A, C, D, the
    circle, the arithmetic criterion and a positive-degree point in the
    region), the list is sorted and duplicate-free, and on abelian
    surfaces it contains every wall the box oracle finds with entries up
    to WALL_BOX."""
    kind, h2 = surf
    sq_lo = 0 if kind == "abelian" else -2
    keys, order = set(), []
    for A, C, D, geom, rep in out:
        v1 = ints(F(e) for e in rep.split(","))
        v2 = tuple(v[i] - v1[i] for i in range(3))
        acd = oracles.acd(v1, v, h2)
        if (F(A), F(C), F(D)) != acd or geom[0] != "circle":
            return False
        c = -acd[1] / (2 * acd[0])
        R2 = c * c - acd[2] / acd[0]
        if (F(geom[1]), F(geom[2])) != (c, R2) or R2 <= 0:
            return False
        if (oracles.square(v1, h2) < sq_lo or oracles.square(v2, h2) < sq_lo
                or oracles.pairing(v1, v2, h2) <= 0):
            return False
        if not oracles.circle_meets_region_oracle(c, R2, v, reg, h2):
            return False
        key = oracles.normalize_acd(*(2 * x for x in acd))
        keys.add(key)
        order.append((c, R2, key))
    if len(keys) != len(out) or order != sorted(order):
        return False
    if kind == "abelian":
        box = oracles.wall_set_box_oracle(ints(v), h2, reg, WALL_BOX)
        if not set(box) <= keys:
            return False
    return True


def ray_ok(walls, v, s, lo, hi, out):
    """Check a ray's cuts against the checked wall set of a region that
    contains the ray.  Every reported cut must be where one of those walls
    crosses the ray (allowed), and every crossing whose representative
    splits v into two parts of positive twisted degree at s must be
    reported (required).  On abelian surfaces the two sets coincide by the
    positivity of twisted degrees on a wall.  On K3 they need not: a
    numerical wall whose square -2 part has degree <= 0 at s is a wall of
    the wide region but not of the ray."""
    allowed, required = set(), set()
    for _, _, _, geom, rep in walls:
        t2 = F(geom[2]) - (s - F(geom[1])) ** 2
        if t2 > 0 and lo <= t2 <= hi:
            allowed.add(t2)
            r1, d1, _ = (F(e) for e in rep.split(","))
            if 0 < d1 - r1 * s < v[1] - v[0] * s:
                required.add(t2)
    cuts = [F(x) for x in out[1]]
    bounds = [lo] + cuts + [hi]
    chambers = [[str(a), str(b)] for a, b in zip(bounds, bounds[1:]) if a < b]
    return (out[0] == str(s) and cuts == sorted(set(cuts))
            and required <= set(cuts) <= allowed and out[2] == chambers)


# ---------------------------------------------------------------------------
# cli-session

def _cli_expect(sub, flags, h2):
    """The exact stdout of a successful CLI call, rebuilt from oracles;
    None for subcommands whose output is pinned instead."""
    vec = lambda k: tuple(F(e) for e in flags[k].split(","))
    q = lambda k: F(flags[k])
    if sub == "pair":
        doc = {"pairing": str(oracles.pairing(vec("--x"), vec("--y"), h2))}
    elif sub == "twist":
        s, to = q("--s"), q("--to")
        r, d, a = oracles.twisted(vec("--v"), s, h2)
        r2, d2, a2 = oracles.twisted(vec("--v"), to, h2)
        doc = {"r_beta": str(r), "d_beta": str(d), "a_beta": str(a),
               "d_beta_min": str(F(1, s.denominator)),
               "retwisted": {"s": str(to), "r_beta": str(r2),
                             "d_beta": str(d2), "a_beta": str(a2)}}
    elif sub == "charge":
        if "--t" in flags:
            t = q("--t")
            re, im = oracles.charge(vec("--v"), q("--s"), t * t, h2)
            doc = {"re": str(re), "im": str(im * t)}
        else:
            re, im = oracles.charge(vec("--v"), q("--s"), q("--t2"), h2)
            doc = {"re": str(re), "im_over_t": str(im)}
    elif sub == "side":
        v, w1, s, t2 = vec("--v"), vec("--w1"), q("--s"), q("--t2")
        doc = {"side": side(v, w1, s, t2, h2),
               "rho": str(sigma(w1, v, s, t2, h2))}
    elif sub == "fm":
        r1, c = int(flags["--r1"]), q("--c")
        doc = {"kernel": vs((r1, r1 * c, r1 * c * c * h2 / 2)),
               "image": vs(fm_image(r1, c, vec("--v"), h2))}
    elif sub == "fm-charge":
        zr, zi, xi, eta = transformed(int(flags["--r1"]), q("--c"), q("--s"),
                                      q("--t"), h2)
        doc = {"zeta_re": str(zr), "zeta_im": str(zi), "xi": str(xi),
               "eta": str(eta)}
    elif sub == "ample":
        phi, xi1, xi2, xi = ample(vec("--v"), q("--s"), q("--t2"), h2)
        doc = {"phi": str(phi), "xi1": vs(xi1), "xi2": vs(xi2),
               "xi_omega": vs(xi)}
    elif sub == "omega-x":
        doc = {"t2": str(omega(vec("--v"), q("--s"), q("--x"), h2))}
    elif sub == "k3-category-walls":
        walls = _category((q("--b"), ("k3", h2), q("--t2-max")))
        doc = {"walls": [{"u": u, "t2": t2} for u, t2 in walls]}
    else:
        return None
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _classify_cli(flags, stdout, h2):
    doc = json.loads(stdout)
    parts = []
    for chunk in flags["--parts"].split(";"):
        n, _, v = chunk.rpartition("*")
        parts.append((int(n or 1), tuple(F(e) for e in v.split(","))))
    return (stdout == json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n" and classify_ok(parts, F(flags["--s"]), F(flags["--t2"]),
                                   h2, doc["verdict"], doc["witnesses"],
                                   doc["certified"], doc.get("bound")))


def cli_ok(op, argv, out, pins):
    code, stdout, stderr = out
    if op["expect_exit"]:
        try:
            err = json.loads(stderr)["error"]
        except (ValueError, KeyError, TypeError):
            return False
        return (code, stdout, err) == (op["expect_exit"], "",
                                       op["expect_error"])
    if code != 0 or stderr:
        return False
    sub, flags = argv[0], {}
    rest = argv[1:]
    while rest:
        k = rest.pop(0)
        flags[k] = rest.pop(0) if rest and not rest[0].startswith("--") else True
    default = '{"kind":"k3","h2":2}' if sub == "k3-category-walls" else "{}"
    h2 = json.loads(flags.get("--surface", default)).get("h2", 2)
    if sub == "classify":
        return _classify_cli(flags, stdout, h2)
    expect = _cli_expect(sub, flags, h2)
    if expect is None:
        return pins["cli"].get(" ".join(argv)) == digest(stdout)
    return stdout == expect


# ---------------------------------------------------------------------------

def check_op(op, outs, pins):
    """Verdicts for the calls of one op, each "ok", "wrong" or "error"
    (raised where the input calls for a result)."""
    verdicts = []
    walls = None
    for c, out in zip(op["calls"], outs):
        fn, args = c["fn"], plain(c["args"])
        if isinstance(out, dict) and "error" in out:
            verdicts.append("error")
            continue
        if fn.startswith("cli."):
            ok = cli_ok(op, c["args"], out, pins)
        elif fn == "walls.enumerate_walls":
            ok = walls_ok(args[0], args[1], args[2], out, pins)
            walls = out if ok else None
        elif fn == "walls.chambers_on_ray":
            ok = walls is not None and ray_ok(
                walls, args[0], args[2], F(args[3][0]), F(args[3][1]), out)
        elif fn in EXPECT:
            ok = out == EXPECT[fn](args)
        else:
            ok = PREDICATE[fn](args, out)
        verdicts.append("ok" if ok else "wrong")
    return verdicts
