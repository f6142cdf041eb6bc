"""The failure contract: every error code is its class's name, every
public call on bad input ends in a typed error, and the public
preconditions hold also under ``python -O``, where ``assert`` is gone."""

import ast
import os
import pathlib
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import pytest

import mukaistab
from mukaistab import errors
from mukaistab.lattice import Frozen

ROOT = pathlib.Path(__file__).resolve().parent.parent

# written out, not derived: the CLI prints these as {"error": code}
CODES = {
    "MukaiStabError": "Error",
    "NonIntegral": "NonIntegral",
    "Zero": "Zero",
    "ZeroCharge": "ZeroCharge",
    "NonPositiveSquare": "NonPositiveSquare",
    "BoundOverflow": "BoundOverflow",
    "NotK3": "NotK3",
    "NotPrimitive": "NotPrimitive",
    "ZeroRank": "ZeroRank",
    "ZeroDegree": "ZeroDegree",
    "OutOfDomain": "OutOfDomain",
    "NotAligned": "NotAligned",
    "UsageError": "UsageError",
}


def test_every_error_code_is_pinned():
    found = {name: cls.code for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, errors.MukaiStabError)}
    assert found == CODES


def test_subclass_defined_elsewhere_reports_its_own_name():
    class BoxTooSmall(errors.BoundOverflow):
        pass

    assert BoxTooSmall.code == "BoxTooSmall"
    assert str(BoxTooSmall()) == "BoxTooSmall"


# the four public preconditions that were once plain asserts: each must
# raise its typed error with this message in every interpreter mode
PRECONDITIONS = textwrap.dedent("""
    from mukaistab import (Surface, Wall, errors, l_divisor, mv,
                           wall_locus)
    from fractions import Fraction as F
    S = Surface("abelian", 2)
    calls = [
        (lambda: wall_locus(mv(0, 0, 0), mv(1, 0, -2), S), errors.Zero,
         "wall_locus needs nonzero classes"),
        (lambda: Wall(F(-1, 3), F(1), F(-2, 3), None).acd_key(),
         errors.NonIntegral,
         "wall coefficients of integral classes are integers"),
        (lambda: mv("1/2", 0, 0).content(), errors.NonIntegral,
         "vector (1/2,0,0) is not integral"),
        (lambda: l_divisor(1, -3), errors.OutOfDomain,
         "l_divisor needs t^2 > 0"),
    ]
    for call, cls, detail in calls:
        try:
            out = call()
        except cls as e:
            if e.detail != detail:  # no assert: the child may run with -O
                raise SystemExit(f"detail {e.detail!r}, wanted {detail!r}")
        else:
            raise SystemExit(f"returned {out!r} instead of raising {cls}")
    print("ok")
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_preconditions_raise_typed_errors(flags):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *flags, "-c", PRECONDITIONS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_asserts_are_the_two_internal_invariants():
    """python -O strips asserts, so src/ keeps only the two that check the
    library's own arithmetic: the kernel basis annihilates its functional
    and perp_basis's basis is orthogonal to v.  A public precondition
    written as an assert shows up here."""
    found = []
    for path in sorted((ROOT / "src" / "mukaistab").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # ast.walk is breadth first: the innermost function wins
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        found += [(path.name, owner.get(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == [("lattice.py", "_kernel_basis_of_functional"),
                     ("lattice.py", "perp_basis")]


def test_every_error_class_is_raised():
    """Each class of errors.py below MukaiStabError is raised by name
    (raise Name(...) or raise Name) in some module of src/, cli.py
    included: a class that no code raises is a dead name in the
    contract."""
    raised = set()
    for path in sorted((ROOT / "src" / "mukaistab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                exc = getattr(node.exc, "func", node.exc)  # Name(...) or Name
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert set(CODES) - {"MukaiStabError"} - raised == set()


def test_every_imported_name_is_used():
    """Each name a module of src/ imports is read in that module, so a
    check moved behind a lattice reader leaves no import of its error
    class behind."""
    unused = []
    for path in sorted((ROOT / "src" / "mukaistab").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append((path.name, name))
    assert unused == []


def _class_checks():
    S = mukaistab.Surface("abelian", 2)
    reg = mukaistab.Region(-3, 0, F(1, 10), 4)
    half, twice = mukaistab.mv("1/2", 0, 0), mukaistab.mv(2, 0, -4)
    return {
        "walls-integral": (lambda: mukaistab.enumerate_walls(half, S, reg),
                           errors.NonIntegral, "v (1/2,0,0) is not integral"),
        "walls-primitive": (lambda: mukaistab.enumerate_walls(twice, S, reg),
                            errors.NotPrimitive, "v (2,0,-4) has content 2"),
        "chambers-integral": (lambda: mukaistab.chambers_on_ray(
            half, S, F(-3, 2), (F(1, 10), 4)),
            errors.NonIntegral, "v (1/2,0,0) is not integral"),
        "chambers-primitive": (lambda: mukaistab.chambers_on_ray(
            twice, S, F(-3, 2), (F(1, 10), 4)),
            errors.NotPrimitive, "v (2,0,-4) has content 2"),
        "is_wall_vector": (lambda: mukaistab.is_wall_vector(
            half, mukaistab.mv(1, 0, -2), S),
            errors.NonIntegral, "v1 (1/2,0,0) is not integral"),
        "perp_basis": (lambda: mukaistab.perp_basis(half, S),
                       errors.NonIntegral, "v (1/2,0,0) is not integral"),
    }


@pytest.mark.parametrize("case", _class_checks())
def test_class_checks_name_the_argument(case):
    """The lattice readers' wording: "<noun> <v> is not integral" and
    "<noun> <v> has content <g>", the noun naming the argument."""
    call, cls, detail = _class_checks()[case]
    with pytest.raises(cls) as info:
        call()
    assert info.value.detail == detail


# ---------------------------------------------------------------------------
# fuzz: every public function and method on random inputs

def _rat(rng, lo=-4, hi=4):
    return F(rng.randint(lo, hi), rng.choice((1, 1, 2, 3)))


# more walk steps than len() of a range can count (about 10^20 m-lines at
# t2_min = 10^-40), and bounds beyond the float range
EXTREME = (F(1, 10 ** 40), F(10 ** 400), F(-10 ** 400))


def _wide(rng, lo=-4, hi=4):
    """_rat, or one time in eight an extreme value."""
    return rng.choice(EXTREME) if rng.random() < 0.125 else _rat(rng, lo, hi)


def _vector(rng):
    kind = rng.choice(("zero", "integral", "integral", "rational", "multiple"))
    if kind == "zero":
        return mukaistab.mv(0, 0, 0)
    if kind == "rational":
        return mukaistab.mv(_rat(rng), _rat(rng), _rat(rng))
    v = mukaistab.mv(*(rng.randint(-4, 4) for _ in range(3)))
    return rng.randint(2, 3) * v if kind == "multiple" else v


# a walk cap or search bound that is no int
NOT_INT = (None, "5", 1.5, F(7, 2))


def _inputs(rng, odd):
    """One draw: a surface, classes, twists, signed t^2 values (the
    twists and t^2 values sometimes extreme), a point (always valid, with
    or without an exact t) and small caps and bounds, each one time in
    eight replaced by a NOT_INT value drawn from odd."""
    S = mukaistab.Surface(rng.choice(("abelian", "k3")), rng.choice((2, 4, 6)))
    t = F(rng.randint(1, 6), rng.randint(1, 3))
    p = (mukaistab.param(_rat(rng), t=t) if rng.random() < 0.5
         else mukaistab.param(_rat(rng), t2=t * t))
    parts = [(rng.randint(-1, 2), _vector(rng))
             for _ in range(rng.randint(0, 3))]
    return dict(S=S, v=_vector(rng), w=_vector(rng), s=_wide(rng),
                x=_wide(rng), t2=_wide(rng, -1, 6), t2b=_wide(rng, 1, 6), p=p,
                parts=parts, r1=rng.randint(-3, 3), c=_rat(rng),
                cap=_not_int(odd, rng.randint(0, 40)),
                bound=_not_int(odd, rng.randint(0, 3)),
                flag=rng.random() < 0.5)


def _not_int(odd, n):
    return odd.choice(NOT_INT) if odd.random() < 0.125 else n


def _t2_range(d):
    return tuple(sorted((d["t2"], d["t2b"])))


def _region(d):
    return mukaistab.Region(*sorted((d["s"], d["x"])), *_t2_range(d))


def _transform(d):
    return mukaistab.FMTransform(d["r1"] or 1, d["c"])


def _twisted(d):
    return mukaistab.twisted_invariants(d["v"], d["s"], d["S"])


PUBLIC_CALLS = {
    "mukai_pairing": lambda d: mukaistab.mukai_pairing(d["v"], d["w"], d["S"]),
    "mukai_square": lambda d: mukaistab.mukai_square(d["v"], d["S"]),
    "sheaf_vector": lambda d: mukaistab.sheaf_vector(
        d["r1"], d["bound"], d["cap"], d["S"]),
    "exp_vector": lambda d: mukaistab.exp_vector(d["s"], d["S"]),
    "twisted_invariants": _twisted,
    "d_beta": lambda d: mukaistab.d_beta(d["v"], d["s"], d["S"]),
    "d_beta_min": lambda d: mukaistab.d_beta_min(d["s"], d["S"]),
    "perp_basis": lambda d: mukaistab.perp_basis(d["v"], d["S"]),
    "MukaiVector.content": lambda d: d["v"].content(),
    "MukaiVector.is_primitive": lambda d: d["v"].is_primitive(),
    "central_charge": lambda d: mukaistab.central_charge(d["v"], d["p"], d["S"]),
    "CentralCharge.im_at": lambda d: mukaistab.central_charge(
        d["v"], d["p"], d["S"]).im_at(d["x"]),
    "reduced_sigma": lambda d: mukaistab.reduced_sigma(
        d["w"], d["v"], d["p"], d["S"]),
    "phase_key": lambda d: mukaistab.phase_key(d["v"], d["p"], d["S"]),
    "wall_locus": lambda d: mukaistab.wall_locus(d["w"], d["v"], d["S"]),
    "Wall.acd_key": lambda d: mukaistab.wall_locus(
        d["w"], d["v"], d["S"]).acd_key(),
    "is_wall_vector": lambda d: mukaistab.is_wall_vector(
        d["w"], d["v"], d["S"], d["s"]),
    "enumerate_walls": lambda d: mukaistab.enumerate_walls(
        d["v"], d["S"], _region(d), cap=d["cap"]),
    "chambers_on_ray": lambda d: mukaistab.chambers_on_ray(
        d["v"], d["S"], d["s"], _t2_range(d), d["flag"], cap=d["cap"]),
    "wall_side": lambda d: mukaistab.wall_side(d["v"], d["w"], d["p"], d["S"]),
    "category_walls_k3": lambda d: mukaistab.category_walls_k3(
        d["s"], d["S"], d["t2"]),
    "make_transform": lambda d: mukaistab.make_transform(
        d["r1"], d["c"], d["S"]),
    "FMTransform.kernel_class": lambda d: _transform(d).kernel_class(d["S"]),
    "fm_apply": lambda d: mukaistab.fm_apply(_transform(d), d["v"], d["S"]),
    "fm_inverse": lambda d: mukaistab.fm_inverse(_transform(d), d["v"], d["S"]),
    "dual": lambda d: mukaistab.dual(d["v"]),
    "l_divisor": lambda d: mukaistab.l_divisor(d["x"], d["t2"]),
    "transform_central_charge": lambda d: mukaistab.transform_central_charge(
        _transform(d), d["p"], d["S"]),
    "ample_class": lambda d: mukaistab.ample_class(d["v"], d["p"], d["S"]),
    "omega_x": lambda d: mukaistab.omega_x(d["v"], d["s"], d["x"], d["S"]),
    "omega_sx": lambda d: mukaistab.omega_sx(d["v"], d["s"], d["x"], d["S"]),
    "find_isotropic_pairing_one": lambda d: (
        mukaistab.find_isotropic_pairing_one(d["v"], d["p"], d["S"],
                                             d["bound"])),
    "find_minus_two_aligned": lambda d: mukaistab.find_minus_two_aligned(
        d["p"], d["S"], d["bound"], d["v"]),
    "classify_decomposition": lambda d: mukaistab.classify_decomposition(
        d["parts"], d["p"], d["S"]),
    "stable_existence": lambda d: mukaistab.stable_existence(
        d["v"], d["p"], d["S"]),
}


def _from_value_class(exc):
    """True when exc was raised inside one of the package's value classes
    (a Frozen method such as a constructor that checks its fields) or by
    the coercion rat, whose message must name the value it refused:
    their ValueError/TypeError is documented."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    frame = tb.tb_frame
    if not frame.f_code.co_filename.startswith(str(ROOT / "src")):
        return False
    if frame.f_code.co_name == "rat":
        return repr(frame.f_locals["x"]) in str(exc)
    return isinstance(frame.f_locals.get("self"), Frozen)


# text that is no rational and values of no rational type, each given to
# the value classes in place of one of their rational arguments
BAD_VALUES = ("1/0", "abc", "", None, (1, 2))

VALUE_CALLS = {
    "mv": (mukaistab.mv, lambda d: [d["s"], d["x"], d["c"]]),
    "param": (lambda s, t2: mukaistab.param(s, t2=t2),
              lambda d: [d["p"].s, d["p"].t2]),
    "Region": (mukaistab.Region,
               lambda d: [*sorted((d["s"], d["x"])), *_t2_range(d)]),
    "FMTransform": (lambda c: mukaistab.FMTransform(1, c),
                    lambda d: [d["c"]]),
}


# vector arithmetic with an operand of the wrong type: x is no vector, k
# no rational
OPERATOR_CALLS = {
    "v + x": lambda v, x, k: v + x,
    "v - x": lambda v, x, k: v - x,
    "k * v": lambda v, x, k: k * v,
}


def _operand_type_error(exc):
    """True for the TypeError Python raises for an operand that the
    operator does not take (its methods return NotImplemented), or for
    one raised under the coercion rat, which __rmul__ applies to k."""
    if not isinstance(exc, TypeError):
        return False
    if str(exc).startswith("unsupported operand type(s)"):
        return True
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if code.co_name == "rat" and code.co_filename.startswith(
                str(ROOT / "src")):
            return True
        tb = tb.tb_next
    return False


def test_public_api_fails_only_with_typed_errors():
    """Every public call on the seeded draws; v + x, v - x and k * v
    with x drawn from non-vectors and k from non-rationals, which must
    raise TypeError; and mv, param, Region and FMTransform with one
    argument drawn from BAD_VALUES, which must raise."""
    rng, operands = random.Random(20261019), random.Random(20261020)
    values, odd = random.Random(20261021), random.Random(20261022)
    untyped = {}
    for _ in range(400):
        d = _inputs(rng, odd)
        for name, call in PUBLIC_CALLS.items():
            try:
                call(d)
            except errors.MukaiStabError:
                pass
            except (ValueError, TypeError) as e:
                if not _from_value_class(e):
                    untyped.setdefault(name, repr(e))
            except Exception as e:  # noqa: BLE001 - any other class fails
                untyped.setdefault(name, repr(e))
        x = operands.choice((operands.randint(-3, 3), "x", None, (1, 2)))
        k = operands.choice((None, (1, 2)))
        for name, call in OPERATOR_CALLS.items():
            try:
                untyped.setdefault(name, f"returned {call(d['v'], x, k)!r}")
            except Exception as e:  # noqa: BLE001 - checked below
                if not _operand_type_error(e):
                    untyped.setdefault(name, repr(e))
        for cls, (make, rationals) in VALUE_CALLS.items():
            args, bad = rationals(d), values.choice(BAD_VALUES)
            args[values.randrange(len(args))] = bad
            name = f"{cls} given {bad!r}"
            try:
                untyped.setdefault(name, f"returned {make(*args)!r}")
            except (ValueError, TypeError) as e:
                if not _from_value_class(e):
                    untyped.setdefault(name, repr(e))
            except Exception as e:  # noqa: BLE001 - any other class fails
                untyped.setdefault(name, repr(e))
    assert untyped == {}


def test_rat_names_the_value_it_refuses():
    """rat is the one reader of rationals, the command line's included:
    text that is no rational is a ValueError with the CLI's usage text
    and any other non-rational, a bool included, a TypeError, each naming
    the value."""
    detail = "cannot parse rational '1/0': Fraction(1, 0)"
    for call in (lambda: mukaistab.mv("1/0", 0, 0),
                 lambda: mukaistab.param("1/0", t2=1)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == detail
    for bad in (None, True):
        for call in (lambda: mukaistab.mv(bad, 0, 0),
                     lambda: mukaistab.param(bad, t2=1),
                     lambda: bad * mukaistab.mv(1, 0, 0)):
            with pytest.raises(TypeError, match=repr(bad)):
                call()


def test_a_cap_or_bound_that_is_no_int_is_non_integral():
    """cap counts walk steps and bound the entries of a box: a value that
    is no int, a bool included, is refused with NonIntegral naming it,
    before any work, not compared as a number or let through to a raw
    TypeError."""
    S, v = mukaistab.Surface("k3", 2), mukaistab.mv(1, 0, -2)
    p = mukaistab.param(F(-3, 2), t2=1)
    reg = mukaistab.Region(-3, 0, F(1, 10), 4)
    calls = {
        "enumerate_walls": lambda n: mukaistab.enumerate_walls(
            v, S, reg, cap=n),
        "chambers_on_ray": lambda n: mukaistab.chambers_on_ray(
            v, S, F(-3, 2), (F(1, 10), 4), cap=n),
        "find_isotropic_pairing_one": lambda n: (
            mukaistab.find_isotropic_pairing_one(v, p, S, n)),
        "find_minus_two_aligned": lambda n: mukaistab.find_minus_two_aligned(
            p, S, n, v),
    }
    for name, call in calls.items():
        for n in NOT_INT + (True, False):
            with pytest.raises(errors.NonIntegral) as info:
                call(n)
            assert repr(n) in info.value.detail, name


@pytest.mark.parametrize("n", [True, False])
def test_a_bool_is_no_integer_argument(n):
    """A bool is an int subclass, but no r1 or multiplicity: each is
    refused with the text the check gives any other value that is no
    int, not read as 1 or 0."""
    S = mukaistab.Surface("abelian", 2)
    with pytest.raises(errors.NonIntegral,
                       match=f"^r1 must be a nonzero integer, got {n}$"):
        mukaistab.FMTransform(n, 0)
    with pytest.raises(errors.NonIntegral,
                       match=f"^r1 must be a nonzero integer, got {n}$"):
        mukaistab.make_transform(n, 0, S)
    parts = [(n, mukaistab.mv(1, -1, 1)), (1, mukaistab.mv(0, 1, -3))]
    with pytest.raises(errors.NonIntegral, match="^multiplicity must be a "
                       f"positive integer, got {n}$"):
        mukaistab.classify_decomposition(
            parts, mukaistab.param(F(-3, 2), t2=F(1, 4)), S)
