"""The value-class contract: the 19 immutable result and parameter classes
behave as frozen dataclasses do (field-order repr, equality only within a
class, hash of the field tuple, no assignment, copy and pickle round
trips, tuple order for PhaseKey), and importing the CLI loads neither
``dataclasses`` nor ``inspect``.  Thirteen classes declare their fields
only and take the constructor that Frozen generates: it binds by
position or by name, fills ``_defaults`` and fails with the TypeError
texts of the hand-written constructors it replaced.  Eleven classes hold
their rational fields as ints over one denominator (``_q``): a value a
kernel builds from ints with ``_of`` is the value the constructor builds
from Fractions, and pickles made when the fields were Fractions load."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from math import gcd, lcm

import pytest

import mukaistab
from mukaistab import (
    Circle, Empty, Everywhere, PhaseKey, Region, Surface, VerticalLine,
    ample_class, category_walls_k3, central_charge, chambers_on_ray,
    classify_decomposition, enumerate_walls, is_wall_vector, make_transform,
    mv, param, phase_key, stable_existence, transform_central_charge,
)

AB = Surface("abelian", 2)
K3 = Surface("k3", 2)
V = mv(1, 0, -2)
WALL_P = param(F(-3, 2), t2=F(1, 4))   # on the wall of V cut by (1,-1,1)
T_P = param(F(1, 2), t=F(1, 3))
FM = make_transform(1, 0, AB)
MV = "MukaiVector(r=Fraction({}, 1), d=Fraction({}, 1), a=Fraction({}, 1))"

# (instance, field names, repr of the same instance before the classes
# were hand-written: each string was printed by the frozen dataclasses)
CASES = {
    "Surface": (AB, ("kind", "h2"), "Surface(kind='abelian', h2=2)"),
    "MukaiVector": (V, ("r", "d", "a"), MV.format(1, 0, -2)),
    "StabilityParam": (
        T_P, ("s", "t2", "t"),
        "StabilityParam(s=Fraction(1, 2), t2=Fraction(1, 9), "
        "t=Fraction(1, 3))"),
    "CentralCharge": (
        central_charge(V, WALL_P, AB), ("re", "im_over_t"),
        "CentralCharge(re=Fraction(0, 1), im_over_t=Fraction(3, 1))"),
    "PhaseKey": (phase_key(mv(0, 1, 0), WALL_P, AB), ("band", "slope"),
                 "PhaseKey(band=0, slope=Fraction(3, 2))"),
    "Circle": (Circle(F(-3, 2), F(1, 4)), ("center_s", "radius_sq"),
               "Circle(center_s=Fraction(-3, 2), radius_sq=Fraction(1, 4))"),
    "VerticalLine": (VerticalLine(F(1, 2)), ("s",),
                     "VerticalLine(s=Fraction(1, 2))"),
    "Empty": (Empty(), (), "Empty()"),
    "Everywhere": (Everywhere(), (), "Everywhere()"),
    "Region": (
        Region(-3, 0, "1/10", 4), ("s_min", "s_max", "t2_min", "t2_max"),
        "Region(s_min=Fraction(-3, 1), s_max=Fraction(0, 1), "
        "t2_min=Fraction(1, 10), t2_max=Fraction(4, 1))"),
    "Wall": (
        enumerate_walls(V, AB, Region(-3, 0, "1/10", 4))[0],
        ("A", "C", "D", "geometry", "v1"),
        "Wall(A=Fraction(-2, 1), C=Fraction(-6, 1), D=Fraction(-4, 1), "
        "geometry=Circle(center_s=Fraction(-3, 2), radius_sq=Fraction(1, 4)), "
        "v1=" + MV.format(-1, 2, -4) + ")"),
    "WallVectorReport": (
        is_wall_vector(mv(1, -1, 1), V, K3, s=F(-1, 2)),
        ("kind", "is_wall", "necessary_only", "details"),
        "WallVectorReport(kind='k3', is_wall=False, necessary_only=True, "
        "details={'square_v1': 0, 'square_v2': 2, 'pairing': 1, "
        "'proportional': False, "
        "'s': Fraction(-1, 2), 'd_beta_min': Fraction(1, 2), 'a': False, "
        "'b': False, 'c': True})"),
    "ChamberRay": (
        chambers_on_ray(V, AB, F(-3, 2), (F(1, 10), F(4))),
        ("s", "cut_points", "chambers"),
        "ChamberRay(s=Fraction(-3, 2), cut_points=(Fraction(1, 4),), "
        "chambers=((Fraction(1, 10), Fraction(1, 4)), "
        "(Fraction(1, 4), Fraction(4, 1))))"),
    "CategoryWall": (
        category_walls_k3(F(1, 2), K3, 10)[0], ("u", "t2"),
        "CategoryWall(u=" + MV.format(2, 1, 1) + ", t2=Fraction(1, 4))"),
    "FMTransform": (FM, ("r1", "c"), "FMTransform(r1=1, c=Fraction(0, 1))"),
    "TransformedCharge": (
        transform_central_charge(FM, T_P, AB),
        ("zeta_re", "zeta_im", "xi_coeff", "eta_coeff"),
        "TransformedCharge(zeta_re=Fraction(-5, 36), zeta_im=Fraction(-1, 3), "
        "xi_coeff=Fraction(-18, 13), eta_coeff=Fraction(12, 13))"),
    "AmpleClassReport": (
        ample_class(V, WALL_P, AB), ("phi", "xi1", "xi2", "xi_omega"),
        "AmpleClassReport(phi=Fraction(0, 1), xi1=" + MV.format(0, 1, 0)
        + ", xi2=MukaiVector(r=Fraction(-1, 1), d=Fraction(3, 2), "
        "a=Fraction(-2, 1)), xi_omega=" + MV.format(-2, 3, -4) + ")"),
    "DecompositionReport": (
        classify_decomposition([(1, mv(1, -1, 1)), (1, mv(0, 1, -3))],
                               WALL_P, AB),
        ("verdict", "witnesses", "bound", "certified"),
        "DecompositionReport(verdict='ExceptionalIsotropicPairingOne', "
        "witnesses=(" + MV.format(1, -1, 1) + ",), bound=None, "
        "certified=True)"),
    "StableExistenceReport": (
        stable_existence(V, WALL_P, AB),
        ("verdict", "witness", "certified", "bound"),
        "StableExistenceReport(verdict='ExceptionalWitness', witness="
        + MV.format(1, -1, 1) + ", certified=True, bound=None)"),
}
NAMES = sorted(CASES)


def fields(x, names):
    return tuple(getattr(x, f) for f in names)


def test_every_value_class_is_covered():
    assert len(CASES) == 19
    for name, (x, _, _) in CASES.items():
        assert type(x).__name__ == name and type(x) is getattr(mukaistab, name)


@pytest.mark.parametrize("name", NAMES)
def test_repr_golden(name):
    x, _, want = CASES[name]
    assert repr(x) == want


@pytest.mark.parametrize("name", NAMES)
def test_equality_only_within_a_class(name):
    x, names, _ = CASES[name]
    values = fields(x, names)
    assert x == copy.copy(x) and not (x != copy.copy(x))
    assert x != values and values != x            # not a tuple
    assert x.__eq__(values) is NotImplemented
    other = next(y for n, (y, _, _) in CASES.items() if n != name)
    assert x != other and x.__eq__(other) is NotImplemented


def test_equal_field_tuples_of_different_classes_differ():
    assert Empty() == Empty() and Everywhere() == Everywhere()
    assert Empty() != Everywhere()
    assert Circle(F(1), F(2)) != CASES["Circle"][0]
    assert Circle(F(-3, 2), F(1, 4)) == CASES["Circle"][0]


@pytest.mark.parametrize("name", NAMES)
def test_hash_is_the_field_tuple_hash(name):
    x, names, _ = CASES[name]
    values = fields(x, names)
    try:
        want = hash(values)
    except TypeError:      # a dict field, as in WallVectorReport
        with pytest.raises(TypeError):
            hash(x)
        return
    assert hash(x) == want


def test_zero_and_one_field_hashes():
    assert hash(Empty()) == hash(Everywhere()) == hash(())
    assert hash(VerticalLine(F(1, 2))) == hash((F(1, 2),))


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    x, names, want = CASES[name]
    for f in names + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(x, f, 0)
    for f in names:
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert repr(x) == want


@pytest.mark.parametrize("name", NAMES)
def test_copy_deepcopy_and_pickle_round_trip(name):
    x, names, want = CASES[name]
    copies = [copy.copy(x), copy.deepcopy(x)]
    copies += [pickle.loads(pickle.dumps(x, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        assert type(y) is type(x) and y == x and repr(y) == want
        assert fields(y, names) == fields(x, names)


def test_phase_key_keeps_tuple_order():
    vecs = [mv(r, d, a) for r in (-2, -1, 0, 1, 2) for d in (-1, 0, 1, 2)
            for a in (-3, 0, 1)]
    keys = [phase_key(u, WALL_P, AB) for u in vecs
            if not central_charge(u, WALL_P, AB).is_zero()]
    assert {k.band for k in keys} == {0, 1, 2, 3}
    for a in keys:
        ta = (a.band, a.slope)
        for b in keys:
            tb = (b.band, b.slope)
            assert ((a < b), (a <= b), (a > b), (a >= b), (a == b)) == \
                ((ta < tb), (ta <= tb), (ta > tb), (ta >= tb), (ta == tb))
    assert sorted(keys) == sorted(keys, key=lambda k: (k.band, k.slope))
    with pytest.raises(TypeError):
        PhaseKey(0, F(1)) < (0, F(2))
    with pytest.raises(TypeError):
        Circle(F(0), F(1)) < Circle(F(0), F(2))   # only PhaseKey is ordered


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the slots classes exist so that a CLI process skips these imports
    src = os.path.dirname(os.path.dirname(mukaistab.__file__))
    code = ("import sys; before = set(sys.modules); import mukaistab.cli; "
            "print(sorted({'dataclasses', 'inspect'} & "
            "(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


# the classes whose constructor only stores its arguments (reading a
# rational field with rat); the other four check their fields in an
# __init__ of their own
STORE_ONLY = [
    "AmpleClassReport", "CategoryWall", "ChamberRay", "CentralCharge",
    "Circle", "DecompositionReport", "MukaiVector", "PhaseKey",
    "StableExistenceReport", "TransformedCharge", "VerticalLine", "Wall",
    "WallVectorReport"]
OWN_INIT = ["FMTransform", "Region", "StabilityParam", "Surface"]


def test_exactly_four_value_classes_write_their_own_init():
    """A new result type declares its fields (and _defaults) only; an
    __init__ in src/ belongs to a class that converts or checks them."""
    src = os.path.dirname(mukaistab.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            found += [node.name for node in ast.walk(tree)
                      if isinstance(node, ast.ClassDef)
                      and any(getattr(b, "id", None) == "Frozen"
                              for b in node.bases)
                      and any(isinstance(f, ast.FunctionDef)
                              and f.name == "__init__" for f in node.body)]
    assert sorted(found) == OWN_INIT
    assert sorted(STORE_ONLY + OWN_INIT + ["Empty", "Everywhere"]) == NAMES


@pytest.mark.parametrize("name", STORE_ONLY)
def test_generated_init_binds_by_position_and_by_name(name):
    cls = getattr(mukaistab, name)
    _, names, _ = CASES[name]
    values = tuple(range(10, 10 + len(names)))
    x, y = cls(*values), cls(**dict(zip(names, values)))
    assert type(x) is cls and x == y and repr(x) == repr(y)
    assert fields(x, names) == values
    assert cls.__init__.__qualname__ == f"{name}.__init__"
    assert cls.__init__.__module__ == cls.__module__
    assert copy.copy(x) == x and pickle.loads(pickle.dumps(x)) == x


def test_generated_init_defaults():
    Wall, Dec = mukaistab.Wall, mukaistab.DecompositionReport
    Ser = mukaistab.StableExistenceReport
    assert Wall(1, 2, 3, 4) == Wall(1, 2, 3, 4, None)
    assert Wall(1, 2, 3, geometry=4).v1 is None
    assert fields(Dec("v"), CASES["DecompositionReport"][1]) == \
        ("v", (), None, True)
    assert Dec("v", bound=7) == Dec("v", (), 7, True)
    assert fields(Ser("v"), CASES["StableExistenceReport"][1]) == \
        ("v", None, True, None)
    assert Ser("v", bound=3, witness=V) == Ser("v", V, True, 3)


@pytest.mark.parametrize("call, text", [
    (lambda: Circle(), "Circle.__init__() missing 2 required positional "
                       "arguments: 'center_s' and 'radius_sq'"),
    (lambda: Circle(0), "Circle.__init__() missing 1 required positional "
                        "argument: 'radius_sq'"),
    (lambda: Circle(0, 1, 2), "Circle.__init__() takes 3 positional "
                              "arguments but 4 were given"),
    (lambda: Circle(0, 1, bogus=1), "Circle.__init__() got an unexpected "
                                    "keyword argument 'bogus'"),
    (lambda: Circle(0, 1, center_s=1), "Circle.__init__() got multiple "
                                       "values for argument 'center_s'"),
    (lambda: VerticalLine(), "VerticalLine.__init__() missing 1 required "
                             "positional argument: 's'"),
    (lambda: mukaistab.Wall(1), "Wall.__init__() missing 3 required "
                                "positional arguments: 'C', 'D', and "
                                "'geometry'"),
    (lambda: mukaistab.Wall(0, 1, 2, 3, 4, 5),
     "Wall.__init__() takes from 5 to 6 positional arguments but 7 were "
     "given"),
    (lambda: mukaistab.TransformedCharge(),
     "TransformedCharge.__init__() missing 4 required positional arguments: "
     "'zeta_re', 'zeta_im', 'xi_coeff', and 'eta_coeff'"),
    (lambda: mukaistab.DecompositionReport(),
     "DecompositionReport.__init__() missing 1 required positional "
     "argument: 'verdict'"),
    (lambda: mukaistab.DecompositionReport(0, 1, 2, 3, 4),
     "DecompositionReport.__init__() takes from 2 to 5 positional "
     "arguments but 6 were given"),
    (lambda: mukaistab.DecompositionReport(0, 1, 2, 3, verdict=1),
     "DecompositionReport.__init__() got multiple values for argument "
     "'verdict'"),
    (lambda: mukaistab.StableExistenceReport(0, x=1, y=2),
     "StableExistenceReport.__init__() got an unexpected keyword argument "
     "'x'"),
    (lambda: Empty(1), "Empty() takes no arguments"),
    (lambda: Everywhere(verdict=0), "Everywhere() takes no arguments"),
])
def test_constructor_type_errors_keep_their_text(call, text):
    # each text as the hand-written constructors raised it
    with pytest.raises(TypeError) as err:
        call()
    assert str(err.value) == text


# the classes that hold their rational fields as ints in _q, each with
# field values to build one from (a rational field as a Fraction)
INT_FORM = {
    "MukaiVector": (F(1, 2), F(-3), F(5, 7)),
    "StabilityParam": (F(-3, 2), F(1, 9), F(1, 3)),
    "Region": (F(-3), F(1, 2), F(1, 10), F(4)),
    "FMTransform": (2, F(-1, 3)),
    "CentralCharge": (F(0), F(3, 4)),
    "PhaseKey": (2, F(-5, 6)),
    "TransformedCharge": (F(-5, 36), F(-1, 3), F(-18, 13), F(12, 13)),
    "AmpleClassReport": (F(7, 2), V, mv(1, -1, 1), mv(-2, 3, -4)),
    "CategoryWall": (mv(2, 1, 1), F(1, 4)),
    "Circle": (F(-3, 2), F(1, 4)),
    "Wall": (F(-2), F(-6), F(-4), Circle(F(-3, 2), F(1, 4)), mv(-1, 2, -4)),
}


@pytest.mark.parametrize("k", [1, -1, 6, -35])
@pytest.mark.parametrize("name", sorted(INT_FORM))
def test_value_from_kernel_ints_matches_the_fraction_constructor(name, k):
    """cls._of takes the fields in order, a rational one as its numerator
    over a common den (k times the least one here, of either sign), and
    builds the value cls builds from the Fractions: the same canonical
    _q (den > 0, gcd 1), ==, repr, hash and pickle bytes."""
    cls, values = getattr(mukaistab, name), INT_FORM[name]
    held = [f not in cls.__slots__ for f in cls._names]
    den = k * lcm(*[x.denominator for x, h in zip(values, held) if h])
    ints = [int(x * den) if h else x for x, h in zip(values, held)]
    x, y = (cls._of(*ints, den) if den != 1 else cls._of(*ints)), cls(*values)
    assert type(x) is cls and x._q == y._q
    assert x._q[-1] > 0 and gcd(*x._q) == 1
    assert cls._of.__qualname__ == f"{name}._of"   # compiled on first call
    assert x == y and repr(x) == repr(y)
    assert hash(x) == hash(y) == hash(values)
    assert pickle.dumps(x) == pickle.dumps(y)
    assert pickle.loads(pickle.dumps(x)) == y
    assert fields(x, cls._names) == values
    assert all(type(getattr(x, f)) is F
               for f, h in zip(cls._names, held) if h)


def test_int_form_cases_cover_every_class_holding_q():
    assert sorted(INT_FORM) == sorted(
        name for name in NAMES if "_q" in getattr(mukaistab, name).__slots__)


# protocol-2 bytes pickled when these classes stored Fraction fields
OLD_PICKLES = [
    (b"\x80\x02cmukaistab.walls\nWall\nq\x00(cfractions\nFraction\nq\x01"
     b"J\xfe\xff\xff\xffK\x01\x86q\x02Rq\x03h\x01J\xfa\xff\xff\xffK\x01"
     b"\x86q\x04Rq\x05h\x01J\xfc\xff\xff\xffK\x01\x86q\x06Rq\x07cmukaistab."
     b"walls\nCircle\nq\x08h\x01J\xfd\xff\xff\xffK\x02\x86q\tRq\nh\x01K\x01"
     b"K\x04\x86q\x0bRq\x0c\x86q\rRq\x0ecmukaistab.lattice\nMukaiVector\nq"
     b"\x0fh\x01J\xff\xff\xff\xffK\x01\x86q\x10Rq\x11h\x01K\x02K\x01\x86q"
     b"\x12Rq\x13h\x01J\xfc\xff\xff\xffK\x01\x86q\x14Rq\x15\x87q\x16Rq\x17"
     b"tq\x18Rq\x19.", CASES["Wall"][0]),
    (b"\x80\x02cmukaistab.stability\nStabilityParam\nq\x00cfractions\n"
     b"Fraction\nq\x01K\x01K\x02\x86q\x02Rq\x03h\x01K\x01K\t\x86q\x04Rq"
     b"\x05h\x01K\x01K\x03\x86q\x06Rq\x07\x87q\x08Rq\t.", T_P),
    (b"\x80\x02cmukaistab.stability\nStabilityParam\nq\x00cfractions\n"
     b"Fraction\nq\x01J\xfd\xff\xff\xffK\x02\x86q\x02Rq\x03h\x01K\x01K"
     b"\x04\x86q\x04Rq\x05N\x87q\x06Rq\x07.", WALL_P),
]


@pytest.mark.parametrize("old, want", OLD_PICKLES)
def test_pickles_made_before_the_int_form_load(old, want):
    x = pickle.loads(old)
    assert type(x) is type(want) and x == want and x._q == want._q
    assert repr(x) == repr(want)


PRIVATE_FRACTION = {"_numerator", "_denominator", "_normalize",
                    "_from_coprime_ints"}


def test_no_module_reads_a_private_attribute_of_fraction():
    """Fraction's private names differ across Python 3.10-3.13 (3.12
    dropped the ``_normalize`` argument and added ``_from_coprime_ints``),
    so src/ names none of them, as an attribute or as a string."""
    src = os.path.dirname(mukaistab.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            found += [(name, node.lineno) for node in ast.walk(tree)
                      if getattr(node, "attr", None) in PRIVATE_FRACTION
                      or (isinstance(node, ast.Constant)
                          and node.value in PRIVATE_FRACTION)]
    assert found == []
