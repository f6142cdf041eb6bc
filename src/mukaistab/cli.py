"""Command-line front end.

Every numeric value in JSON output is a lowest-terms rational string
("p/q" or "p"), never a float; keys are sorted and lists are emitted in
a deterministic order, so repeated runs are byte-identical.  `--approx`
adds a parallel "approx" object with floating-point renderings for
human reading.  Errors go to stderr as {"error": code, "detail": ...}
with the exit code of the error's class (errors.py): 1 (usage, and the
ValueError of a value that ``rat`` or a value class refuses), 2
(domain/precondition), 3 (bound exhausted).

All configuration comes from flags or a single JSON file given with
`--config` (flat object keyed by flag name with underscores; a switch
takes true or false).  Config values pass through the same parser as
typed flags, and explicit flags win.  No environment variables are
consulted.

Only `errors` and `lattice` load with this module, since every handler
reads vectors; a handler reads every other name as ``mukaistab.<name>``,
as ``import mukaistab`` users do, so the package loads its module on
first use.  A call builds the parser of its own subcommand only, so a
process compiles and builds no more than its subcommand runs.
"""

import argparse
import json
import math
import re
import sys
from fractions import Fraction

import mukaistab

from .errors import MukaiStabError, UsageError
from .lattice import (MukaiVector, Surface, d_beta_min, mukai_pairing, rat,
                      twisted_invariants)

DEFAULT_SURFACE = '{"kind":"abelian","h2":2}'
DEFAULT_SURFACE_K3 = '{"kind":"k3","h2":2}'


# ---------------------------------------------------------------------------
# parsing and rendering

def _parse_vec(text) -> MukaiVector:
    parts = str(text).split(",")
    if len(parts) != 3:
        raise UsageError(f"vector literal must be 'r,d,a', got {text!r}")
    return MukaiVector(*parts)


def _parse_surface(text) -> Surface:
    try:
        obj = json.loads(text)
        return Surface(obj["kind"], obj["h2"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise UsageError(f"bad surface JSON {text!r}: {e}")


def _parse_parts(text):
    """Decomposition literal: semicolon-separated parts, each 'r,d,a' or
    'n*r,d,a' with n the multiplicity (default 1)."""
    parts = []
    for chunk in str(text).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "*" in chunk:
            n_text, vec_text = chunk.split("*", 1)
            try:
                n = int(n_text)
            except ValueError:
                raise UsageError(f"bad multiplicity in {chunk!r}")
        else:
            n, vec_text = 1, chunk
        parts.append((n, _parse_vec(vec_text)))
    if not parts:
        raise UsageError("empty decomposition")
    return parts


def _fmt_vec(v: MukaiVector) -> str:
    return f"{v.r},{v.d},{v.a}"


def _render(obj, num, vec):
    """The payload as JSON data, with num applied to each rational and
    vec to each vector."""
    if isinstance(obj, Fraction):
        return num(obj)
    if isinstance(obj, MukaiVector):
        return vec(obj)
    if isinstance(obj, dict):
        return {k: _render(x, num, vec) for k, x in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_render(x, num, vec) for x in obj]
    return obj


def _emit_json(payload, approx: bool):
    # exact form: rationals as lowest-terms strings, vectors as 'r,d,a'
    doc = _render(payload, str, _fmt_vec)
    if approx:
        doc["approx"] = _render(payload, float,
                                lambda v: [float(x) for x in v.as_tuple()])
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


# ---------------------------------------------------------------------------
# SVG

def _f(x) -> str:
    return f"{float(x):.6f}"


def _svg_box(reg):
    """(s0, t0, t1, scale, height) of the plot of reg: s horizontal,
    t = sqrt(t^2) vertical, equal scales, 1000px wide.  A box that is
    empty, has a bound beyond float range, or has no finite nonzero float
    width or height at that scale, is a UsageError."""
    if reg.s_min >= reg.s_max:
        raise UsageError("plotting needs s_min < s_max")
    if reg.t2_min >= reg.t2_max:
        raise UsageError("plotting needs t2_min < t2_max")
    try:
        s0, s1 = float(reg.s_min), float(reg.s_max)
        t0, t1 = math.sqrt(float(reg.t2_min)), math.sqrt(float(reg.t2_max))
    except OverflowError:
        raise UsageError("plotting needs bounds in the float range, of "
                         f"absolute value at most {sys.float_info.max}") from None
    if s1 == s0:
        raise UsageError("plotting needs a box of nonzero float width: "
                         "s_min and s_max round to one float")
    scale = 1000.0 / (s1 - s0)
    height = (t1 - t0) * scale
    if scale == 0 or not math.isfinite(height):
        raise UsageError("plotting needs a box of finite float size: its "
                         "width, or its height at 1000 px wide, overflows")
    if height == 0:
        raise UsageError("plotting needs a box of nonzero float height: "
                         "its t range rounds to 0 px at 1000 px wide")
    return s0, t0, t1, scale, height


def _svg_walls(v, reg, walls, box) -> str:
    """Deterministic SVG of the walls over reg on _svg_box's frame; each
    wall circle stroked and labeled with its representative class.
    Floats appear only here, at render time."""
    s0, t0, t1, scale, height = box
    width = 1000.0

    def X(s):
        return (float(s) - s0) * scale

    def Y(t):
        return height - (float(t) - t0) * scale

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
               f'viewBox="0 0 {_f(width)} {_f(height)}" '
               f'width="{_f(width)}" height="{_f(height)}">')
    out.append('<defs><clipPath id="box">'
               f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}"/>'
               '</clipPath></defs>')
    out.append(f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}" '
               'fill="white" stroke="black" stroke-width="1"/>')
    out.append('<g clip-path="url(#box)">')
    for w in walls:  # every wall is a circle
        g = w.geometry
        radius = math.sqrt(float(g.radius_sq))
        out.append(f'<circle cx="{_f(X(g.center_s))}" cy="{_f(Y(0.0))}" '
                   f'r="{_f(radius * scale)}" fill="none" '
                   'stroke="steelblue" stroke-width="1.5"/>')
        label_y = Y(min(radius, t1))
        out.append(f'<text x="{_f(X(g.center_s))}" y="{_f(label_y - 4)}" '
                   'font-size="12" text-anchor="middle" fill="black">'
                   f'{_fmt_vec(w.v1)}</text>')
    out.append('</g>')
    # frame annotations: exact rational corner labels
    out.append(f'<text x="2" y="{_f(height - 4)}" font-size="12">'
               f's={reg.s_min}</text>')
    out.append(f'<text x="{_f(width - 2)}" y="{_f(height - 4)}" font-size="12" '
               f'text-anchor="end">s={reg.s_max}</text>')
    out.append(f'<text x="2" y="14" font-size="12">t2={reg.t2_max}</text>')
    out.append(f'<text x="2" y="{_f(height - 18)}" font-size="12">'
               f't2={reg.t2_min}</text>')
    out.append(f'<text x="{_f(width / 2)}" y="14" font-size="12" '
               f'text-anchor="middle">v={_fmt_vec(v)}</text>')
    out.append('</svg>')
    return "\n".join(out)


def _wall_payload(w):
    g = w.geometry  # a circle: enumerate_walls returns no other locus
    return {"A": w.A, "C": w.C, "D": w.D,
            "geometry": {"type": "circle", "center_s": g.center_s,
                         "radius_sq": g.radius_sq},
            "representative": w.v1}


# ---------------------------------------------------------------------------
# argument plumbing

class _Parser(argparse.ArgumentParser):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        # accept '-3/2' and '-1,2,-4' as values, not option strings
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        raise UsageError(message)


# the flags that carry argparse options; every other flag is a plain
# string that defaults to None
_FLAGS = {
    "to": {"help": "also re-twist to this s"},
    "r1": {"type": int},
    "cap": {"type": int, "default": 10 ** 6},
    "format": {"choices": ("json", "svg", "plain"), "default": "json"},
    "cut-category-walls": {"action": "store_true", "default": False},
    "absolute": {"action": "store_true", "default": False,
                 "help": "x is an absolute coordinate, not relative to s"},
    "parts": {"help": "'n*r,d,a;...' (n optional)"},
}


def _build_parser(only=None):
    """The top-level parser and its subparsers by name: every subcommand,
    or only the one named ``only``, built as the full parser builds it."""
    ap = _Parser(prog="mukaistab",
                 description="exact wall-and-chamber computations on the "
                             "rank-3 Mukai lattice")
    sub = ap.add_subparsers(dest="command", metavar="command")
    for name in _COMMANDS if only is None else [only]:
        help_text, required, optional, _ = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        for flag in required + optional:
            sp.add_argument("--" + flag, **_FLAGS.get(flag, {}))
        surface = (DEFAULT_SURFACE_K3 if name == "k3-category-walls"
                   else DEFAULT_SURFACE)
        sp.add_argument("--surface", default=surface,
                        help=f"surface JSON (default {surface})")
        sp.add_argument("--config", default=None,
                        help="JSON file with default flag values")
        sp.add_argument("--approx", action="store_true", default=False,
                        help="add floating-point annotations")
        if name == "plot":
            sp.set_defaults(format="svg")  # plot is walls --format svg
    return ap, sub.choices


def _config_tokens(path, parser):
    """The flags of a --config file as '--flag=value' tokens for the
    subcommand ``parser``, so they get the same type checks as typed
    flags.  Keys are flag names with underscores or dashes.  A key that
    is a flag of no subcommand (not in _CONFIG_KEYS) is a UsageError
    that names it, as a typed unknown flag is; keys of other
    subcommands, and null values, are skipped, so one file can serve
    several subcommands.  A switch takes true or false."""
    try:
        with open(path) as fh:
            conf = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read config {path!r}: {e}")
    if not isinstance(conf, dict):
        raise UsageError("config must be a JSON object")
    flags = {a.dest: a for a in parser._actions
             if a.option_strings and a.dest not in ("config", "help")}
    tokens = []
    for key, value in conf.items():
        dest = key.replace("-", "_")
        if dest not in _CONFIG_KEYS:
            raise UsageError(f"config key {key!r} is not a flag of any "
                             "command")
        action = flags.get(dest)
        if action is None or value is None:
            continue
        flag = action.option_strings[0]
        if action.nargs != 0:
            tokens.append(f"{flag}={value}")
        elif not isinstance(value, bool):
            raise UsageError(f"config value for {key!r} must be true or "
                             f"false, got {value!r}")
        elif value:
            tokens.append(flag)
    return tokens


def _need(args, names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise UsageError("missing required flag(s): "
                         + ", ".join("--" + n for n in missing))


# ---------------------------------------------------------------------------
# handlers

def _cmd_pair(args, S):
    x, y = _parse_vec(args.x), _parse_vec(args.y)
    return {"pairing": mukai_pairing(x, y, S)}


def _cmd_twist(args, S):
    v, s = _parse_vec(args.v), rat(args.s)
    w = twisted_invariants(v, s, S)
    payload = {"r_beta": w.r, "d_beta": w.d, "a_beta": w.a,
               "d_beta_min": d_beta_min(s, S)}
    if args.to is not None:
        to = rat(args.to)
        w = twisted_invariants(v, to, S)
        payload["retwisted"] = {"s": to, "r_beta": w.r, "d_beta": w.d,
                                "a_beta": w.a}
    return payload


def _cmd_charge(args, S):
    v, s = _parse_vec(args.v), rat(args.s)
    if args.t is None and args.t2 is None:
        raise UsageError("charge needs --t or --t2")
    p = mukaistab.param(s, t2=args.t2, t=args.t)  # refuses t^2 != t2
    z = mukaistab.central_charge(v, p, S)
    if p.t is not None:
        return {"re": z.re, "im": z.im_at(p.t)}
    return {"re": z.re, "im_over_t": z.im_over_t}


def _cmd_walls(args, S):
    v = _parse_vec(args.v)
    reg = mukaistab.Region(args.s_min, args.s_max, args.t2_min, args.t2_max)
    box = _svg_box(reg) if args.format == "svg" else None  # before the walk
    walls = mukaistab.enumerate_walls(v, S, reg, cap=args.cap)
    if box:
        print(_svg_walls(v, reg, walls, box))
        return None
    if args.format == "plain":
        for w in walls:
            g = w.geometry
            print(f"circle center_s={g.center_s} radius_sq={g.radius_sq} "
                  f"A={w.A} C={w.C} D={w.D} representative={_fmt_vec(w.v1)}")
        return None
    return {"v": v, "walls": [_wall_payload(w) for w in walls]}


def _cmd_chambers(args, S):
    ray = mukaistab.chambers_on_ray(_parse_vec(args.v), S, rat(args.s),
                                    (rat(args.t2_min), rat(args.t2_max)),
                                    cut_category_walls=args.cut_category_walls,
                                    cap=args.cap)
    return {"s": ray.s, "cut_points": list(ray.cut_points),
            "chambers": [list(ch) for ch in ray.chambers]}


def _cmd_side(args, S):
    v, w1 = _parse_vec(args.v), _parse_vec(args.w1)
    p = mukaistab.param(args.s, t2=args.t2)
    return {"side": mukaistab.wall_side(v, w1, p, S),
            "rho": mukaistab.reduced_sigma(w1, v, p, S)}


def _cmd_fm(args, S):
    T = mukaistab.make_transform(args.r1, rat(args.c), S)
    v = _parse_vec(args.v)
    return {"kernel": T.kernel_class(S), "image": mukaistab.fm_apply(T, v, S)}


def _cmd_fm_charge(args, S):
    T = mukaistab.make_transform(args.r1, rat(args.c), S)
    p = mukaistab.param(args.s, t=args.t)
    tc = mukaistab.transform_central_charge(T, p, S)
    return {"zeta_re": tc.zeta_re, "zeta_im": tc.zeta_im,
            "xi": tc.xi_coeff, "eta": tc.eta_coeff}


def _cmd_ample(args, S):
    v, p = _parse_vec(args.v), mukaistab.param(args.s, t2=args.t2)
    rep = mukaistab.ample_class(v, p, S)
    return {"phi": rep.phi, "xi1": rep.xi1, "xi2": rep.xi2,
            "xi_omega": rep.xi_omega}


def _cmd_omega_x(args, S):
    v, s, x = _parse_vec(args.v), rat(args.s), rat(args.x)
    omega = mukaistab.omega_sx if args.absolute else mukaistab.omega_x
    return {"t2": omega(v, s, x, S)}


def _cmd_classify(args, S):
    parts, p = _parse_parts(args.parts), mukaistab.param(args.s, t2=args.t2)
    rep = mukaistab.classify_decomposition(parts, p, S)
    return {"verdict": rep.verdict, "certified": rep.certified,
            "witnesses": list(rep.witnesses)}


def _cmd_k3_category_walls(args, S):
    walls = mukaistab.category_walls_k3(rat(args.b), S, rat(args.t2_max))
    return {"walls": [{"u": cw.u, "t2": cw.t2} for cw in walls]}


_REGION = ["v", "s-min", "s-max", "t2-min", "t2-max"]

# each subcommand once: name -> (help, required flags, optional flags,
# handler); the flags are added in this order, then the common ones
_COMMANDS = {
    "pair": ("Mukai pairing of two classes", ["x", "y"], [], _cmd_pair),
    "twist": ("twisted invariants at beta = s*H", ["v", "s"], ["to"],
              _cmd_twist),
    "charge": ("central charge at (s, t)", ["v", "s"], ["t", "t2"],
               _cmd_charge),
    "walls": ("enumerate walls over a region", _REGION, ["cap", "format"],
              _cmd_walls),
    "chambers": ("wall cuts on a vertical ray", ["v", "s", "t2-min", "t2-max"],
                 ["cut-category-walls", "cap"], _cmd_chambers),
    "side": ("which side of a wall a point is on", ["v", "w1", "s", "t2"],
             [], _cmd_side),
    "fm": ("Fourier-Mukai image of a class", ["r1", "c", "v"], [], _cmd_fm),
    "fm-charge": ("transformed stability data", ["r1", "c", "s", "t"], [],
                  _cmd_fm_charge),
    "ample": ("ample class of v at (s, t2)", ["v", "s", "t2"], [],
              _cmd_ample),
    "omega-x": ("t2 at which v meets a slope reference", ["v", "s", "x"],
                ["absolute"], _cmd_omega_x),
    "classify": ("classify an aligned decomposition", ["parts", "s", "t2"],
                 [], _cmd_classify),
    "k3-category-walls": ("category walls at beta = b*H", ["b", "t2-max"],
                          [], _cmd_k3_category_walls),
    "plot": ("SVG wall diagram over a region", _REGION, ["cap"], _cmd_walls),
}

# the dest of every flag of every subcommand: its own flags, the common
# ones _build_parser adds, and argparse's -h
_CONFIG_KEYS = {"surface", "config", "approx", "help"} | {
    flag.replace("-", "_") for _, required, optional, _ in _COMMANDS.values()
    for flag in required + optional}


def _fail(code: str, detail: str, exit_code: int) -> int:
    print(json.dumps({"error": code, "detail": detail},
                     sort_keys=True, separators=(",", ":")), file=sys.stderr)
    return exit_code


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        # a named command needs its own parser only; --help, no command
        # and an unknown one need every name and help line
        parser, commands = _build_parser(
            argv[0] if argv and argv[0] in _COMMANDS else None)
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("no command given (see --help)")
        if args.config is not None:
            # config flags go right after the command: explicit flags,
            # parsed later, win
            i = argv.index(args.command) + 1
            argv[i:i] = _config_tokens(args.config, commands[args.command])
            args = parser.parse_args(argv)
        S = _parse_surface(args.surface)
        _, required, _, handler = _COMMANDS[args.command]
        _need(args, required)
        payload = handler(args, S)
        if payload is not None:
            _emit_json(payload, args.approx)
        return 0
    except MukaiStabError as e:
        return _fail(e.code, e.detail, e.exit_code)
    except ValueError as e:  # rat's and the value classes' bad values
        return _fail("UsageError", str(e), UsageError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
