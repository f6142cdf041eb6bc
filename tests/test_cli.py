"""Command-line interface tests.

Everything the CLI prints is checked as exact bytes: output is compact JSON
with sorted keys and lowest-terms rational strings, so any formatting drift
is a regression.  Exit codes follow the documented scheme

    0  success          2  domain error (valid syntax, no answer)
    1  usage error      3  search bound exceeded

Errors go to stderr as {"detail": ..., "error": ...}; stdout stays empty.
Most tests drive main(argv) in-process; determinism and the ``-m`` entry
point go through a real subprocess.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from mukaistab.cli import _COMMANDS, _CONFIG_KEYS, _build_parser, main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def run_proc(*argv):
    """Invoke the CLI as a real subprocess (for byte-determinism checks)."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "mukaistab.cli", *argv],
                          capture_output=True, text=True, env=env)


def actions(parser):
    """A parser's actions as plain data (option strings, dest, default,
    type, choices, nargs, help)."""
    return [[a.option_strings, a.dest, a.default,
             getattr(a.type, "__name__", a.type),
             None if a.choices is None else list(a.choices),
             a.nargs, a.help] for a in parser._actions]


def parser_structure():
    """Every parser's actions and the subcommands' help lines: what
    --help prints, without argparse's layout, which differs between
    Python versions."""
    ap, commands = _build_parser()
    sub = next(a for a in ap._actions if a.dest == "command")
    return {"mukaistab": actions(ap),
            "commands": [[c.dest, c.help] for c in sub._choices_actions],
            **{name: actions(sp) for name, sp in commands.items()}}


# ---------------------------------------------------------------------------
# golden outputs, one per subcommand
# ---------------------------------------------------------------------------

def test_pair_golden(capsys):
    rc, out, err = run(capsys, "pair", "--x", "1,0,-2", "--y", "1,0,-2")
    assert (rc, out, err) == (0, '{"pairing":"4"}\n', "")


def test_pair_cross_golden(capsys):
    rc, out, _ = run(capsys, "pair", "--x", "1,-1,1", "--y", "1,0,-2")
    assert rc == 0 and out == '{"pairing":"1"}\n'


def test_twist_with_retwist_golden(capsys):
    rc, out, _ = run(capsys, "twist", "--v", "1,0,-2", "--s", "-3/2",
                     "--to", "0")
    assert rc == 0
    assert out == ('{"a_beta":"1/4","d_beta":"3/2","d_beta_min":"1/2",'
                   '"r_beta":"1","retwisted":{"a_beta":"-2","d_beta":"0",'
                   '"r_beta":"1","s":"0"}}\n')


def test_charge_golden(capsys):
    rc, out, _ = run(capsys, "charge", "--v", "1,0,-2",
                     "--s", "-3/2", "--t2", "1/4")
    assert rc == 0 and out == '{"im_over_t":"3","re":"0"}\n'


def test_charge_with_t_golden(capsys):
    # a --t2 that agrees with --t changes nothing; one that disagrees is
    # a usage error (test_handler_usage_errors)
    for t2 in [(), ("--t2", "1/4")]:
        rc, out, err = run(capsys, "charge", "--v", "1,0,-2",
                           "--s", "-3/2", "--t", "1/2", *t2)
        assert (rc, out, err) == (0, '{"im":"3/2","re":"0"}\n', "")


def test_walls_golden_json(capsys):
    rc, out, _ = run(capsys, "walls", "--v", "1,0,-2", "--s-min", "-3",
                     "--s-max", "0", "--t2-min", "1/100", "--t2-max", "4")
    assert rc == 0
    assert out == ('{"v":"1,0,-2","walls":[{"A":"-2","C":"-6","D":"-4",'
                   '"geometry":{"center_s":"-3/2","radius_sq":"1/4",'
                   '"type":"circle"},"representative":"-1,2,-4"}]}\n')


def test_walls_plain_format(capsys):
    rc, out, _ = run(capsys, "walls", "--v", "1,0,-2", "--s-min", "-3",
                     "--s-max", "0", "--t2-min", "1/100", "--t2-max", "4",
                     "--format", "plain")
    assert rc == 0
    assert out == ("circle center_s=-3/2 radius_sq=1/4 "
                   "A=-2 C=-6 D=-4 representative=-1,2,-4\n")


def test_chambers_golden(capsys):
    rc, out, _ = run(capsys, "chambers", "--v", "1,0,-2", "--s", "-3/2",
                     "--t2-min", "1/100", "--t2-max", "4")
    assert rc == 0
    assert out == ('{"chambers":[["1/100","1/4"],["1/4","4"]],'
                   '"cut_points":["1/4"],"s":"-3/2"}\n')


def test_side_three_points(capsys):
    # above / on / below the golden wall circle, along its center line
    for t2, rho, side in [("1", "3/4", "CPlus"),
                          ("1/4", "0", "OnWall"),
                          ("1/8", "-1/8", "CMinus")]:
        rc, out, _ = run(capsys, "side", "--v", "1,0,-2", "--w1", "1,-1,1",
                         "--s", "-3/2", "--t2", t2)
        assert rc == 0
        assert json.loads(out) == {"rho": rho, "side": side}


def test_fm_golden(capsys):
    rc, out, _ = run(capsys, "fm", "--r1", "1", "--c", "1", "--v", "1,0,-2")
    assert rc == 0 and out == '{"image":"1,-1,-1","kernel":"1,1,1"}\n'


def test_fm_charge_golden(capsys):
    # the zeta = 2i example: slope parameters land at xi = eta = 1/2
    rc, out, _ = run(capsys, "fm-charge", "--r1", "1", "--c", "1",
                     "--s", "0", "--t", "1")
    assert rc == 0
    assert out == ('{"eta":"1/2","xi":"1/2","zeta_im":"2","zeta_re":"0"}\n')


def test_ample_golden(capsys):
    rc, out, _ = run(capsys, "ample", "--v", "1,0,-2", "--s", "-1",
                     "--t2", "1")
    assert rc == 0
    assert out == ('{"phi":"2","xi1":"0,1,0","xi2":"-1,1,-2",'
                   '"xi_omega":"-2,4,-4"}\n')


def test_omega_x_relative_golden(capsys):
    rc, out, _ = run(capsys, "omega-x", "--v", "1,0,-2", "--s", "-1",
                     "--x", "1/2")
    assert rc == 0 and out == '{"t2":"3/2"}\n'


def test_omega_x_absolute_golden(capsys):
    # same answer via the absolute-coordinate form of the same point
    rc, out, _ = run(capsys, "omega-x", "--v", "1,0,-2", "--s", "-1",
                     "--x", "-1/2", "--absolute")
    assert rc == 0 and out == '{"t2":"3/2"}\n'


def test_k3_category_walls_golden_and_default_surface(capsys):
    # no --surface flag: this subcommand alone defaults to the K3 side
    rc, out, _ = run(capsys, "k3-category-walls", "--b", "0",
                     "--t2-max", "4")
    assert rc == 0
    assert out == '{"walls":[{"t2":"1","u":"1,0,1"}]}\n'


def test_classify_golden(capsys):
    rc, out, _ = run(capsys, "classify", "--parts", "2*1,-1,1;2*0,1,-3",
                     "--s", "-3/2", "--t2", "1/4")
    assert rc == 0
    assert out == ('{"certified":true,"verdict":"StablePairExists",'
                   '"witnesses":[]}\n')


def test_classify_inconclusive_reports_bound(capsys):
    """No verdict depends on a box, so there is no --bound and the
    single-part Inconclusive report carries no bound."""
    rc, out, _ = run(capsys, "classify", "--parts", "1,-1,1",
                     "--s", "-3/2", "--t2", "1/4")
    assert rc == 0
    assert out == ('{"certified":false,"verdict":"Inconclusive",'
                   '"witnesses":[]}\n')
    rc, out, err = run(capsys, "classify", "--parts", "1,-1,1",
                       "--s", "-3/2", "--t2", "1/4", "--bound", "7")
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "UsageError"


def test_plot_emits_svg(capsys):
    rc, out, _ = run(capsys, "plot", "--v", "1,0,-2", "--s-min", "-3",
                     "--s-max", "0", "--t2-min", "1/100", "--t2-max", "4")
    assert rc == 0
    assert out.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert out.rstrip().endswith("</svg>")
    # exactly the one golden wall, drawn as a circle
    assert out.count("<circle") == 1


def test_walls_svg_format_matches_plot(capsys, tmp_path):
    rc, svg_out, _ = run(capsys, "walls", "--v", "1,0,-2", "--s-min", "-3",
                         "--s-max", "0", "--t2-min", "1/100",
                         "--t2-max", "4", "--format", "svg")
    rc2, plot_out, _ = run(capsys, "plot", "--v", "1,0,-2", "--s-min", "-3",
                           "--s-max", "0", "--t2-min", "1/100",
                           "--t2-max", "4")
    assert rc == rc2 == 0
    assert svg_out == plot_out
    # format is a flag of walls, not of plot: plot skips the config key
    # and keeps its parser default
    cfg = _config(tmp_path, {"format": "json"})
    rc3, config_out, _ = run(capsys, "plot", "--config", cfg, *WALLS_REGION)
    assert rc3 == 0
    assert config_out == svg_out


# ---------------------------------------------------------------------------
# exit codes and error plumbing
# ---------------------------------------------------------------------------

REQUIRED = {
    "pair": "--x, --y",
    "twist": "--v, --s",
    "charge": "--v, --s",
    "walls": "--v, --s-min, --s-max, --t2-min, --t2-max",
    "chambers": "--v, --s, --t2-min, --t2-max",
    "side": "--v, --w1, --s, --t2",
    "fm": "--r1, --c, --v",
    "fm-charge": "--r1, --c, --s, --t",
    "ample": "--v, --s, --t2",
    "omega-x": "--v, --s, --x",
    "classify": "--parts, --s, --t2",
    "k3-category-walls": "--b, --t2-max",
    "plot": "--v, --s-min, --s-max, --t2-min, --t2-max",
}


@pytest.mark.parametrize("command", REQUIRED)
def test_missing_flags_is_usage_error(capsys, command):
    rc, out, err = run(capsys, command)
    assert rc == 1 and out == ""
    assert json.loads(err) == {
        "detail": f"missing required flag(s): {REQUIRED[command]}",
        "error": "UsageError"}


def test_bad_surface_wins_over_missing_flags(capsys):
    rc, out, err = run(capsys, "walls", "--surface", "{}")
    assert rc == 1 and out == ""
    assert json.loads(err)["detail"].startswith("bad surface JSON '{}'")


def test_parsers_match_their_golden():
    """Flags, defaults, types, choices and help texts of every parser, as
    captured before the subcommands were declared as one table."""
    golden = json.loads((ROOT / "tests" / "cli_parsers.json").read_text())
    assert parser_structure() == golden


@pytest.mark.parametrize("command", _COMMANDS)
def test_one_subparser_is_the_full_builds(command):
    """main builds only the parser of the command it is given: that
    parser has the golden actions and the full build's help text."""
    golden = json.loads((ROOT / "tests" / "cli_parsers.json").read_text())
    _, commands = _build_parser(command)
    assert list(commands) == [command]
    assert actions(commands[command]) == golden[command]
    full = _build_parser()[1][command]
    assert commands[command].format_help() == full.format_help()


def test_config_keys_are_the_full_builds_flags():
    """--config checks its keys against a set read from _COMMANDS: the
    dests of every flag of every parser of the full build."""
    _, commands = _build_parser()
    assert _CONFIG_KEYS == {a.dest for sp in commands.values()
                            for a in sp._actions}


def test_malformed_vector_literal_is_usage_error(capsys):
    rc, out, err = run(capsys, "pair", "--x", "1,0", "--y", "1,0,-2")
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "UsageError"


FLOAT_RANGE = ("plotting needs bounds in the float range, of absolute value "
               "at most 1.7976931348623157e+308")
FINITE_SIZE = ("plotting needs a box of finite float size: its width, or its "
               "height at 1000 px wide, overflows")


@pytest.mark.parametrize("argv, detail", [
    (("charge", "--v", "1,0,-2", "--s", "-3/2"), "charge needs --t or --t2"),
    (("charge", "--v", "1,0,-2", "--s", "1/0", "--t2", "1"),
     "cannot parse rational '1/0': Fraction(1, 0)"),
    (("fm", "--r1", "x", "--c", "0", "--v", "1,0,0"),
     "argument --r1: invalid int value: 'x'"),
    (("classify", "--parts", "x*1,0,0", "--s", "0", "--t2", "1"),
     "bad multiplicity in 'x*1,0,0'"),
    (("classify", "--parts", ";", "--s", "0", "--t2", "1"),
     "empty decomposition"),
    (("plot", "--v", "1,0,-2", "--s-min", "-1", "--s-max", "-1",
      "--t2-min", "1/100", "--t2-max", "4"), "plotting needs s_min < s_max"),
    (("plot", "--v", "1,0,-2", "--s-min", "-3", "--s-max", "0",
      "--t2-min", "1", "--t2-max", "1"), "plotting needs t2_min < t2_max"),
    # the plot box is checked before the walk: these exited 2 with
    # ZeroDegree (d_beta vanishes at s = 0) and 3 with BoundOverflow
    (("plot", "--v", "1,0,-2", "--s-min", "0", "--s-max", "0",
      "--t2-min", "1", "--t2-max", "2"), "plotting needs s_min < s_max"),
    (("walls", "--format", "svg", "--v", "1,0,-10", "--s-min", "-1",
      "--s-max", "-1", "--t2-min", "1/10000000000", "--t2-max", "2",
      "--cap", "1"), "plotting needs s_min < s_max"),
    # bounds that differ exactly but not as floats: this ended in a
    # ZeroDivisionError traceback
    (("plot", "--v", "1,0,-10", "--s-min", "-1", "--s-max",
      "-99999999999999999999/100000000000000000000", "--t2-min", "1",
      "--t2-max", "2"), "plotting needs a box of nonzero float width: "
     "s_min and s_max round to one float"),
    (("walls", "--format", "svg", "--v", "1,0,-2", "--s-min", "-3",
      "--s-max", "0", "--t2-min", "4",
      "--t2-max", "400000000000000000001/100000000000000000000"),
     "plotting needs a box of nonzero float height: its t range rounds to "
     "0 px at 1000 px wide"),
    # a bound beyond float range ended in an OverflowError traceback
    (("plot", "--v", "1,0,-2", "--s-min", "-1" + "0" * 400, "--s-max", "0",
      "--t2-min", "1", "--t2-max", "2"), FLOAT_RANGE),
    (("walls", "--format", "svg", "--v", "1,0,-2", "--s-min", "-3",
      "--s-max", "0", "--t2-min", "1", "--t2-max", "1" + "0" * 400),
     FLOAT_RANGE),
    # a box of non-finite float size: its width overflows (this named
    # the height as the cause), and its height at 1000 px wide overflows
    # (this exited 0 with an SVG of height inf)
    (("plot", "--v", "1,0,-2", "--s-min", "-1" + "0" * 308, "--s-max",
      "1" + "0" * 308, "--t2-min", "1", "--t2-max", "2"), FINITE_SIZE),
    (("plot", "--v", "1,0,-2", "--s-min", "-1/1" + "0" * 300, "--s-max", "0",
      "--t2-min", "1", "--t2-max", "1" + "0" * 300, "--cap", "10"),
     FINITE_SIZE),
    # --t2 was dropped when --t was given: this printed the charge at t = 1
    (("charge", "--v", "1,0,-2", "--s", "0", "--t", "1", "--t2", "4"),
     "inconsistent t=1, t2=4"),
])
def test_handler_usage_errors(capsys, argv, detail):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert json.loads(err) == {"detail": detail, "error": "UsageError"}


def test_plot_refuses_t2_bounds_that_are_one_float(capsys):
    """t2_max = 1 + 10^-20 lies above t2_min = 1, though both read 1.0
    as floats: walls accepts the region in json and plain output, while
    plot refuses the box of height 0, before the walk (it drew an SVG of
    height 0 with its labels at negative y)."""
    box = ("--v", "1,0,-2", "--s-min", "-3", "--s-max", "0", "--t2-min", "1",
           "--t2-max", "100000000000000000001/100000000000000000000")
    rc, out, err = run(capsys, "walls", *box)
    assert (rc, err, out) == (0, "", '{"v":"1,0,-2","walls":[]}\n')
    assert run(capsys, "walls", "--format", "plain", *box) == (0, "", "")
    rc, out, err = run(capsys, "plot", *box, "--cap", "0")
    assert (rc, out) == (1, "")
    assert json.loads(err) == {
        "detail": "plotting needs a box of nonzero float height: its t "
                  "range rounds to 0 px at 1000 px wide",
        "error": "UsageError"}


def test_unknown_subcommand_is_usage_error(capsys):
    rc, out, err = run(capsys, "frobnicate")
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "UsageError"


def test_no_subcommand_is_usage_error(capsys):
    rc, _, err = run(capsys)
    assert rc == 1 and json.loads(err)["error"] == "UsageError"


def test_domain_error_exits_2(capsys):
    """Both ways out of omega_sx's domain are OutOfDomain, told apart by
    the detail."""
    for x, detail in (
            # x = -1 absolute from s = -1 is the untwisted origin: t^2 = 0
            ("-1", "t^2 = 0 <= 0 at x = -1"),
            # x = 0 is the pole x rk = degree of (1,0,-2)
            ("0", "pole at x = 0 (x rk = degree)")):
        rc, out, err = run(capsys, "omega-x", "--v", "1,0,-2", "--s", "-1",
                           "--x", x, "--absolute")
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "OutOfDomain", "detail": detail}


def test_zero_wall_class_exits_2(capsys):
    rc, _, err = run(capsys, "side", "--v", "1,0,-2", "--w1", "0,0,0",
                     "--s", "-1", "--t2", "2")
    assert rc == 2 and json.loads(err)["error"] == "ZeroCharge"


def test_classify_zero_charge_exits_2(capsys):
    # parts of opposite charge -i*t and +i*t: Z(v) = 0 for v = (2,1,1)
    rc, out, err = run(capsys, "classify", "--parts", "1,0,0;1,1,1",
                       "--s", "1/2", "--t2", "1/4")
    assert rc == 2 and out == ""
    assert '"error":"ZeroCharge"' in err


def test_k3_subcommand_rejects_abelian_surface(capsys):
    rc, _, err = run(capsys, "k3-category-walls", "--b", "0", "--t2-max", "4",
                     "--surface", '{"kind":"abelian","h2":2}')
    assert rc == 2 and json.loads(err)["error"] == "NotK3"


def test_bound_overflow_exits_3(capsys):
    rc, out, err = run(capsys, "walls", "--v", "1,0,-1", "--s-min", "-9",
                       "--s-max", "9", "--t2-min", "1/100",
                       "--t2-max", "100", "--cap", "2")
    assert rc == 3 and out == ""
    assert json.loads(err)["error"] == "BoundOverflow"


DEEP = ("--t2-min", "1/1" + "0" * 40, "--t2-max", "2",
        "--surface", '{"kind":"k3","h2":2}')


@pytest.mark.parametrize("argv", [
    ("walls", "--v", "1,0,-10", "--s-min", "-8", "--s-max", "0",
     "--t2-min", "1/50", "--t2-max", "20", "--cap", "50"),
    ("chambers", "--v", "1,0,-10", "--s", "-3", "--t2-min", "1/50",
     "--t2-max", "20", "--cap", "10"),
    # t2_min = 10^-40: about 10^20 m-lines, more than a C ssize_t holds;
    # each ended in an OverflowError traceback from len()
    ("walls", "--v", "1,0,-2", "--s-min", "-3", "--s-max", "0", *DEEP),
    ("plot", "--v", "1,0,-2", "--s-min", "-3", "--s-max", "0", *DEEP),
    ("chambers", "--v", "1,0,-2", "--s", "-1", *DEEP),
])
def test_small_cap_exits_3(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 3 and out == ""
    assert json.loads(err)["error"] == "BoundOverflow"


@pytest.mark.parametrize("argv", [
    ("walls", "--v", "1,0,-2", "--s-min", "-3", "--s-max", "0",
     "--t2-min", "1/10", "--t2-max", "4"),
    ("walls", "--v", "1,0,-2", "--s-min", "-1/2", "--s-max", "-1/2",
     "--t2-min", "10", "--t2-max", "20"),
    ("chambers", "--v", "1,0,-2", "--s", "-3/2", "--t2-min", "1/10",
     "--t2-max", "4"),
])
def test_negative_cap_is_usage_error(capsys, argv):
    # the same answer whether or not the region holds candidate classes
    rc, out, err = run(capsys, *argv, "--cap", "-1")
    assert rc == 1 and out == ""
    assert json.loads(err) == {"detail": "cap must be nonnegative, got -1",
                               "error": "UsageError"}


def test_negative_fraction_flag_values_parse(capsys):
    # leading-minus fraction values must survive argument parsing
    rc, out, _ = run(capsys, "twist", "--v", "-1,2,-4", "--s", "-3/2")
    assert rc == 0
    assert json.loads(out)["d_beta"] == "1/2"


# ---------------------------------------------------------------------------
# --approx and --config
# ---------------------------------------------------------------------------

def test_approx_adds_float_sibling(capsys):
    rc, out, _ = run(capsys, "charge", "--v", "1,0,-2", "--s", "-3/2",
                     "--t2", "1/4", "--approx")
    assert rc == 0
    payload = json.loads(out)
    assert payload["re"] == "0" and payload["im_over_t"] == "3"
    assert payload["approx"] == {"im_over_t": 3.0, "re": 0.0}


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"v": "1,0,-2", "s": "-3/2", "t2": "1/4"}))
    rc, out, _ = run(capsys, "charge", "--config", str(cfg))
    assert rc == 0 and out == '{"im_over_t":"3","re":"0"}\n'


def test_explicit_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"v": "1,0,-2", "s": "-3/2", "t2": "1/4"}))
    rc, out, _ = run(capsys, "charge", "--config", str(cfg), "--t2", "2")
    assert rc == 0 and out == '{"im_over_t":"3","re":"7/4"}\n'


def test_config_missing_file_is_usage_error(tmp_path, capsys):
    rc, _, err = run(capsys, "charge", "--config", str(tmp_path / "no.json"))
    assert rc == 1 and json.loads(err)["error"] == "UsageError"


WALLS_REGION = ("--v", "1,0,-2", "--s-min", "-3", "--s-max", "0",
                "--t2-min", "1/100", "--t2-max", "4")


def _config(tmp_path, obj):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    return str(cfg)


def test_config_sets_a_flag_with_a_parser_default(tmp_path, capsys):
    """cap defaults to 10^6, yet the config value applies: the walk over
    the region takes more than 5 steps, as it does for --cap 5."""
    cfg = _config(tmp_path, {"cap": 5})
    rc, out, err = run(capsys, "walls", "--config", cfg, *WALLS_REGION)
    assert rc == 3 and out == ""
    assert json.loads(err)["error"] == "BoundOverflow"
    assert (rc, err) == run(capsys, "walls", "--cap", "5", *WALLS_REGION)[::2]


def test_config_sets_format(tmp_path, capsys):
    cfg = _config(tmp_path, {"format": "plain"})
    rc, out, _ = run(capsys, "walls", "--config", cfg, *WALLS_REGION)
    assert rc == 0 and out.startswith("circle center_s=")
    assert out == run(capsys, "walls", "--format", "plain", *WALLS_REGION)[1]


def test_config_that_is_not_an_object_is_usage_error(tmp_path, capsys):
    rc, out, err = run(capsys, "charge", "--config", _config(tmp_path, [1, 2]))
    assert (rc, out) == (1, "")
    assert json.loads(err) == {"detail": "config must be a JSON object",
                               "error": "UsageError"}


def test_config_switch_set_to_true(tmp_path, capsys):
    cfg = _config(tmp_path, {"approx": True, "v": "1,0,-2", "s": "-3/2",
                             "t2": "1/4"})
    rc, out, err = run(capsys, "charge", "--config", cfg)
    assert (rc, err) == (0, "")
    assert out == ('{"approx":{"im_over_t":3.0,"re":0.0},'
                   '"im_over_t":"3","re":"0"}\n')
    assert out == run(capsys, "charge", "--approx", "--v", "1,0,-2", "--s",
                      "-3/2", "--t2", "1/4")[1]


@pytest.mark.parametrize("obj", [{"approx": "no"}, {"approx": 1},
                                 {"cap": "many"}, {"format": "xml"}])
def test_config_value_of_the_wrong_type_is_usage_error(tmp_path, capsys, obj):
    cfg = _config(tmp_path, obj)
    rc, out, err = run(capsys, "walls", "--config", cfg, *WALLS_REGION)
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "UsageError"


CLASSIFY_GOLDEN = ("--parts", "2*1,-1,1;2*0,1,-3", "--s", "-3/2",
                   "--t2", "1/4")


@pytest.mark.parametrize("key", ["bogus", "bound"])
def test_config_key_of_no_command_is_usage_error(tmp_path, capsys, key):
    """A misspelled or removed flag in a config file is refused like the
    typed flag (classify has no --bound), instead of doing nothing."""
    rc, out, err = run(capsys, "classify", "--config",
                       _config(tmp_path, {key: 7}), *CLASSIFY_GOLDEN)
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "UsageError"
    assert repr(key) in json.loads(err)["detail"]
    assert run(capsys, "classify", f"--{key}", "7", *CLASSIFY_GOLDEN)[0] == 1


def test_config_key_of_another_command_is_skipped(tmp_path, capsys):
    """s_min is a walls flag, not a charge flag: one file serves both."""
    cfg = _config(tmp_path, {"v": "1,0,-2", "s": "-3/2", "t2": "1/4",
                             "s_min": -3})
    rc, out, _ = run(capsys, "charge", "--config", cfg)
    assert rc == 0 and out == '{"im_over_t":"3","re":"0"}\n'


def test_explicit_cap_overrides_config(tmp_path, capsys):
    cfg = _config(tmp_path, {"cap": 5, "approx": False})
    rc, out, _ = run(capsys, "walls", "--config", cfg, "--cap", "1000000",
                     *WALLS_REGION)
    assert rc == 0
    assert out == run(capsys, "walls", *WALLS_REGION)[1]


# ---------------------------------------------------------------------------
# real-process checks: module entry point and run-to-run determinism
# ---------------------------------------------------------------------------

def test_module_entry_point():
    p = run_proc("pair", "--x", "1,0,-2", "--y", "1,0,-2")
    assert p.returncode == 0 and p.stdout == '{"pairing":"4"}\n'


# `python -m mukaistab.cli argv...`, then the mukaistab modules it loaded
LOADED = """
import json, runpy, sys
sys.argv[0] = "mukaistab"
try:
    runpy.run_module("mukaistab.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
print(json.dumps([code, sorted(m[10:] for m in sys.modules
                               if m.startswith("mukaistab."))]))
"""
BASE = ["errors", "lattice"]
WALLS = BASE + ["stability", "walls"]
MODULES = [
    (("pair", "--x", "1,0,-2", "--y", "1,0,-2"), 0, BASE),
    (("twist", "--v", "1,0,-2", "--s", "-3/2", "--to", "0"), 0, BASE),
    (("charge", "--v", "1,0,-2", "--s", "-3/2", "--t2", "1/4"), 0,
     BASE + ["stability"]),
    (("walls", *WALLS_REGION), 0, WALLS),
    (("plot", *WALLS_REGION), 0, WALLS),
    (("chambers", "--v", "1,0,-2", "--s", "-3/2", "--t2-min", "1/100",
      "--t2-max", "4"), 0, WALLS),
    (("side", "--v", "1,0,-2", "--w1", "1,-1,1", "--s", "-3/2", "--t2", "1"),
     0, WALLS),
    (("k3-category-walls", "--b", "0", "--t2-max", "4"), 0, WALLS),
    (("fm", "--r1", "1", "--c", "1", "--v", "1,0,-2"), 0,
     ["errors", "fourier_mukai", "lattice", "stability"]),
    (("fm-charge", "--r1", "1", "--c", "1", "--s", "0", "--t", "1"), 0,
     ["errors", "fourier_mukai", "lattice", "stability"]),
    (("ample", "--v", "1,0,-2", "--s", "-1", "--t2", "1"), 0,
     BASE + ["polarization", "stability"]),
    (("omega-x", "--v", "1,0,-2", "--s", "-1", "--x", "1/2"), 0,
     BASE + ["polarization", "stability"]),
    (("classify", *CLASSIFY_GOLDEN), 0,
     ["classification", "errors", "lattice", "stability"]),
    (("frobnicate",), 1, BASE),
]


def test_modules_cover_every_subcommand():
    assert {argv[0] for argv, _, _ in MODULES} == set(_COMMANDS) | {
        "frobnicate"}


@pytest.mark.parametrize("argv, code, modules", MODULES,
                         ids=[argv[0] for argv, _, _ in MODULES])
def test_a_call_loads_only_the_modules_its_subcommand_uses(argv, code,
                                                           modules):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    p = subprocess.run([sys.executable, "-c", LOADED, *argv],
                       capture_output=True, text=True, env=env)
    assert (p.returncode, p.stderr == "") == (0, code == 0)
    assert json.loads(p.stdout.splitlines()[-1]) == [code, modules]


@pytest.mark.parametrize("fmt", ["json", "svg"])
def test_repeated_runs_are_byte_identical(fmt):
    argv = ("walls", "--v", "1,0,-2", "--s-min", "-3", "--s-max", "0",
            "--t2-min", "1/100", "--t2-max", "4", "--format", fmt)
    first = run_proc(*argv)
    second = run_proc(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 40
