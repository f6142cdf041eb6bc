"""Self-test of the benchmark's input generation and reference checks.

    python3 bench/selftest.py        (from the root of a checkout)

Checks that the same seed gives identical inputs and another seed
different ones, that genuine outputs pass the reference checks, and that
corrupted ones (a dropped wall, an altered spherical class, a wrong exit
code, altered CLI output) are counted as failed and wrong.  Exits 1 on
the first failed expectation.
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "tests"), os.path.join(ROOT, "src")]
os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")  # for CLI children

import gen  # noqa: E402
import ref  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

PINS = ref.load_pins()


def expect(cond, what):
    if not cond:
        print(f"selftest FAILED: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def outputs(op):
    """Canonical outputs of one op, computed in this process."""
    outs = []
    for c in op["calls"]:
        args = worker.decode(c["args"])
        if c["fn"].startswith("cli."):
            outs.append(list(worker.cli(*args)))
        else:
            outs.append(worker.OUT[c["fn"]](worker.FNS[c["fn"]](*args)))
    return outs


def bump_digit(text):
    i = next(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def counted_wrong(op, outs):
    """run.tally on a one-op result whose op ran three times."""
    res = {"outputs": {"0": outs}, "counts": {"0": 3}, "mismatch": {}}
    failed, wrong, _ = run.tally([op], res, ref, PINS)
    return failed == 3 and wrong == 3


def main():
    for name, (make, _, _) in gen.WORKLOADS.items():
        a, b, c = (json.dumps(make(seed)) for seed in (7, 7, 8))
        expect(a == b, f"{name}: same seed, identical inputs")
        expect(a != c, f"{name}: other seed, different inputs")

    for op in gen.wall_sweep(1):
        if op["calls"][0]["args"][1] == {"S": ["abelian", 2]}:
            outs = outputs(op)
            if any(o[1] for o in outs[1:]):
                break
    expect(ref.check_op(op, outs, PINS) == ["ok"] * len(outs),
           "wall-sweep: genuine walls and rays pass")
    bad = copy.deepcopy(outs)
    bad[0].pop()
    expect(ref.check_op(op, bad, PINS)[0] == "wrong"
           and counted_wrong(op, bad), "wall-sweep: a dropped wall fails")
    bad = copy.deepcopy(outs)
    bad[1][1].append("7/3")
    expect(ref.check_op(op, bad, PINS)[1] == "wrong",
           "wall-sweep: an extra ray cut fails")
    ray = next(k for k, o in enumerate(outs[1:], 1) if o[1])
    bad = copy.deepcopy(outs)
    bad[ray][1].pop()
    expect(ref.check_op(op, bad, PINS)[ray] == "wrong",
           "wall-sweep: a dropped ray cut fails")

    found = minus_two = 0
    for op in gen.spherical_search(1):
        args = ref.plain(op["calls"][0]["args"])
        n = len(ref.EXPECT["classification.find_minus_two_aligned"](args))
        if n == 1 and not found:
            outs = outputs(op)
            expect(ref.check_op(op, outs, PINS) == ["ok"],
                   "spherical-search: the genuine class passes")
            r, d, a = outs[0][0].split(",")
            bad = [[f"{r},{d},{int(a) + 1}"]]
            expect(ref.check_op(op, bad, PINS) == ["wrong"]
                   and counted_wrong(op, bad),
                   "spherical-search: an altered class fails")
            found = 1
        if n >= 2 and not minus_two:
            err = [{"error": "UniquenessViolation"}]
            res = {"outputs": {"0": err}, "counts": {"0": 1}, "mismatch": {}}
            expect(run.tally([op], res, ref, PINS)[:2] == (1, 0),
                   "spherical-search: UniquenessViolation counts as failed")
            minus_two = 1
        if found and minus_two:
            break
    expect(found and minus_two, "spherical-search: both cases generated")

    ops = gen.cli_session(1)
    err_op = next(op for op in ops if op["expect_exit"])
    outs = outputs(err_op)
    expect(ref.check_op(err_op, outs, PINS) == ["ok"],
           "cli-session: the genuine error exit passes")
    bad = [[0 if outs[0][0] != 0 else 1] + outs[0][1:]]
    expect(counted_wrong(err_op, bad), "cli-session: a wrong exit code fails")
    for sub in ("pair", "walls"):
        op = next(op for op in ops
                  if op["calls"][0]["fn"] == "cli." + sub)
        outs = outputs(op)
        expect(ref.check_op(op, outs, PINS) == ["ok"],
               f"cli-session: genuine {sub} output passes")
        bad = [[0, bump_digit(outs[0][1]), ""]]
        expect(counted_wrong(op, bad), f"cli-session: altered {sub} output fails")

    op = gen.point_mix(1)[0]
    outs = outputs(op)
    expect(ref.check_op(op, outs, PINS) == ["ok"] * len(outs),
           "point-mix: a genuine output passes")
    res = {"outputs": {"0": outs}, "counts": {"0": 5}, "mismatch": {"0": 2}}
    expect(run.tally([op], res, ref, PINS)[:2] == (2, 2),
           "point-mix: repeats that differ from the first run fail")
    print("selftest passed")


if __name__ == "__main__":
    main()
