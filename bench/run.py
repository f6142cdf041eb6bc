"""The mukaistab benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads: wall-sweep, point-mix,
spherical-search, cli-session (see bench/README.md).  The inputs come
from --seed through gen.py; they are handed to a fresh worker process
(worker.py), which is the only process that runs mukaistab under load,
one op at a time.  Every output is then checked against ref.py.  Times
are corrected for the host's drifting speed by calibration chunks run
beside them (calib.py); the '#' summary line shows the raw figures too.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (ops_per_s, op_p50_ms, op_p90_ms, ok_share, setup_s,
peak_rss_mb); with --trace 1 the worker runs the ops first untraced for
half the time, then the same ops again with a span around every library
call, and the metrics are the per-layer ones.  Lines before it, starting
with '#', are a human-readable summary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUPS = 9          # set-up is timed this many times per run; median reported
WORKER_TIMEOUT = 170
# workload -> (cycle the op list, latency slots, fewest ops of a run).
# op_p90_ms needs 10 samples beyond it, so 100 ops at least.  wall-sweep
# runs at least 7 rounds, which take more than 20 s: its rounds differ in
# cost, and a run that ended after 7 rounds on one seed and 8 on another
# would measure two different class mixes.
SETTINGS = {
    "wall-sweep": (False, 1 << 13, 7 * 16),
    "point-mix": (True, 1 << 20, 100),
    "spherical-search": (False, 1 << 13, 100),
    "cli-session": (False, 1 << 13, 100),
}
LAYER_FNS = (
    "lattice.mukai_pairing", "lattice.twisted_invariants",
    "lattice.perp_basis", "stability.central_charge", "stability.phase_key",
    "stability.reduced_sigma", "walls.enumerate_walls",
    "walls.chambers_on_ray", "walls.wall_side", "walls.is_wall_vector",
    "walls.category_walls_k3", "fourier_mukai.fm_apply",
    "fourier_mukai.fm_inverse", "fourier_mukai.transform_central_charge",
    "polarization.ample_class", "polarization.omega_x",
    "classification.stable_existence",
    "classification.classify_decomposition",
    "classification.find_isotropic_pairing_one",
    "classification.find_minus_two_aligned",
)
LAYER_STATS = (("calls", "count"), ("self_s", "s"), ("p50_us", "us"),
               ("failed", "count"), ("out", "count"))
CLI_LAYERS = ("pair", "twist", "charge", "walls", "chambers", "side", "fm",
              "fm-charge", "ample", "omega-x", "classify",
              "k3-category-walls", "plot", "error")


class BenchError(Exception):
    pass


def worker_cmd(workload, warm):
    return [sys.executable, os.path.join(HERE, "worker.py"), workload,
            json.dumps(warm)]


def start_worker(cmd, env, chunks):
    """Start a worker and wait for its 'ready'.  Returns (process, set-up
    time); appends the timings of calibration chunks run just before and
    just after it to ``chunks``."""
    chunks.append(calib.CHILD.run())
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not start (exit {proc.wait()})")
    chunks.append(calib.CHILD.run())
    return proc, setup


def run_worker(workload, ops, warm, block, seconds, trace, spans_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]]
                                       if env.get("PYTHONPATH") else []))
    cmd = worker_cmd(workload, warm)
    setups, chunks = [], []
    for _ in range(SETUPS - 1):
        proc, setup = start_worker(cmd, env, chunks)
        proc.communicate(timeout=30)
        setups.append(setup)
    proc, setup = start_worker(cmd, env, chunks)
    setups.append(setup)
    cycle, cap, min_ops = SETTINGS[workload]
    job = {"ops": ops, "seconds": seconds, "trace": trace, "cycle": cycle,
           "block": block, "cap": cap, "min_ops": 0 if trace else min_ops,
           "spans_path": spans_path}
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return (json.loads(out.splitlines()[-1]), setups,
            calib.CHILD.scale(chunks))


def tally(ops, res, ref, pins):
    """Check every distinct op's first outputs; a repeat that differed
    from its first run counts as wrong.  Returns (failed, wrong,
    verdicts by op index)."""
    failed = wrong = 0
    verdicts = {}
    for key, outs in res["outputs"].items():
        i = int(key)
        v = verdicts[i] = ref.check_op(ops[i], outs, pins)
        count = res["counts"][key]
        miss = res["mismatch"].get(key, 0)
        if any(x != "ok" for x in v):
            failed += count
            wrong += count if "wrong" in v else 0
        else:
            failed += miss
            wrong += miss
    return failed, wrong, verdicts


def layer_metrics(ops, res, verdicts):
    tr = res["trace"]
    layers = tr["layers"]
    wrong = {}
    for key, count in tr["counts"].items():
        i = int(key)
        for c, v in zip(ops[i]["calls"], verdicts.get(i, ())):
            if v == "wrong":
                wrong[c["fn"]] = wrong.get(c["fn"], 0) + count
    metrics = {}
    for fn in LAYER_FNS:
        st = layers.get(fn, {})
        vals = {"calls": st.get("calls", 0), "self_s": st.get("self_s", 0.0),
                "p50_us": st.get("p50_us", 0.0),
                "failed": st.get("raised", 0) + wrong.get(fn, 0),
                "out": st.get("out", 0)}
        for stat, unit in LAYER_STATS:
            metrics[f"{fn}.{stat}"] = {"value": vals[stat], "unit": unit}
    for sub in CLI_LAYERS:
        st = layers.get("cli." + sub, {})
        metrics[f"cli.{sub}.p50_ms"] = {"value": st.get("p50_us", 0.0) / 1e3,
                                        "unit": "ms"}
    metrics["cli.interp_start_ms"] = {"value": tr.get("interp_start_ms", 0.0),
                                      "unit": "ms"}
    metrics["cli.import_ms"] = {"value": tr.get("import_ms", 0.0),
                                "unit": "ms"}
    metrics["trace.overhead_share"] = {
        "value": tr["busy_s"] / res["busy_s"] - 1, "unit": "share"}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(SETTINGS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("src/mukaistab/__init__.py", "tests/oracles.py"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"bench: {need} not found under {ROOT}", file=sys.stderr)
            return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "tests")]
    if hasattr(os, "sched_setaffinity"):
        # this process and its children share one CPU, so a worker's
        # calibration chunks and its CLI children run on the same one
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import gen
    import ref

    make, warmup, block = gen.WORKLOADS[args.workload]
    ops = make(args.seed)
    pins = ref.load_pins()
    spans = os.path.join(ROOT, ".bench_out",
                         f"spans-{args.workload}-{args.seed}.csv.gz")
    try:
        res, setups, setup_scale = run_worker(
            args.workload, ops, warmup(), block, args.seconds,
            bool(args.trace), spans)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    failed, wrong, verdicts = tally(ops, res, ref, pins)
    n = res["n"]
    for fn, tb in res["errors"].items():
        print(f"bench: {fn} raised\n{tb}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed}: {n} ops in "
          f"{res['raw_busy_s']:.2f} s busy ({res['busy_s']:.2f} s corrected), "
          f"raw p50 {res['raw_p50_ms']:.3f} ms, {failed} failed, "
          f"{wrong} wrong, setups {' '.join(f'{x:.3f}' for x in setups)} s "
          f"raw, scaled by {setup_scale:.3f}")
    if args.workload == "spherical-search":
        viol = [i for i, v in verdicts.items()
                if res["outputs"][str(i)][0] == {"error": "UniquenessViolation"}]
        multi = sum(len(ref.EXPECT["classification.find_minus_two_aligned"](
            ref.plain(ops[i]["calls"][0]["args"]))) >= 2 for i in viol)
        print(f"# UniquenessViolation on {len(viol)} distinct ops; the "
              f"reference finds >= 2 qualifying classes on {multi} of them")
    if args.trace:
        metrics = layer_metrics(ops, res, verdicts)
        print(f"# tracing overhead {metrics['trace.overhead_share']['value']:.3f}"
              f" of untraced busy time; spans in {os.path.relpath(spans, ROOT)}")
    else:
        metrics = {
            "ops_per_s": {"value": n / res["busy_s"], "unit": "1/s"},
            "op_p50_ms": {"value": res["p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": res["p90_ms"], "unit": "ms"},
            "ok_share": {"value": 1 - failed / n, "unit": "share"},
            "setup_s": {"value": statistics.median(setups) * setup_scale,
                        "unit": "s"},
            "peak_rss_mb": {"value": res["rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": wrong == 0, "attempted": n,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
