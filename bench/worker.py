"""Benchmark worker: the only process that runs mukaistab under load.

    python3 bench/worker.py <workload> <warm-up op JSON>  (PYTHONPATH=src)

It imports mukaistab, runs the workload's fixed warm-up op and prints
``ready``; ``run.py`` times that as set-up.  Then it reads one JSON job
from stdin (the generated ops and the run settings; an empty stdin means
set-up only), runs the ops as a closed loop with one caller, and prints
one JSON result: per-op latency statistics, peak RSS, the canonical
output of the first run of every distinct op and, when tracing, the
per-function span statistics.  The reference checks happen in run.py,
after this process has exited.

Host-speed correction: the host's speed drifts by up to half within
seconds, for reasons outside this process.  So the loop runs a fixed
calibration chunk (calib.py; a child-process chunk for cli-session) before
the first op, after every ``every_s`` of op time (one chunk per
``every_s``, so that calibration stays a fixed share of the run) and after
the last op, and each op's latency is scaled by the median of the chunks
just around it (Chunk.corrected).  Raw times are reported beside the
corrected ones.
"""

import gzip
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from fractions import Fraction
from time import perf_counter

import mukaistab
from mukaistab import (FMTransform, Region, Surface, mv, param)

import calib


def cli(*argv):
    p = subprocess.run([sys.executable, "-m", "mukaistab.cli", *argv],
                       capture_output=True, text=True, timeout=120)
    return p.returncode, p.stdout, p.stderr


FNS = {
    "lattice.mukai_pairing": mukaistab.mukai_pairing,
    "lattice.twisted_invariants": mukaistab.twisted_invariants,
    "lattice.perp_basis": mukaistab.perp_basis,
    "stability.central_charge": mukaistab.central_charge,
    "stability.phase_key": mukaistab.phase_key,
    "stability.reduced_sigma": mukaistab.reduced_sigma,
    "walls.enumerate_walls": mukaistab.enumerate_walls,
    "walls.chambers_on_ray": mukaistab.chambers_on_ray,
    "walls.wall_side": mukaistab.wall_side,
    "walls.is_wall_vector": mukaistab.is_wall_vector,
    "walls.category_walls_k3": mukaistab.category_walls_k3,
    "fourier_mukai.fm_apply": mukaistab.fm_apply,
    "fourier_mukai.fm_inverse": mukaistab.fm_inverse,
    "fourier_mukai.transform_central_charge":
        mukaistab.transform_central_charge,
    "polarization.ample_class": mukaistab.ample_class,
    "polarization.omega_x": mukaistab.omega_x,
    "classification.stable_existence": mukaistab.stable_existence,
    "classification.classify_decomposition":
        mukaistab.classify_decomposition,
    "classification.find_isotropic_pairing_one":
        mukaistab.find_isotropic_pairing_one,
    "classification.find_minus_two_aligned":
        mukaistab.find_minus_two_aligned,
}


def cli_ok(r):
    return int(r[0] == 0)


def q(x):
    return None if x is None else str(x)


def vec(v):
    return None if v is None else f"{v.r},{v.d},{v.a}"


def _wall(w):
    g = w.geometry
    if isinstance(g, mukaistab.Circle):
        geom = ["circle", q(g.center_s), q(g.radius_sq)]
    elif isinstance(g, mukaistab.VerticalLine):
        geom = ["vertical", q(g.s)]
    else:
        geom = [type(g).__name__]
    return [q(w.A), q(w.C), q(w.D), geom, vec(w.v1)]


# canonical JSON form of each function's result, as ref.py expects it
OUT = {
    "lattice.mukai_pairing": q,
    "lattice.twisted_invariants": lambda t: [q(x) for x in t.as_tuple()],
    "lattice.perp_basis": lambda b: [vec(x) for x in b],
    "stability.central_charge": lambda z: [q(z.re), q(z.im_over_t)],
    "stability.phase_key": lambda k: [k.band, q(k.slope)],
    "stability.reduced_sigma": q,
    "walls.enumerate_walls": lambda ws: [_wall(w) for w in ws],
    "walls.chambers_on_ray": lambda c: [
        q(c.s), [q(x) for x in c.cut_points],
        [[q(a), q(b)] for a, b in c.chambers]],
    "walls.wall_side": str,
    "walls.is_wall_vector": lambda r: r.is_wall,
    "walls.category_walls_k3": lambda ws: [[vec(w.u), q(w.t2)] for w in ws],
    "fourier_mukai.fm_apply": vec,
    "fourier_mukai.fm_inverse": vec,
    "fourier_mukai.transform_central_charge": lambda t: [
        q(t.zeta_re), q(t.zeta_im), q(t.xi_coeff), q(t.eta_coeff)],
    "polarization.ample_class": lambda a: [
        q(a.phi), vec(a.xi1), vec(a.xi2), vec(a.xi_omega)],
    "polarization.omega_x": q,
    "classification.stable_existence": lambda r: [
        r.verdict, vec(r.witness), r.certified, r.bound],
    "classification.classify_decomposition": lambda r: [
        r.verdict, [vec(w) for w in r.witnesses], r.certified, r.bound],
    "classification.find_isotropic_pairing_one": lambda ws: [
        vec(w) for w in ws],
    "classification.find_minus_two_aligned": lambda ws: [vec(w) for w in ws],
}

# useful outcomes per call: walls returned, cuts, classes found, ...
COUNT = {
    "walls.enumerate_walls": len,
    "walls.chambers_on_ray": lambda c: len(c.cut_points),
    "walls.is_wall_vector": lambda r: int(r.is_wall),
    "walls.category_walls_k3": len,
    "classification.stable_existence": lambda r: int(r.witness is not None),
    "classification.classify_decomposition": lambda r: len(r.witnesses),
    "classification.find_isotropic_pairing_one": len,
    "classification.find_minus_two_aligned": len,
}


def decode(x):
    if isinstance(x, dict):
        (tag, val), = x.items()
        if tag == "v":
            return mv(*val)
        if tag == "S":
            return Surface(*val)
        if tag == "p":
            return param(*val)
        if tag == "q":
            return Fraction(val)
        if tag == "R":
            return Region(*val)
        if tag == "T":
            return FMTransform(val[0], Fraction(val[1]))
        raise ValueError(tag)
    if isinstance(x, list):
        return [decode(e) for e in x]
    return x


class Tracer:
    """Spans in memory: one per op and one per library call inside it,
    with the op as the call's parent."""

    def __init__(self, names):
        self.names = ["op"] + list(names)
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.name, self.parent = array("i"), array("i")
        self.t0, self.t1 = array("d"), array("d")
        self.out = [0] * len(self.names)
        self.raised = [0] * len(self.names)
        self.current = -1

    def _open(self, k):
        idx = len(self.t0)
        self.name.append(k)
        self.parent.append(self.current)
        self.t1.append(0.0)
        self.t0.append(perf_counter())
        return idx

    def wrap(self, name, fn):
        k = self.ids[name]
        count = COUNT.get(name, cli_ok if name.startswith("cli.")
                          else lambda r: 1)

        def traced(*args):
            idx = self._open(k)
            try:
                res = fn(*args)
            except Exception:
                self.raised[k] += 1
                raise
            finally:
                self.t1[idx] = perf_counter()
            self.out[k] += count(res)
            return res
        return traced

    def op_begin(self):
        self.current = self._open(0)

    def op_end(self):
        self.t1[self.current] = perf_counter()
        self.current = -1

    def summary(self):
        n = len(self.names)
        durs = [[] for _ in range(n)]
        child = [0.0] * len(self.t0)
        for i in range(len(self.t0)):
            d = self.t1[i] - self.t0[i]
            durs[self.name[i]].append(d)
            if self.parent[i] >= 0:
                child[self.parent[i]] += d
        self_s = [0.0] * n
        for i in range(len(self.t0)):
            self_s[self.name[i]] += self.t1[i] - self.t0[i] - child[i]
        return {self.names[k]: {
            "calls": len(durs[k]), "self_s": self_s[k],
            "p50_us": statistics.median(durs[k]) * 1e6 if durs[k] else 0.0,
            "raised": self.raised[k], "out": self.out[k]}
            for k in range(n)}

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for i in range(len(self.t0)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                         f"{self.t0[i]:.9f},{self.t1[i]:.9f}\n")


def invoke(fns, calls):
    outs = []
    for fn, args in calls:
        try:
            outs.append(fns[fn](*args))
        except Exception as e:  # the op failed; the harness keeps going
            outs.append(("error", getattr(e, "code", type(e).__name__),
                         traceback.format_exc()))
    return outs


def run_loop(fns, ops, seconds, min_ops, block, cap, cycle, first, chunk,
             tracer=None):
    """Closed loop over ops: op i+1 starts when op i has returned.  At a
    multiple of ``block`` ops it stops once the ops have taken ``seconds``
    of corrected time and ``min_ops`` ops are done, so that the ops run do
    not depend on the host's speed; it also stops at ``cap`` ops or when a
    non-cycled op list runs out.  Returns (raw latencies, corrected
    latencies, counts, repeat mismatches); ``first`` collects each
    distinct op's first outputs."""
    lat = array("d", [0.0]) * cap
    cal_n, cal_s = array("q", [0]), array("d", [chunk.run()])
    counts, mismatch = {}, {}
    n = 0
    since_cal = 0.0
    busy = 0.0  # corrected op time up to the last calibration
    while n < cap and (cycle or n < len(ops)):
        if n % block == 0 and n >= min_ops and busy >= seconds:
            break
        i = n % len(ops)
        if tracer:
            tracer.op_begin()
        t0 = perf_counter()
        outs = invoke(fns, ops[i])
        lat[n] = perf_counter() - t0
        if tracer:
            tracer.op_end()
        since_cal += lat[n]
        n += 1
        if since_cal >= chunk.every_s:
            cal_n.append(n)
            cal_s.append(chunk.run(int(since_cal / chunk.every_s)))
            busy += since_cal * chunk.scale(cal_s[-2:])
            since_cal = 0.0
        counts[i] = counts.get(i, 0) + 1
        if i not in first:
            first[i] = outs
        elif outs != first[i]:
            mismatch[i] = mismatch.get(i, 0) + 1
    if cal_n[-1] != n:
        cal_n.append(n)
        cal_s.append(chunk.run(max(1, int(since_cal / chunk.every_s))))
    return lat[:n], chunk.corrected(lat[:n], cal_n, cal_s), counts, mismatch


def canon(calls, outs, errors):
    res = []
    for (fn, _), out in zip(calls, outs):
        if isinstance(out, tuple) and out and out[0] == "error":
            errors.setdefault(fn, out[2])
            res.append({"error": out[1]})
        else:
            res.append(list(out) if fn.startswith("cli.") else OUT[fn](out))
    return res


def median_ms(argv, reps):
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run(argv, capture_output=True, check=True, timeout=120)
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def import_ms(reps):
    """-X importtime totals of the imports `import mukaistab.cli` makes:
    the top-level entries after a marker written once start-up is done."""
    totals = []
    for _ in range(reps):
        p = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import sys; sys.stderr.write('@@\\n'); import mukaistab.cli"],
            capture_output=True, text=True, check=True, timeout=120)
        lines = p.stderr.split("@@\n", 1)[1].splitlines()
        us = 0
        for line in lines:
            fields = line.split("|")
            if len(fields) == 3 and not fields[2].startswith("  "):
                us += int(fields[1])
        totals.append(us / 1e3)
    return statistics.median(totals)


def percentile_ms(sorted_lat, p):
    """Nearest-rank percentile: at least (100 - p)% of samples lie at or
    beyond it."""
    k = max(0, -(-len(sorted_lat) * p // 100) - 1)
    return sorted_lat[int(k)] * 1e3


def load(op):
    return [(c["fn"], decode(c["args"])) for c in op["calls"]]


def functions(ops):
    return {fn: cli if fn.startswith("cli.") else FNS[fn]
            for op in ops for fn, _ in op}


def main():
    workload, warm = sys.argv[1], [load(json.loads(sys.argv[2]))]
    invoke(functions(warm), warm[0])
    print("ready", flush=True)
    text = sys.stdin.read()
    if not text:
        return
    job = json.loads(text)
    ops = [load(op) for op in job["ops"]]
    fns = functions(ops)
    first = {}
    seconds = job["seconds"] / 2 if job["trace"] else job["seconds"]
    chunk = calib.CHILD if workload == "cli-session" else calib.FRACTION
    raw, lat, counts, mismatch = run_loop(
        fns, ops, seconds, job["min_ops"], job["block"], job["cap"],
        job["cycle"], first, chunk)
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" \
        else resource.RUSAGE_SELF
    result = {"n": len(lat), "busy_s": sum(lat), "raw_busy_s": sum(raw),
              "rss_mb": resource.getrusage(who).ru_maxrss / 1024}
    srt = sorted(lat)
    result["p50_ms"] = statistics.median(srt) * 1e3
    result["p90_ms"] = percentile_ms(srt, 90)
    result["raw_p50_ms"] = statistics.median(raw) * 1e3
    if job["trace"]:
        # the same ops again, traced: the busy-time gap is the overhead
        tracer = Tracer(sorted(fns))
        tfns = {k: tracer.wrap(k, f) for k, f in fns.items()}
        _, tlat, tcounts, tmis = run_loop(tfns, ops, 0, len(lat), 1,
                                          len(lat), job["cycle"], first,
                                          chunk, tracer)
        for i, k in tmis.items():
            mismatch[i] = mismatch.get(i, 0) + k
        result["trace"] = {"busy_s": sum(tlat), "counts": tcounts,
                           "layers": tracer.summary()}
        if workload == "cli-session":
            result["trace"]["interp_start_ms"] = median_ms(
                [sys.executable, "-c", "pass"], 10)
            result["trace"]["import_ms"] = import_ms(10)
        tracer.write(job["spans_path"])
    errors = {}
    result["outputs"] = {i: canon(ops[i], outs, errors)
                         for i, outs in first.items()}
    result["counts"], result["mismatch"] = counts, mismatch
    result["errors"] = errors
    print(json.dumps(result))


if __name__ == "__main__":
    main()
