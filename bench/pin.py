"""Regenerate bench/pinned.json: the reference hashes for outputs that no
oracle can recompute at benchmark time.

    PYTHONPATH=src python3 bench/pin.py

It pins, from the library at the current commit, the wall list of every
class of the wall-sweep workload (checked for soundness by
ref.walls_sound before it is pinned), and the stdout of every
walls/plot/chambers argument list the cli-session workload can draw.
Run it only at a commit whose outputs are trusted; a later change that
alters any of these outputs is then reported as wrong.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "tests")]

import gen  # noqa: E402
import ref  # noqa: E402
import worker  # noqa: E402


def main():
    walls = {}
    for stratum in gen.sweep_classes():
        for kind, v in stratum:
            call = gen.sweep_walls_call(kind, v)
            out = worker.OUT[call["fn"]](
                worker.FNS[call["fn"]](*worker.decode(call["args"])))
            if not ref.walls_sound(*ref.plain(call["args"]), out):
                raise SystemExit(f"unsound wall set for {kind} {v}")
            walls[ref.wall_key(kind, v)] = ref.digest(out)
    cli = {}
    pool = (gen.cli_wall_pool("walls") + gen.cli_wall_pool("plot")
            + gen.cli_chambers_pool())
    for argv in pool:
        code, stdout, _ = worker.cli(*argv)
        if code != 0:
            raise SystemExit(f"exit {code} for {argv}")
        cli[" ".join(argv)] = ref.digest(stdout)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    with open(os.path.join(HERE, "pinned.json"), "w") as fh:
        json.dump({"commit": commit, "walls": walls, "cli": cli}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(walls)} wall sets and {len(cli)} CLI outputs")


if __name__ == "__main__":
    main()
