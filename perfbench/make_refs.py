#!/usr/bin/env python3
"""Writes the benchmark's committed correctness references.

    python3 perfbench/make_refs.py

Run it from the repository root after a change meant to alter what the
program computes: delete the stale files in perfbench/refs/ first. For
every input window it computes each workload's missing exact reference
(`tlc-perfbench reference`, minutes per window), then runs one
`wide-predict` pass per window and rewrites
`refs/predict-over-epsilon.tsv`: the predict points whose error against
exact replay exceeds PREDICT_EPSILON, each with its error rounded up to
the next 0.001 as its limit. It fails if any pass misses the gate for
another reason.
"""

import json
import math
import os
import subprocess
import sys

import run

WINDOWS = 8


def mix(seed):
    """SplitMix64 finaliser, as `inputs::mix` in src/inputs.rs."""
    m = (1 << 64) - 1
    z = (seed + 0x9E3779B97F4A7C15) & m
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m
    return z ^ (z >> 31)


def seed_for(window):
    return 0 if window == 0 else next(s for s in range(1, 1000) if mix(s) % WINDOWS == window)


def child(binary, *args):
    done = subprocess.run([str(binary)] + [str(a) for a in args], stdout=subprocess.PIPE,
                          text=True, check=True)
    return done.stdout.strip().splitlines()[-1]


def main():
    runner = run.Runner()
    runner.build()
    binary = runner.binary
    run.WORK.mkdir(parents=True, exist_ok=True)
    threads = len(os.sched_getaffinity(0))
    trace, rows = run.WORK / "make-refs.trc", run.WORK / "make-refs.tsv"
    over = []
    for window in range(WINDOWS):
        seed = seed_for(window)
        host = json.loads(child(binary, "host", seed))
        assert int(host["window"]) == window, f"seed {seed} selects window {host['window']}"
        for workload in run.WORKLOADS:
            path = run.REFS / f"{workload}-window{window}.tsv.gz"
            if path.exists():
                continue
            run.log(f"computing {path.name}")
            if workload == "trace-sampled":
                child(binary, "trace", seed, trace)
            child(binary, "reference", workload, seed, threads, trace, rows)
            lines = rows.read_text(encoding="utf-8").splitlines()
            if any(r.endswith("FAILED") for r in lines):
                sys.exit(f"the reference computation failed: {path.name}")
            run.write_rows_gz(path, lines[1:], lines[0])
        child(binary, "pass", "wide-predict", seed, threads, trace, rows)
        got = run.read_rows(rows)
        ref = run.read_rows(run.REFS / f"wide-predict-window{window}.tsv.gz")
        for g, w in zip(got, ref):
            fg, fw = g.split("\t"), w.split("\t")
            err = abs(run.local_miss_ratio(fg) - run.local_miss_ratio(fw))
            if fg[run.L2] != "0" and fg[run.WAYS] != "1" and err > run.PREDICT_EPSILON:
                over.append((window, *run.point_key(fg), math.ceil(err * 1000) / 1000))
        known = {(o[0], tuple(o[1:5])): o[5] for o in over}
        failed = run.check_rows("wide-predict", got, ref, window, known)
        if failed:
            sys.exit(f"window {window}: {failed} wide-predict points fail the gate")
        run.log(f"window {window}: {sum(o[0] == window for o in over)} points over epsilon")
    trace.unlink(missing_ok=True)
    rows.unlink(missing_ok=True)
    header = "window\tworkload\tl1_bytes\tl2_bytes\tways\tlimit"
    lines = [header] + ["\t".join(str(v) for v in o) for o in over]
    run.KNOWN_OVER_EPSILON.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
