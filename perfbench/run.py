#!/usr/bin/env python3
"""Benchmark entry point for the two-level cache design-space explorer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `tlc-perfbench` child binary
(package `perfbench/Cargo.toml`, target directory `$CARGO_TARGET_DIR`,
default `.bench_build`), runs the workload, checks every design point
against its reference outside the timed window, and prints one JSON
result object as the last line of standard output. `--trace 0` reports
the end-to-end metrics of untraced passes at threads = nproc;
`--trace 1` reports the per-layer metrics of a separate single-threaded
traced pass. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import gzip
import hashlib
import json
import os
from statistics import median
import subprocess
import sys
import time
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
WORK = HERE / ".work"

WORKLOADS = ("paper-sweep", "wide-predict", "trace-sampled", "repro-quick")

# Fewest untraced passes per run, whatever --seconds says: medians need
# several samples.
MIN_PASSES = {"paper-sweep": 4, "wide-predict": 4, "trace-sampled": 10, "repro-quick": 6}

# Documented error contracts (local L2 miss ratio against exact replay).
PREDICT_EPSILON = 0.16
SAMPLED_EPSILON = 0.12

# Predict points that already miss PREDICT_EPSILON, with the error each
# may not exceed (see "Known predictor defect" in perfbench/README.md).
KNOWN_OVER_EPSILON = REFS / "predict-over-epsilon.tsv"

# The paper's 32 KB single-level L1 miss rates (tests/calibration.rs).
PAPER_ANCHORS = {"espresso": 0.0100, "eqntott": 0.0149, "tomcatv": 0.109}

# Columns of a design-point row (see perfbench/src/rows.rs).
WORKLOAD, L1, L2, WAYS = 0, 1, 2, 3
INSTR, DATA, L1I, L1D, L2_HITS, L2_MISSES = 6, 7, 8, 9, 10, 11
TIMING_COLS = (13, 14, 15)  # area, L1 cycle, L2 cycles: exact everywhere
KEY_COLS = (0, 1, 2, 3, 4, 5)

# Traced-layer self times whose sum is `runner.busy_s`: each is time the
# untraced pipeline also spends. `compact.decode_s` is a separate bare
# decode pass and is left out.
SELF_TIMES = (
    "arena.capture_s",
    "filter.capture_s",
    "filter.fallback_s",
    "filter_family.replay_s",
    "predict.profile_s",
    "predict.solve_s",
    "sampling.signature_s",
    "sampling.slice_capture_s",
    "sampling.combine_s",
    "machine.derive_s",
    "envelope.build_s",
)

EXHIBIT_IDS = (
    "table1 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 "
    "fig15 fig16 fig17 fig18 fig19 fig20 fig21 fig22 fig23 fig24 fig25 fig26 power future "
    "policies missrates replacement victim sensitivity board multiprog banking prefetch "
    "l1assoc writes timingmodels"
).split()

PER_LAYER = (
    [
        "arena.capture_s", "arena.records", "arena.mb", "arena.ns_per_record",
        "filter.capture_s", "filter.walks", "filter.refs_walked", "filter.events",
        "filter.event_mb", "filter.ns_per_ref", "filter.fallbacks", "filter.fallback_s",
        "filter.ceiling_frac",
        "filter_family.replay_s", "filter_family.conventional_s", "filter_family.exclusive_s",
        "filter_family.units", "filter_family.member_events",
        "filter_family.ns_per_member_event", "filter_family.max_unit_s",
        "filter_family.ceiling_frac",
        "predict.profile_s", "predict.solve_s", "predict.points", "predict.replayed_points",
        "predict.profile_ns_per_event", "predict.solve_us_per_point",
        "machine.derive_s", "machine.points", "envelope.build_s",
        "runner.busy_s", "runner.idle_s", "runner.parallel_eff", "runner.unexplained_s",
        "trace.wall_s", "trace.overhead_frac",
        "compact.decode_s", "compact.trace_mb", "compact.mb_per_s",
        "sampling.signature_s", "sampling.slice_capture_s", "sampling.replay_s",
        "sampling.phases", "sampling.replayed_frac",
        "host.seq_read_gb_per_s",
    ]
    + [f"figures.{i}_s" for i in EXHIBIT_IDS]
)


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print(f"# perfbench: {msg}", file=sys.stderr, flush=True)


# Seconds a cold build may take, and seconds the run may take after it.
BUILD_SECONDS = 720
RUN_SECONDS = 170


class Runner:
    """Builds the child binary, then runs children under one deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + BUILD_SECONDS
        target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        self.target = target if target.is_absolute() else Path.cwd() / target
        self.binary = self.target / "release" / "tlc-perfbench"

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time limit reached")
        return left

    def build(self):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(HERE / "Cargo.toml")]
        env = dict(os.environ, CARGO_TARGET_DIR=str(self.target))
        try:
            done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=self.remaining())
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build failed: {e}") from e
        if done.returncode != 0:
            raise BenchError("build failed")
        self.deadline = time.monotonic() + RUN_SECONDS

    def child(self, *args):
        """Runs one child to completion and returns its JSON line."""
        cmd = [str(self.binary)] + [str(a) for a in args]
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=self.remaining())
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{args[0]} timed out") from e
        if done.returncode != 0:
            raise BenchError(f"{args[0]} exited with {done.returncode}")
        lines = done.stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


# ---------------------------------------------------------------- rows


def read_rows(path):
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as f:
        return f.read().splitlines()[1:]


def write_rows_gz(path, rows, header):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with gzip.open(tmp, "wt", encoding="utf-8", compresslevel=9) as f:
        f.write(header + "\n")
        for r in rows:
            f.write(r + "\n")
    os.replace(tmp, path)


def local_miss_ratio(f):
    probes = int(f[L2_HITS]) + int(f[L2_MISSES])
    return int(f[L2_MISSES]) / probes if probes else 0.0


def l1_miss_rate(f):
    refs = int(f[INSTR]) + int(f[DATA])
    return (int(f[L1I]) + int(f[L1D])) / refs if refs else 0.0


def point_key(f):
    """`(workload, l1_bytes, l2_bytes, ways)` of a split design-point row."""
    return (f[WORKLOAD], f[L1], f[L2], f[WAYS])


def load_known_over_epsilon(path=KNOWN_OVER_EPSILON):
    """`{(window, point_key): limit}` from the committed list."""
    known = {}
    for line in read_rows(path):
        window, *key, limit = line.split("\t")
        known[(int(window), tuple(key))] = float(limit)
    return known


def check_rows(workload, rows, ref, window=0, known=None):
    """Counts the rows that fail `workload`'s correctness gate.

    Exact workloads must match the reference row for row, bit for bit.
    `wide-predict` points must keep the L1 side and every timing field
    exact, single-level points and direct-mapped L2 counts exact, and
    every other local L2 miss ratio within PREDICT_EPSILON of exact
    replay, or, for a point `known` lists for `window`, within its
    listed limit; `trace-sampled` points must keep timing exact and
    every local L2 miss ratio within SAMPLED_EPSILON of exact replay of
    the whole trace. Missing or extra rows fail.
    """
    known = known or {}
    failed = 0
    for got, want in zip_longest(rows, ref):
        if got is None or want is None or got == "FAILED":
            failed += 1
            continue
        if workload in ("paper-sweep", "repro-quick"):
            failed += got != want
            continue
        g, w = got.split("\t"), want.split("\t")
        if len(g) != len(w) or any(g[c] != w[c] for c in KEY_COLS + TIMING_COLS):
            failed += 1
            continue
        if workload == "wide-predict":
            exact_cols = (INSTR, DATA, L1I, L1D)
            if g[L2] == "0":
                exact_cols = range(INSTR, L2_MISSES + 2)
            elif g[WAYS] == "1":
                exact_cols = exact_cols + (L2_HITS, L2_MISSES)
            if any(g[c] != w[c] for c in exact_cols):
                failed += 1
                continue
            eps = known.get((window, point_key(g)), PREDICT_EPSILON)
        else:
            eps = SAMPLED_EPSILON
        failed += abs(local_miss_ratio(g) - local_miss_ratio(w)) > eps
    return failed


def max_miss_ratio_err(approx, exact):
    """Largest local L2 miss-ratio error over two-level points."""
    worst = 0.0
    for a, e in zip(approx, exact):
        if a == "FAILED" or e == "FAILED":
            continue
        fa, fe = a.split("\t"), e.split("\t")
        if fa[L2] != "0":
            worst = max(worst, abs(local_miss_ratio(fa) - local_miss_ratio(fe)))
    return worst


def paper_anchor_err(rows):
    """Largest relative error of a 32 KB single-level L1 miss rate
    against the paper's anchors, over the anchor presets in `rows`."""
    errs = []
    for r in rows:
        f = r.split("\t")
        if len(f) > L1D and f[L2] == "0" and f[L1] == "32768" and f[WORKLOAD] in PAPER_ANCHORS:
            anchor = PAPER_ANCHORS[f[WORKLOAD]]
            errs.append(abs(l1_miss_rate(f) - anchor) / anchor)
    if not errs:
        raise BenchError("no 32 KB single-level anchor point")
    return max(errs)


# ---------------------------------------------------------------- runs


def reference_rows(workload, window):
    """The committed reference rows of an input window."""
    path = REFS / f"{workload}-window{window}.tsv.gz"
    if not path.exists():
        raise BenchError(f"no reference {path.name}; perfbench/make_refs.py writes it")
    return read_rows(path)


def accuracy(runner, workload, threads):
    """`(max_miss_ratio_err, paper_anchor_err)` of the program's model on
    window 0 (see `accuracy` in perfbench/src/pipeline.rs). Deterministic
    for a given build, so memoised per child-binary digest."""
    digest = hashlib.sha256(runner.binary.read_bytes()).hexdigest()[:16]
    memo = WORK / f"accuracy-{workload}-{digest}.json"
    if memo.exists():
        return tuple(json.loads(memo.read_text()))
    a, e = WORK / "accuracy-approx.tsv", WORK / "accuracy-exact.tsv"
    runner.child("accuracy", workload, threads, WORK / "accuracy.trc", a, e)
    approx, exact = read_rows(a), read_rows(e)
    if workload in ("wide-predict", "trace-sampled"):
        err = max_miss_ratio_err(approx, read_rows(REFS / f"{workload}-window0.tsv.gz"))
    else:
        err = max_miss_ratio_err(approx, exact)
    anchor = paper_anchor_err(approx if workload == "trace-sampled" else exact)
    memo.write_text(json.dumps([err, anchor]))
    return err, anchor


def end_to_end(runner, args, threads, trace, ref, window, known, result):
    passes, rows_per_pass = [], []
    start = time.monotonic()
    while len(passes) < MIN_PASSES[args.workload] or time.monotonic() - start < args.seconds:
        out = WORK / f"pass-{len(passes)}.tsv"
        passes.append(runner.child("pass", args.workload, args.seed, threads, trace, out))
        rows_per_pass.append(read_rows(out))
    for rows in rows_per_pass:
        result["attempted"] += len(ref)
        result["failed"] += check_rows(args.workload, rows, ref, window, known)
    err, anchor_err = accuracy(runner, args.workload, threads)
    walls = [p["wall_s"] for p in passes]
    log(f"{len(passes)} passes, wall_s {', '.join(f'{w:.3f}' for w in walls)}")
    return {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(p["setup_s"] for p in passes), "s"),
        "sim_mips": (median(p["sim_work"] / p["wall_s"] / 1e6 for p in passes), "instr.pts/us"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MB"),
        "max_miss_ratio_err": (err, "ratio"),
        "paper_anchor_err": (anchor_err, "ratio"),
    }


def per_layer(runner, args, threads, trace, ref, window, known, result):
    out_n, out_1, out_t = (WORK / f"{n}.tsv" for n in ("untraced", "untraced-1", "traced"))
    untraced = runner.child("pass", args.workload, args.seed, threads, trace, out_n)
    single = runner.child("pass", args.workload, args.seed, 1, trace, out_1)
    layers = runner.child("traced", args.workload, args.seed, trace, out_t)
    rows_n, rows_1, rows_t = read_rows(out_n), read_rows(out_1), read_rows(out_t)
    result["attempted"] += 2 * len(ref)
    result["failed"] += check_rows(args.workload, rows_n, ref, window, known)
    # Parity: the traced pass and the single-threaded pass must describe
    # the same program as the untraced one, point for point.
    for other in (rows_t, rows_1):
        mismatched = sum(a != b for a, b in zip_longest(rows_n, other))
        result["failed"] += mismatched
        if mismatched:
            log(f"parity: {mismatched} points differ from the untraced pass")

    g = layers.get
    m = {k: g(k, 0.0) for k in PER_LAYER}
    busy = sum(g(k, 0.0) for k in SELF_TIMES) + sum(g(f"figures.{i}_s", 0.0) for i in EXHIBIT_IDS)
    capacity = threads * untraced["wall_s"]
    seq = g("host.seq_read_gb_per_s")

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m["arena.mb"] = g("arena.bytes", 0.0) / 1e6
    m["arena.ns_per_record"] = ratio(g("arena.capture_s", 0.0), g("arena.records", 0.0), 1e9)
    m["filter.event_mb"] = g("filter.event_bytes", 0.0) / 1e6
    m["filter.ns_per_ref"] = ratio(g("filter.capture_s", 0.0), g("filter.refs_walked", 0.0), 1e9)
    m["filter.ceiling_frac"] = ratio(
        ratio(g("filter.bytes_walked", 0.0), g("filter.capture_s", 0.0), 1e-9), seq)
    m["filter_family.ns_per_member_event"] = ratio(
        g("filter_family.replay_s", 0.0), g("filter_family.member_events", 0.0), 1e9)
    m["filter_family.ceiling_frac"] = ratio(
        ratio(g("filter_family.bytes_read", 0.0), g("filter_family.replay_s", 0.0), 1e-9), seq)
    m["predict.profile_ns_per_event"] = ratio(
        g("predict.profile_s", 0.0), g("predict.profile_events", 0.0), 1e9)
    m["predict.solve_us_per_point"] = ratio(g("predict.solve_s", 0.0), g("predict.points", 0.0), 1e6)
    m["runner.busy_s"] = busy
    m["runner.idle_s"] = capacity - busy
    m["runner.parallel_eff"] = ratio(busy, capacity)
    m["runner.unexplained_s"] = g("trace.wall_s") - busy
    m["trace.overhead_frac"] = ratio(g("trace.wall_s"), single["wall_s"]) - 1.0
    m["compact.trace_mb"] = g("compact.bytes", 0.0) / 1e6
    m["compact.mb_per_s"] = ratio(m["compact.trace_mb"], g("compact.decode_s", 0.0))
    log(f"traced {g('trace.wall_s'):.3f} s, busy {busy:.3f} s, untraced {untraced['wall_s']:.3f} s "
        f"x {threads} threads, single-threaded {single['wall_s']:.3f} s")
    return {k: (v, unit_of(k)) for k, v in m.items()}


def unit_of(name):
    for suffix, unit in (("gb_per_s", "GB/s"), ("mb_per_s", "MB/s"), ("_s", "s"), ("mb", "MB"),
                         ("_frac", "ratio"), ("_eff", "ratio"), ("us_per_point", "us"),
                         ("ns_per_record", "ns"), ("ns_per_ref", "ns"), ("ns_per_event", "ns"),
                         ("ns_per_member_event", "ns")):
        if name.endswith(suffix):
            return unit
    return "count"


def host_header(runner, args, threads, trace_info):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE, text=True,
                               timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    host = runner.child("host", args.seed)
    sizes = {
        "paper-sweep": {"presets": 7, "configs": 90, "instructions_per_preset": 2_000_000,
                        "arena_bytes_per_preset": 34_000_000},
        "wide-predict": {"presets": 7, "configs": 450, "instructions_per_preset": 2_000_000,
                         "arena_bytes_per_preset": 34_000_000},
        "trace-sampled": {"presets": 1, "configs": 90, **trace_info},
        "repro-quick": {"exhibits": len(EXHIBIT_IDS), "budget": "Harness::quick() + seed offset"},
    }[args.workload]
    return {
        "host": {"nproc": threads, "cpu": cpu,
                 "rustc": rustc, "obs": bool(host["obs"]),
                 "host.seq_read_gb_per_s": host["seq_read_gb_per_s"]},
        "workload": args.workload, "seed": args.seed, "window": int(host["window"]),
        "input": sizes,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")

    runner = Runner()
    try:
        runner.build()
        WORK.mkdir(parents=True, exist_ok=True)
        threads = len(os.sched_getaffinity(0))
        trace = WORK / f"trace-seed{args.seed}.trc"
        trace_info = {}
        if args.workload == "trace-sampled":
            trace_info = runner.child("trace", args.seed, trace)
        header = host_header(runner, args, threads, trace_info)
        print(json.dumps(header), flush=True)
        window = header["window"]
        ref = reference_rows(args.workload, window)
        known = load_known_over_epsilon()
        result = {"correct": True, "attempted": 0, "failed": 0}
        stage = per_layer if args.trace else end_to_end
        metrics = stage(runner, args, threads, trace, ref, window, known, result)
    except BenchError as e:
        log(f"error: {e}")
        return 1
    finally:
        if WORK.exists():
            (WORK / f"trace-seed{args.seed}.trc").unlink(missing_ok=True)
    result["correct"] = result["failed"] == 0
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    log(f"failed_frac {result['failed']}/{result['attempted']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
