#!/usr/bin/env python3
"""Cold-process benchmark of the PageForge simulator.

    python3 perfbench/run.py --workload pf-silo --seed 0 --seconds 36 --trace 0

Run from the root of a repository checkout. Builds the `perfbench`
package (release, offline) into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs repetitions of one workload, each in a fresh
`perfbench-rep` process, until `--seconds` would be exceeded. Every
repetition's simulated result is checked against the committed references
(see README.md). The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (medians over the
untraced repetitions). With `--trace 1` untraced and traced repetitions
alternate; the metrics are the per-layer ones: counts from the untraced
repetitions (which must repeat exactly), host times from the traced ones.
Spans of the traced repetitions are written to `.bench_out/`.

`--bless` re-records `perfbench/reference.json` digests for every
reference seed and workload (one repetition each); the default seed is
still checked against the committed goldens in `results/` while blessing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("pf-silo", "ksm-silo", "fleet-dense")

# Repetitions per run never fall below this, whatever --seconds says.
MIN_REPS = 2
# A repetition taking longer than this is killed and counted as failed.
REP_TIMEOUT_S = 120
# No repetition starts that could end later than this into the run.
LIMIT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "wall_s": "s",
    "sim_mcycles_per_s": "Mcycles/s",
    "peak_rss_mb": "MiB",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds perfbench-rep and returns its path; exits 1 on failure."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench-rep")


def run_rep(binary, workload, seed, traced):
    """One repetition in a fresh process: (parsed line or None, error)."""
    cmd = [binary, "--workload", workload, "--seed", seed, "--root", os.getcwd()]
    if traced:
        cmd.append("--trace")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"repetition exceeded {REP_TIMEOUT_S} s"
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no message"]
        return None, f"exit code {done.returncode}: {tail[0]}"
    try:
        rep = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, "no result line"
    return rep, rep.get("error")


def counts(rep):
    """The metrics of a repetition that must repeat exactly."""
    return {k: v["value"] for k, v in rep["metrics"].items()
            if v["kind"] == "exact" and not k.startswith("trace.")}


def measure(binary, workload, seed, seconds, trace):
    """Runs repetitions until the next one would overrun `seconds`.

    With `trace`, untraced and traced repetitions alternate.
    """
    reps = {False: [], True: []}
    attempted = failed = 0
    first = None
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(reps[True]) < len(reps[False])
        t = time.monotonic()
        rep, error = run_rep(binary, workload, seed, traced)
        longest = max(longest, time.monotonic() - t)
        attempted += 1
        if error is None:
            # Every repetition of one input must simulate the same thing.
            first = first or (rep["digest"], counts(rep))
            if (rep["digest"], counts(rep)) != first:
                error = "result or counts differ from the run's first repetition"
        if error is None:
            reps[traced].append(rep)
        else:
            failed += 1
            print(f"perfbench: {workload} seed {seed}: {error}", file=sys.stderr)
        elapsed = time.monotonic() - start
        complete = reps[False] and (reps[True] or not trace)
        if elapsed + longest > LIMIT_S:
            break
        if (attempted >= MIN_REPS and elapsed + longest > seconds
                and (complete or elapsed > seconds)):
            break
    return reps[False], reps[True], attempted, failed


def end_to_end(untraced):
    med = lambda f: statistics.median(f(r) for r in untraced)
    values = {
        "setup_s": med(lambda r: r["setup_s"]),
        "run_s": med(lambda r: r["run_s"]),
        "wall_s": med(lambda r: r["wall_s"]),
        "sim_mcycles_per_s": med(lambda r: r["sim_cycles"] / 1e6 / r["run_s"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(untraced, traced):
    out = {}
    for name, m in untraced[0]["metrics"].items():
        if m["kind"] == "exact" and not name.startswith("trace."):
            value = m["value"]
        else:
            value = statistics.median(r["metrics"][name]["value"] for r in traced)
        out[name] = {"value": value, "unit": m["unit"]}
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in untraced))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def write_spans(workload, seed, traced):
    os.makedirs(".bench_out", exist_ok=True)
    path = os.path.join(".bench_out", f"spans-{workload}-{seed}.json")
    with open(path, "w") as f:
        json.dump([{"wall_s": r["wall_s"], "spans": r["spans"]} for r in traced], f)


def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {REFERENCE}: {e}")


def save_reference(ref):
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")


def bless(binary):
    """Re-records every reference digest, keeping the old file on failure."""
    ref = load_reference()
    old_rows = ref["digests"]["full"]
    # Repetitions check themselves against the file: clear it meanwhile.
    ref["digests"]["full"] = []
    save_reference(ref)
    rows = []
    for seed in ref["seeds"]:
        for workload in WORKLOADS:
            rep, error = run_rep(binary, workload, seed, False)
            if error is not None:
                ref["digests"]["full"] = old_rows
                save_reference(ref)
                fail(f"bless {workload} {seed}: {error}")
            rows.append({"workload": workload, "seed": seed, "digest": rep["digest"]})
            print(f"{workload} {seed} {rep['digest']}", file=sys.stderr)
    ref["digests"]["full"] = rows
    save_reference(ref)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="selects reference workload seed number SEED mod their count")
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--bless", action="store_true")
    args = p.parse_args()

    binary = build()
    if args.bless:
        bless(binary)
        return
    if args.workload is None:
        fail("--workload is required")
    seeds = load_reference()["seeds"]
    seed = seeds[args.seed % len(seeds)]

    untraced, traced, attempted, failed = measure(
        binary, args.workload, seed, args.seconds, args.trace == 1)
    if not untraced or (args.trace and not traced):
        fail(f"no repetition of {args.workload} succeeded")
    if args.trace:
        metrics = per_layer(untraced, traced)
        write_spans(args.workload, seed, traced)
    else:
        metrics = end_to_end(untraced)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
