#!/usr/bin/env python3
"""Build and run the CFM benchmark.

One run (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds `perfbench/` (a Cargo package of its own, against the repository's
crates by path) into $CARGO_TARGET_DIR, or `.bench_build` when that is
unset, runs the workload and passes its output through. The last line of
standard output is the result: `correct`, `attempted`, `failed` and the
metrics, end-to-end with `--trace 0`, per-layer with `--trace 1`. The line
before it reports the host (CPUs, free cores, build profile) and the
sample count behind every metric. The exit code is the program's: 1 when
an output check failed.

Steadiness mode runs every workload repeatedly, alternating the order, and
prints for each end-to-end metric the median, the quartiles and the spread
(interquartile distance as a share of the median), flagging any spread
above a third of the metric's bound in BENCHMARK.json (`warn`) or above
the bound itself (`FAIL`):

    python3 perfbench/run.py --steady [--first-seed 1] [--seconds S]

Self-test: feeds the output checks a corrupted answer of each kind and
requires the run to fail with exactly the violation that kind causes, and
requires clean runs to pass. It also reports, without gating on it,
whether the machine's known torn-read defect still shows when the
service clients overlap writes to one block (`--overlapping-writes`):

    python3 perfbench/run.py --selftest
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "cfm-perfbench"
WORKLOADS = ["sim-disjoint", "serve-mixed", "wire-mixed"]
# Runs of each workload in steadiness mode, each with its own seed.
RUNS = 10
# Each corruption, and the violation it must cause.
CORRUPTIONS = {
    "stale-read": "did not return its last write",
    "torn": "torn read of block",
    "duplicate": "requests attempted",
    "lost": "requests attempted",
}


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Build the benchmark; on failure exit with cargo's code."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if proc.returncode != 0:
        print(f"run.py: building the benchmark failed ({proc.returncode})", file=sys.stderr)
        sys.exit(proc.returncode or 1)
    return target_dir() / "release" / BINARY


def run_once(binary, workload, seed, seconds, extra=()):
    """Run one workload untraced with `extra` arguments, its own report on
    stderr discarded; return (exit code, report, result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=170)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    report = json.loads(lines[-2])["report"] if len(lines) >= 2 else None
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, report, result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def steady(args):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    binary = build()
    values = {w: {} for w in workloads}
    for r in range(RUNS):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.first_seed + r
            code, report, result = run_once(binary, w, seed, seconds)
            host = report or {}
            metrics = (result or {}).get("metrics", {})
            print(f"run {r + 1}/{RUNS} {w} seed {seed}: exit {code}, correct "
                  f"{result and result['correct']}, failed {result and result['failed']}, "
                  f"free cores {host.get('host_free_cores')}, "
                  + ", ".join(f"{n} {m['value']:.5g}" for n, m in metrics.items()),
                  file=sys.stderr)
            for name, m in metrics.items():
                values[w].setdefault(name, []).append(m["value"])
    worst = "ok"
    for w in workloads:
        for name, vals in values[w].items():
            med, q1, q3, sp = spread(vals)
            bound = bounds.get(name)
            flag = "ok"
            if bound is not None and sp > bound:
                flag = "FAIL"
            elif bound is not None and sp > bound / 3:
                flag = "warn"
            if flag == "FAIL" or (flag == "warn" and worst == "ok"):
                worst = flag
            print(f"{w:>13} {name:<16} median {med:>14.4f}  q1 {q1:>14.4f}  q3 {q3:>14.4f}  "
                  f"spread {sp:7.2%}  bound {bound if bound is not None else '-':>5}  {flag}")
    print(f"steadiness: {worst}")
    return 1 if worst == "FAIL" else 0


def selftest(args):
    binary = build()
    ok = True
    for w in WORKLOADS:
        code, _, result = run_once(binary, w, 1, 2)
        passed = code == 0 and result and result["correct"]
        print(f"clean {w}: exit {code}, correct {result and result['correct']} -> "
              f"{'ok' if passed else 'UNEXPECTED'}")
        ok &= bool(passed)
    for w in WORKLOADS:
        for kind, expect in CORRUPTIONS.items():
            code, report, result = run_once(binary, w, 1, 2, ["--corrupt", kind])
            why = report["violations"] if report else []
            # Caught only by the violation this corruption causes and no
            # other, so a real defect showing in the same run cannot pass
            # for a caught corruption.
            caught = (code == 1 and result and not result["correct"]
                      and len(why) == 1 and expect in why[0])
            print(f"corrupt {kind:<10} {w}: exit {code}, correct "
                  f"{result and result['correct']} {why} -> {'caught' if caught else 'MISSED'}")
            ok &= bool(caught)
    # Not part of the verdict: whether the machine still tears reads when
    # two writes to one block overlap, which the clients' write gate avoids.
    code, report, result = run_once(binary, "serve-mixed", 1, 2, ["--overlapping-writes"])
    why = report["violations"] if report else []
    torn = code == 1 and any("torn read" in v for v in why)
    print(f"known defect, serve-mixed --overlapping-writes: exit {code} -> "
          f"{'torn reads still show' if torn else 'no torn read (defect fixed? see README.md)'}")
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    if args.steady:
        return steady(args)
    if args.selftest:
        return selftest(args)
    if not args.workload or args.seconds is None:
        p.error("--workload and --seconds are required")
    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
