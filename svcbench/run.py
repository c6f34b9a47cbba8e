#!/usr/bin/env python3
"""Build and run the fila service benchmark.

One run:

    python3 svcbench/run.py --workload warm_mix --seed 1 --seconds 20 --trace 0

builds the benchmark package (``cargo build --release --offline``; cargo
honours ``CARGO_TARGET_DIR``), runs one workload, passes its report
through to standard output and ends with the JSON result line.  The
benchmark prints every metric it measured; the result line keeps the ones
``BENCHMARK.json`` lists for the kind of run (``end_to_end`` untraced,
``per_layer`` traced) and is ``"correct": false`` when one of those is
missing.  The exit code is non-zero when any outcome mismatched the
reference, a listed metric is missing or the build failed.  A traced run
(``--trace 1``) also writes the driver's spans to
``svcbench/traces/<workload>-<seed>.jsonl``.

Steadiness mode:

    python3 svcbench/run.py --steadiness 10 --sets 2 --workload cold_admission --seconds 20

runs ``--sets`` consecutive sets of N runs with seeds ``--seed``,
``--seed``+1, ... and prints, per set and for every listed metric, the
median, the quartiles, the spread (inter-quartile range over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) and the bound
``BENCHMARK.json`` sets; for a second set, also how far each median moved
from the first set's, in the direction that is worse.  Host facts close
each set: hardware threads, pool workers and the CPU steal ticks
``/proc/stat`` counted over the set; each run's header, counts, host
calibration and listed metrics (with their unscaled values) come first.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark; returns the binary path or None on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if result.returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "fila-svcbench")


def listed(trace):
    """The metrics BENCHMARK.json lists for a traced or an untraced run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, report lines, result or None).

    The result keeps the listed metrics and is incorrect when one of them
    is missing."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(HERE, "traces", f"{workload}-{seed}.jsonl")]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        try:
            out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            print(f"run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
            return 1, [], None
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return child.returncode or 1, lines, None
    measured = result["metrics"]
    missing = [m["name"] for m in listed(trace) if m["name"] not in measured]
    for name in missing:
        print(f"listed metric {name} is missing", file=sys.stderr)
    result["metrics"] = {m["name"]: measured[m["name"]]
                         for m in listed(trace) if m["name"] in measured}
    result["correct"] = bool(result["correct"]) and not missing
    code = child.returncode or (0 if result["correct"] else 1)
    return code, lines[:-1], result


def steal_ticks():
    """CPU steal ticks summed over all CPUs, or None where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except OSError:
        return None


def one_set(binary, args):
    """Runs one set of seeds; returns {metric: [values]} or None."""
    values = {}
    workers = set()
    steal_before = steal_ticks()
    for i in range(args.steadiness):
        seed = args.seed + i
        started = time.monotonic()
        code, lines, result = run_once(binary, args.workload, seed, args.seconds, args.trace)
        if code != 0 or result is None:
            print(f"seed {seed}: run failed (exit {code})", file=sys.stderr)
            return None
        print(f"seed {seed}: run took {time.monotonic() - started:.1f} s")
        shown = {f"metric {name} " for name in result["metrics"]}
        for line in lines:
            if line.startswith(("svcbench ", "counts ", "host: ")) or line.startswith(tuple(shown)):
                print(line)
                workers.update(w.split("=")[1] for w in line.split() if w.startswith("workers="))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    steal_after = steal_ticks()
    print(f"host: nproc={os.cpu_count()} workers={','.join(sorted(workers))} "
          f"steal_ticks={None if steal_before is None else steal_after - steal_before}")
    return values


def steadiness(binary, args):
    metrics = listed(args.trace)
    medians = []
    for k in range(args.sets):
        values = one_set(binary, args)
        if values is None:
            return 1
        print(f"set {k + 1}: {args.workload}, {args.steadiness} seeds from {args.seed}")
        print(f"{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'bound':>6} {'moved':>8}")
        worst = 0.0
        medians.append({})
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            vals = values[name]
            if len(vals) > 1:
                q1, med, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = med = q3 = vals[0]
            medians[-1][name] = med
            spread = (q3 - q1) / med if med else float("inf")
            moved = ""
            if k > 0:
                first = medians[0][name]
                change = (med - first) / first if first else float("inf")
                worse = change if m["better"] == "lower" else -change
                moved = f"{worse:>8.4f}"
                if bound is not None:
                    worst = max(worst, worse / bound)
            if bound is not None:
                worst = max(worst, spread / bound)
            print(f"{name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{'-' if bound is None else bound:>6} {moved:>8}")
        print(f"largest spread or worse median move / bound: {worst:.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run N seeds and report each metric's spread")
    parser.add_argument("--sets", type=int, default=1,
                        help="steadiness sets to run back to back")
    args = parser.parse_args()
    binary = build()
    if binary is None:
        print("benchmark build failed", file=sys.stderr)
        return 1
    if args.steadiness:
        return steadiness(binary, args)
    code, lines, result = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
