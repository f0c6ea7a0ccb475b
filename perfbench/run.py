#!/usr/bin/env python3
"""Builds and runs the AnyOpt benchmark (see perfbench/README.md).

One run (from the repository root):

    python3 perfbench/run.py --workload plan_paper --seed 1 --seconds 20 --trace 0

builds the libraries, anyoptd and the load generator from source (into
$CARGO_TARGET_DIR, default .bench_build), runs the workload, checks every
op's answer, scales every timing to the reference host speed measured in
the run (README.md, "Host noise and the host-speed reference"), prints
each metric with its unit, direction, layer and measured value, and
prints one JSON result object as the last line of standard output.

Repeated runs with their spread, exact-count check and tracing overhead
(exit code 1 when an answer is wrong or an exact count does not repeat):

    python3 perfbench/run.py --workload serve_paper --seconds 20 --repeat 5
    python3 perfbench/run.py --workload serve_paper --seconds 20 --repeat 5 --vary-seed
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# BENCHMARK.json gates plan_paper and serve_paper; census_35k runs by hand
# (perfbench/README.md says why).
WORKLOADS = ("plan_paper", "census_35k", "serve_paper")
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
RUN_TIMEOUT_S = 170
TIME_UNITS = ("s", "ms", "us", "ns")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    """Configures and builds; returns the binaries' directory."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja") and not os.path.exists(
                os.path.join(out, "Makefile")):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                       stdout=sys.stderr)
    return out


def source_digest():
    """Content hash of everything the benchmark builds (the checkout it
    runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def stop_group(pgid):
    """Kills what is left of the load generator's process group (the
    daemon included) and waits until none of it runs."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_loadgen(bins, workload, seed, seconds, trace, world_seed):
    workdir = os.path.join(bins, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    traces = os.path.join(bins, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(bins, "perfbench_loadgen"),
           "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace,
           "--world-seed=%d" % world_seed,
           "--anyoptd=" + os.path.join(bins, "anyoptd")]
    if trace:
        cmd.append("--spans-out=" + os.path.join(
            traces, "%s-seed%d.jsonl" % (workload, seed)))
    # Own process group, so the daemon it spawns is stopped with it.
    proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        stop_group(proc.pid)
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("load generator exited with %d" % proc.returncode)
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("load generator printed no record")
    return json.loads(lines[-1])


def normalise(record):
    """Scales every timing of the run to the reference host speed: times by
    the nominal over the measured time of the load generator's reference
    kernel, rates by its inverse.  `setup_s` takes the factor measured
    during set-up (`host.setup_speed_factor`), everything else the one
    measured after it (`host.speed_factor`).  The measured values stay in
    record["raw_metrics"]."""
    metrics = record["metrics"]
    # Without a factor the load generator recorded why (a failed check);
    # the times then stay as measured.
    factor = metrics.get("host.speed_factor", {}).get("value") or 1.0
    setup_factor = (metrics.get("host.setup_speed_factor", {}).get("value")
                    or 1.0)
    raw = {}
    for name, m in metrics.items():
        if name.startswith("host."):
            continue
        f = setup_factor if name == "setup_s" else factor
        if m["unit"] in TIME_UNITS:
            raw[name] = m["value"]
            m["value"] *= f
        elif m["unit"] == "1/s":
            raw[name] = m["value"]
            m["value"] /= f
    record["raw_metrics"] = raw


def layer_of(name, end_to_end):
    if name in end_to_end:
        return "end-to-end"
    head = name.split(".", 1)[0]
    if head == "self":
        return name[5:].rsplit("_", 1)[0]
    if head in ("traced", "trace"):
        return "tracing"
    if head == "host":
        return "host speed"
    return head


def result_line(bench, record, trace):
    """A run's last line: every metric BENCHMARK.json declares for this
    mode."""
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    got = record["metrics"]
    metrics = {}
    missing = []
    for m in declared:
        name = m["name"]
        source = name[len("traced."):] if name.startswith("traced.") else name
        if source in got:
            metrics[name] = {"value": got[source]["value"], "unit": m["unit"]}
        elif trace and not name.startswith("traced."):
            # A layer this workload never calls.
            metrics[name] = {"value": 0.0, "unit": m["unit"]}
        else:
            missing.append(name)
    if missing:
        raise RuntimeError("run produced no %s (%s)" % (
            ", ".join(missing), "; ".join(record["problems"]) or "no problem"))
    return {"correct": bool(record["correct"]),
            "attempted": max(1, int(record["attempted"])),
            "failed": int(record["failed"]),
            "metrics": metrics}


def print_report(bench, record, result):
    e2e = {m["name"] for m in bench["end_to_end"]}
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    info = record["info"]
    print("workload %s  seed %s  world seed %s  seconds %s  trace %s" % (
        info["workload"], info["seed"], info["world_seed"], info["seconds"],
        info["trace"]))
    print("nproc %s  build %s  commit %s  sources %s" % (
        info["nproc"], info["build_type"], record["commit"],
        record["source_digest"]))
    print("ops: %s;  *_tail_ms is p%s" % (info.get("ops", "?"),
                                          info.get("tail_percentile", "?")))
    speed = {k: record["metrics"].get("host.%sspeed_factor" % k, {}).get(
        "value") for k in ("setup_", "")}
    print("host speed factor %s in set-up, %s after (samples: %s); timings "
          "are scaled by it, 'measured' is the wall time" % (
              *("%.4f" % f if f else "missing" for f in speed.values()),
              info.get("host_speed_samples", "?")))
    raw = record.get("raw_metrics", {})

    def measured(name):
        source = name[len("traced."):] if name.startswith("traced.") else name
        return "%12.6g" % raw[source] if source in raw else " " * 12

    print("%-28s %16s %12s  %-6s %-7s %s" % (
        "metric", "value", "measured", "unit", "better", "layer"))
    shown = set()
    for name, m in result["metrics"].items():
        shown.add(name)
        print("%-28s %16.6g %s  %-6s %-7s %s" % (
            name, m["value"], measured(name), m["unit"],
            meta[name]["better"], layer_of(name, e2e)))
    for name, m in sorted(record["metrics"].items()):
        if name not in shown and "traced." + name not in shown:
            print("%-28s %16.6g %s  %-6s %-7s %s (not gated)" % (
                name, m["value"], measured(name), m["unit"],
                meta.get(name, {}).get("better", ""), layer_of(name, e2e)))
    for name, n in sorted(record["counts"].items()):
        print("count %-34s %d" % (name, n))
    print("answers: %d attempted, %d failed, correct=%s" % (
        result["attempted"], result["failed"], result["correct"]))
    for problem in record["problems"]:
        print("  problem:", problem)


def one_run(bench, bins, args, seed, trace):
    record = run_loadgen(bins, args.workload, seed, args.seconds, trace,
                         args.world_seed)
    normalise(record)
    record["commit"] = commit()
    record["source_digest"] = source_digest()
    results = os.path.join(bins, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d-%s.json" % (
            args.workload, seed, trace, time.strftime("%Y%m%dT%H%M%S"))),
            "w") as f:
        json.dump(record, f, indent=1)
    return record


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else float("nan"),
            "min": min(values), "max": max(values),
            "max_over_min": max(values) / min(values) if min(values) else
            float("nan")}


def counts_differ(a, b, shared_only=False):
    """Names of the exact counts that differ between two records (only
    those both have when `shared_only`)."""
    names = set(a) & set(b) if shared_only else set(a) | set(b)
    return sorted(n for n in names if a.get(n) != b.get(n))


def repeat(bench, bins, args):
    """Untraced runs for the spread; then the request seed again, untraced
    (unless it already ran twice) and twice traced, so that every exact
    count, the traced-only ones included, is compared across runs of one
    seed.  Returns 1 unless every answer is correct and every count
    repeats."""
    seeds = [args.seed + (i if args.vary_seed else 0)
             for i in range(args.repeat)]
    records = []
    for seed in seeds:
        log("run seed %d ..." % seed)
        records.append(one_run(bench, bins, args, seed, 0))
    by_seed = {}
    for seed, r in zip(seeds, records):
        by_seed.setdefault(seed, []).append(r)
    if len(by_seed[args.seed]) < 2:
        log("run seed %d again ..." % args.seed)
        by_seed[args.seed].append(one_run(bench, bins, args, args.seed, 0))
    traced = []
    for _ in range(2):
        log("traced run seed %d ..." % args.seed)
        traced.append(one_run(bench, bins, args, args.seed, 1))
    everything = [r for runs in by_seed.values() for r in runs] + traced
    ok = all(r["correct"] and r["failed"] == 0 for r in everything)
    print("workload %s: %d untraced runs (seeds %s) for the spread, "
          "%d untraced and %d traced runs of seed %d for the counts" % (
              args.workload, len(records), ",".join(map(str, seeds)),
              len(by_seed[args.seed]), len(traced), args.seed))
    print("%-14s %12s %12s %12s %9s %9s %12s %12s %9s %9s" % (
        "metric", "median", "q1", "q3", "iqr/med", "bound", "min", "max",
        "traced", "measured"))
    summary = {}
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in records]
        s = spread(values)
        t = statistics.median(r["metrics"][m["name"]]["value"]
                              for r in traced)
        s["tracing_overhead"] = t / s["median"] - 1 if s["median"] else 0
        # The same spread over the measured (unscaled) values.
        raw = [r["raw_metrics"].get(m["name"]) for r in records]
        s["measured_iqr_share"] = (None if None in raw else
                                   spread(raw)["iqr_share"])
        summary[m["name"]] = s
        measured = s["measured_iqr_share"]
        print("%-14s %12.6g %12.6g %12.6g %9.4f %9.2f %12.6g %12.6g %+8.1f%% "
              "%9s" % (
                  m["name"], s["median"], s["q1"], s["q3"], s["iqr_share"],
                  m["bound"], s["min"], s["max"], 100 * s["tracing_overhead"],
                  "-" if measured is None else "%.4f" % measured))
    # Exact work counts must repeat bit for bit across runs of one seed:
    # untraced runs among themselves, traced runs among themselves (they
    # add the registry's counts), and the counts both modes report.
    differ = set()
    for runs in by_seed.values():
        for r in runs[1:]:
            differ.update(counts_differ(runs[0]["counts"], r["counts"]))
    differ.update(counts_differ(traced[0]["counts"], traced[1]["counts"]))
    differ.update(counts_differ(by_seed[args.seed][0]["counts"],
                                traced[0]["counts"], shared_only=True))
    repeats = not differ
    print("exact counts compared: %s" % ", ".join(sorted(traced[0]["counts"])))
    print("exact counts repeat across runs of one seed: %s%s" % (
        repeats, "" if repeats else " (differ: %s)" % ", ".join(sorted(differ))))
    print("answers correct in every run: %s" % ok)
    print(json.dumps({"correct": ok and repeats, "spread": summary}))
    return 0 if ok and repeats else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--world-seed", type=int, default=1897)
    parser.add_argument("--repeat", type=int, default=0,
                        help="untraced runs to take the spread over")
    parser.add_argument("--vary-seed", action="store_true",
                        help="with --repeat: seeds seed, seed+1, ...")
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        parser.error("workload must be one of " + ", ".join(WORKLOADS))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bins = build(build_dir())
    if args.repeat > 0:
        return repeat(bench, bins, args)
    record = one_run(bench, bins, args, args.seed, args.trace)
    result = result_line(bench, record, args.trace)
    print_report(bench, record, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # A SIGTERM unwinds like an exception, so the load generator's process
    # group (the daemon included) is still stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.SubprocessError,
            ValueError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
