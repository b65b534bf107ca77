#!/usr/bin/env python3
"""The repository's benchmark: builds admitd, validate_single, campaignd
and the perfbench runner from source, runs one workload, checks its
outputs and prints one JSON result line last.

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --list
  python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

Workloads and metrics are declared in BENCHMARK.json; `--list` prints
every metric by name, unit and direction. Each run is stamped with a
host fingerprint (nproc, CPU model, rustc version, build profile, date),
printed before the result and appended with it to
.bench_work/records.jsonl. `compare` sets two such record files side by
side and refuses when their fingerprints differ.
"""

import argparse
import datetime
import json
import os
import re
import signal
import statistics
import subprocess
import sys

WORKLOADS = ("admit-warm", "admit-churn", "campaign")
PROFILE = "release"
PROGRAM_BINS = ("admitd", "validate_single", "campaignd")
RUN_TIMEOUT_S = 170
# The admit workloads' open-loop offered rate is declared in their `why`
# in BENCHMARK.json, whose keys the benchmark contract fixes.
OPEN_RATE = re.compile(r"open loop at (\d+) req/s")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)


def host_fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rustc": rustc,
        "profile": PROFILE,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d"),
    }


def comparable(fp):
    """The fingerprint fields that must agree for two runs to be compared."""
    return {k: v for k, v in fp.items() if k != "date"}


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    bins = [a for b in PROGRAM_BINS for a in ("--bin", b)]
    steps = [
        ["cargo", "build", f"--{PROFILE}", "--offline", "-p", "gps-experiments", *bins],
        ["cargo", "build", f"--{PROFILE}", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def open_rate(spec, workload):
    """The offered rate BENCHMARK.json declares for an admit workload."""
    for w in spec["workloads"]:
        if w["name"] == workload:
            m = OPEN_RATE.search(w["why"])
            if m is None:
                fail(f"BENCHMARK.json declares no 'open loop at N req/s' for {workload}", 2)
            return int(m.group(1))
    fail(f"BENCHMARK.json has no workload {workload}", 2)


def check_metrics(spec, result, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares
    for this mode, each with its declared unit."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(declared):
        fail(f"metrics {sorted(got)} do not match BENCHMARK.json {sorted(declared)}")
    for name, unit in declared.items():
        if got[name].get("unit") != unit:
            fail(f"metric {name} has unit {got[name].get('unit')!r}, declared {unit!r}")


def run(args):
    spec = load_spec()
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    fp = host_fingerprint()
    print("host: " + json.dumps(fp, sort_keys=True), flush=True)
    work = os.path.join(root, ".bench_work", args.workload)
    cmd = [
        os.path.join(target, PROFILE, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--bin-dir", os.path.join(target, PROFILE),
        "--work-dir", work,
    ]
    # Both rates, as the traced run probes admit-warm on every workload.
    for w in ("admit-warm", "admit-churn"):
        cmd += [f"--{w}-rate", str(open_rate(spec, w))]
    # A session of its own, so a timeout can stop the servers it started too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not a result: {lines[-1]!r}")
    check_metrics(spec, result, args.trace == 1)
    record = {
        "host": fp,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
    }
    with open(os.path.join(root, ".bench_work", "records.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)


def list_metrics():
    spec = load_spec()
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']:<16} {w['why']}")
    print("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<32} {m['unit']:<8} {m['better']:<7} bound {m['bound']}")
    print("per-layer metrics (--trace 1):")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<32} {m['unit']:<8} {m['better']}")


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(old_path, new_path):
    """Medians and quartiles of each end-to-end metric, old against new,
    per workload; refuses records from different hosts or builds."""
    spec = load_spec()
    old, new = read_records(old_path), read_records(new_path)
    hosts = {json.dumps(comparable(r["host"]), sort_keys=True) for r in old + new}
    if len(hosts) != 1:
        print("refusing to compare runs from different host fingerprints:", file=sys.stderr)
        for h in sorted(hosts):
            print("  " + h, file=sys.stderr)
        sys.exit(3)
    print("host: " + hosts.pop())
    for w in spec["workloads"]:
        name = w["name"]
        print(f"{name}:")
        for m in spec["end_to_end"]:
            sides = []
            for recs in (old, new):
                vals = [
                    r["result"]["metrics"][m["name"]]["value"]
                    for r in recs
                    if r["workload"] == name and r["trace"] == 0
                ]
                sides.append(vals)
            if min(len(sides[0]), len(sides[1])) < 2:
                print(f"  {m['name']:<16} too few runs ({len(sides[0])} old, {len(sides[1])} new)")
                continue
            qo = statistics.quantiles(sides[0], n=4)
            qn = statistics.quantiles(sides[1], n=4)
            change = (qn[1] - qo[1]) / qo[1]
            worse = -change if m["better"] == "higher" else change
            verdict = "WORSE beyond bound" if worse > m["bound"] else "within bound"
            print(
                f"  {m['name']:<16} old {qo[1]:.6g} [{qo[0]:.6g}, {qo[2]:.6g}] n={len(sides[0])}"
                f"  new {qn[1]:.6g} [{qn[0]:.6g}, {qn[2]:.6g}] n={len(sides[1])}"
                f"  change {change:+.2%} ({verdict}, bound {m['bound']:.0%})"
            )


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")
            and os.path.isfile("perfbench/Cargo.toml")):
        fail("run from the root of a checkout: the program's sources are missing", 2)
    if len(sys.argv) > 1 and sys.argv[1] == "--list":
        list_metrics()
        return
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare OLD.jsonl NEW.jsonl", 2)
        compare(sys.argv[2], sys.argv[3])
        return
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    run(p.parse_args())


if __name__ == "__main__":
    main()
