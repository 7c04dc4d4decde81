#!/usr/bin/env python3
"""Builds and runs the stencilfold performance ledger.

One workload (the form for automated runs; the last line of standard output
is the result as one JSON object):

    python3 bench/ledger/run.py --workload box2d_incache --seed 3 \
        --seconds 20 --trace 0

Every workload, plus the host probes, into DIR/ledger.json (and with
--trace also DIR/trace.json and DIR/layers.csv):

    python3 bench/ledger/run.py --seed 3 --out DIR [--trace]

The script configures and builds bench/ledger (a CMake project that pulls in
the library from the repository root) under .bench_build/ledger, runs the
sf_ledger binary, checks that it reported exactly the metrics BENCHMARK.json
lists, and exits non-zero when a build, a run or a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "ledger"
BINARY = BUILD / "sf_ledger"
RUN_LIMIT_S = 170  # a whole run.py invocation, build excluded


class LedgerError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              check=False)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise LedgerError("build failed: " + " ".join(cmd))


def child_env(traced):
    # The ledger reads no SF_* variable itself; clear the library's so a
    # caller's shell cannot change what is measured. The traced pass turns
    # the library's own counters on, so its overhead includes them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SF_")}
    if traced:
        env["SF_METRICS"] = "1"
    return env


def run_binary(args, traced, deadline):
    """Runs sf_ledger, echoes its output to stderr, returns its result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise LedgerError("time limit reached before " + " ".join(args))
    try:
        proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              text=True, env=child_env(traced),
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as e:
        raise LedgerError("sf_ledger timed out: " + " ".join(args)) from e
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if not lines or not lines[-1].startswith("{"):
        raise LedgerError(f"sf_ledger {' '.join(args)} exited with "
                          f"{proc.returncode} and no result")
    result = json.loads(lines[-1])
    host = next((json.loads(l[len("host: "):]) for l in lines
                 if l.startswith("host: ")), {})
    return result, host


def check_metrics(metrics, listed):
    """The reported metrics must be exactly the listed names and units."""
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise LedgerError(f"metrics differ from BENCHMARK.json: missing "
                          f"{missing}, unlisted {extra}, unit mismatch "
                          f"{units}")


def run_workload(spec, workload, seed, seconds, traced, out_dir, deadline):
    """One workload run; returns (result, host signature)."""
    base = ["--workload", workload, "--seed", str(seed)]
    if not traced:
        result, host = run_binary(base + ["--seconds", str(seconds)], False,
                                  deadline)
        check_metrics(result["metrics"], spec["end_to_end"])
        return result, host
    # Traced: an untraced half and a traced half of the same length, so the
    # difference between them is the tracing overhead.
    half = str(seconds / 2)
    plain, _ = run_binary(base + ["--seconds", half], False, deadline)
    traced_res, host = run_binary(
        base + ["--seconds", half, "--trace", "--out", str(out_dir)], True,
        deadline)
    metrics = {k: v for k, v in traced_res["metrics"].items()
               if not k.startswith("traced.")}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (plain["metrics"]["gflops"]["value"] /
                          traced_res["metrics"]["traced.gflops"]["value"]
                          - 1.0),
        "unit": "%"}
    check_metrics(metrics, spec["per_layer"])
    result = {
        "correct": plain["correct"] and traced_res["correct"],
        "attempted": plain["attempted"] + traced_res["attempted"],
        "failed": plain["failed"] + traced_res["failed"],
        "metrics": metrics,
    }
    return result, host


def merge_traces(out_dir, names):
    """Merges the per-workload trace.json and layers.csv files."""
    events = []
    rows = ["run,workload,layer,spans,self_ms,self_share_pct"]
    for pid, name in enumerate(names, 1):
        sub = out_dir / name
        with open(sub / "trace.json", encoding="utf-8") as f:
            for ev in json.load(f)["traceEvents"]:
                ev["pid"] = pid
                events.append(ev)
        with open(sub / "layers.csv", encoding="utf-8") as f:
            rows += [f"{name},{line.rstrip()}" for line in f.readlines()[1:]]
    with open(out_dir / "trace.json", "w", encoding="utf-8") as f:
        json.dump({"traceEvents": events}, f)
    with open(out_dir / "layers.csv", "w", encoding="utf-8") as f:
        f.write("\n".join(rows) + "\n")


def run_all(spec, args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [w["name"] for w in spec["workloads"]]
    ledger = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        result, host = run_workload(spec, name, args.seed, args.seconds,
                                    False, None, deadline)
        ledger["workloads"][name] = result
        ok &= result["correct"]
    probes, host = run_binary(["--host"], False,
                              time.monotonic() + RUN_LIMIT_S)
    host["probes"] = {k: v["value"] for k, v in probes["metrics"].items()}
    ledger["host"] = host
    if args.trace:
        ledger["per_layer"] = {}
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            result, _ = run_workload(spec, name, args.seed, args.seconds,
                                     True, out_dir / name, deadline)
            ledger["per_layer"][name] = result
            ok &= result["correct"]
        merge_traces(out_dir, names)
    with open(out_dir / "ledger.json", "w", encoding="utf-8") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")
    for name in names:
        r = ledger["workloads"][name]
        cells = "  ".join(f"{k}={v['value']:.4g} {v['unit']}"
                          for k, v in r["metrics"].items())
        print(f"{name:15} {'ok' if r['correct'] else 'FAILED':6} "
              f"{r['failed']}/{r['attempted']} failed  {cells}")
    print(f"wrote {out_dir / 'ledger.json'}")
    return 0 if ok else 1


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                   help="run one workload (default: all, into --out)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1], help="traced pass and layer probes")
    p.add_argument("--out", help="result directory")
    args = p.parse_args()
    if args.workload is None and args.out is None:
        p.error("--out is required when running every workload")
    try:
        build()
        if args.workload is None:
            return run_all(spec, args)
        out_dir = Path(args.out) if args.out else (
            ROOT / ".bench_build" / "results" /
            f"{args.workload}-seed{args.seed}")
        result, _ = run_workload(spec, args.workload, args.seed,
                                 args.seconds, bool(args.trace), out_dir,
                                 time.monotonic() + RUN_LIMIT_S)
    except (LedgerError, OSError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
