#!/usr/bin/env python3
"""End-to-end benchmark of the PCOR engine and its serving front-end.

Builds perfbench/ (a CMake project over the repository's libraries) and
runs its workloads. Run from the repository root.

  python3 perfbench/run.py
      Every workload, untraced then traced: the end-to-end metrics with unit
      and sample count, the traced run's per-layer table, the tracing
      overhead, and the output checks (including traced == untraced release
      digests where a workload's releases are deterministic).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run. The last line of standard output is one JSON object with
      keys correct, attempted, failed and metrics: every end-to-end metric
      of BENCHMARK.json for --trace 0, every per-layer metric for --trace 1.

  python3 perfbench/run.py --selftest
      The benchmark's own checks at tiny sizes.

Build output goes to CARGO_TARGET_DIR (default .bench_build)/perfbench;
traced runs write their spans to .../perfbench-spans/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
REPORT_PREFIX = "PERFBENCH_REPORT "
TIME_UNITS = {"s", "ms", "us", "ns"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--parallel", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "pcor_perfbench")


def run_binary(binary, workload, seed, seconds, trace, tiny=False,
               echo=True):
    """Runs one workload; returns (exit code, parsed report or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(os.path.dirname(build_dir()), "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{workload}-{seed}.jsonl")]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    report = None
    for line in proc.stdout.splitlines():
        if line.startswith(REPORT_PREFIX):
            report = json.loads(line[len(REPORT_PREFIX):])
        elif echo:
            print(line)
    return proc.returncode, report


def contract_metrics(spec, report, trace):
    """The metrics BENCHMARK.json names for this trace mode. A per-layer
    count or ratio of a layer the workload does not run (or cannot observe)
    reads 0; a missing end-to-end metric is an error."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, missing = {}, []
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            if not trace:
                missing.append(m["name"])
                continue
            got = {"value": 0.0, "unit": m["unit"]}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics, missing


def run_contract(args):
    spec = load_spec()
    binary = build()
    code, report = run_binary(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    if report is None:
        log(f"perfbench: {args.workload} printed no report (exit {code})")
        return 1
    metrics, missing = contract_metrics(spec, report, args.trace)
    correct = code == 0 and report["correct"] and not missing
    if missing:
        log("perfbench: missing end-to-end metrics: " + ", ".join(missing))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


def fmt(value):
    return f"{value:.4g}"


def run_report(args):
    """Every workload untraced then traced, with the summary tables."""
    spec = load_spec()
    binary = build()
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    summary = []
    for w in spec["workloads"]:
        name = w["name"]
        print(f"\n##### {name}: {w['why']}")
        runs = {}
        for trace in (0, 1):
            code, report = run_binary(binary, name, args.seed, seconds, trace)
            if report is None or code != 0 or not report["correct"]:
                ok = False
            runs[trace] = report
        if runs[0] is None or runs[1] is None:
            continue
        summary.append((name, runs))
    print("\n##### end-to-end metrics (untraced run), tracing overhead")
    print(f"{'workload':14} {'metric':22} {'untraced':>12} {'traced':>12} "
          f"{'overhead':>9} {'unit':6} n")
    for name, runs in summary:
        for m in spec["end_to_end"]:
            u = runs[0]["metrics"].get(m["name"])
            t = runs[1]["metrics"].get(m["name"])
            if u is None or t is None:
                ok = False
                print(f"{name:14} {m['name']:22} MISSING")
                continue
            over = (t["value"] / u["value"] - 1) * 100 if u["value"] else 0
            print(f"{name:14} {m['name']:22} {fmt(u['value']):>12} "
                  f"{fmt(t['value']):>12} {over:+8.1f}% {m['unit']:6} "
                  f"{u['samples']}")
    print("\n##### per-layer metrics (traced run; n/a = not measured there;"
          " * = recorded in BENCHMARK.json)")
    contract = {m["name"] for m in spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    names = []
    for _, runs in summary:
        for name, got in runs[1]["metrics"].items():
            if name not in e2e and name not in names:
                names.append(name)
    print(f"{'metric':38} " + " ".join(f"{n:>14}" for n, _ in summary))
    for name in names:
        cells, unit = [], ""
        for _, runs in summary:
            got = runs[1]["metrics"].get(name)
            unit = got["unit"] if got else unit
            cells.append("n/a" if got is None or got["samples"] == 0
                         else fmt(got["value"]))
        mark = "*" if name in contract else " "
        print(f"{mark}{name:37} " + " ".join(f"{c:>14}" for c in cells)
              + f"  {unit}")
    print("\n##### output checks")
    for name, runs in summary:
        for trace in (0, 1):
            r = runs[trace]
            verdict = "PASS" if r["correct"] else "FAIL: " + "; ".join(
                r["failures"])
            print(f"{name:14} trace={trace} attempted={r['attempted']} "
                  f"failed={r['failed']} {verdict}")
        if runs[0]["digest"] != "0000000000000000":
            same = runs[0]["digest"] == runs[1]["digest"]
            ok = ok and same
            print(f"{name:14} release digest untraced {runs[0]['digest']} "
                  f"traced {runs[1]['digest']}: "
                  f"{'MATCH' if same else 'MISMATCH'}")
    print(f"\nperfbench: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def run_selftest(args):
    """Binary self-tests, then every workload at tiny size must report every
    BENCHMARK.json metric with its unit and a sample count."""
    spec = load_spec()
    binary = build()
    proc = subprocess.run([binary, "--selftest"], timeout=RUN_TIMEOUT_S)
    ok = proc.returncode == 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, report = run_binary(binary, w["name"], 3, 2, trace,
                                      tiny=True, echo=False)
            problems = []
            if report is None or code != 0 or not report["correct"]:
                problems.append(f"run failed (exit {code})")
            else:
                wanted = spec["per_layer"] if trace else spec["end_to_end"]
                for m in wanted:
                    got = report["metrics"].get(m["name"])
                    if got is None:
                        # A per-layer metric a workload cannot measure
                        # reads 0, which is only truthful for a count or a
                        # ratio; a time must be measured on every workload.
                        if not trace or m["unit"] in TIME_UNITS:
                            problems.append(f"{m['name']} missing")
                    elif got["unit"] != m["unit"]:
                        problems.append(f"{m['name']} unit {got['unit']} "
                                        f"!= {m['unit']}")
                    elif not trace and got["samples"] < 1:
                        problems.append(f"{m['name']} has no samples")
            ok = ok and not problems
            print(f"selftest {w['name']:14} trace={trace} metrics: "
                  + ("; ".join(problems) if problems else "all present"))
    print(f"selftest: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return run_selftest(args)
        if args.workload:
            if args.seconds is None:
                args.seconds = load_spec()["run_seconds"]
            return run_contract(args)
        return run_report(args)
    except (OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
