#!/usr/bin/env python3
"""Benchmark of record for the mpcf cloud-cavitation solver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cloud_step --seed 42 --seconds 15 --trace 0

Builds the library from src/ together with the benchmark binary (CMake,
Release) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs one workload and prints, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 its
per_layer metrics. The line before it is a JSON object of the run's detail:
the spread of every timing, the host fingerprint, the failure share and
the first failing operation. Workloads, their reasons and the layer map are
in BENCHMARK.json and perfbench/layers.json.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cloud_step", "cloud_output", "cluster_halo")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    bdir = out / "perfbench"
    log = out / "perfbench-build.log"
    bdir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "mpcf-perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, cwd=ROOT).returncode:
                f.flush()
                tail = log.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                if not (bdir / "mpcf-perfbench").exists():
                    shutil.rmtree(bdir, ignore_errors=True)  # reconfigure next time
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return bdir / "mpcf-perfbench", out


def main():
    # A SIGTERM unwinds through subprocess.run, which kills and reaps the
    # benchmark binary, and through the finally that removes its workdir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    mapped = [m["name"] for m in json.loads((HERE / "layers.json").read_text())["metrics"]]
    if mapped != [m["name"] for m in spec["per_layer"]]:
        fail("perfbench/layers.json does not map exactly the per_layer metrics of BENCHMARK.json")

    binary, out = build()
    workdir = out / "work" / f"{args.workload}-{os.getpid()}"
    trace_out = out / "traces" / f"{args.workload}.trace.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--config", str(ROOT / "examples" / "configs" / "cloud_collapse.cfg"),
           "--workdir", str(workdir), "--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.startswith("REPORT ")]
    if not lines:
        fail(f"{args.workload} printed no report")
    report = json.loads(lines[-1][len("REPORT "):])

    metrics = {}
    for m in wanted:
        v = report.get(m["name"])
        if not isinstance(v, (int, float)):
            fail(f"{args.workload} did not report {m['name']}")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    detail = {k: v for k, v in report.items() if k not in metrics}
    detail["workload"] = args.workload
    detail["seed"] = args.seed
    detail["trace"] = args.trace
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": bool(report["correct"]), "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
