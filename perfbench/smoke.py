#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at smoke size, untraced and
traced. Checks that each run succeeds, that every oracle passes, that the
result line carries exactly the metrics BENCHMARK.json names, each with its
unit, and that README.md documents every metric.

Run from the repository root: python3 perfbench/smoke.py
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(cmd, workload, trace):
    args = cmd + ["--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--smoke"]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr[-4000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stderr


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    readme = (ROOT / "perfbench" / "README.md").read_text()
    cmd = bench["command"]
    errors = []
    for kind in ("end_to_end", "per_layer"):
        for metric in bench[kind]:
            if f"`{metric['name']}`" not in readme:
                errors.append(f"README.md does not document {metric['name']}")
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, stderr = run(cmd, name, trace)
            where = f"{name} trace={trace}"
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                errors.append(f"{where}: oracle or operation failure {result}\n{stderr[-2000:]}")
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = result["metrics"]
            if set(got) != set(want):
                errors.append(f"{where}: metrics differ: {sorted(set(got) ^ set(want))}")
            for metric, unit in want.items():
                entry = got.get(metric, {})
                value = entry.get("value")
                if entry.get("unit") != unit:
                    errors.append(f"{where}: {metric} unit {entry.get('unit')!r}, want {unit!r}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    errors.append(f"{where}: {metric} value {value!r}")
                elif kind == "end_to_end" and value <= 0:
                    errors.append(f"{where}: {metric} is {value}, end-to-end metrics are never 0")
            if trace == 1:
                trace_file = ROOT / ".perfbench-out" / f"trace-{name}-7.json"
                events = json.loads(trace_file.read_text())["traceEvents"]
                if len(events) != got["trace.spans"]["value"]:
                    errors.append(f"{where}: trace file has {len(events)} spans")
            print(f"ok {where}")
    if errors:
        sys.exit("\n".join(errors))
    print("smoke: all workloads passed")


if __name__ == "__main__":
    main()
