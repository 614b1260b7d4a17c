"""Smoke test of the benchmark harness at minimal size.

Usage, from the root of a checkout:  python3 perfbench/smoke.py

Runs every workload at the smallest op count, untraced and traced, and
checks that the result line has exactly the keys the benchmark contract
names, that every end-to-end and per-layer metric of BENCHMARK.json is
printed with its unit, that ops_failed_ratio is printed with its base,
and that BENCHMARK.json lists the harness's per-layer catalog.  Finally
it runs the harness in a directory holding only BENCHMARK.json and the
benchmark, where it must fail without printing a result.  Exits 1 on the
first mismatch.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("audit_sweep", "fit_gof", "cli_session")


def fail(msg: str) -> None:
    print(f"smoke: FAIL - {msg}")
    sys.exit(1)


def run(cwd: str, workload: str, trace: int):
    """One run at the smallest size: --seconds 0 gives the harness's minimum op count."""
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = [(name, unit) for name, unit, _ in tracing.catalog()]
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    if listed != expected:
        fail("BENCHMARK.json per_layer differs from tracing.catalog()")
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from the smoke list")

    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                fail(f"{workload} trace={trace}: {result['correct']=} {result['attempted']=}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units[trace]:
                fail(f"{workload} trace={trace}: metric names or units differ from BENCHMARK.json")
            if any(not isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                fail(f"{workload} trace={trace}: non-numeric metric value")
            if trace == 0:
                text = "\n".join(lines[:-1])
                for name, unit in list(units[0].items()) + [("ops_failed_ratio", "ratio")]:
                    if f"{name} = " not in text or f" {unit}" not in text:
                        fail(f"{workload}: {name} not printed with its unit")
                if "base:" not in text or "provenance " not in text:
                    fail(f"{workload}: ratio base or provenance missing")
            print(f"smoke: {workload} trace={trace} ok ({result['attempted']} ops, "
                  f"{result['failed']} failed)")

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="smoke-bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "audit_sweep", 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            fail("the harness printed a result without the package sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: bare directory fails as required")
    print("smoke: PASS")


if __name__ == "__main__":
    main()
