"""failsafekit benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {audit_sweep,fit_gof,cli_session}
                             --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout; nothing is
installed.  Each run is a fixed number of ops (``S`` times the workload's
calibrated rate below), so the tail percentile is the same order statistic
on every commit.  Ops run in a closed loop with one client in one process,
BLAS/OpenMP pools capped at one thread.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; set-up is
repeated in separate processes and its median reported.  Timing metrics
of the op phase are scaled to a reference machine speed measured by a
probe between ops (see ``speed.py``), with the raw wall figures on the
info line.  Each set-up is scaled by probes taken in its own process right
after it: the op phase's factor is measured too late to track it, and
unscaled set-up times moved by a fifth between two ten-run sets as the
machine drifted.  ``--trace 1`` runs the ops untraced and then traced and
prints the per-layer metrics.  Lines before the last are informational
(provenance, ops_failed_ratio, tail percentile, output digest); the last
line is the JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Ops per second of --seconds.  Fixed, so both sides of a comparison run
#: the same ops.  On 2 cores at the commit that added the benchmark,
#: audit_sweep and fit_gof take one to two times --seconds; cli_session
#: takes about seven times, as its hung simulate ops wait out their deadline.
RATES = {"audit_sweep": 100.0, "fit_gof": 3.5, "cli_session": 2.4}
#: Smallest run: the tail percentile needs more than ten samples.
MIN_OPS = 12
#: Set-up is measured in this many processes per run; the median is reported.
#: Three: each set-up is scaled by its own speed probes, which keeps the
#: median steady, and every further set-up adds one to two seconds to a run.
SETUP_RUNS = 3
#: A run must end well inside the 180 s a caller allows.
RUN_LIMIT_S = 170.0
UNITS = {"throughput_ops_per_s": "ops/s", "latency_ms_p50": "ms", "latency_ms_tail": "ms",
         "setup_s": "s", "peak_rss_mb": "MB"}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "failsafekit")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def worker(argv, deadline) -> dict:
    """Run worker.py in its own process group; kill the group at the deadline."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded its time limit")
    finally:
        try:  # children left behind by a failed worker
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        fail(f"worker exited with {proc.returncode}")
    sys.stderr.write(err.decode(errors="replace"))
    return json.loads(out.decode().strip().splitlines()[-1])


def main():
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RATES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "failsafekit", "__init__.py")):
        fail(f"no failsafekit sources under {os.path.join(ROOT, 'src')}")

    n_ops = max(MIN_OPS, round(args.seconds * RATES[args.workload]))
    deadline = started + RUN_LIMIT_S
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    trace_out = None
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_out = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
    common = ["--root", ROOT, "--workload", args.workload, "--seed", str(args.seed),
              "--ops", str(n_ops), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_RUNS - 1):
                setup_dir = os.path.join(tmp, f"setup{k}")
                os.makedirs(setup_dir)
                setups.append(worker(common + ["--tmp", setup_dir, "--mode", "setup",
                                               "--budget", "0"], deadline))
        run_dir = os.path.join(tmp, "run")
        os.makedirs(run_dir)
        budget = deadline - time.monotonic() - 15.0
        argv = common + ["--tmp", run_dir, "--mode", "measure", "--budget", f"{budget:.1f}"]
        if trace_out:
            argv += ["--trace-out", trace_out]
        rep = worker(argv, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(rep)

    provenance = {
        "git_sha": git_sha(), "source_digest": source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        **rep["versions"], "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "ops": n_ops, "setup_runs": len(setups),
        "tail_percentile": round(rep["info"]["tail_percentile"], 3),
        "tracing_overhead_s": rep["info"].get("tracing_overhead_s"),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    info = dict(rep["info"], digest=rep["digest"], wrong=rep["wrong"],
                setup_runs_s=[s["setup_s"] for s in setups],
                setup_runs_raw_s=[s["setup_raw_s"] for s in setups])
    print("info " + json.dumps(info, sort_keys=True))
    for problem in rep["problems"]:
        print(f"problem {problem}")

    if args.trace:
        metrics = {name: {"value": rep["per_layer"][name], "unit": unit}
                   for name, unit, _ in tracing.catalog()}
    else:
        values = dict(rep["metrics"], setup_s=statistics.median(info["setup_runs_s"]))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
        for name, unit in UNITS.items():
            print(f"{name} = {values[name]:.6g} {unit}")
        print(f"ops_failed_ratio = {info['ops_failed_ratio']:.6g} ratio "
              f"(base: {info['ops_failed_base']} attempted ops)")
        print(f"latency_ms_tail is p{info['tail_percentile']:.4g} over "
              f"{info['latency_samples']} samples, {info['tail_samples_beyond']} beyond it")
    print(json.dumps({"correct": rep["wrong"] == 0, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
