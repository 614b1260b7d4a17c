"""One benchmark process: set a workload up, then optionally run its ops.

``run.py`` starts this script; it is not meant to be run by hand.  With
``--mode setup`` it stops after set-up (imports, building every input
through the package constructors, one untimed warm-up op) and prints the
set-up time, scaled by speed probes taken right after it in this process,
and the raw time.  With ``--mode measure`` it then runs the fixed op list in a
closed loop with one client, checks every output, and prints the metrics
as one JSON object on its last line.  Op-phase times are scaled to the
reference speed of ``speed.py``, with the raw figures beside them.  With
``--trace 1`` it runs the op list twice, untraced and then traced, and
reports per-layer metrics and the tracing overhead.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def build(args):
    import workloads

    if args.workload == "audit_sweep":
        return workloads.AuditSweep(args.seed, args.ops)
    if args.workload == "fit_gof":
        return workloads.FitGof(args.seed, args.ops)
    return workloads.CliSession(args.seed, args.ops, args.tmp, args.root)


def run_pass(wl, budget_s, meter=None, rec=None):
    """Run every op once; returns [(seconds, output, error)] and the wall
    time, without the time a fresh ``meter``'s speed probes took between ops."""
    results = []
    start = time.perf_counter()
    for i, op in enumerate(wl.ops):
        if meter is not None:
            meter.maybe_probe()
        if rec is not None:
            rec.op = i
        t0 = time.perf_counter()
        try:
            out, err = wl.run(op), None
        except Exception as exc:  # an unexpected exception fails the op
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if rec is not None:
            rec.span("bench.op", t0, t1)
        results.append((t1 - t0, out, err))
        if t1 - start > budget_s:
            print(f"op budget of {budget_s:.0f} s spent after {i + 1} ops", file=sys.stderr)
            break
    wall = time.perf_counter() - start
    return results, wall - (meter.spent if meter else 0.0)


#: The digest's entry for a failed op that gave no wrong output.  An op
#: that ends near its deadline fails either by being killed or by its own
#: error, depending on the machine's speed, so how it failed is left out.
FAILED = b"failed"


def evaluate(wl, results) -> dict:
    """Check every op.  Every op has a latency: one killed at its deadline
    keeps the time it ran (censored), so hangs reach the tail."""
    latencies, censored, blobs, problems = [], [], [], []
    failed = wrong = timeouts = 0
    for i, (op, (seconds, out, err)) in enumerate(zip(wl.ops, results)):
        if err is None and wl.timed_out(out):
            censored.append(seconds)
            failed += 1
            timeouts += 1
            blobs.append(FAILED)
            continue
        latencies.append(seconds)
        if err is not None:
            failed += 1
            blobs.append(FAILED)
            problems.append(f"op {i}: {err}")
            continue
        ok, blob = wl.check(op, out)
        blobs.append(FAILED if ok is None else blob)
        if ok is not True:
            failed += 1
            wrong += ok is False
            problems.append(f"op {i}: " + ("wrong output" if ok is False else
                                           "unexpected outcome " + blob.decode(errors="replace")[:120]))
    return {"latencies": latencies, "censored": censored, "blobs": blobs, "failed": failed,
            "wrong": wrong, "timeouts": timeouts, "problems": problems}


def tail(latencies):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(wl, ev, results, wall, factor) -> tuple:
    """Metrics with times scaled to the reference speed, and the raw ones.

    Time spent waiting for a deadline does not depend on the machine's
    speed, so censored latencies stay unscaled, in the latencies and in the
    op phase's wall time alike.
    """
    attempted = len(results)
    censored = ev["censored"]
    waited = sum(censored)

    def figures(scale):
        lat = [s / scale for s in ev["latencies"]] + censored
        return {
            # completed: ran to the end, whatever the outcome; killed ops did not
            "throughput_ops_per_s": (attempted - ev["timeouts"]) / ((wall - waited) / scale + waited),
            "latency_ms_p50": 1000.0 * statistics.median(lat),
            "latency_ms_tail": 1000.0 * tail(lat)[0],
        }

    raw = figures(1.0)
    metrics = dict(figures(factor), peak_rss_mb=wl.peak_rss_kb(results) / 1024.0)
    _, pct, beyond = tail(ev["latencies"] + censored)
    info = {"raw": raw, "speed_factor": factor, "tail_percentile": pct,
            "tail_samples_beyond": beyond, "latency_samples": attempted, "op_phase_s": wall,
            "ops_failed_ratio": ev["failed"] / attempted, "ops_failed_base": attempted,
            "timeouts": ev["timeouts"]}
    return metrics, info


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--budget", type=float, required=True)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(args.root, "src"))

    wl = build(args)
    wl.run(wl.warmup)
    setup_s = time.monotonic() - T_START

    import speed

    setup_meter = speed.Meter()
    for _ in range(speed.SETUP_POINTS):
        setup_meter.probe()
    setup = {"setup_s": setup_s / setup_meter.factor(), "setup_raw_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(setup))
        return

    import numpy
    import scipy

    import tracing
    import workloads

    report = {**setup,
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    meter = speed.Meter()
    t_ops = time.monotonic()
    results, wall = run_pass(wl, args.budget / (2 if args.trace else 1), meter)
    ev = evaluate(wl, results)
    wrong = ev["wrong"]
    if wl.repeatable and results and results[0][2] is None:
        # the same op again must give a bitwise identical output
        ok, again = wl.check(wl.ops[0], wl.run(wl.ops[0]))
        if (FAILED if ok is None else again) != ev["blobs"][0]:
            wrong += 1
            ev["problems"].append("op 0 repeated: output differs")
    attempted = len(results)
    metrics, info = end_to_end(wl, ev, results, wall, meter.factor())

    if args.trace:
        rec = tracing.Recorder()
        wl.start_tracing(rec)
        results_t, wall_t = run_pass(wl, args.budget - (time.monotonic() - t_ops), rec=rec)
        rec.enabled = False
        ev_t = evaluate(wl, results_t)
        wrong += ev_t["wrong"]
        ev_t["problems"] = ev["problems"] + ev_t["problems"]
        times, counters, extra, children = wl.layers(rec, results_t)
        extra["trace.overhead_s"] = wall_t - wall
        extra["trace.overhead_ratio"] = (wall_t - wall) / wall
        layer = tracing.layer_metrics(times, counters, extra, wall_t)
        for name, _, _ in tracing.catalog():
            layer.setdefault(name, 0)
        with open(args.trace_out, "w") as fh:
            json.dump({"spans": rec.spans, "counters": rec.counters, "children": children}, fh)
        attempted, ev = len(results_t), ev_t
        report["per_layer"] = layer
        info["traced_op_phase_s"] = wall_t
        info["tracing_overhead_s"] = wall_t - wall

    report.update({
        "metrics": metrics, "info": info, "digest": workloads.digest(ev["blobs"]),
        "attempted": attempted, "failed": ev["failed"], "wrong": wrong,
        "problems": ev["problems"][:20],
    })
    print(json.dumps(report))


if __name__ == "__main__":
    main()
