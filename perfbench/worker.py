"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode run|trace|setup
                                [--run-id ID] [--trace-file PATH]

A pass imports selfext, makes the workload's inputs from the seed, runs
every operation once in that order, one at a time, and checks the outputs.
Its operation and set-up times are scaled by the host's speed, which
calibrate() measures around each of them (see README.md); loop_s and the
raw_* fields are not.
It prints one JSON object.  Mode `setup` stops after set-up; mode `trace`
wraps selfext's functions for the whole pass and writes the spans to
--trace-file.  run.py starts one such process per pass, so every pass sees
cold caches, as a user's `selfext survey` does.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing

SRC = Path(__file__).resolve().parent.parent / "src"
BEYOND = 10   # samples the tail latency must leave above it
# Times are reported in ms on a host where calibrate() takes this long; on
# an idle 2-vCPU Xeon host it took 0.83-0.90 ms, on the same host under
# its neighbours' load up to twice that.
CALIBRATION_REF_S = 1e-3
CALIBRATE_EVERY_S = 0.02    # one ~1 ms sample per 20 ms of loop: ~5%
CALIBRATION_WINDOW = 3      # samples on each side of an operation
SETUP_SAMPLES = 5           # calibration samples before and after set-up


def tail(samples, beyond: int = BEYOND):
    """(value, percentile) of the highest order statistic that leaves at
    least `beyond` samples above it; the percentile is the share of samples
    at or below it."""
    ordered = sorted(samples)
    if len(ordered) <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {len(ordered)}")
    k = len(ordered) - beyond - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def calibrate(rounds: int = 500) -> float:
    """Seconds a fixed pure-Python task takes now: sorting, hashing and
    counting small tuples of ints, the kind of work selfext does, with none
    of its code, so that no change to selfext moves it.  Garbage collection
    is off for the task, so the program's heap does not move it either."""
    gc_was_on = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    seen, x = {}, 12345
    for _ in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        part = tuple(sorted(((x >> k) & 7 for k in range(0, 24, 3)),
                            reverse=True))
        seen[part] = seen.get(part, 0) + sum(part)
    elapsed = time.perf_counter() - start
    if gc_was_on:
        gc.enable()
    return elapsed


def host_scales(samples, marks, window: int = CALIBRATION_WINDOW) -> list:
    """Per operation, CALIBRATION_REF_S over the median of the calibration
    samples around it: the `window` taken last before it and the `window`
    taken first after it.  marks[i] is the index of the last sample taken
    before operation i."""
    return [CALIBRATION_REF_S / statistics.median(
                samples[max(0, m + 1 - window):m + 1 + window])
            for m in marks]


def run_pass(workload, inputs):
    """Run each input once; (outputs, per-operation seconds, host scale per
    operation, loop seconds).  A calibration sample is taken before the
    loop, after it, and between operations at least every CALIBRATE_EVERY_S;
    it is not part of any operation's time.  An operation that raises has
    output None."""
    outputs, latencies, marks = [], [], []
    clock = time.perf_counter
    samples = [calibrate()]
    reported = False
    loop_start = clock()
    due = loop_start + CALIBRATE_EVERY_S
    for item in inputs:
        if clock() >= due:
            samples.append(calibrate())
            due = clock() + CALIBRATE_EVERY_S
        marks.append(len(samples) - 1)
        start = clock()
        try:
            out = workload.run(item)
        except Exception:  # a failing operation is counted, not fatal
            if not reported:
                traceback.print_exc()
                reported = True
            out = None
        latencies.append(clock() - start)
        outputs.append(out)
    loop_s = clock() - loop_start
    samples.append(calibrate())
    return outputs, latencies, host_scales(samples, marks), loop_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "trace", "setup"),
                        default="run")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    # Set-up time is importing selfext plus the workload's own set-up;
    # importing the benchmark's modules in between is not counted.
    sys.path.insert(0, str(SRC))
    calibrate()   # warms the interpreter's specialised bytecode up
    calibration = [calibrate() for _ in range(SETUP_SAMPLES)]
    start = time.perf_counter()
    importlib.import_module("selfext")
    import_s = time.perf_counter() - start
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer(args.run_id)
        tracer.install()
    try:
        start = time.perf_counter()
        inputs = workload.setup(args.seed)
        raw_setup_s = import_s + time.perf_counter() - start
        calibration += [calibrate() for _ in range(SETUP_SAMPLES)]
        setup_s = raw_setup_s * host_scales(calibration, [SETUP_SAMPLES - 1],
                                            SETUP_SAMPLES)[0]
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
            return 0
        outputs, latencies, scales, loop_s = run_pass(workload, inputs)
    finally:
        if tracer is not None:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, digest_ok, digest = workload.check(inputs, outputs)
    times_ms = [x * s * 1e3 for x, s in zip(latencies, scales)]
    percentile = tail(times_ms)[1]
    summary = {
        "mode": args.mode,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "digest_ok": digest_ok,
        "loop_s": loop_s,
        "busy_s": sum(times_ms) / 1e3,
        "raw_busy_s": sum(latencies),
        "host_scale": statistics.median(scales),
        "samples": len(latencies),
        "tail_percentile": percentile,
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": times_ms,
    }
    if tracer is not None:
        summary["layers"] = tracing.layer_values(tracer)
        summary["total_s"] = dict(tracer.total_s)
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
