"""Benchmark entry point for selfext.

    python3 perfbench/run.py --workload search-p3|trivial-p5|tables
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload runs in a fresh,
single-threaded Python process (worker.py), one after another, until the
next pass would end after S seconds; there is always at least one.  With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and prints the per-layer metrics (the
median over traced passes), the self-time table and the tracing overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
when every output matched its reference.  See README.md for the rationale.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing   # neither imports selfext
from worker import BEYOND, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("search-p3", "trivial-p5", "tables")
SETUP_ONLY = 7      # extra set-up-only processes, so setup_s is a median
DEADLINE_S = 170    # the whole run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class PassError(RuntimeError):
    """A worker process failed or printed no summary."""


def git_sha(root: Path):
    """HEAD's commit from the .git directory, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha(root: Path) -> str:
    """SHA-256 over src/ file paths and contents: names the code measured
    even where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "src_sha256": source_sha(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def spawn(args, mode: str, index: int, started: float) -> dict:
    """Run one worker process to completion and return its summary."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--mode", mode, "--run-id",
               f"{args.workload}:{args.seed}:{index}"]
    if mode == "trace":
        command += ["--trace-file", str(
            OUT / f"trace-{args.workload}-seed{args.seed}-{index}.jsonl")]
    env = {k: v for k, v in os.environ.items()
           if k not in ("SELFEXT_WORKERS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - started))
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{mode} pass {index} ran past {DEADLINE_S} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise PassError(f"{mode} pass {index} exited {done.returncode}")
    return json.loads(lines[-1])


def run_passes(args, started: float) -> tuple:
    """(set-up seconds, pass summaries), passes until the time is spent."""
    setups = []
    if not args.trace:
        for i in range(SETUP_ONLY):
            setups.append(spawn(args, "setup", -1 - i, started)["setup_s"])
    modes = ("run", "trace") if args.trace else ("run",)
    passes, longest = [], 0.0
    while True:
        mode = modes[len(passes) % len(modes)]
        t = time.perf_counter()
        passes.append(spawn(args, mode, len(passes), started))
        longest = max(longest, time.perf_counter() - t)
        if (len(passes) >= len(modes) and
                time.perf_counter() - started + longest > args.seconds):
            break
    setups += [s["setup_s"] for s in passes if s["mode"] == "run"]
    return setups, passes


def median_of(passes, key):
    return statistics.median(s[key] for s in passes)


def operation_times(passes) -> list:
    """Each operation's host-scaled time in ms (see worker.py), as its median
    over the passes.  Every pass runs the same inputs in the same order in a
    fresh process, so each position does the same work in every pass; a
    stall of the host that hits one pass there does not set its time."""
    return [statistics.median(times)
            for times in zip(*(s["latencies_ms"] for s in passes))]


def end_to_end(setups, passes) -> dict:
    times = operation_times(passes)
    values = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": 1e3 * len(times) / sum(times),
        "latency_p50_ms": statistics.median(times),
        "latency_tail_ms": tail(times)[0],
        "peak_rss_mb": median_of(passes, "peak_rss_mb"),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(passes) -> dict:
    traced = [s for s in passes if s["mode"] == "trace"]
    untraced = [s for s in passes if s["mode"] == "run"]
    values = {name: statistics.median(s["layers"][name] for s in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_frac"] = (median_of(traced, "busy_s")
                                     / median_of(untraced, "busy_s") - 1)
    units = tracing.layer_units()
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def self_time_table(passes, metrics) -> list:
    """Human-readable rows: calls, self time and its share of a traced pass
    (set-up and loop), and the time inside outermost calls."""
    traced = [s for s in passes if s["mode"] == "trace"]
    pass_s = statistics.median(s["raw_setup_s"] + s["loop_s"] for s in traced)
    names = sorted({m.rsplit(".", 1)[0] for m in metrics
                    if m.endswith(".self_s")},
                   key=lambda n: -metrics[f"{n}.self_s"]["value"])
    rows = [f"{'function':40} {'calls':>9} {'self_s':>9} {'self%':>6} "
            f"{'total_s':>9}"]
    for name in names:
        self_s = metrics[f"{name}.self_s"]["value"]
        total = statistics.median(s["total_s"].get(name, 0.0) for s in traced)
        rows.append(f"{name:40} {metrics[name + '.calls']['value']:>9.0f} "
                    f"{self_s:>9.4f} {100 * self_s / pass_s:>5.1f}% "
                    f"{total:>9.4f}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "selfext" / "__init__.py").is_file():
        print(f"no selfext sources under {ROOT / 'src'}; run from the root "
              "of a selfext checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    env = environment(args)
    try:
        setups, passes = run_passes(args, started)
    except PassError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3

    attempted = sum(s["attempted"] for s in passes)
    failed = sum(s["failed"] for s in passes)
    digests_ok = all(s["digest_ok"] for s in passes)
    correct = failed == 0 and digests_ok
    first = passes[0]
    env.update(passes=len(passes), inputs_per_pass=first["samples"],
               tail_percentile=first["tail_percentile"],
               tail_samples_beyond=BEYOND, digest=first["digest"],
               setup_samples=len(setups))
    metrics = per_layer(passes) if args.trace else end_to_end(setups, passes)

    print("env " + json.dumps(env))
    for i, s in enumerate(passes):
        print(f"pass {i} {s['mode']}: {s['samples']} ops in {s['loop_s']:.3f} s, "
              f"{s['raw_busy_s']:.3f} s in operations, host scale "
              f"{s['host_scale']:.3f}, failed {s['failed']}/{s['attempted']}, digest "
              f"{'ok' if s['digest_ok'] else 'MISMATCH'} {s['digest']}")
    if args.trace:
        print("\n".join(self_time_table(passes, metrics)))
        for name in tracing.HIT_RATIOS:
            m = metrics[f"{name}.hit_ratio"]["value"]
            print(f"{name}.hit_ratio = {m:.4f} (non-None results / "
                  f"{metrics[name + '.calls']['value']:.0f} calls)")
        for name, m in metrics.items():
            if m["unit"] == "count" and not name.endswith(".calls"):
                print(f"{name} = {m['value']:.0f}")
        print(f"trace.overhead_frac = "
              f"{metrics['trace.overhead_frac']['value']:.4f} "
              "(traced / untraced time in operations - 1)")
    else:
        for name, m in metrics.items():
            note = ""
            if name == "latency_tail_ms":
                note = (f"  (p{env['tail_percentile']:.2f} of "
                        f"{env['inputs_per_pass']} per pass, {BEYOND} beyond)")
            print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted} "
          f"operations)")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({
         "env": env, **result,
         "passes": [{k: v for k, v in s.items() if k != "latencies_ms"}
                    for s in passes]}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
