"""Benchmark entry point: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload minidb-exhaustive --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout.  Each run starts fresh
interpreters (``worker.py``) that set the workload up and time whole
rounds of a fixed operation count.  ``--trace 0`` starts three, splits
``--seconds`` between them and reports the end-to-end metrics;
``--trace 1`` starts one untraced and one traced worker and reports
the per-layer metrics plus the tracing overhead.  Figures are medians
over rounds (set-up time: the median over workers).  Human-readable
lines come first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: ``BENCHMARK.json`` gates the first three.  ``pidgin-isolated`` keeps
#: both vCPUs of a two-vCPU host busy, so any load beside it moves its
#: timings far beyond the largest bound; it runs on request only.
WORKLOAD_NAMES = ("minidb-exhaustive", "miniweb-guided-snapshot",
                  "web-passthrough", "pidgin-isolated")

#: Workers per end-to-end run.  Each is a fresh interpreter, so the
#: run's medians average over interpreter-to-interpreter speed, and
#: set-up time is a median of three.
WORKERS = 3

#: Wall-clock limit for a whole run, in seconds.
RUN_LIMIT = 170.0

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "coverage_blocks_per_s": "1/s",
    "intercept_slowdown": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_metrics():
    doc = json.loads((HERE / "predictions.json").read_text())
    return doc["per_layer"]


def tail_index(n: int) -> int:
    """Sorted index of the highest sample with at least 10 beyond it."""
    return max(0, n - 11)


def start_worker(args, seconds: float, trace: int, deadline: float,
                 spans_out=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--workdir", str(ROOT / ".perfbench")]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED="0")
    # own process group: on timeout the worker's forked pool children
    # are killed with it
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def end_to_end(workers) -> dict:
    rounds = [r for w in workers for r in w["rounds"]]
    median = statistics.median
    tails = []
    for r in rounds:
        ordered = sorted(r["latencies_ms"])
        tails.append(ordered[tail_index(len(ordered))])
    return {
        "setup_s": median(w["setup_s"] for w in workers),
        "throughput_per_s": median(r["ops"] / r["seconds"] for r in rounds),
        "latency_ms_p50": median(median(r["latencies_ms"])
                                 for r in rounds),
        "latency_ms_tail": median(tails),
        "coverage_blocks_per_s": median(r["blocks"] / r["seconds"]
                                        for r in rounds),
        "intercept_slowdown": median(r["intercept"] for r in rounds),
        "peak_rss_mb": median(w["peak_rss_mb"] for w in workers),
    }


def per_layer(untraced, traced) -> dict:
    rounds = traced["rounds"]
    layers = [r["layers"] for r in rounds]
    figures = {"profiler.profile_s": traced["profile_s"],
               "exec.golden_s": traced["golden_s"]}
    plain = statistics.median(r["ops"] / r["seconds"]
                              for r in untraced["rounds"])
    with_spans = statistics.median(r["ops"] / r["seconds"] for r in rounds)
    figures["bench.trace_overhead"] = plain / with_spans - 1.0
    out = {}
    for metric in per_layer_metrics():
        name = metric["name"]
        if name in figures:
            value = figures[name]
        elif metric["unit"] in ("s", "ratio"):
            # times vary run to run: the median round
            value = statistics.median(f.get(name, 0.0) for f in layers)
        else:
            # exact counters: the first timed round
            value = layers[0].get(name, 0)
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def summarize(args, workers, result) -> None:
    rounds = [r for w in workers for r in w["rounds"]]
    sizes = sorted({len(r["latencies_ms"]) for r in rounds})
    n = sizes[0]
    print(f"{args.workload} seed={args.seed}: {len(workers)} workers, "
          f"{len(rounds)} rounds, {sizes} operations timed per round")
    print(f"latency tail = p{100.0 * (n - 10) / n:.1f} "
          f"(10 of {n} samples per round beyond it)")
    if args.workload == "pidgin-isolated" and args.trace:
        print("per-layer figures are parent-side only: spans inside "
              "forked pool children are not visible")
    races = sum(r["races"] for r in rounds)
    if races:
        print(f"{races} case(s) reported hung well before the timeout "
              "(pool child-reaping race): counted as failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
    missing = sorted({m for w in workers for m in w.get("missing", [])})
    if missing:
        print("entry points not found, layers not traced: "
              + ", ".join(missing))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    # byte-compile once, untimed, so no worker's set-up pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src"), str(HERE)], check=True,
                   stdout=subprocess.DEVNULL)
    try:
        if args.trace:
            spans_out = (ROOT / ".perfbench"
                         / f"spans-{args.workload}-{args.seed}.json")
            workers = [start_worker(args, args.seconds / 2, 0, deadline),
                       start_worker(args, args.seconds / 2, 1, deadline,
                                    spans_out)]
            metrics = per_layer(*workers)
        else:
            workers = [start_worker(args, args.seconds / WORKERS, 0,
                                    deadline) for _ in range(WORKERS)]
            metrics = {name: {"value": value, "unit": END_TO_END[name]}
                       for name, value in end_to_end(workers).items()}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    rounds = [r for w in workers for r in w["rounds"]]
    result = {"correct": all(r["incorrect"] == 0 for r in rounds),
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}
    summarize(args, workers, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
