"""One fresh interpreter's share of a benchmark run.

``run.py`` starts this script several times per run.  It sets the
workload up (timed from interpreter start: imports, image builds,
profiling, golden run, warm-up round), then repeats timed rounds until
its time share is spent, and prints one JSON line with the raw
per-round figures.  With ``--trace 1`` it first wraps each layer's
entry points (see ``spans.py``) and adds per-layer figures.
"""

import time

STARTED = time.perf_counter()     # before the program is imported

import argparse
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path

from spans import BENCH_SPANS, SpanRecorder

#: Layer entry points wrapped in the traced run: (target, span name).
LAYER_SPANS = [
    ("repro.core.profiler.profiler:Profiler.profile_all", "profiler.profile"),
    ("repro.core.controller.controller:Controller.make_process",
     "runtime.load"),
    ("repro.runtime.process:Process.load_program", "runtime.load"),
    ("repro.runtime.process:Process.libcall", "runtime.libcall"),
    ("repro.kernel.kernel:Kernel.dispatch", "kernel.dispatch"),
    ("repro.core.controller.injector:Injector.eval_host", "controller.eval"),
    ("repro.core.controller.controller:Controller.__init__",
     "controller.monitor"),
    ("repro.core.search:GuidedFrontier.next_batch", "search.schedule"),
    ("repro.core.search:GuidedFrontier.observe", "search.schedule"),
    ("repro.core.exec.engine:_case_runner", "exec.case"),
    ("repro.core.exec.snapshot:SnapshotRunner.run_case", "exec.case"),
    ("repro.core.results.store:CampaignJournal.record", "results.journal"),
    ("repro.core.results.matrix:classify_result", "results.classify"),
    ("repro.core.results.matrix:output_digest", "results.classify"),
    ("repro.runtime.blocks:export_coverage", "results.coverage_export"),
    ("repro.apps.miniweb:MiniWeb.serve_one", "apps.driver"),
]

#: Entry points only counted (spans there would cost more than the
#: work they time).
LAYER_COUNTS = [
    ("repro.runtime.process:Process.block_template", "runtime.block_binds"),
    ("repro.core.controller.triggers:TriggerEngine.record_dormant_call",
     "controller.dormant_calls"),
]


def _after_test(rec, args, outcome) -> None:
    lfi = args[0]
    rec.add("controller.evaluations", lfi.evaluations)
    rec.add("controller.injections", lfi.injections)


def _after_restore(rec, args, stats) -> None:
    rec.add("runtime.snapshot_bytes_restored", stats.bytes_restored)


def _after_frontier(rec, args, _none) -> None:
    rec.frontiers.append(args[0])


def _pool_map(rec):
    """WorkerPool.map, with each task as one operation span and the
    pool's own task results added up."""
    def replace(original):
        def map(pool, fn, items, progress=None):
            op = rec.span(fn, "bench.op", op_of=lambda case: case.case_id())
            started = time.perf_counter()
            results = original(pool, op, items, progress)
            if rec.in_round:
                rec.add("exec.pool.elapsed_s",
                        (time.perf_counter() - started) * pool.jobs)
                rec.add("exec.pool.task_s", sum(r.seconds for r in results))
                rec.add("exec.pool.queue_wait_s",
                        sum(r.waited for r in results))
            return results
        return map
    return replace


def install_layer_spans(rec: SpanRecorder) -> None:
    rec.frontiers = []
    for target, name in LAYER_SPANS:
        rec.patch(target, name)
    for target, name in LAYER_COUNTS:
        rec.patch(target, name, count_only=True)
    rec.patch("repro.core.controller.controller:Controller.run_test",
              "controller.monitor", on_result=_after_test)
    rec.patch("repro.runtime.snapshot:MachineSnapshot.restore",
              "runtime.snapshot_restore", on_result=_after_restore)
    rec.patch("repro.core.search:GuidedFrontier.__init__",
              "search.schedule", on_result=_after_frontier)
    rec.patch("repro.core.exec.pool:WorkerPool.map", "exec.dispatch",
              replace=_pool_map(rec))


def layer_figures(rec: SpanRecorder, first: int, last: int,
                  counts_before, round_out) -> dict:
    """One timed round's per-layer self times and exact counters."""
    spans = rec.round_spans(first, last)
    own = rec.self_times(spans)
    calls = rec.span_counts(spans)
    counts = {k: v - counts_before.get(k, 0) for k, v in rec.counts.items()}
    wall = sum(rec.end[i] - rec.start[i] for i in spans
               if rec.names[rec.name[i]] == "bench.round") / 1e9
    uncovered = sum(own.get(name, 0.0) for name in BENCH_SPANS)
    elapsed = counts.pop("exec.pool.elapsed_s", 0.0)
    figures = {f"{name}_s": seconds for name, seconds in own.items()
               if name not in BENCH_SPANS}
    figures.update(counts)
    figures.update(round_out["counters"])
    figures.update({
        "apps.boots": calls.get("apps.boot", 0),
        "runtime.libcalls": calls.get("runtime.libcall", 0),
        "kernel.syscalls": calls.get("kernel.dispatch", 0),
        "runtime.snapshot_restores": calls.get("runtime.snapshot_restore", 0),
        "results.journal_records": calls.get("results.journal", 0),
        "results.journal_bytes": round_out.get("journal_bytes", 0),
        "exec.pool.utilization": (counts.get("exec.pool.task_s", 0.0)
                                  / elapsed if elapsed else 0.0),
        "bench.span_coverage": 1.0 - uncovered / wall if wall else 0.0,
    })
    if rec.frontiers:
        summary = rec.frontiers[-1].summary()
        figures["search.executed"] = summary["scheduled"]
        figures["search.pruned"] = summary["pruned"]
        rec.frontiers.clear()
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    rec = SpanRecorder() if args.trace else None
    if rec is not None:
        install_layer_spans(rec)
    from repro.runtime import CODE_CACHE
    from workloads import WORKLOADS

    workdir = Path(tempfile.mkdtemp(prefix="w-", dir=args.workdir))
    try:
        workload = WORKLOADS[args.workload](args.workload, args.seed,
                                            workdir, rec)
        workload.setup()
        setup_s = time.perf_counter() - STARTED
        rounds = []
        deadline = time.perf_counter() + args.seconds
        while len(rounds) < 2 or time.perf_counter() < deadline:
            if rec is None:
                rounds.append(workload.run_round(len(rounds)))
                continue
            first, counts = len(rec.name), dict(rec.counts)
            linked = CODE_CACHE.stats()["traces_linked"]
            out = workload.run_round(len(rounds))
            out["counters"]["runtime.traces_linked"] = \
                CODE_CACHE.stats()["traces_linked"] - linked
            out["layers"] = layer_figures(rec, first, len(rec.name),
                                          counts, out)
            rounds.append(out)
        doc = {"setup_s": setup_s, "rounds": rounds,
               "golden_s": workload.golden_s,
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if rec is not None:
            doc["profile_s"] = rec.total("profiler.profile")
            doc["missing"] = rec.missing
            if args.spans_out:
                rec.dump(args.spans_out)
            rec.unpatch()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
