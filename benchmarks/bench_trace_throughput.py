"""Linked translation + the no-fault fast path: throughput benchmarks.

The translator (``runtime/traces.py``) compiles every block entry with
its statically predicted successors into one generated function, closing
hot loops into native ``while`` loops, and the injector's dormant fast
path (``core/controller/injector.py``) collapses intercepted calls to
direct dispatch once a plan provably cannot fire again.  This benchmark
measures both:

* **hot loop** — guest MIPS on the translated path vs the step path
  (same synthetic kernel as ``bench_interp_throughput``, so numbers are
  comparable);
* **dormant calls** — intercepted libc calls/sec through a
  stack-matched trigger whose call-ordinal horizon has passed (the
  dormant proof holds: no evaluation, no backtrace walk, no logbook)
  vs the same trigger shape with a far-future horizon (evaluated, and
  the backtrace built, on every call);
* **no-fault campaign** — serial cases/sec on a minimal workload whose
  triggers fire on call 1 and go dormant for the rest of the case.

Results land in ``BENCH_trace.json`` next to the recorded baselines.
Runs standalone (``PYTHONPATH=src python benchmarks/bench_trace_throughput.py``)
or under pytest.  Set ``REPRO_BENCH_FAST=1`` for a CI-sized smoke run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":                       # standalone: no conftest
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.campaign import enumerate_cases, run_campaign
from repro.core.controller import Controller
from repro.core.profiler import Profiler
from repro.core.scenario import ErrorCode, FrameSpec, FunctionTrigger, Plan
from repro.corpus.libc import libc
from repro.errors import RuntimeFault
from repro.kernel import Kernel, build_kernel_image
from repro.platform import LINUX_X86
from repro.runtime import Process
from repro.runtime.cpu import Cpu

from _benchutil import print_table
from bench_interp_throughput import _hot_loop_image

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))

_LOOP_ITERS = 20_000 if FAST else 300_000
_DORMANT_CALLS = 300 if FAST else 2_000
_CAMPAIGN_ROUNDS = 1 if FAST else 3

#: Pre-trace numbers, measured on this host with the block tier only
#: (commit 2cb5f87, superblocks and the dormant fast path not yet
#: landed) — the fixed denominator for ``speedup_vs_baseline``.
BASELINE = {
    "interpreter": "block-compiled dispatch, per-call trigger "
                   "evaluation (pre-trace)",
    "hot_loop_block_mips": 3.12,
    "minidb_block_mips": 0.72,
}

#: Hot-loop block/step MIPS ratio last committed in ``BENCH_interp.json``
#: (2.649 / 0.834) while per-block closures were still a separate tier.
#: The translated path had to beat that tier by 1.5x (1.2x in fast
#: mode); with the tier gone, the same floor is stated against the step
#: path: 1.5 x 3.18 = 4.8x (fast: 1.2 x 3.18 = 3.8x).
BLOCK_OVER_STEP = 3.18

_OUT = Path(__file__).resolve().parent.parent / "BENCH_trace.json"


def _measure_hot_loop(use_blocks: bool) -> float:
    """Guest MIPS on the synthetic loop, translated or stepped."""
    image = _hot_loop_image(_LOOP_ITERS)
    proc = Process(Kernel(), LINUX_X86)
    proc.load(image)
    proc.cpu.use_blocks = use_blocks
    try:                                        # warm caches, translate
        proc.libcall("hot", max_steps=2_000)
    except RuntimeFault:
        pass
    if use_blocks:
        assert any(t is not None and t.linked
                   for t in proc.cpu._blocks.values()), \
            "hot loop never ran as a linked function"
    before = proc.cpu.instructions_executed
    started = time.perf_counter()
    proc.libcall("hot")
    elapsed = time.perf_counter() - started
    return (proc.cpu.instructions_executed - before) / elapsed / 1e6


def _profiles():
    image = libc(LINUX_X86).image
    profiles = Profiler(LINUX_X86, {image.soname: image},
                        build_kernel_image(LINUX_X86)).profile_all()
    return image, profiles


def _measure_calls(image, profiles, kind: str) -> float:
    """``close()`` calls/sec under three interception regimes.

    * ``live`` — an nth trigger with a stack-trace condition and a
      far-future horizon: every call is evaluated and a backtrace is
      built, and the frame spec never matches;
    * ``dormant`` — the same trigger shape with its horizon at call 1:
      it passes immediately, so every later call takes the injector's
      dormant fast path (no evaluation, no frames, no logbook);
    * ``unbound`` — the plan targets a different function entirely, so
      ``close`` is never shimmed: the zero-interception ceiling.

    Best of three samples per regime — single-run call throughput is
    noisy relative to the effect being measured.
    """
    plan = Plan()
    if kind == "unbound":
        plan.add(FunctionTrigger(function="read", mode="nth", nth=1,
                                 actions=(ErrorCode(-1, "EIO"),)))
    else:
        plan.add(FunctionTrigger(
            function="close", mode="nth",
            nth=1 if kind == "dormant" else 1_000_000,
            stacktrace=(FrameSpec("no_such_caller"),),
            actions=(ErrorCode(-1, "EBADF"),)))
    lfi = Controller(LINUX_X86, profiles, plan)
    proc = lfi.make_process(Kernel(), [image])
    proc.libcall("close", 99)       # call 1: passes the dormant horizon
    best = 0.0
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(_DORMANT_CALLS):
            proc.libcall("close", 99)
        best = max(best, _DORMANT_CALLS
                   / (time.perf_counter() - started))
    return best


def _measure_nofault_campaign(image, profiles) -> dict:
    """Serial cases/sec on a minimal workload: triggers fire on call 1,
    the rest of every case runs on the dormant fast path."""
    O_CREAT, O_RDWR = 0o100, 0o2

    def factory(lfi):
        def session():
            proc = lfi.make_process(Kernel(), [image])
            fd = proc.libcall("open", proc.cstr("/f"), O_CREAT | O_RDWR,
                              0o644)
            buf = proc.scratch_alloc(4)
            proc.mem_write(buf, b"data")
            proc.libcall("write", fd, buf, 4)
            rc = proc.libcall("close", fd)
            return 1 if rc != 0 else 0
        return session
    cases = enumerate_cases(profiles, functions=["close", "write"],
                            max_codes_per_function=2)
    run_campaign("warm", factory, LINUX_X86, profiles, cases)
    best = 0.0
    for _ in range(_CAMPAIGN_ROUNDS):
        started = time.perf_counter()
        run_campaign("bench", factory, LINUX_X86, profiles, cases)
        best = max(best, len(cases) / (time.perf_counter() - started))
    return {"cases": len(cases), "cases_per_second": round(best, 2)}


def _arms():
    image, profiles = _profiles()
    results = {
        "hot_loop": {"step_mips": _measure_hot_loop(False),
                     "translated_mips": _measure_hot_loop(True)},
        "dormant_calls": {
            "live_calls_per_second": _measure_calls(
                image, profiles, "live"),
            "dormant_calls_per_second": _measure_calls(
                image, profiles, "dormant"),
            "unbound_calls_per_second": _measure_calls(
                image, profiles, "unbound")},
        "nofault_campaign": _measure_nofault_campaign(image, profiles),
    }
    hot = results["hot_loop"]
    hot["speedup_vs_step"] = round(
        hot["translated_mips"] / hot["step_mips"], 2)
    hot["speedup_vs_baseline"] = round(
        hot["translated_mips"] / BASELINE["hot_loop_block_mips"], 2)
    calls = results["dormant_calls"]
    calls["speedup"] = round(calls["dormant_calls_per_second"]
                             / calls["live_calls_per_second"], 2)
    # how much of the live-vs-unbound interception overhead the fast
    # path recovers (1.0 = dormant calls cost the same as unshimmed)
    gap = (calls["unbound_calls_per_second"]
           - calls["live_calls_per_second"])
    calls["overhead_recovered"] = round(
        (calls["dormant_calls_per_second"]
         - calls["live_calls_per_second"]) / gap, 2) if gap > 0 else None
    return results


def _report(results, write_json: bool = True):
    hot = results["hot_loop"]
    calls = results["dormant_calls"]
    camp = results["nofault_campaign"]
    print_table(
        "linked translation + dormant fast path "
        f"({'fast' if FAST else 'full'} mode)",
        "arm                         step/live       translated/dormant"
        "        speedup",
        [f"hot loop (MIPS)         {hot['step_mips']:10.3f}      "
         f"{hot['translated_mips']:14.3f}      "
         f"{hot['speedup_vs_step']:5.2f}x",
         f"intercepted calls (/s)  {calls['live_calls_per_second']:10.1f}"
         f"      {calls['dormant_calls_per_second']:14.1f}      "
         f"{calls['speedup']:5.2f}x",
         f"  (unshimmed ceiling)   "
         f"{calls['unbound_calls_per_second']:10.1f}      "
         f"overhead recovered: {calls['overhead_recovered']}",
         f"no-fault campaign       {camp['cases']:6d} cases      "
         f"{camp['cases_per_second']:10.1f}/s"])
    if write_json:
        _OUT.write_text(json.dumps({
            "schema": "repro.bench/1",
            "benchmark": "trace_throughput",
            "mode": "fast" if FAST else "full",
            "baseline": BASELINE,
            "results": results,
        }, indent=2, sort_keys=True) + "\n")
        print(f"wrote {_OUT}")


def _assert_claims(results) -> None:
    # CI runners are noisy; the fast-mode bars are regression
    # tripwires, the full-mode bars the recorded claims
    linked_bar = round((1.2 if FAST else 1.5) * BLOCK_OVER_STEP, 1)
    hot = results["hot_loop"]
    assert hot["speedup_vs_step"] >= linked_bar, \
        (f"translated hot loop {hot['speedup_vs_step']:.2f}x over the "
         f"step path fell below {linked_bar:.1f}x")
    dormant_bar = 1.02 if FAST else 1.08
    calls = results["dormant_calls"]
    assert calls["speedup"] >= dormant_bar, \
        (f"dormant fast path {calls['speedup']:.2f}x over live "
         f"evaluation fell below {dormant_bar:.2f}x")
    if not FAST:
        # the fast path should recover a meaningful share of the
        # live-vs-unshimmed gap (measured ~0.5-0.8 on this host)
        recovered = calls["overhead_recovered"]
        assert recovered is None or recovered >= 0.25, \
            f"dormant path recovered only {recovered} of the overhead"


def test_trace_throughput(benchmark):
    results = benchmark.pedantic(_arms, rounds=1, iterations=1)
    _report(results, write_json=not FAST)
    _assert_claims(results)


if __name__ == "__main__":
    results = _arms()
    _report(results)
    _assert_claims(results)
