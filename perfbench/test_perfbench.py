"""Self-checks of the benchmark.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py

* ``BENCHMARK.json`` lists exactly the metrics the benchmark prints.
* The exact per-layer counters repeat exactly across two traced runs of
  the same commit and seed.  On ``pidgin-isolated`` a case that the
  process pool's child-reaping race reports hung carries no instruction
  count, so ``runtime.instructions`` is exempt there when either run
  hit the race; every other counter is compared.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

EXACT_COUNTERS = ("runtime.instructions", "runtime.libcalls",
                  "runtime.block_binds", "kernel.syscalls",
                  "controller.evaluations", "controller.injections",
                  "runtime.snapshot_restores", "search.executed",
                  "search.pruned")


def test_benchmark_json_matches_the_printed_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == \
        list(run.WORKLOAD_NAMES[:3])
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END
    assert doc["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")}
        for m in run.per_layer_metrics()]


def _traced_round(workload: str) -> dict:
    """The first timed round of one traced worker."""
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", "1",
         "--workdir", str(ROOT / ".perfbench")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    first = json.loads(proc.stdout.strip().splitlines()[-1])["rounds"][0]
    assert first["incorrect"] == 0
    return first


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_exact_counters_repeat(workload):
    a, b = _traced_round(workload), _traced_round(workload)
    names = list(EXACT_COUNTERS)
    if a["races"] or b["races"]:
        names.remove("runtime.instructions")
    assert {n: a["layers"].get(n) for n in names} == \
        {n: b["layers"].get(n) for n in names}
    assert a["layers"]["runtime.libcalls"] > 0
    assert a["layers"]["runtime.instructions"] > 0
