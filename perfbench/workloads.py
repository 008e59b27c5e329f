"""The four benchmark workloads: inputs, timed rounds and output checks.

Every workload is closed-loop and driven from one process.  A round
runs a fixed number of operations (campaign cases or HTTP requests);
the worker repeats rounds until its time share is spent, so operation
counts per round never depend on host speed.  Inputs derive from the
workload seed only; the checks compare every output against the
order-independent references in ``references/``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.apps import ApacheBenchDriver, MiniPidgin, MiniWeb, PHP_PAGE
from repro.apps.apr import apr, aprutil
from repro.apps.minidb import DbError, MiniDB
from repro.core.campaign import PrefixFactory, enumerate_cases, run_campaign
from repro.core.controller import Controller
from repro.core.controller.triggers import NEVER_ORDINAL
from repro.core.exec import engine
from repro.core.profiler import Profiler
from repro.core.results import ResultStore, matrix_from_store
from repro.core.results.matrix import output_digest, vfs_digest
from repro.core.scenario import error_codes_from_profile, passthrough_plan
from repro.core.scenario.model import (INJECT_NTH, ErrorCode,
                                      FunctionTrigger, Plan)
from repro.corpus.libc import libc
from repro.kernel import Kernel, build_kernel_image
from repro.platform import LINUX_X86
from repro.runtime.blocks import import_coverage

REFERENCES = Path(__file__).resolve().parent / "references"

#: Shimmed/bare run pairs timed after each campaign round for the
#: interception ratio.
INTERCEPT_PAIRS = 12

#: Request pairs in one web-passthrough round: 100 gives a p90 tail
#: with exactly 10 samples beyond it.
WEB_PAIRS = 100

#: Untimed request pairs that warm the web servers up.
WARM_UP_PAIRS = 20


def load_reference(name: str) -> Dict[str, Any]:
    return json.loads((REFERENCES / f"{name}.json").read_text())


def matrix_doc(store) -> Dict[str, Any]:
    """The failure-mode matrix minus its campaign key (an identity
    digest of the inputs, not an output)."""
    doc = matrix_from_store(store).to_dict()
    doc.pop("campaign", None)
    return doc


def cell_set(doc: Dict[str, Any]) -> List[str]:
    return sorted(f"{row['function']}/{row['fault_class']}/{cls}"
                  for row in doc["rows"] for cls in row["cells"])


# -- program-under-test factories ---------------------------------------------


def _minidb_setup(lfi):
    return MiniDB(Kernel(os_name=LINUX_X86.os), LINUX_X86, controller=lfi)


def _minidb_run(lfi, db):
    try:
        db.execute("create table t k v")
        for i in range(3):
            db.execute(f"insert into t {i} value{i}")
        db.execute("select from t where k 1")
        db.checkpoint()
    except DbError:
        return 1
    return 0


def _miniweb_setup(lfi):
    return MiniWeb(Kernel(os_name=LINUX_X86.os), LINUX_X86, controller=lfi)


def _miniweb_run(lfi, server):
    return 1 if ApacheBenchDriver(server).run_static(6).failures else 0


def _pidgin_setup(lfi):
    return MiniPidgin(Kernel(os_name=LINUX_X86.os), LINUX_X86,
                      controller=lfi)


def _pidgin_run(lfi, client):
    client.login_and_chat([f"buddy{i}.example.org" for i in range(4)])
    return 0


class DigestClient(ApacheBenchDriver):
    """The sequential AB client, returning each response body."""

    def request(self, path: str):
        proc = self.proc
        fd = proc.libcall("socket", 2, 1, 0)
        if fd < 0:
            return False, b""
        out = bytearray()
        try:
            if proc.libcall("connect", fd, self.server.port, 0) < 0:
                return False, b""
            request = f"GET {path} HTTP/1.0\r\n\r\n".encode()
            buf = proc.scratch_alloc(len(request))
            proc.mem_write(buf, request)
            if proc.libcall("send", fd, buf, len(request), 0) <= 0:
                return False, b""
            self.server.serve_one()
            rbuf = proc.scratch_alloc(256)
            while True:
                n = proc.libcall("recv", fd, rbuf, 256, 0)
                if n <= 0:
                    break
                out += proc.mem_read(rbuf, n)
        finally:
            proc.libcall("close", fd)
        return out.startswith(b"HTTP/1.0 200"), bytes(out)


# -- campaigns ----------------------------------------------------------------


class CampaignWorkload:
    """A journaled, classified campaign, re-run fresh every round."""

    functions: List[str] = []
    ordinals = range(1, 2)
    jobs = 1
    backend: Optional[str] = None
    timeout: Optional[float] = None
    snapshot = False
    guided = False
    #: the seed permutes case order (guided keeps enumeration order:
    #: its schedule is a function of that order)
    permute = True

    def __init__(self, name: str, seed: int, workdir: Path,
                 recorder=None) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.recorder = recorder

    def _wrap(self, fn, span: str):
        return fn if self.recorder is None else self.recorder.span(fn, span)

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        self.reference = load_reference(self.name)
        image = libc(LINUX_X86).image
        self.profiles = Profiler(LINUX_X86, {image.soname: image},
                                 build_kernel_image(LINUX_X86)).profile_all()
        setup, run = self.program()
        self.factory = PrefixFactory(self._wrap(setup, "apps.boot"),
                                     self._wrap(run, "apps.driver"),
                                     workload_id=self.name)
        self.bare_setup, self.bare_run = setup, run
        self.cases = enumerate_cases(self.profiles, functions=self.functions,
                                     call_ordinals=tuple(self.ordinals))
        started = time.perf_counter()
        self.golden()
        self.golden_s = time.perf_counter() - started
        self._memoize_golden()
        self.intercept_pairs(INTERCEPT_PAIRS)
        self.warm_up()

    def warm_up(self) -> None:
        """One untimed round: fills the code cache, which the first
        timed round would otherwise pay for."""
        self.run_round(-1)

    def golden(self) -> None:
        """The fault-free anchor run: output digest, per-function call
        counts and covered blocks, under never-firing triggers."""
        lfi = Controller(LINUX_X86, self.profiles, self._sentinel_plan(),
                         coverage=True)
        outcome = lfi.run_test(self.factory(lfi), test_id="golden")
        if outcome.status != "normal":
            raise RuntimeError(f"{self.name}: golden run ended "
                               f"{outcome.status}")
        self.golden_digest = output_digest(lfi)
        self.golden_counts = dict(lfi.engine.call_counts)
        self.golden_blocks = set(lfi.coverage_map())

    def _memoize_golden(self) -> None:
        """Serve the engine's per-campaign golden run from set-up, so
        the timed rounds hold only case work."""
        run_original = getattr(engine, "_golden_run", None)
        digest_original = getattr(engine, "_golden_digest", None)
        if run_original is None or digest_original is None:
            return

        def golden_run(factory, platform, profiles, functions):
            if factory is self.factory:
                return (self.golden_digest, dict(self.golden_counts),
                        set(self.golden_blocks))
            return run_original(factory, platform, profiles, functions)

        def golden_digest(factory, platform, profiles):
            if factory is self.factory:
                return self.golden_digest
            return digest_original(factory, platform, profiles)

        engine._golden_run = golden_run
        engine._golden_digest = golden_digest

    # -- interception ratio ----------------------------------------------------

    def _sentinel_plan(self) -> Plan:
        plan = Plan(name="intercept")
        for name in sorted(self.functions):
            plan.add(FunctionTrigger(function=name, mode=INJECT_NTH,
                                     nth=NEVER_ORDINAL,
                                     actions=(ErrorCode(-1, "EIO"),),
                                     calloriginal=False))
        return plan

    def intercept_pairs(self, pairs: int):
        """Interleaved fault-free runs with and without the shim.

        The first pair is untimed: a campaign round leaves the bare
        program's code cold in the shared code cache.  Garbage collection
        is collected up front and held off while the pairs run.  Returns
        (shimmed seconds, bare seconds, mismatches)."""
        gc.collect()
        gc.disable()        # no collection lands on either side alone
        try:
            return self._pairs(pairs)
        finally:
            gc.enable()

    def _pairs(self, pairs: int):
        shim_s = bare_s = 0.0
        bad = 0
        for pair in range(pairs + 1):
            started = time.perf_counter()
            lfi = Controller(LINUX_X86, self.profiles, self._sentinel_plan())
            outcome = lfi.run_test(self.factory(lfi), test_id="intercept")
            shim = time.perf_counter() - started
            started = time.perf_counter()
            ctx = self.bare_setup(None)
            status = self.bare_run(None, ctx)
            if pair:
                shim_s += shim
                bare_s += time.perf_counter() - started
            if outcome.status != "normal" or status \
                    or output_digest(lfi) != self.golden_digest \
                    or vfs_digest(ctx.kernel.vfs) != \
                    vfs_digest(lfi.processes[0].kernel.vfs):
                bad += 1
        return shim_s, bare_s, bad

    # -- one round --------------------------------------------------------------

    def round_cases(self, index: int):
        cases = list(self.cases)
        if self.permute:
            random.Random(f"{self.seed}:{index}").shuffle(cases)
        return cases

    def run_round(self, index: int) -> Dict[str, Any]:
        cases = self.round_cases(index)
        store_dir = self.workdir / f"round{index + 1}"
        store = ResultStore(store_dir)
        campaign = self._wrap(run_campaign, "bench.round")
        gc.collect()
        started = time.perf_counter()
        report = campaign(self.name, self.factory, LINUX_X86, self.profiles,
                          cases, jobs=self.jobs, timeout=self.timeout,
                          backend=self.backend, snapshot=self.snapshot,
                          results=store, results_key={"app": self.name},
                          guided=self.guided)
        seconds = time.perf_counter() - started
        out = self.check(report, store)
        out.update(seconds=seconds, ops=len(report.results),
                   latencies_ms=[r.seconds * 1e3 for r in report.results],
                   journal_bytes=sum(p.stat().st_size
                                     for p in store_dir.rglob("*.jsonl")))
        shutil.rmtree(store_dir, ignore_errors=True)
        shim_s, bare_s, bad = self.intercept_pairs(INTERCEPT_PAIRS)
        out.update(intercept=shim_s / bare_s, incorrect=out["incorrect"] + bad)
        return out

    def check(self, report, store) -> Dict[str, Any]:
        expected = self.reference["cases"]
        failed = incorrect = races = 0
        blocks = set(self.golden_blocks)
        counts = {"runtime.instructions": 0, "exec.pool.hung": 0,
                  "exec.pool.crashed": 0}
        for result in report.results:
            blocks.update(import_coverage(result.coverage))
            got = [result.outcome_class, result.fired]
            if got != expected.get(result.case.case_id()):
                failed += 1
                if self.is_false_hang(result):
                    races += 1
                else:
                    incorrect += 1
            counts["runtime.instructions"] += result.instructions
            counts["exec.pool.hung"] += result.outcome.status == "hung"
            counts["exec.pool.crashed"] += result.outcome.status == "crashed"
        doc = matrix_doc(store)
        if self.guided:
            if cell_set(doc) != self.reference["cells"]:
                incorrect += 1
        elif not races and doc != self.reference["matrix"]:
            incorrect += 1
        return {"attempted": len(report.results), "failed": failed,
                "incorrect": incorrect, "races": races,
                "blocks": len(blocks), "counters": counts}

    def is_false_hang(self, result) -> bool:
        return False


class MinidbExhaustive(CampaignWorkload):
    """Fresh, serial exhaustive campaign over minidb's file I/O."""

    functions = ["open", "read", "write", "close", "lseek", "fsync"]
    ordinals = range(1, 9)

    def program(self):
        return _minidb_setup, _minidb_run


class MiniwebGuidedSnapshot(CampaignWorkload):
    """Guided, snapshot-replayed campaign over miniweb static requests."""

    functions = ["accept", "recv", "open", "read", "write", "close"]
    ordinals = range(1, 13)
    snapshot = True
    guided = True
    permute = False

    def program(self):
        return _miniweb_setup, _miniweb_run


class PidginIsolated(CampaignWorkload):
    """Exhaustive minipidgin campaign, one forked worker per case."""

    functions = ["read", "write", "malloc", "free", "pipe"]
    ordinals = range(1, 13)
    jobs = 2
    backend = "process"
    timeout = 1.0

    def program(self):
        return _pidgin_setup, _pidgin_run

    def warm_up(self) -> None:
        """Cases run in forked children that hand no state back, so the
        parent needs only its first pool start-up: a few cases."""
        store = ResultStore(self.workdir / "warm-up")
        run_campaign(self.name, self.factory, LINUX_X86, self.profiles,
                     self.cases[:4], jobs=self.jobs, timeout=self.timeout,
                     backend=self.backend, results=store,
                     results_key={"app": self.name})
        shutil.rmtree(self.workdir / "warm-up", ignore_errors=True)

    def is_false_hang(self, result) -> bool:
        """The pool's child-reaping race: a case reported hung long
        before its timeout could have expired.  Counted as a failed
        operation, never masked."""
        return (result.outcome.status == "hung"
                and result.seconds < 0.5 * self.timeout)


# -- interception overhead ------------------------------------------------------


class WebPassthrough:
    """Table 3 shape: PHP requests through libc + apr + aprutil shims
    whose random pass-through triggers are evaluated on every call,
    timed request by request, interleaved with an unshimmed twin."""

    name = "web-passthrough"

    def __init__(self, name: str, seed: int, workdir: Path,
                 recorder=None) -> None:
        self.seed = seed
        self.recorder = recorder

    def setup(self) -> None:
        self.reference = load_reference(self.name)
        images = {b.image.soname: b.image for b in
                  (libc(LINUX_X86), apr(LINUX_X86), aprutil(LINUX_X86))}
        self.profiles = Profiler(LINUX_X86, images,
                                 build_kernel_image(LINUX_X86)).profile_all()
        codes = {fn: error_codes_from_profile(p.functions[fn])
                 for p in self.profiles.values() for fn in p.functions}
        order = sorted(codes)
        random.Random(self.seed).shuffle(order)
        self.lfi = Controller(LINUX_X86, self.profiles,
                              passthrough_plan({f: codes[f] for f in order}),
                              seed=self.seed)
        self.golden_s = 0.0
        self.shim = DigestClient(MiniWeb(Kernel(os_name=LINUX_X86.os),
                                         LINUX_X86, controller=self.lfi))
        self.bare = DigestClient(MiniWeb(Kernel(os_name=LINUX_X86.os),
                                         LINUX_X86))
        self._pairs(-1, WARM_UP_PAIRS)      # warm-up: the code cache

    def processes(self):
        return [self.shim.proc, self.shim.server.proc,
                self.bare.proc, self.bare.server.proc]

    def _pairs(self, index: int, count: int = WEB_PAIRS):
        """Shimmed/unshimmed request pairs; which side goes first
        alternates, so host drift lands on both sides alike."""
        sides = {"shim": self.shim.request, "bare": self.bare.request}
        if self.recorder is not None:
            for label in sides:
                sides[label] = self.recorder.span(
                    sides[label], "bench.op",
                    op_of=lambda path, label=label: f"{index}:{label}")
        timed = {"shim": ([], []), "bare": ([], [])}
        clock = time.perf_counter
        for i in range(count):
            for label in (("shim", "bare") if i % 2 == 0
                          else ("bare", "shim")):
                started = clock()
                ok, body = sides[label](PHP_PAGE)
                timed[label][0].append((clock() - started) * 1e3)
                timed[label][1].append((ok, body))
        return timed

    def _probe_blocks(self):
        """Distinct guest blocks one shimmed request executes (every
        request of a round runs the same path), counted on an extra,
        untimed request so coverage accounting never slows the timed
        ones."""
        procs = [self.shim.proc, self.shim.server.proc]
        for proc in procs:
            proc.cpu.coverage = {}
        ok, body = self.shim.request(PHP_PAGE)
        blocks = set()
        for proc in procs:
            blocks.update(proc.cpu.coverage)
            proc.cpu.coverage = None
        return len(blocks), (ok, body)

    def run_round(self, index: int) -> Dict[str, Any]:
        before = [p.cpu.instructions_executed for p in self.processes()]
        evals, injections = self.lfi.evaluations, self.lfi.injections
        pairs = self._pairs if self.recorder is None else \
            self.recorder.span(self._pairs, "bench.round")
        gc.collect()
        timed = pairs(index)
        counters = {
            "runtime.instructions": sum(
                p.cpu.instructions_executed - b
                for p, b in zip(self.processes(), before)),
            "controller.evaluations": self.lfi.evaluations - evals,
            "controller.injections": self.lfi.injections - injections}
        blocks, probe = self._probe_blocks()
        expected = self.reference["body_sha256"]
        responses = timed["shim"][1] + timed["bare"][1] + [probe]
        failed = sum(1 for ok, body in responses
                     if not ok or hashlib.sha256(body).hexdigest() != expected)
        shim_ms, bare_ms = sum(timed["shim"][0]), sum(timed["bare"][0])
        return {"seconds": shim_ms / 1e3, "ops": WEB_PAIRS,
                "latencies_ms": timed["shim"][0],
                "intercept": shim_ms / bare_ms,
                "blocks": blocks, "attempted": len(responses),
                "failed": failed, "incorrect": failed, "races": 0,
                "counters": counters}


WORKLOADS = {
    "minidb-exhaustive": MinidbExhaustive,
    "miniweb-guided-snapshot": MiniwebGuidedSnapshot,
    "web-passthrough": WebPassthrough,
    "pidgin-isolated": PidginIsolated,
}
