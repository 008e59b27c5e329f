"""Interposition equivalence: guest-side stubs change nothing observable.

Each interception stub counts its call in the guest and jumps through a
per-process target word: straight to the original while the plan
provably cannot fire for the function (a *dormant* call), into the
controller's evaluation entry otherwise.  The host never sees a dormant
call, yet everything it reports must match what an interposition that
trapped on every call reported: per-function call counts, trigger
evaluations, injections, logbook records, replay XML and the monitored
``test``/``injection``/``passthrough`` events.

The pinned values below were recorded with that trapping interposition
(every intercepted call crossed into the controller, which counted it),
over minidb golden and sampled fault cases, snapshot-replayed miniweb
cases, a minipidgin case whose faulted call happens in the forked
resolver, the x86 preload, SPARC and Windows-injection platforms, and
two stacked controllers.  ``calls``, ``evaluations`` and ``injections``
are literal; ``digest`` covers outcome, logbook, replay XML and events.

CI runs this file with ``-rs`` and fails the job if any test here is
skipped.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache

import pytest

from repro.apps import ApacheBenchDriver, MiniPidgin, MiniWeb
from repro.apps.minidb import DbError, MiniDB
from repro.core.campaign import FaultCase, PrefixFactory, enumerate_cases
from repro.core.controller import Controller, Injector
from repro.core.controller.triggers import NEVER_ORDINAL
from repro.core.exec.snapshot import SnapshotRunner
from repro.core.profiler import Profiler
from repro.core.scenario.model import (INJECT_NTH, ArgModification,
                                      DelayFault, ErrorCode, FrameSpec,
                                      FunctionTrigger, PartialWriteFault,
                                      Plan)
from repro.corpus.libc import libc
from repro.kernel import O_CREAT, O_RDWR, Kernel, build_kernel_image
from repro.obs import EventLog, MemorySink, Telemetry
from repro.obs.tracing import NULL_TRACER
from repro.platform import LINUX_X86, SOLARIS_SPARC, WINDOWS_X86

MINIDB_FUNCTIONS = ("open", "read", "write", "close", "lseek", "fsync")
MINIWEB_FUNCTIONS = ("accept", "recv", "open", "read", "write", "close")


@lru_cache(maxsize=None)
def _profiles():
    image = libc(LINUX_X86).image
    return Profiler(LINUX_X86, {image.soname: image},
                    build_kernel_image(LINUX_X86)).profile_all()


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _observe(lfi, outcome, events) -> dict:
    """The pinned observables of one monitored test."""
    records = [dataclasses.asdict(r) for r in lfi.logbook.records]
    return {
        "calls": dict(sorted(lfi.engine.call_counts.items())),
        "evaluations": lfi.evaluations,
        "injections": lfi.injections,
        "digest": _digest([outcome.status, outcome.exit_code,
                           outcome.detail, outcome.injections, records,
                           outcome.replay_xml, events]),
    }


def _telemetry():
    sink = MemorySink()
    return sink, Telemetry(events=EventLog(sinks=[sink]), tracer=NULL_TRACER)


def _events(sink):
    return [[e.kind, e.fields] for e in sink.events]


def _run(plan, factory, test_id, platform=LINUX_X86):
    sink, telemetry = _telemetry()
    lfi = Controller(platform, _profiles(), plan, telemetry=telemetry)
    outcome = lfi.run_test(factory(lfi), test_id=test_id)
    return lfi, _observe(lfi, outcome, _events(sink))


def _sentinel_plan(functions) -> Plan:
    plan = Plan(name="sentinel")
    for name in sorted(functions):
        plan.add(FunctionTrigger(function=name, mode=INJECT_NTH,
                                 nth=NEVER_ORDINAL,
                                 actions=(ErrorCode(-1, "EIO"),),
                                 calloriginal=False))
    return plan


# -- workloads ----------------------------------------------------------------


def _minidb_factory() -> PrefixFactory:
    def setup(lfi):
        return MiniDB(Kernel(os_name=LINUX_X86.os), LINUX_X86,
                      controller=lfi)

    def run(lfi, db):
        try:
            db.execute("create table t k v")
            for i in range(3):
                db.execute(f"insert into t {i} value{i}")
            db.execute("select from t where k 1")
            db.checkpoint()
        except DbError:
            return 1
        return 0

    return PrefixFactory(setup, run, workload_id="minidb-interpose")


def _miniweb_factory(seen) -> PrefixFactory:
    def setup(lfi):
        return MiniWeb(Kernel(os_name=LINUX_X86.os), LINUX_X86,
                       controller=lfi)

    def run(lfi, server):
        seen.append(lfi)
        return 1 if ApacheBenchDriver(server).run_static(6).failures else 0

    return PrefixFactory(setup, run, workload_id="miniweb-interpose")


def _pidgin_factory(clients) -> PrefixFactory:
    def setup(lfi):
        client = MiniPidgin(Kernel(os_name=LINUX_X86.os), LINUX_X86,
                            controller=lfi)
        clients.append(client)
        return client

    def run(lfi, client):
        client.login_and_chat([f"buddy{i}.example.org" for i in range(4)])
        return 0

    return PrefixFactory(setup, run, workload_id="pidgin-interpose")


def _platform_plan() -> Plan:
    """Every trigger shape the stubs treat differently: a live nth
    horizon that retires, an ordinal set, a stack-matched pass-through
    with an argument rewrite, a delay, a seeded random pass-through and
    a sentinel that is dormant from attach on."""
    plan = Plan(name="platform", seed=7)
    plan.add(FunctionTrigger(function="close", mode=INJECT_NTH, nth=2,
                             actions=(ErrorCode(-1, "EBADF"),)))
    plan.add(FunctionTrigger(function="write", mode="ordinals",
                             ordinals=(2, 4),
                             actions=(PartialWriteFault(max_bytes=2),)))
    plan.add(FunctionTrigger(function="read", mode="always",
                             actions=(ErrorCode(-1, "EIO"),),
                             calloriginal=True,
                             modifications=(ArgModification(3, "sub", 1),),
                             stacktrace=(FrameSpec("0xfffffff0"),
                                         FrameSpec("refresh_files"))))
    plan.add(FunctionTrigger(function="lseek", mode=INJECT_NTH, nth=1,
                             actions=(DelayFault(virtual_ns=5000),)))
    plan.add(FunctionTrigger(function="getpid", mode="random",
                             probability=0.5,
                             actions=(ErrorCode(-1, "EPERM"),)))
    plan.add(FunctionTrigger(function="unlink", mode=INJECT_NTH,
                             nth=NEVER_ORDINAL,
                             actions=(ErrorCode(-1, "EACCES"),)))
    return plan


def _platform_factory(platform):
    image = libc(platform).image

    def factory(lfi):
        def session():
            proc = lfi.make_process(Kernel(os_name=platform.os), [image])
            path = proc.cstr("/data")
            fd = proc.libcall("open", path, O_CREAT | O_RDWR, 0o644)
            buf = proc.scratch_alloc(16)
            proc.mem_write(buf, b"0123456789abcdef")
            for _ in range(5):
                proc.libcall("write", fd, buf, 8)
            proc.libcall("lseek", fd, 0, 0)
            proc.libcall("lseek", fd, 0, 0)
            proc.libcall("read", fd, buf, 8)
            with proc.frame("refresh_files"):
                proc.libcall("read", fd, buf, 8)
            for _ in range(6):
                proc.libcall("getpid")
            proc.libcall("unlink", proc.cstr("/missing"))
            proc.libcall("close", fd)
            return 1 if proc.libcall("close", fd) != 0 else 0
        return session
    return factory


# -- scenarios ----------------------------------------------------------------


def minidb_golden():
    return _run(_sentinel_plan(MINIDB_FUNCTIONS), _minidb_factory(),
                "golden")


def minidb_cases():
    cases = enumerate_cases(_profiles(), functions=list(MINIDB_FUNCTIONS),
                            call_ordinals=tuple(range(1, 9)))
    return {case.case_id(): _run(case.plan(), _minidb_factory(),
                                 case.case_id())[1]
            for case in cases[::19]}


def miniweb_snapshot_cases():
    seen = []
    runner = SnapshotRunner("miniweb", _miniweb_factory(seen), LINUX_X86,
                            _profiles(), capture=True)
    cases = enumerate_cases(_profiles(), functions=list(MINIWEB_FUNCTIONS),
                            call_ordinals=tuple(range(1, 13)))
    out = {}
    for case in cases[::23]:
        try:
            result = runner.run_case(case)
        except Exception as exc:        # the guest misbehaved past the
            lfi = seen[-1]              # monitored region
            out[case.case_id()] = {"raised": f"{type(exc).__name__}: {exc}",
                                   "calls": dict(lfi.engine.call_counts)}
            continue
        lfi = seen[-1]
        events = [[e["kind"], e["fields"]] for e in result.events]
        out[case.case_id()] = dict(
            _observe(lfi, result.outcome, events),
            replayed=result.snapshot is not None)
    return out


def pidgin_resolver_cases():
    clients = []
    out = {}
    for ordinal in (5, 6):
        case = FaultCase("write", ErrorCode(-1, "EIO"), ordinal)
        lfi, observed = _run(case.plan(), _pidgin_factory(clients),
                             case.case_id())
        out[case.case_id()] = observed
    return out, clients


def platform_sessions():
    return {platform.name: _run(_platform_plan(),
                                _platform_factory(platform), "platform",
                                platform)[1]
            for platform in (LINUX_X86, SOLARIS_SPARC, WINDOWS_X86)}


def stacked_controllers():
    """Two controllers in one process, each shim chaining to the next
    through RTLD_NEXT; the outer one's plan retires after two calls."""
    image = libc(LINUX_X86).image
    outer_plan = Plan(name="outer")
    outer_plan.add(FunctionTrigger(function="close", mode=INJECT_NTH, nth=2,
                                   actions=(ErrorCode(-1, "EIO"),)))
    outer_plan.add(FunctionTrigger(function="getpid", mode=INJECT_NTH,
                                   nth=NEVER_ORDINAL,
                                   actions=(ErrorCode(-1, "EPERM"),)))
    inner_plan = Plan(name="inner")
    inner_plan.add(FunctionTrigger(function="close", mode=INJECT_NTH, nth=3,
                                   actions=(ErrorCode(-1, "EBADF"),)))
    inner_plan.add(FunctionTrigger(function="getpid", mode=INJECT_NTH,
                                   nth=4, actions=(ErrorCode(-1, "EPERM"),)))
    sinks = []
    pair = []
    for plan in (outer_plan, inner_plan):
        sink, telemetry = _telemetry()
        sinks.append(sink)
        pair.append(Controller(LINUX_X86, _profiles(), plan,
                               telemetry=telemetry))
    outer, inner = pair
    kernel = Kernel()

    def session():
        from repro.runtime import Process
        proc = Process(kernel, LINUX_X86)
        outer.attach(proc, [])
        inner.attach(proc, [image])
        results = [proc.libcall("close", 99) for _ in range(5)]
        results += [proc.libcall("getpid") for _ in range(6)]
        return 0 if results.count(-1) == 4 else 1

    outcome = outer.run_test(session, test_id="stacked")
    inner_outcome = inner.run_test(lambda: 0, test_id="stacked")
    return {"outer": _observe(outer, outcome, _events(sinks[0])),
            "inner": _observe(inner, inner_outcome, _events(sinks[1]))}


# -- pinned observations (recorded with the trapping interposition) -----------


def _pin(calls, evaluations, injections, digest, **extra):
    return dict(calls=calls, evaluations=evaluations,
                injections=injections, digest=digest, **extra)


def _raised(calls, message):
    return {"calls": calls, "raised": message}


EXPECTED = {
    "minidb-golden": _pin(
        {"close": 1, "fsync": 4, "lseek": 4, "open": 3, "read": 4,
         "write": 7},
        0, 0, "d1a95590b1a15d21"),
    "minidb-cases": {
        "close@1=-1/EBADF": _pin({"close": 1}, 1, 1, "eb6a2186c47e9f9f"),
        "close@4=-1/EINTR": _pin({"close": 1}, 1, 0, "f80995668e38efa0"),
        "fsync@2=0/none": _pin({"fsync": 4}, 2, 1, "a281add5392ff10c"),
        "fsync@7=-1/EINVAL": _pin({"fsync": 4}, 4, 0, "94c3220213d48d22"),
        "lseek@5=-1/EINVAL": _pin({"lseek": 4}, 4, 0, "be6a17739390d201"),
        "lseek@8=0/none": _pin({"lseek": 4}, 4, 0, "5eb799e978b1c803"),
        "open@1=-1/ENOMEM": _pin({"open": 4}, 1, 1, "32d32aeb22862300"),
        "open@3=-1/ENFILE": _pin({"open": 3}, 3, 1, "6ee60a9cdc0dc4a7"),
        "open@4=-1/ENOENT": _pin({"open": 3}, 3, 0, "819d316e3b35afea"),
        "open@6=-1/ENOTDIR": _pin({"open": 3}, 3, 0, "e33c652c607b716f"),
        "read@2=-1/EAGAIN": _pin({"read": 5}, 2, 1, "3f9be8a1c6910120"),
        "read@5=-1/EIO": _pin({"read": 4}, 4, 0, "a2f46afde66b29d1"),
        "read@7=-1/EINVAL": _pin({"read": 4}, 4, 0, "83c15be58d50cf0b"),
        "read@8=0/none": _pin({"read": 4}, 4, 0, "5f1d2dd934c13a7f"),
        "write@1=-1/EIO": _pin({"write": 1}, 1, 1, "8592e7088bfbf201"),
        "write@3=-1/EFBIG": _pin({"write": 3}, 3, 1, "46a27414191820f0"),
        "write@4=0/none": _pin({"write": 8}, 4, 1, "8c346eab8ce389bc"),
        "write@6=-1/EFAULT": _pin({"write": 6}, 6, 1, "b0c270a03169cea9"),
    },
    "miniweb-snapshot": {
        "accept@10=-1/EINTR":
            _pin({"accept": 6}, 6, 0, "86afa40838728477", replayed=True),
        "accept@11=-1/EAGAIN":
            _pin({"accept": 6}, 6, 0, "985573dfb4b2af4b", replayed=True),
        "accept@12=-1/ENOTSOCK":
            _pin({"accept": 6}, 6, 0, "843aea3f602eee09", replayed=True),
        "accept@1=-1/ECONNABORTED": _raised(
            {"accept": 2},
            "KernelError: write produced undeclared error ECONNRESET "
            "(declared: ('EBADF', 'EFAULT', 'EINTR', 'EIO', 'EAGAIN', "
            "'EPIPE', 'ENOSPC', 'EFBIG', 'EINVAL'))"),
        "close@8=-1/EINTR":
            _pin({"close": 12}, 8, 1, "6e9cc8af9df3d1b5", replayed=True),
        "close@9=-1/EBADF":
            _pin({"close": 12}, 9, 1, "7ae442c6ff015a53", replayed=True),
        "open@2=0/none":
            _pin({"open": 6}, 2, 1, "c0183263560ff6b4", replayed=True),
        "open@3=-1/EINTR":
            _pin({"open": 6}, 3, 1, "ab85ae89a520aa01", replayed=True),
        "open@4=-1/EACCES":
            _pin({"open": 6}, 4, 1, "d22218f451262253", replayed=True),
        "open@5=-1/ENOTDIR":
            _pin({"open": 6}, 5, 1, "1de8ae2d54516bed", replayed=True),
        "open@6=-1/ENFILE":
            _pin({"open": 6}, 6, 1, "c659ad9d566cb1c0", replayed=True),
        "open@7=-1/ENAMETOOLONG":
            _pin({"open": 6}, 6, 0, "c1d38928d9aadbd1", replayed=True),
        "read@10=-1/EINTR":
            _pin({"read": 30}, 10, 1, "063f4263997e39eb", replayed=True),
        "read@11=-1/EBADF":
            _pin({"read": 26}, 11, 1, "c6fc9f0d0389cdcd", replayed=True),
        "read@12=-1/EFAULT":
            _pin({"read": 27}, 12, 1, "d65b480618b12c7f", replayed=True),
        "read@1=-1/EISDIR":
            _pin({"read": 26}, 1, 1, "b93e48f754fdfd8a", replayed=True),
        "recv@6=0/none":
            _pin({"recv": 6}, 6, 1, "ae26606f81a6c0a6", replayed=True),
        "recv@7=-1/EBADF":
            _pin({"recv": 6}, 6, 0, "069d694396eebacf", replayed=True),
        "recv@8=-1/ENOTSOCK":
            _pin({"recv": 6}, 6, 0, "77ef6814d448bf9a", replayed=True),
        "recv@9=-1/ENOTCONN":
            _pin({"recv": 6}, 6, 0, "8a88c348c28199e2", replayed=True),
        "write@1=0/none":
            _pin({"write": 30}, 1, 1, "499f6c4acc6f378f", replayed=True),
        "write@2=-1/EIO":
            _pin({"write": 30}, 2, 1, "adeb6e86c524afe6", replayed=True),
        "write@3=-1/EAGAIN":
            _pin({"write": 30}, 3, 1, "34bd3be0befd4c82", replayed=True),
        "write@4=-1/EINVAL":
            _pin({"write": 30}, 4, 1, "df1ec62fdd574c00", replayed=True),
        "write@5=-1/ENOSPC":
            _pin({"write": 30}, 5, 1, "fab2f7df14f8af14", replayed=True),
    },
    "pidgin-resolver": {
        "write@5=-1/EIO": _pin({"write": 12}, 5, 1, "f3bb0e27c75a57a9"),
        "write@6=-1/EIO": _pin({"write": 12}, 6, 1, "a3ff7ea1b52d1342"),
    },
    "platforms": {
        "linux-x86":
            _pin({"close": 2, "getpid": 6, "lseek": 2, "read": 2,
                  "unlink": 1, "write": 5},
                 15, 8, "7c8ce1ff62db534b"),
        "solaris-sparc":
            _pin({"close": 2, "getpid": 6, "lseek": 2, "read": 2,
                  "unlink": 1, "write": 5},
                 15, 8, "7c8ce1ff62db534b"),
        "windows-x86":
            _pin({"close": 2, "getpid": 6, "lseek": 2, "read": 2,
                  "unlink": 1, "write": 5},
                 15, 8, "7c8ce1ff62db534b"),
    },
    "stacked": {
        "inner": _pin({"close": 4, "getpid": 6}, 7, 2, "c4efb15ab2c858a1"),
        "outer": _pin({"close": 5, "getpid": 6}, 2, 1, "b9e81679e66c7876"),
    },
}


# -- tests --------------------------------------------------------------------


class TestInterpositionEquivalence:
    def test_minidb_golden_run(self):
        _lfi, observed = minidb_golden()
        assert observed == EXPECTED["minidb-golden"]

    def test_minidb_sentinel_golden_never_enters_the_controller(
            self, monkeypatch):
        entered = []
        original = Injector.eval_host

        def counting(self, *args, **kwargs):
            entered.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Injector, "eval_host", counting)
        lfi, _observed = minidb_golden()
        assert entered == []
        assert lfi.engine.call_counts == {
            "open": 3, "write": 7, "fsync": 4, "lseek": 4, "read": 4,
            "close": 1}

    def test_minidb_sampled_cases(self):
        assert minidb_cases() == EXPECTED["minidb-cases"]

    def test_miniweb_snapshot_replayed_cases(self):
        observed = miniweb_snapshot_cases()
        assert any(o.get("replayed") for o in observed.values())
        assert observed == EXPECTED["miniweb-snapshot"]

    def test_pidgin_fault_in_forked_resolver(self):
        from repro.core.controller.stubs import stub_slots
        observed, clients = pidgin_resolver_cases()
        assert observed == EXPECTED["pidgin-resolver"]
        # writes 1-4 are the parent's requests and 5-12 the resolver
        # child's responses: each process counts its own writes in its
        # own shim TLS block, and the controller's ordinals (the ones
        # that picked the faulted write) are the sum over both
        client = clients[-1]
        counts = []
        for proc in (client.proc, client.resolver.proc):
            shim = proc.modules[0]
            assert shim.image.soname.startswith("liblfi_shim")
            counts.append(proc.memory.read_u32(shim.tls_base
                                               + stub_slots(0)[0]))
        assert counts[1] > 0
        assert sum(counts) == observed["write@6=-1/EIO"]["calls"]["write"]

    @pytest.mark.parametrize("platform",
                             ["linux-x86", "solaris-sparc", "windows-x86"])
    def test_platform_sessions(self, platform):
        assert platform_sessions()[platform] == \
            EXPECTED["platforms"][platform]

    def test_stacked_controllers(self):
        assert stacked_controllers() == EXPECTED["stacked"]
