"""The LFI controller (§5): shim synthesis, attachment, test campaigns.

Usage mirrors the paper's two-command flow::

    profiles = Profiler(...).profile_all()          # command 1: profile
    plan = random_plan(profiles, probability=0.1)
    lfi = Controller(platform, profiles, plan)
    outcome = lfi.run_test(my_app_script)            # command 2: test

``attach`` interposes the shim per the platform's mechanism —
LD_PRELOAD-style early loading on Linux/Solaris, remote-thread late
injection on Windows (§5.1) — and ``run_test`` monitors the program
under test, records the log, and emits replay scripts (§5.2).
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...binfmt import SharedObject
from ...errors import ControllerError, GuestAbort, MemoryFault, RuntimeFault
from ...kernel import Kernel, ProcessExit
from ...obs.telemetry import as_telemetry
from ...platform import PRELOAD, Platform
from ...runtime import Process
from ..profiles import LibraryProfile
from ..scenario.model import Plan
from .injector import Injector
from .logbook import Logbook
from .replay import replay_script
from .stubs import EVAL_SYMBOL, synthesize_shim
from .triggers import TriggerEngine

#: Outcome statuses (§5: "whether it terminates normally or with an
#: error exit code") plus the crash signals the experiments observe.
STATUS_NORMAL = "normal"
STATUS_ERROR_EXIT = "error-exit"
STATUS_SIGSEGV = "SIGSEGV"
STATUS_SIGABRT = "SIGABRT"
STATUS_HUNG = "hung"
#: A pool worker died before reporting (crash isolation, see core.exec).
STATUS_CRASHED = "crashed"

#: Schema tag shared by every ``to_dict()``/``to_json()`` report shape
#: (TestOutcome, TestReport, CampaignReport, RunSummary).
REPORT_SCHEMA = "repro.report/1"


@dataclass
class TestOutcome:
    """Result of one monitored test run."""

    __test__ = False           # "Test" prefix is domain, not pytest

    test_id: str
    status: str
    exit_code: Optional[int] = None
    detail: str = ""
    injections: int = 0
    replay_xml: str = ""

    @property
    def crashed(self) -> bool:
        return self.status in (STATUS_SIGSEGV, STATUS_SIGABRT,
                               STATUS_CRASHED)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "test",
            "test_id": self.test_id,
            "outcome": self.status,
            "exit_code": self.exit_code,
            "detail": self.detail,
            "injections": self.injections,
            "crashed": self.crashed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass
class TestReport:
    """Aggregated campaign results (the §5.2 test log)."""

    __test__ = False           # "Test" prefix is domain, not pytest

    outcomes: List[TestOutcome] = field(default_factory=list)
    log_text: str = ""
    app: str = ""
    duration: float = 0.0

    def crashes(self) -> List[TestOutcome]:
        return [o for o in self.outcomes if o.crashed]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "test-report",
            "app": self.app,
            "outcome": "crashes" if self.crashes() else "ok",
            "duration": round(self.duration, 6),
            "tests": len(self.outcomes),
            "crashes": len(self.crashes()),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


class Controller:
    """Drives fault-injection experiments from profiles + a scenario."""

    #: itertools.count is effectively atomic under the GIL, so parallel
    #: campaign workers can construct controllers concurrently
    _instances = itertools.count(1)

    def __init__(self, platform: Platform,
                 profiles: Dict[str, LibraryProfile],
                 plan: Plan,
                 *, seed: Optional[int] = None,
                 telemetry=None,
                 coverage: bool = False) -> None:
        self.platform = platform
        self.profiles = dict(profiles)
        self.plan = plan
        rng_seed = seed if seed is not None else plan.seed
        self.engine = TriggerEngine(plan, random.Random(rng_seed))
        self.logbook = Logbook()
        self.functions = plan.functions()
        self.telemetry = as_telemetry(telemetry)
        self.injector = Injector(self.engine, self.logbook, self.functions,
                                 telemetry=self.telemetry)
        # unique support symbol + soname so controllers can stack in one
        # process, each shim chaining to the next via RTLD_NEXT (§5.1)
        self._ordinal = next(Controller._instances)
        self.eval_symbol = f"{EVAL_SYMBOL}_{self._ordinal}"
        self.shim, self.stub_source = synthesize_shim(
            self.functions, platform,
            soname=f"liblfi_shim{self._ordinal}.so",
            eval_symbol=self.eval_symbol)
        self._test_counter = 0
        #: arm per-process block-coverage accounting on attach
        self.coverage_enabled = coverage
        #: every process this controller interposed on, for aggregate
        #: execution statistics (campaign MIPS accounting)
        self.processes: List[Process] = []

    # -- interposition ------------------------------------------------------

    def attach(self, proc: Process,
               libraries: Sequence[SharedObject]) -> None:
        """Interpose the shim and load the application's libraries."""
        self.processes.append(proc)
        if self.coverage_enabled and proc.cpu.coverage is None:
            proc.cpu.coverage = {}
        proc.register_host(self.eval_symbol, self.injector.eval_host,
                           raw=True)
        if self.platform.interposition == PRELOAD:
            shim_module = proc.load(self.shim)
            for lib in libraries:
                proc.load(lib)
        else:
            for lib in libraries:
                proc.load(lib)
            shim_module = proc.inject_library(self.shim)
        self.injector.shim_module_index = shim_module.index

    def make_process(self, kernel: Kernel,
                     libraries: Sequence[SharedObject]) -> Process:
        """Convenience: new process with the shim already interposed."""
        proc = Process(kernel, self.platform)
        self.attach(proc, libraries)
        return proc

    # -- monitored execution ---------------------------------------------

    def run_test(self, test_fn: Callable[[], Optional[int]],
                 *, test_id: Optional[str] = None) -> TestOutcome:
        """Run a developer-provided workload script under monitoring.

        ``test_fn`` drives the program under test (it typically creates a
        process via ``make_process`` and exercises a workload).  Returns
        the outcome with status, exit code and the replay script for the
        injections this test performed.
        """
        self._test_counter += 1
        tid = test_id or f"t{self._test_counter}"
        self.injector.test_id = tid
        before = self.injector.injection_count
        status, exit_code, detail = STATUS_NORMAL, 0, ""
        try:
            result = test_fn()
            if isinstance(result, int) and result != 0:
                status, exit_code = STATUS_ERROR_EXIT, result
        except ProcessExit as exc:
            exit_code = exc.status
            if exc.status != 0:
                status = STATUS_ERROR_EXIT
            detail = str(exc)
        except GuestAbort as exc:
            status, detail = STATUS_SIGABRT, str(exc)
        except MemoryFault as exc:
            status, detail = STATUS_SIGSEGV, str(exc)
        except RuntimeFault as exc:
            status, detail = STATUS_HUNG, str(exc)
        injected = self.injector.injection_count - before
        outcome = TestOutcome(
            test_id=tid, status=status, exit_code=exit_code, detail=detail,
            injections=injected,
            replay_xml=replay_script(self.logbook.for_test(tid),
                                     name=f"replay-{tid}"))
        if self.telemetry.enabled:
            self.telemetry.events.emit(
                "test", test=tid, status=status, exit_code=exit_code,
                injections=injected,
                evaluations=self.engine.evaluations,
                seed=self.plan.seed)
        return outcome

    def run_campaign(self, test_fns: Sequence[Callable[[], Optional[int]]],
                     *, app: str = "") -> TestReport:
        """Run a series of monitored tests and aggregate the report."""
        started = time.perf_counter()
        report = TestReport(app=app)
        for fn in test_fns:
            report.outcomes.append(self.run_test(fn))
        report.log_text = self.logbook.render()
        report.duration = time.perf_counter() - started
        return report

    # -- statistics -------------------------------------------------------

    @property
    def injections(self) -> int:
        return self.injector.injection_count

    @property
    def evaluations(self) -> int:
        return self.engine.evaluations

    @property
    def instructions_executed(self) -> int:
        """Guest instructions run by every attached process."""
        return sum(p.cpu.instructions_executed for p in self.processes)

    def coverage_map(self) -> Dict[int, int]:
        """Merged block-coverage counts across every attached process.

        Keys are block entry addresses, values dispatch counts.  Empty
        when coverage was not armed (or no translated block ran).
        """
        merged: Dict[int, int] = {}
        for p in self.processes:
            cov = p.cpu.coverage
            if not cov:
                continue
            for addr, count in cov.items():
                merged[addr] = merged.get(addr, 0) + count
        return merged
