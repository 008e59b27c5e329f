"""Linked translations: exact equivalence with the step path.

The translator (runtime/traces.py) compiles every block entry together
with its statically predicted successors into one generated function,
closing loops into native ``while`` loops.  Like every execution path,
it is an optimization with a hard contract: registers, memory, flags,
``eip``, ``instructions_executed``, fault addresses, coverage counts
and the campaign event stream must be indistinguishable from the
per-instruction interpreter.  These tests pin that contract, including
the awkward edges — budgets expiring exactly at block seams inside a
linked function, and faults landing mid-chain.
"""

from __future__ import annotations

import pytest

import repro.runtime.traces as traces
from repro.errors import MemoryFault, RuntimeFault
from repro.isa import Imm, Label, Mem, Reg, ins, label
from repro.kernel import Kernel
from repro.platform import LINUX_X86
from repro.runtime import CODE_CACHE, Process
from repro.runtime.blocks import scan_block
from repro.runtime.cpu import Cpu

from tests.test_block_compiler import (_image, _instrumented_campaign,
                                       _loop_items, _result_fingerprint,
                                       _signature, _state)


@pytest.fixture(autouse=True)
def _restore_block_mode():
    """Every test starts (and leaves) with the translated path on."""
    saved = Cpu.use_blocks
    yield
    Cpu.use_blocks = saved


def _make_proc(items, *, mode, soname="libblk.so"):
    """A loaded process on the translated or the step path."""
    proc = Process(Kernel(), LINUX_X86)
    proc.load(_image(items, soname=soname))
    if mode == "step":
        proc.cpu.use_blocks = False
    elif mode != "translated":
        raise AssertionError(mode)
    return proc


def _linked(proc):
    """The translations this CPU ran that link blocks or close a loop."""
    return [t for t in proc.cpu._blocks.values()
            if t is not None and t.linked]


MODES = ("translated", "step")

_FAULT_ITEMS = [
    label("f"),
    ins("mov", Reg("ecx"), Imm(200)),
    ins("mov", Reg("edx"), Reg("esp")),
    label("loop"),
    ins("cmp", Reg("ecx"), Imm(40)),
    ins("jnz", Label("ok")),
    ins("mov", Reg("edx"), Imm(0x500)),     # unmapped on iter 161
    label("ok"),
    ins("mov", Reg("eax"), Mem(base="edx")),
    ins("sub", Reg("ecx"), Imm(1)),
    ins("cmp", Reg("ecx"), Imm(0)),
    ins("jnz", Label("loop")),
    ins("ret"),
]


class TestTraceEquivalence:
    def test_hot_loop_identical_across_tiers(self):
        outs = {}
        for mode in MODES:
            proc = _make_proc(_loop_items(200), mode=mode)
            rc = proc.libcall("f")
            outs[mode] = (rc, proc.cpu.eip, _state(proc))
            if mode == "translated":
                assert _linked(proc), "loop never ran as a linked function"
        assert outs["translated"] == outs["step"]

    def test_memory_fault_mid_trace_identical(self):
        """A fault firing inside a linked function must leave eip,
        registers and the instruction count exactly where the step path
        leaves them."""
        outs = {}
        for mode in MODES:
            proc = _make_proc(_FAULT_ITEMS, mode=mode)
            with pytest.raises(MemoryFault):
                proc.libcall("f")
            outs[mode] = (proc.cpu.eip, _state(proc))
            if mode == "translated":
                assert _linked(proc)
        assert outs["translated"] == outs["step"]

    def test_budget_exhaustion_sweep_identical(self):
        """Budgets expiring anywhere — mid-chain, at block seams, one
        short of a seam — must land the fault on the exact instruction
        the step path reports."""
        for budget in range(2, 48):
            outs = {}
            for mode in MODES:
                proc = _make_proc(_loop_items(1000), mode=mode)
                with pytest.raises(RuntimeFault) as err:
                    proc.libcall("f", max_steps=budget)
                assert "budget exhausted" in str(err.value)
                outs[mode] = (proc.cpu.eip, _state(proc))
            assert outs["translated"] == outs["step"], f"budget={budget}"

    def test_budget_exactly_block_count_identical(self):
        """The regression the seam guards exist for: when the budget
        equals a block's count exactly (alone or after the blocks linked
        ahead of it), the guard must bail to the single-step fallback,
        never run the block."""
        warm = _make_proc(_loop_items(1000), mode="translated")
        with pytest.raises(RuntimeFault):
            warm.libcall("f", max_steps=500)
        assert _linked(warm)
        counts = sorted({scan_block(addr, warm.code_cache).count
                         for addr, t in warm.cpu._blocks.items()
                         if t is not None})
        assert len(counts) >= 2
        budgets = sorted(set(counts)
                         | {a + b for a in counts for b in counts}
                         | {a + 2 * b for a in counts for b in counts})
        for budget in budgets:
            outs = {}
            for mode in MODES:
                proc = _make_proc(_loop_items(1000), mode=mode)
                with pytest.raises(RuntimeFault) as err:
                    proc.libcall("f", max_steps=budget)
                assert "budget exhausted" in str(err.value)
                outs[mode] = (proc.cpu.eip, _state(proc))
            assert outs["translated"] == outs["step"], f"budget={budget}"

    def test_budget_sweep_through_a_fault_identical(self):
        """Budget exhaustion and a memory fault competing inside the
        same linked loop: whichever comes first must match the step
        path."""
        kinds = set()
        # the fault is the 966th instruction; straddle it
        for budget in [100, 5000] + list(range(955, 975)):
            outs = {}
            for mode in MODES:
                proc = _make_proc(_FAULT_ITEMS, mode=mode)
                with pytest.raises((MemoryFault, RuntimeFault)) as err:
                    proc.libcall("f", max_steps=budget)
                outs[mode] = (type(err.value), proc.cpu.eip, _state(proc))
            assert outs["translated"] == outs["step"], f"budget={budget}"
            kinds.add(outs["step"][0])
        assert kinds == {MemoryFault, RuntimeFault}


class TestTraceCoverage:
    _ITEMS = [
        label("f"),
        ins("mov", Reg("ecx"), Imm(100)),
        ins("mov", Reg("eax"), Imm(0)),
        label("loop"),
        ins("add", Reg("eax"), Imm(3)),
        ins("cmp", Reg("ecx"), Imm(50)),
        ins("jle", Label("skip")),              # taken for iters 51..100
        ins("add", Reg("eax"), Imm(1)),
        label("skip"),
        ins("sub", Reg("ecx"), Imm(1)),
        ins("cmp", Reg("ecx"), Imm(0)),
        ins("jnz", Label("loop")),
        ins("ret"),
    ]

    def _coverage(self):
        CODE_CACHE.clear()
        try:
            proc = _make_proc(self._ITEMS, mode="translated",
                              soname="libcov.so")
            proc.cpu.coverage = {}
            rc = proc.libcall("f")
            return rc, dict(proc.cpu.coverage), bool(_linked(proc))
        finally:
            CODE_CACHE.clear()

    def test_coverage_counts_match_unlinked_dispatch(self, monkeypatch):
        """A linked function must record the same per-entry coverage the
        dispatcher records when every block runs on its own — side exits
        included."""
        rc, linked_cov, any_linked = self._coverage()
        assert any_linked
        monkeypatch.setattr(traces, "MAX_LINKED_BLOCKS", 1)
        rc_alone, alone_cov, any_linked = self._coverage()
        assert not any_linked
        assert (rc, linked_cov) == (rc_alone, alone_cov)
        assert sum(linked_cov.values()) > 100


class TestTraceCacheBehaviour:
    def test_linked_translations_shared_across_processes(self):
        """A second process over the same code runs the very same
        generated functions: nothing is re-linked, and no per-CPU bind
        step exists."""
        CODE_CACHE.clear()
        proc = _make_proc(_loop_items(50), mode="translated")
        proc.libcall("f")
        stats = CODE_CACHE.stats()
        assert stats["traces_linked"] >= 1
        assert stats["blocks_compiled"] >= stats["traces_linked"]
        proc2 = _make_proc(_loop_items(50), mode="translated")
        proc2.libcall("f")
        stats2 = CODE_CACHE.stats()
        assert stats2["traces_linked"] == stats["traces_linked"]
        assert stats2["blocks_compiled"] == stats["blocks_compiled"]
        assert stats2["template_hits"] > stats["template_hits"]
        shared = {a: t for a, t in proc.cpu._blocks.items() if t is not None}
        assert shared
        for addr, t in shared.items():
            assert proc2.cpu._blocks[addr] is t
        assert (proc.cpu.eip, _state(proc)) == (proc2.cpu.eip, _state(proc2))


class TestTraceStatsSurface:
    def test_repro_stats_renders_trace_cache_effectiveness(
            self, libc_linux, libc_profiles_linux, tmp_path, capsys):
        """``repro stats`` reconstructs the translation cache's counters
        (translations, linked ones, hits) from the JSONL stream alone."""
        from repro.cli import main
        from repro.core.campaign import enumerate_cases, run_campaign
        from repro.obs import Telemetry
        from repro.obs.events import read_events, summarize_events

        CODE_CACHE.clear()
        loop_image = _image(_loop_items(50), soname="libloop.so")

        def factory(lfi):
            def session():
                proc = lfi.make_process(
                    Kernel(), [libc_linux.image, loop_image])
                proc.libcall("f")           # hot loop: a linked function
                rc = proc.libcall("close", 99)
                return 1 if rc != 0 else 0
            return session

        log = tmp_path / "run.jsonl"
        telemetry = Telemetry.to_file(log)
        cases = enumerate_cases(libc_profiles_linux, functions=["close"],
                                max_codes_per_function=2)
        run_campaign("tracestats", factory, LINUX_X86,
                     libc_profiles_linux, cases, telemetry=telemetry)
        telemetry.finalize()
        telemetry.close()

        summary = summarize_events(read_events(log))
        code = summary["code_cache"]
        assert code["blocks_compiled"] > 0
        assert code["traces_linked"] >= 1
        assert code["hit_ratio"] is None or 0.0 <= code["hit_ratio"] <= 1.0

        assert main(["stats", str(log)]) == 0
        out = capsys.readouterr().out
        assert "code cache:" in out
        assert "blocks translated" in out
        assert "with linked successors" in out


class TestTraceCampaignDifferential:
    def test_campaign_traces_on_equals_traces_off(self, libc_linux,
                                                  libc_profiles_linux):
        """Translator on (linked functions) vs off (step path): the
        same campaign yields the same per-case results, instruction
        counts and event stream."""
        Cpu.use_blocks = True
        on_report, on_sink = _instrumented_campaign(
            libc_linux, libc_profiles_linux)
        Cpu.use_blocks = False
        off_report, off_sink = _instrumented_campaign(
            libc_linux, libc_profiles_linux)
        assert _result_fingerprint(on_report) \
            == _result_fingerprint(off_report)
        assert _signature(on_sink) == _signature(off_sink)
