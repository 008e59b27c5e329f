"""Dynamic linker semantics: load order, interposition, RTLD_NEXT, TLS."""

import pytest

from repro.binfmt import SharedObject, Symbol
from repro.errors import LoaderError
from repro.kernel import Kernel
from repro.layout import DATA_REGION_OFFSET, FIRST_MODULE_BASE
from repro.platform import LINUX_X86, SOLARIS_SPARC
from repro.runtime import Process
from repro.toolchain import LibraryBuilder, minc


def _const_lib(soname, value, fn="f"):
    builder = LibraryBuilder(soname)
    builder.simple(fn, 0, minc.Return(minc.Const(value)))
    return builder.build(LINUX_X86).image


class TestLoading:
    def test_module_bases_are_spaced(self, kernel, libc_linux):
        proc = Process(kernel, LINUX_X86)
        m0 = proc.load(_const_lib("a.so", 1))
        m1 = proc.load(_const_lib("b.so", 2))
        assert m0.base == FIRST_MODULE_BASE
        assert m1.base > m0.base
        assert m1.data_base == m1.base + DATA_REGION_OFFSET

    def test_wrong_machine_rejected(self, kernel):
        builder = LibraryBuilder("s.so")
        builder.simple("f", 0, minc.Return(minc.Const(0)))
        sparc_image = builder.build(SOLARIS_SPARC).image
        proc = Process(kernel, LINUX_X86)
        with pytest.raises(LoaderError):
            proc.load(sparc_image)

    def test_module_by_soname(self, kernel):
        proc = Process(kernel, LINUX_X86)
        proc.load(_const_lib("a.so", 1))
        assert proc.module_by_soname("a.so").image.soname == "a.so"
        with pytest.raises(LoaderError):
            proc.module_by_soname("nope.so")

    def test_tcb_self_pointer_initialized(self, kernel):
        proc = Process(kernel, LINUX_X86)
        module = proc.load(_const_lib("a.so", 1))
        assert proc.memory.read_u32(module.tls_base) == module.tls_base


class TestResolution:
    def test_first_provider_wins(self, kernel):
        proc = Process(kernel, LINUX_X86)
        proc.load(_const_lib("one.so", 111))
        proc.load(_const_lib("two.so", 222))
        assert proc.libcall("f") == 111

    def test_preload_interposes(self, kernel):
        """LD_PRELOAD semantics (§5.1)."""
        proc = Process(kernel, LINUX_X86)
        proc.load_program([_const_lib("orig.so", 1)],
                          preload=[_const_lib("shim.so", 99)])
        assert proc.libcall("f") == 99

    def test_windows_late_injection_interposes(self, kernel):
        """WriteProcessMemory/CreateRemoteThread semantics (§5.1)."""
        proc = Process(kernel, LINUX_X86)
        proc.load(_const_lib("orig.so", 1))
        assert proc.libcall("f") == 1        # PLT-level caches may be warm
        proc.inject_library(_const_lib("shim.so", 99))
        assert proc.libcall("f") == 99       # caches were flushed

    def test_rtld_next_skips_shim(self, kernel):
        proc = Process(kernel, LINUX_X86)
        shim = proc.load(_const_lib("shim.so", 99))
        proc.load(_const_lib("orig.so", 1))
        addr = proc.resolve_next("f", shim.index)
        orig_module = proc.module_for_addr(addr)
        assert orig_module.image.soname == "orig.so"

    def test_rtld_next_respects_resolution_order(self, kernel):
        proc = Process(kernel, LINUX_X86)
        proc.load(_const_lib("orig.so", 1))
        shim = proc.inject_library(_const_lib("shim.so", 99))
        addr = proc.resolve_next("f", shim.index)
        assert proc.module_for_addr(addr).image.soname == "orig.so"

    def test_provider_order_preload_injection_duplicates(self, kernel):
        """Every provider list stays in resolution order: a preloaded
        shim first, a front-injected shim ahead of everything, and
        duplicate exports behind them in load order."""
        proc = Process(kernel, LINUX_X86)
        proc.load_program([_const_lib("one.so", 1), _const_lib("two.so", 2),
                           _const_lib("g.so", 7, fn="g")],
                          preload=[_const_lib("pre.so", 3)])
        injected = proc.inject_library(_const_lib("win.so", 4))
        proc.load(_const_lib("late.so", 5))

        def sonames(symbol):
            return [proc.module_for_addr(addr).image.soname
                    for _prio, _index, addr in proc._providers[symbol]]

        assert sonames("f") == ["win.so", "pre.so", "one.so", "two.so",
                                "late.so"]
        assert sonames("g") == ["g.so"]
        assert proc.libcall("f") == 4
        assert proc.module_for_addr(proc.resolve_next(
            "f", injected.index)).image.soname == "pre.so"
        assert proc.module_for_addr(proc.resolve_next(
            "f", proc.module_by_soname("one.so").index)).image.soname \
            == "two.so"

    def test_rtld_next_exhausted(self, kernel):
        proc = Process(kernel, LINUX_X86)
        only = proc.load(_const_lib("only.so", 1))
        with pytest.raises(LoaderError):
            proc.resolve_next("f", only.index)

    def test_undefined_symbol(self, kernel):
        proc = Process(kernel, LINUX_X86)
        with pytest.raises(LoaderError):
            proc.lookup("ghost")

    def test_cross_library_import_resolution(self, kernel, libc_linux):
        builder = LibraryBuilder("wrapper.so", needed=("libc.so.6",))
        builder.simple("mypid", 0, minc.Return(minc.Call("getpid", ())))
        proc = Process(kernel, LINUX_X86)
        proc.load_program([builder.build(LINUX_X86).image,
                           libc_linux.image])
        assert proc.libcall("mypid") == proc.kstate.pid


class TestSymbolization:
    def test_symbol_for_addr(self, kernel):
        proc = Process(kernel, LINUX_X86)
        module = proc.load(_const_lib("a.so", 1))
        sym = module.image.find_export("f")
        assert proc.symbol_for_addr(module.base + sym.offset) == "f"
        assert proc.symbol_for_addr(0x100) is None

    def test_app_frames_in_backtrace(self, kernel):
        proc = Process(kernel, LINUX_X86)
        with proc.frame("refresh_files"):
            frames = proc.backtrace_frames()
        assert frames[-1] == (0, "refresh_files")
        assert proc.backtrace_frames() == []


class TestScratch:
    def test_cstr_roundtrip(self, kernel):
        proc = Process(kernel, LINUX_X86)
        addr = proc.cstr("/etc/passwd")
        assert proc.read_cstr(addr) == "/etc/passwd"

    def test_scratch_allocations_disjoint(self, kernel):
        proc = Process(kernel, LINUX_X86)
        a = proc.scratch_alloc(100)
        b = proc.scratch_alloc(100)
        assert abs(b - a) >= 100


class TestSparcCalls:
    def test_register_argument_passing(self, kernel_image_sparc, libc_sparc):
        kernel = Kernel(os_name="Solaris")
        proc = Process(kernel, SOLARIS_SPARC)
        builder = LibraryBuilder("m.so")
        builder.simple("sub", 2,
                       minc.Return(minc.BinOp("-", minc.Param(0),
                                              minc.Param(1))))
        builder_img = builder.build(SOLARIS_SPARC).image
        proc.load(builder_img)
        assert proc.libcall("sub", 50, 8) == 42
