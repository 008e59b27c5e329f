"""Processes, module loading and dynamic symbol resolution.

This is the reproduction's dynamic linker (§5.1):

* Modules load in order; symbol lookup is first-provider-wins across the
  whole load list (ELF flat namespace).  ``LD_PRELOAD`` is therefore just
  "load the shim first" — exactly how LFI interposes on Linux/Solaris.
* ``inject_library`` models the Windows route (WriteProcessMemory +
  CreateRemoteThread + LoadLibrary): the shim loads *late* but its
  exports are spliced in front of the resolution order and PLT caches
  are flushed.
* ``resolve_next`` is ``dlsym(RTLD_NEXT, ...)``: the next definition
  after a given module, which stubs use to find the original function.

Applications in this ecosystem are Python programs driving ``libcall``;
every interaction with libc and other libraries executes real guest code
in the VM, so interception, triggers and side effects behave exactly as
they would under the real tool.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..binfmt import SharedObject
from ..errors import GuestAbort, LoaderError
from ..isa import abi_for
from ..kernel import Kernel, KProcState
from ..layout import (DATA_REGION_OFFSET, FIRST_MODULE_BASE,
                      HOST_REGION_BASE, MODULE_SPACING, RETURN_SENTINEL,
                      STACK_SIZE, STACK_TOP, TLS_BLOCK_SPACING,
                      TLS_REGION_BASE, module_base)
from ..platform import Platform
from .codecache import CODE_CACHE, ModuleCode
from .cpu import Cpu, HostFunction, ShadowFrame, sgn32
from .memory import Memory

_HOST_REGION = HOST_REGION_BASE
_SCRATCH_BASE = 0xA0000000
_SCRATCH_SIZE = 0x400000
#: provider entries are (priority, module index, address); resolution
#: order is priority, then module index
_RESOLUTION_ORDER = itemgetter(0, 1)


@dataclass
class LoadedModule:
    """A SELF image mapped into a process."""

    image: SharedObject
    index: int
    base: int
    tls_base: int

    @property
    def data_base(self) -> int:
        return self.base + DATA_REGION_OFFSET

    @property
    def text_end(self) -> int:
        return self.base + len(self.image.text)

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + MODULE_SPACING


class Process:
    """One guest process: memory, CPU, loaded modules, kernel state."""

    def __init__(self, kernel: Kernel, platform: Platform) -> None:
        self.kernel = kernel
        self.platform = platform
        self.abi = abi_for(platform.machine)
        self.memory = Memory()
        self.kstate = KProcState(pid=kernel.new_pid())
        kernel.processes.append(self)
        self.modules: List[LoadedModule] = []
        self._module_code: Dict[int, ModuleCode] = {}
        self.host_functions: Dict[int, HostFunction] = {}
        self._next_host_addr = _HOST_REGION
        # symbol -> ordered provider list of (priority, addr); lower
        # priority resolves first.  Load order assigns 10, 20, 30, ...
        self._providers: Dict[str, List[Tuple[int, int, int]]] = {}
        self._next_priority = 10
        self._plt_cache: Dict[Tuple[int, int], int] = {}
        self.cpu = Cpu(self)
        self.memory.map_region(STACK_TOP - STACK_SIZE, STACK_SIZE)
        self.memory.map_region(_SCRATCH_BASE, _SCRATCH_SIZE)
        self._scratch_next = _SCRATCH_BASE
        self.cpu.regs[self.abi.stack_pointer] = STACK_TOP - 64
        self.app_stack: List[str] = []
        self.exit_status: Optional[int] = None

    # -- loading --------------------------------------------------------

    def load(self, image: SharedObject, *,
             front: bool = False) -> LoadedModule:
        """Map one image; ``front`` splices its exports ahead of all."""
        if image.machine != self.platform.machine:
            raise LoaderError(
                f"{image.soname} is {image.machine} code, process is "
                f"{self.platform.machine}")
        index = len(self.modules)
        base = module_base(index)
        tls_base = TLS_REGION_BASE + index * TLS_BLOCK_SPACING
        module = LoadedModule(image, index, base, tls_base)
        self.modules.append(module)

        if len(image.text) > DATA_REGION_OFFSET:
            raise LoaderError(f"{image.soname}: .text too large")
        if image.text:
            self.memory.map_region(base, len(image.text))
            self.memory.write(base, image.text)
        data_size = max(len(image.data), 16)
        self.memory.map_region(module.data_base, data_size)
        if image.data:
            self.memory.write(module.data_base, image.data)
        tls_size = max(image.tls_size, 16)
        self.memory.map_region(tls_base, tls_size)
        self.memory.write_u32(tls_base, tls_base)     # TCB self-pointer

        self._predecode(module)
        priority = 0 if front else self._next_priority
        if not front:
            self._next_priority += 10
        # export names are unique per image: each provider list gains
        # one entry, and only lists with rivals need re-sorting
        contested = []
        for sym in image.exports:
            providers = self._providers.setdefault(sym.name, [])
            providers.append((priority, index, base + sym.offset))
            if len(providers) > 1:
                contested.append(providers)
        for providers in contested:
            providers.sort(key=_RESOLUTION_ORDER)
        if front:
            self._plt_cache.clear()
        return module

    def load_program(self, libraries: Sequence[SharedObject],
                     preload: Sequence[SharedObject] = ()) -> None:
        """Load shims (LD_PRELOAD) then the regular libraries, in order."""
        for shim in preload:
            self.load(shim)
        for lib in libraries:
            self.load(lib)

    def inject_library(self, image: SharedObject) -> LoadedModule:
        """Windows-style late injection with front-of-line resolution."""
        return self.load(image, front=True)

    def _predecode(self, module: LoadedModule) -> None:
        # decoding and translation are shared across processes —
        # identical code at the same base reuses one ModuleCode
        mc = CODE_CACHE.module_code(module.image, module.base,
                                    module.tls_base)
        self._module_code[module.base] = mc

    def _code_at(self, addr: int) -> Optional[ModuleCode]:
        if addr < FIRST_MODULE_BASE:
            return None
        return self._module_code.get(FIRST_MODULE_BASE + (
            (addr - FIRST_MODULE_BASE) // MODULE_SPACING) * MODULE_SPACING)

    def decoded(self, addr: int) -> Optional[Tuple]:
        """The predecoded ``(instruction, size, branch target)`` at
        ``addr`` (None when no instruction starts there)."""
        mc = self._code_at(addr)
        return None if mc is None else mc.entries.get(addr)

    @property
    def code_cache(self) -> Dict[int, Tuple]:
        """Every loaded module's predecoded entries, merged (a copy)."""
        merged: Dict[int, Tuple] = {}
        for mc in self._module_code.values():
            merged.update(mc.entries)
        return merged

    def block_template(self, addr: int):
        """The shared translation entered at ``addr`` (None when the
        address has no module or no block)."""
        mc = self._code_at(addr)
        return None if mc is None else mc.block(addr)

    # -- symbols ----------------------------------------------------------

    def host_entry(self, name: str, fn: Callable, *,
                   raw: bool = False) -> int:
        """Bind a Python callable at a fresh host address without a
        symbol: guest code reaches it only through a code pointer."""
        addr = self._next_host_addr
        self._next_host_addr += 4
        self.host_functions[addr] = HostFunction(name, fn, raw)
        return addr

    def register_host(self, name: str, fn: Callable, *,
                      raw: bool = False, front: bool = False) -> int:
        """Bind a Python callable as a guest-visible symbol."""
        addr = self.host_entry(name, fn, raw=raw)
        priority = 0 if front else self._next_priority
        if not front:
            self._next_priority += 10
        providers = self._providers.setdefault(name, [])
        providers.append((priority, -1, addr))
        providers.sort(key=_RESOLUTION_ORDER)
        if front:
            self._plt_cache.clear()
        return addr

    def lookup(self, symbol: str) -> int:
        providers = self._providers.get(symbol)
        if not providers:
            raise LoaderError(f"undefined symbol {symbol!r}")
        return providers[0][2]

    def resolve_next(self, symbol: str, after_module_index: int) -> int:
        """dlsym(RTLD_NEXT): next provider in *resolution order* after the
        given module.  Resolution order (not load order) is what matters:
        a Windows-style late-injected shim sits first in resolution order
        even though it loaded last (§5.1)."""
        providers = self._providers.get(symbol, ())
        seen_self = False
        for _prio, index, addr in providers:
            if seen_self:
                return addr
            if index == after_module_index:
                seen_self = True
        raise LoaderError(
            f"RTLD_NEXT: no definition of {symbol!r} after module "
            f"{after_module_index}")

    def plt_resolve(self, call_site: int, slot: int) -> int:
        module = self.module_for_addr(call_site)
        if module is None:
            raise LoaderError(f"PLT call from unknown code {call_site:#x}")
        key = (module.index, slot)
        cached = self._plt_cache.get(key)
        if cached is not None:
            return cached
        try:
            symbol = module.image.imports[slot]
        except IndexError:
            raise LoaderError(
                f"{module.image.soname}: bad import slot {slot}") from None
        addr = self.lookup(symbol)
        self._plt_cache[key] = addr
        return addr

    def module_for_addr(self, addr: int) -> Optional[LoadedModule]:
        if addr < FIRST_MODULE_BASE:
            return None
        index = (addr - FIRST_MODULE_BASE) // MODULE_SPACING
        if index < len(self.modules):
            return self.modules[index]
        return None

    def module_by_soname(self, soname: str) -> LoadedModule:
        for module in self.modules:
            if module.image.soname == soname:
                return module
        raise LoaderError(f"module {soname!r} not loaded")

    def tls_base_for_addr(self, addr: int) -> int:
        module = self.module_for_addr(addr)
        if module is None:
            raise LoaderError(f"TLS access from unknown code {addr:#x}")
        return module.tls_base

    def symbol_for_addr(self, addr: int) -> Optional[str]:
        module = self.module_for_addr(addr)
        if module is None:
            return None
        sym = module.image.function_at(addr - module.base)
        return sym.name if sym else None

    # -- memory helpers (used by the kernel) --------------------------------

    def mem_read(self, addr: int, size: int) -> bytes:
        return self.memory.read(addr, size)

    def mem_write(self, addr: int, data: bytes) -> None:
        if data:
            self.memory.write(addr, data)

    def mem_write_u32(self, addr: int, value: int) -> None:
        self.memory.write_u32(addr, value)

    def read_cstr(self, addr: int) -> str:
        return self.memory.read_cstr(addr)

    # -- scratch buffers for app<->guest data ------------------------------

    def scratch_alloc(self, size: int) -> int:
        size = (size + 0xF) & ~0xF
        if self._scratch_next + size > _SCRATCH_BASE + _SCRATCH_SIZE:
            self._scratch_next = _SCRATCH_BASE      # simple arena recycle
        addr = self._scratch_next
        self._scratch_next += size
        return addr

    def cstr(self, text: str) -> int:
        addr = self.scratch_alloc(len(text.encode()) + 1)
        self.memory.write_cstr(addr, text)
        return addr

    # -- app-level call-stack annotation (for <stacktrace> triggers) -------

    @contextmanager
    def frame(self, name: str):
        """Annotate the host-level app call stack, e.g. 'refresh_files'."""
        self.app_stack.append(name)
        try:
            yield
        finally:
            self.app_stack.pop()

    def backtrace_frames(self) -> List[Tuple[int, Optional[str]]]:
        """(return_address, enclosing_function) pairs, innermost first,
        extended with host app frames (address 0)."""
        frames: List[Tuple[int, Optional[str]]] = []
        for shadow in reversed(self.cpu.shadow):
            frames.append((shadow.return_addr,
                           self.symbol_for_addr(shadow.return_addr)))
        for name in reversed(self.app_stack):
            frames.append((0, name))
        return frames

    # -- calling into the guest ---------------------------------------------

    def libcall(self, symbol: str, *arg_values: int,
                max_steps: int = 20_000_000) -> int:
        """Call an exported function the way application code would."""
        addr = self.lookup(symbol)
        cpu = self.cpu
        sp_snapshot = cpu.regs[self.abi.stack_pointer]
        shadow_depth = len(cpu.shadow)
        try:
            if self.abi.arg_registers:
                for i, value in enumerate(arg_values):
                    cpu.regs[self.abi.arg_registers[i]] = value & 0xFFFFFFFF
            else:
                for value in reversed(arg_values):
                    cpu.push(value & 0xFFFFFFFF)
            cpu.push(RETURN_SENTINEL)
            cpu.shadow.append(ShadowFrame(RETURN_SENTINEL, addr))
            host = self.host_functions.get(addr)
            if host is not None:
                cpu.invoke_host_toplevel(host)
            else:
                cpu.run(addr, max_steps=max_steps)
            return sgn32(cpu.regs[self.abi.return_register])
        finally:
            cpu.regs[self.abi.stack_pointer] = sp_snapshot
            del cpu.shadow[shadow_depth:]

    def abort(self, reason: str) -> None:
        """Terminate the process with SIGABRT (e.g. allocation failure)."""
        raise GuestAbort(reason)
