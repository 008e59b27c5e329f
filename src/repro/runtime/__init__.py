"""Guest runtime: memory, CPU interpreter, dynamic linker, processes."""

from .blocks import Block, scan_block
from .codecache import CODE_CACHE, ModuleCode, SharedCodeCache
from .cpu import Cpu, HostFunction, RegisterFile, ShadowFrame, sgn32
from .memory import MASK32, Memory
from .process import LoadedModule, Process
from .snapshot import (MachineSnapshot, ProcessSnapshot, RestoreStats,
                       SnapshotCache)
from .trace import TraceEntry, Tracer
from .traces import Translation, translate

__all__ = [
    "Memory", "MASK32",
    "Cpu", "HostFunction", "RegisterFile", "ShadowFrame", "sgn32",
    "Process", "LoadedModule",
    "Tracer", "TraceEntry",
    "Block", "scan_block", "Translation", "translate",
    "SharedCodeCache", "ModuleCode", "CODE_CACHE",
    "MachineSnapshot", "ProcessSnapshot", "RestoreStats", "SnapshotCache",
]
