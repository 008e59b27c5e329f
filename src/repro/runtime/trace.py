"""Instruction-level execution tracing.

A debugging aid for guest code (and for demonstrating what the VM
actually executes): attach a :class:`Tracer` to a process, run, and get
an annotated instruction trace with module/symbol attribution —
including the exact moment control passes through an interception stub
to the original function or, for a live trigger, into the controller
and back out to the original or the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .process import Process


@dataclass(frozen=True)
class TraceEntry:
    """One executed instruction."""

    index: int
    addr: int
    text: str
    module: Optional[str]
    symbol: Optional[str]

    def render(self) -> str:
        where = ""
        if self.module:
            where = f"  [{self.module}"
            if self.symbol:
                where += f":{self.symbol}"
            where += "]"
        return f"{self.index:6d}  {self.addr:08x}  {self.text:<32}{where}"


class Tracer:
    """Records executed instructions; attach/detach around a run."""

    def __init__(self, proc: Process, *, limit: int = 100_000) -> None:
        self.proc = proc
        self.limit = limit
        self.entries: List[TraceEntry] = []
        self.truncated = False
        self._attached = False

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.attach()
        return self

    def __exit__(self, *exc_info) -> None:
        self.detach()

    def attach(self) -> None:
        if self._attached:
            return
        self.proc.cpu.tracer = self._record
        self._attached = True

    def detach(self) -> None:
        if not self._attached:
            return
        self.proc.cpu.tracer = None
        self._attached = False

    # -- recording ----------------------------------------------------------

    def _record(self, addr: int, insn) -> None:
        if len(self.entries) >= self.limit:
            self.truncated = True
            return
        module = self.proc.module_for_addr(addr)
        self.entries.append(TraceEntry(
            index=len(self.entries),
            addr=addr,
            text=insn.render(),
            module=module.image.soname if module else None,
            symbol=self.proc.symbol_for_addr(addr),
        ))

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def calls_to(self, symbol: str) -> List[TraceEntry]:
        """Entries executing inside the named function."""
        return [e for e in self.entries if e.symbol == symbol]

    def modules_touched(self) -> List[str]:
        seen: List[str] = []
        for entry in self.entries:
            if entry.module and entry.module not in seen:
                seen.append(entry.module)
        return seen

    def render(self, *, last: Optional[int] = None) -> str:
        entries = self.entries if last is None else self.entries[-last:]
        lines = [e.render() for e in entries]
        if self.truncated:
            lines.append(f"... truncated at {self.limit} instructions")
        return "\n".join(lines)

    # -- observability bridge ------------------------------------------------

    def to_events(self, log, *, severity: str = "debug",
                  last: Optional[int] = None) -> int:
        """Emit the recorded trace into an :class:`~repro.obs.EventLog`.

        One ``"instruction"`` event per entry, on the same JSONL stream
        as injection and campaign events — so an execution trace and
        the faults injected during it line up in one file.  Returns the
        number of events emitted (plus one ``"trace.truncated"``
        warning when the instruction limit was hit).
        """
        entries = self.entries if last is None else self.entries[-last:]
        for entry in entries:
            log.emit("instruction", severity=severity,
                     index=entry.index, addr=f"{entry.addr:#010x}",
                     text=entry.text, module=entry.module,
                     symbol=entry.symbol)
        emitted = len(entries)
        if self.truncated:
            log.emit("trace.truncated", severity="warning",
                     limit=self.limit)
            emitted += 1
        return emitted
