"""SELF — the Synthetic ELF container for shared objects and kernels.

A :class:`SharedObject` carries everything the LFI profiler (§3) and the
dynamic linker (§5.1) need, mirroring real ELF/PE structure:

* ``.text``      — raw encoded instructions (see ``repro.isa.encoder``),
* export table   — name, offset, size per exported function (like
  ``.dynsym``; sizes survive stripping as ``st_size`` does),
* import table   — symbol per PLT slot (like ``.rel.plt``),
* needed list    — sonames of dependency libraries (like ``DT_NEEDED``),
* ``.data``      — GOT and global variables; GOT entries hold 32-bit
  little-endian values that the loader may patch and the profiler may read
  statically (§3.2 resolves TLS offsets through GOT loads),
* TLS template   — per-module thread-local block size plus named offsets
  (``errno`` lives here on Linux/Windows flavours),
* local symbols  — internal function names; *removed by stripping*.  The
  paper notes LFI "works on both stripped and unstripped libraries".

Everything serializes to/from bytes so libraries can round-trip through
files exactly like on-disk ``.so``/``.dll`` objects.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..errors import ImageError, SymbolError

MAGIC = b"SELF"
VERSION = 1

KIND_SHARED = "shared"
KIND_EXEC = "exec"
KIND_KERNEL = "kernel"
_KINDS = (KIND_SHARED, KIND_EXEC, KIND_KERNEL)


@dataclass(frozen=True)
class Symbol:
    """A named code location (exported or local function)."""

    name: str
    offset: int
    size: int

    @property
    def end(self) -> int:
        return self.offset + self.size


@dataclass(frozen=True)
class SharedObject:
    """An immutable SELF image."""

    soname: str
    machine: str
    kind: str = KIND_SHARED
    text: bytes = b""
    exports: Tuple[Symbol, ...] = ()
    imports: Tuple[str, ...] = ()
    needed: Tuple[str, ...] = ()
    local_symbols: Tuple[Symbol, ...] = ()
    data: bytes = b""
    data_symbols: Tuple[Symbol, ...] = ()
    tls_size: int = 0
    tls_symbols: Tuple[Symbol, ...] = ()
    syscall_table: Tuple[Tuple[int, int], ...] = ()  # (nr, offset), kernels
    entry: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ImageError(f"bad image kind {self.kind!r}")
        seen = set()
        for sym in self.exports:
            if sym.name in seen:
                raise SymbolError(
                    f"duplicate export {sym.name!r} in {self.soname}")
            seen.add(sym.name)

    # -- symbol lookup -------------------------------------------------

    def export_map(self) -> Dict[str, Symbol]:
        return {s.name: s for s in self.exports}

    def find_export(self, name: str) -> Symbol:
        for sym in self.exports:
            if sym.name == name:
                return sym
        raise SymbolError(f"{self.soname} does not export {name!r}")

    def exports_symbol(self, name: str) -> bool:
        return any(s.name == name for s in self.exports)

    def all_functions(self) -> Tuple[Symbol, ...]:
        """Exported plus (if present) local function symbols."""
        return self.exports + self.local_symbols

    def symbol_names_by_offset(self) -> Dict[int, str]:
        table = {s.offset: s.name for s in self.local_symbols}
        table.update({s.offset: s.name for s in self.exports})
        return table

    def function_at(self, offset: int) -> Optional[Symbol]:
        """The function whose [offset, end) range contains ``offset``."""
        for sym in self.all_functions():
            if sym.offset <= offset < sym.end:
                return sym
        return None

    def tls_symbol(self, name: str) -> Symbol:
        for sym in self.tls_symbols:
            if sym.name == name:
                return sym
        raise SymbolError(f"{self.soname} has no TLS symbol {name!r}")

    def data_symbol(self, name: str) -> Symbol:
        for sym in self.data_symbols:
            if sym.name == name:
                return sym
        raise SymbolError(f"{self.soname} has no data symbol {name!r}")

    def got_value(self, offset: int) -> int:
        """Statically read a 32-bit value from ``.data`` (GOT slot)."""
        if not (0 <= offset <= len(self.data) - 4):
            raise ImageError(
                f"GOT read at {offset:#x} outside .data of {self.soname}")
        return struct.unpack_from("<i", self.data, offset)[0]

    @property
    def is_stripped(self) -> bool:
        return not self.local_symbols

    def stripped(self) -> "SharedObject":
        """A copy with local symbols removed, like ``strip`` would do."""
        return replace(self, local_symbols=())

    def code_size(self) -> int:
        return len(self.text)

    # -- serialization -------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += MAGIC
        out += struct.pack("<H", VERSION)
        _put_str(out, self.kind)
        _put_str(out, self.soname)
        _put_str(out, self.machine)
        _put_blob(out, self.text)
        _put_blob(out, self.data)
        _put_symbols(out, self.exports)
        _put_symbols(out, self.local_symbols)
        _put_symbols(out, self.data_symbols)
        _put_symbols(out, self.tls_symbols)
        _put_strlist(out, self.imports)
        _put_strlist(out, self.needed)
        out += struct.pack("<I", self.tls_size)
        out += struct.pack("<I", self.entry)
        out += struct.pack("<I", len(self.syscall_table))
        for nr, offset in self.syscall_table:
            out += struct.pack("<II", nr, offset)
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SharedObject":
        if blob[:4] != MAGIC:
            raise ImageError("not a SELF image (bad magic)")
        view = _Reader(blob, 4)
        version = view.u16()
        if version != VERSION:
            raise ImageError(f"unsupported SELF version {version}")
        kind = view.str_()
        soname = view.str_()
        machine = view.str_()
        text = view.blob()
        data = view.blob()
        exports = view.symbols()
        local_symbols = view.symbols()
        data_symbols = view.symbols()
        tls_symbols = view.symbols()
        imports = view.strlist()
        needed = view.strlist()
        tls_size = view.u32()
        entry = view.u32()
        n_sys = view.u32()
        syscall_table = tuple(
            (view.u32(), view.u32()) for _ in range(n_sys))
        return cls(soname=soname, machine=machine, kind=kind, text=text,
                   data=data, exports=exports, local_symbols=local_symbols,
                   data_symbols=data_symbols, tls_symbols=tls_symbols,
                   imports=imports, needed=needed, tls_size=tls_size,
                   entry=entry, syscall_table=syscall_table)


def image_digest(image: SharedObject) -> str:
    """Content hash identifying one exact library build.

    Both the profile store and the shared code cache key on this, so one
    exact image maps to one profile and one decoded/translated copy of
    its code.  Memoized on the image object: campaigns hash the same
    immutable images once per process, not once per cache lookup.  (The
    dataclass is frozen, hence ``object.__setattr__`` — a plain
    assignment would raise ``FrozenInstanceError``.)
    """
    cached = getattr(image, "_repro_digest", None)
    if cached is None:
        cached = hashlib.sha256(image.to_bytes()).hexdigest()
        try:
            object.__setattr__(image, "_repro_digest", cached)
        except (AttributeError, TypeError):    # exotic types with __slots__
            pass
    return cached


def text_digest(image: SharedObject) -> str:
    """Content hash of an image's code bytes alone.

    The shared code cache keys on this rather than :func:`image_digest`:
    decoding and translation read only the text, and campaign shims
    differ case by case in soname and imports while their code repeats.
    Memoized on the image like :func:`image_digest`.
    """
    cached = getattr(image, "_repro_text_digest", None)
    if cached is None:
        cached = hashlib.sha256(image.text).hexdigest()
        try:
            object.__setattr__(image, "_repro_text_digest", cached)
        except (AttributeError, TypeError):    # exotic types with __slots__
            pass
    return cached


# -- serialization helpers ----------------------------------------------

def _put_str(out: bytearray, s: str) -> None:
    raw = s.encode("utf-8")
    out += struct.pack("<H", len(raw))
    out += raw


def _put_blob(out: bytearray, blob: bytes) -> None:
    out += struct.pack("<I", len(blob))
    out += blob


def _put_symbols(out: bytearray, syms: Tuple[Symbol, ...]) -> None:
    out += struct.pack("<I", len(syms))
    for sym in syms:
        _put_str(out, sym.name)
        out += struct.pack("<II", sym.offset, sym.size)


def _put_strlist(out: bytearray, items: Tuple[str, ...]) -> None:
    out += struct.pack("<I", len(items))
    for item in items:
        _put_str(out, item)


class _Reader:
    """Cursor over a serialized SELF blob."""

    def __init__(self, blob: bytes, pos: int) -> None:
        self._data = blob
        self.pos = pos

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self._data):
            raise ImageError("truncated SELF image")
        chunk = self._data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def str_(self) -> str:
        return self._take(self.u16()).decode("utf-8")

    def blob(self) -> bytes:
        return self._take(self.u32())

    def symbols(self) -> Tuple[Symbol, ...]:
        n = self.u32()
        out: List[Symbol] = []
        for _ in range(n):
            name = self.str_()
            offset, size = struct.unpack("<II", self._take(8))
            out.append(Symbol(name, offset, size))
        return tuple(out)

    def strlist(self) -> Tuple[str, ...]:
        return tuple(self.str_() for _ in range(self.u32()))
