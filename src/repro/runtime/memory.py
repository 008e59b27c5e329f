"""Sparse paged guest memory with explicit region mapping.

Accesses outside mapped regions raise :class:`~repro.errors.MemoryFault`
(the guest's SIGSEGV), which the §6.1 MySQL experiment relies on: 12 test
cases died of SIGSEGV under injection.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, List, Optional, Tuple

from ..errors import MemoryFault

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
_U32 = struct.Struct("<I")

MASK32 = 0xFFFFFFFF


class Memory:
    """32-bit address space; pages materialize on first touch."""

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        self._regions: List[Tuple[int, int]] = []   # sorted (start, end)
        # pages proven fully mapped: aligned u32 accesses inside them
        # skip the region scan.  Entries are invalidated by
        # ``unmap_region`` and by snapshot restore (which may shrink the
        # region list back to the snapshot point).
        self._page_ok: set = set()
        # copy-on-write journal while a snapshot is active:
        # page -> original bytes (None = page had no backing).  ``None``
        # when no snapshot is active so the write hot path pays one
        # ``is not None`` check.
        self._snap_orig: Optional[Dict[int, Optional[bytes]]] = None
        self._snap_regions: List[Tuple[int, int]] = []
        self._snap_page_ok: set = set()

    # -- region management ----------------------------------------------

    def map_region(self, start: int, size: int) -> None:
        """Declare [start, start+size) accessible."""
        if size <= 0:
            raise ValueError("region size must be positive")
        end = start + size
        self._regions.append((start, end))
        self._regions.sort()
        self._coalesce()

    def unmap_region(self, start: int, size: int) -> None:
        """Remove [start, start+size) from the mapped ranges.

        Pages wholly inside the range drop their backing; partially
        covered pages are zeroed over the unmapped bytes.  Both the
        proven-mapped set used by the aligned-u32 fast path and any
        active snapshot journal are kept consistent, so neither can
        read through (or fail to restore) a stale mapping.
        """
        if size <= 0:
            raise ValueError("region size must be positive")
        end = start + size
        kept: List[Tuple[int, int]] = []
        for rstart, rend in self._regions:
            if rend <= start or rstart >= end:
                kept.append((rstart, rend))
                continue
            if rstart < start:
                kept.append((rstart, start))
            if rend > end:
                kept.append((end, rend))
        self._regions = kept
        first_page = start >> PAGE_SHIFT
        last_page = (end - 1) >> PAGE_SHIFT
        self._page_ok = {p for p in self._page_ok
                         if p < first_page or p > last_page}
        touched = [p for p in self._pages
                   if first_page <= p <= last_page]
        for page in touched:
            if self._snap_orig is not None:
                self._cow(page)
            page_start = page << PAGE_SHIFT
            if start <= page_start and page_start + PAGE_SIZE <= end:
                del self._pages[page]
            else:
                lo = max(start, page_start) - page_start
                hi = min(end, page_start + PAGE_SIZE) - page_start
                self._pages[page][lo:hi] = bytes(hi - lo)

    # -- snapshot / restore (copy-on-write page versioning) ---------------

    def snapshot_begin(self) -> None:
        """Checkpoint the current contents; subsequent writes journal
        the original bytes of each page they first touch, so
        :meth:`snapshot_restore` is O(dirty pages), not O(total)."""
        self._snap_orig = {}
        self._snap_regions = list(self._regions)
        self._snap_page_ok = set(self._page_ok)

    @property
    def snapshot_active(self) -> bool:
        return self._snap_orig is not None

    def snapshot_dirty_pages(self) -> int:
        """Pages touched since the snapshot (0 when none is active)."""
        return len(self._snap_orig) if self._snap_orig is not None else 0

    def snapshot_restore(self) -> int:
        """Rewrite every page dirtied since :meth:`snapshot_begin` back
        to its checkpointed contents and re-arm the journal.  Regions
        and the proven-mapped fast-path set also roll back, so mappings
        created after the snapshot disappear.  Returns the number of
        dirty pages that were restored."""
        if self._snap_orig is None:
            raise ValueError("snapshot_restore without snapshot_begin")
        dirty = len(self._snap_orig)
        for page, orig in self._snap_orig.items():
            if orig is None:
                self._pages.pop(page, None)
            else:
                backing = self._pages.get(page)
                if backing is None:
                    self._pages[page] = bytearray(orig)
                else:
                    backing[:] = orig
        self._snap_orig = {}
        self._regions = list(self._snap_regions)
        self._page_ok = set(self._snap_page_ok)
        return dirty

    def snapshot_end(self) -> None:
        """Drop the journal; the checkpoint can no longer be restored."""
        self._snap_orig = None
        self._snap_regions = []
        self._snap_page_ok = set()

    def _cow(self, page: int) -> None:
        if page not in self._snap_orig:
            backing = self._pages.get(page)
            self._snap_orig[page] = (bytes(backing)
                                     if backing is not None else None)

    def _coalesce(self) -> None:
        merged: List[Tuple[int, int]] = []
        for start, end in self._regions:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(end, merged[-1][1]))
            else:
                merged.append((start, end))
        self._regions = merged

    def is_mapped(self, addr: int, size: int = 1) -> bool:
        end = addr + size
        for start, rend in self._regions:
            if start <= addr and end <= rend:
                return True
            if start > addr:
                break
        return False

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or addr + size > MASK32 + 1 or not self.is_mapped(addr, size):
            raise MemoryFault(
                f"access to unmapped address {addr & MASK32:#010x} "
                f"(size {size})")

    # -- raw access -------------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        out = bytearray()
        while size > 0:
            page = addr >> PAGE_SHIFT
            offset = addr & (PAGE_SIZE - 1)
            chunk = min(size, PAGE_SIZE - offset)
            backing = self._pages.get(page)
            if backing is None:
                out += b"\x00" * chunk
            else:
                out += backing[offset:offset + chunk]
            addr += chunk
            size -= chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        pos = 0
        size = len(data)
        while pos < size:
            page = addr >> PAGE_SHIFT
            offset = addr & (PAGE_SIZE - 1)
            chunk = min(size - pos, PAGE_SIZE - offset)
            if self._snap_orig is not None and page not in self._snap_orig:
                self._cow(page)
            backing = self._pages.get(page)
            if backing is None:
                backing = bytearray(PAGE_SIZE)
                self._pages[page] = backing
            backing[offset:offset + chunk] = data[pos:pos + chunk]
            addr += chunk
            pos += chunk

    def resident_bytes(self) -> int:
        """Bytes of materialized page backing (page granularity)."""
        return len(self._pages) * PAGE_SIZE

    def content_digest(self) -> str:
        """SHA-256 over the logical contents (page number + bytes of
        every non-zero page, ascending).  Untouched and all-zero pages
        hash identically whether or not they ever materialized, so two
        executions that wrote the same values compare equal."""
        h = hashlib.sha256()
        for page in sorted(self._pages):
            backing = self._pages[page]
            if any(backing):
                h.update(_U32.pack(page & MASK32))
                h.update(backing)
        return h.hexdigest()

    # -- word access --------------------------------------------------------

    def read_u32(self, addr: int) -> int:
        if not addr & 3:
            page = addr >> PAGE_SHIFT
            if page in self._page_ok:
                backing = self._pages.get(page)
                if backing is None:
                    return 0
                return _U32.unpack_from(backing, addr & (PAGE_SIZE - 1))[0]
        value = _U32.unpack(self.read(addr, 4))[0]
        self._note_page(addr)
        return value

    def write_u32(self, addr: int, value: int) -> None:
        if not addr & 3:
            page = addr >> PAGE_SHIFT
            if page in self._page_ok:
                if self._snap_orig is not None \
                        and page not in self._snap_orig:
                    self._cow(page)
                backing = self._pages.get(page)
                if backing is None:
                    backing = self._pages[page] = bytearray(PAGE_SIZE)
                _U32.pack_into(backing, addr & (PAGE_SIZE - 1),
                               value & MASK32)
                return
        self.write(addr, _U32.pack(value & MASK32))
        self._note_page(addr)

    def _note_page(self, addr: int) -> None:
        """After a checked access: remember the page if every byte of it
        is mapped (pages straddling a region edge stay on the slow,
        exactly-checked path)."""
        page = addr >> PAGE_SHIFT
        if self.is_mapped(page << PAGE_SHIFT, PAGE_SIZE):
            self._page_ok.add(page)

    def read_i32(self, addr: int) -> int:
        value = self.read_u32(addr)
        return value - (1 << 32) if value & 0x80000000 else value

    def write_i32(self, addr: int, value: int) -> None:
        self.write_u32(addr, value & MASK32)

    def read_cstr(self, addr: int, limit: int = 4096) -> str:
        """The NUL-terminated string at ``addr`` (at most ``limit``
        bytes), scanned a page chunk at a time.  A string running into
        unmapped memory faults on its first unmapped byte."""
        out = bytearray()
        while len(out) < limit:
            chunk = min(limit - len(out), PAGE_SIZE - (addr & (PAGE_SIZE - 1)))
            if not self.is_mapped(addr, chunk):
                # stop at the mapped prefix; the byte after it faults
                chunk = self._mapped_run(addr, chunk)
                if not chunk:
                    self._check(addr, 1)
            data = self.read(addr, chunk)
            end = data.find(b"\x00")
            if end >= 0:
                out += data[:end]
                break
            out += data
            addr += chunk
        return out.decode("utf-8", errors="replace")

    def _mapped_run(self, addr: int, size: int) -> int:
        """How many bytes from ``addr`` (at most ``size``) are mapped."""
        for start, end in self._regions:
            if start <= addr < end:
                return min(size, end - addr)
            if start > addr:
                break
        return 0

    def write_cstr(self, addr: int, text: str) -> int:
        data = text.encode("utf-8") + b"\x00"
        self.write(addr, data)
        return len(data)
