"""Basic-block selection, plus block-coverage export.

A *block* is the straight-line run of predecoded instructions that
starts at an entry address and ends at the first control transfer (or
at an instruction the translator does not handle, or after
:data:`MAX_BLOCK_INSNS` operations).  :func:`scan_block` decides where
blocks start and end, and which addresses have no block at all — the CPU
single-steps those.  The translator (:mod:`repro.runtime.traces`) turns
each block, with its statically predicted successors, into generated
Python source.

Selection is deliberately independent of the translator's templates:
block entries and extents fix what ``cpu.coverage`` counts, so changing
how a block is translated never changes a coverage map, a coverage
digest, or a guided schedule built from one.

The shapes a block may contain:

* data instructions whose operands are registers, immediates or memory
  in the positions the step path can read or write them (see
  :func:`_data_ok`), plus ``int 0x80``;
* one ending transfer: ``ret``, ``hlt``, a conditional branch with a
  direct target, or ``call``/``jmp`` in direct, register or import-slot
  form;
* ``cmp``/``test`` over registers and immediates immediately followed by
  a direct conditional branch fuse into one operation of weight 2 (the
  pair never faults, so the instruction accounting never splits it).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..isa import Imm, ImportSlot, Mem, Reg
from ..isa.instructions import CONTROL_FLOW, JCC_TAKEN
from .memory import MASK32

#: Selection stops after this many operations even without a control
#: transfer (bounds the generated code; the next block follows via
#: fallthrough).
MAX_BLOCK_INSNS = 128

_READABLE = (Reg, Imm, Mem)
_WRITABLE = (Reg, Mem)
_TWO_OPERAND = frozenset(
    {"mov", "add", "sub", "and", "or", "xor", "imul", "shl", "shr"})
_ONE_OPERAND_DST = frozenset({"neg", "not", "inc", "dec", "pop"})


class Block:
    """The extent of one block and its instruction accounting."""

    __slots__ = ("entry", "addrs", "cum", "count", "ctl_index",
                 "fallthrough")

    def __init__(self, entry: int, addrs: Tuple[int, ...],
                 cum: Tuple[int, ...], count: int, ctl_index: int,
                 fallthrough: Optional[int]) -> None:
        self.entry = entry
        self.addrs = addrs              # guest address per operation
        self.cum = cum                  # guest insns executed before op i
        self.count = count              # guest insns in the whole block
        self.ctl_index = ctl_index      # index of the control op, or -1
        self.fallthrough = fallthrough  # next eip when no control op ran


def _data_ok(insn) -> bool:
    """Whether a block may contain data instruction ``insn``."""
    m = insn.mnemonic
    ops = insn.operands
    if m in ("nop", "leave"):
        return True
    if m in _TWO_OPERAND:
        return isinstance(ops[0], _WRITABLE) \
            and isinstance(ops[1], _READABLE)
    if m in _ONE_OPERAND_DST:
        return isinstance(ops[0], _WRITABLE)
    if m == "push":
        return isinstance(ops[0], _READABLE)
    if m in ("cmp", "test"):
        return isinstance(ops[0], _READABLE) \
            and isinstance(ops[1], _READABLE)
    if m == "lea":
        return isinstance(ops[0], Reg) and isinstance(ops[1], Mem)
    if m == "int":
        return isinstance(ops[0], Imm) and (ops[0].value & MASK32) == 0x80
    return False


def _control_ok(insn, target: Optional[int]) -> bool:
    """Whether a block may end with transfer ``insn``."""
    m = insn.mnemonic
    if m in ("ret", "hlt"):
        return True
    if target is not None:
        return True
    return m in ("call", "jmp") \
        and isinstance(insn.operands[0], (Reg, ImportSlot))


def _fuses(insn, nxt) -> bool:
    """Whether ``insn`` (a ``cmp``/``test``) fuses with the decoded
    entry ``nxt`` that follows it."""
    return nxt is not None and nxt[0].mnemonic in JCC_TAKEN \
        and nxt[2] is not None \
        and all(isinstance(op, (Reg, Imm)) for op in insn.operands)


def scan_block(entry: int, code: Dict[int, Tuple]) -> Optional[Block]:
    """Select the block starting at ``entry``.

    ``code`` maps absolute addresses to predecoded ``(insn, size,
    target)`` entries.  Returns None when the entry address has no
    block (unmapped, or a shape only the step path handles) — the CPU
    caches that verdict and single-steps there.
    """
    addrs = []
    weights = []
    ctl_index = -1
    fallthrough: Optional[int] = None
    addr = entry
    while True:
        e = code.get(addr)
        if e is None:
            # the step path raises its unmapped-code fault here, with
            # eip parked exactly at this address
            fallthrough = addr
            break
        insn, size, target = e
        m = insn.mnemonic
        next_eip = addr + size
        if m in CONTROL_FLOW or m == "hlt":
            if not _control_ok(insn, target):
                fallthrough = addr
                break
            ctl_index = len(addrs)
            addrs.append(addr)
            weights.append(1)
            break
        if m in ("cmp", "test") and _fuses(insn, code.get(next_eip)):
            ctl_index = len(addrs)
            addrs.append(addr)
            weights.append(2)
            break
        if not _data_ok(insn):
            fallthrough = addr
            break
        addrs.append(addr)
        weights.append(1)
        addr = next_eip
        if len(addrs) >= MAX_BLOCK_INSNS:
            fallthrough = addr
            break
    if not addrs:
        return None
    cum = []
    total = 0
    for w in weights:
        cum.append(total)
        total += w
    return Block(entry, tuple(addrs), tuple(cum), total, ctl_index,
                 fallthrough)


# -- coverage export ---------------------------------------------------------
#
# The CPU counts block dispatches in ``cpu.coverage`` (entry address ->
# count).  These helpers turn that raw map into the stable, serializable
# shape result records carry: hex-keyed counts plus a content digest, so
# two runs covered identically compare equal by a single string.


def coverage_digest(coverage: Dict[int, int]) -> str:
    """Content digest of a block-coverage map (order-independent)."""
    import hashlib
    h = hashlib.sha256()
    for addr in sorted(coverage):
        h.update(f"{addr:#x}:{coverage[addr]};".encode("ascii"))
    return h.hexdigest()[:16]


def export_coverage(coverage: Dict[int, int]) -> Dict[str, object]:
    """Serialize a coverage map for a result record.

    Returns ``{"digest", "blocks", "executed", "map"}`` where ``map``
    keys are fixed-width hex entry addresses (sorted, so JSON output is
    byte-stable) and ``executed`` is the total dispatch count.
    """
    return {
        "digest": coverage_digest(coverage),
        "blocks": len(coverage),
        "executed": sum(coverage.values()),
        "map": {f"{addr:#010x}": coverage[addr]
                for addr in sorted(coverage)},
    }


def import_coverage(exported: Optional[Dict[str, object]]) -> Dict[int, int]:
    """Inverse of :func:`export_coverage` (tolerates ``None``/legacy)."""
    if not exported:
        return {}
    raw = exported.get("map") or {}
    return {int(addr, 16): int(count) for addr, count in raw.items()}


def merge_coverage(maps) -> Dict[int, int]:
    """Union coverage maps, summing per-block counts."""
    merged: Dict[int, int] = {}
    for cov in maps:
        for addr, count in cov.items():
            merged[addr] = merged.get(addr, 0) + count
    return merged
