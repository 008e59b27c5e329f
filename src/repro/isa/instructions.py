"""Instruction model and mnemonic table.

The instruction set is a compact x86-flavoured subset — enough for the
compiler output patterns the LFI profiler must understand (§3.1/§3.2):
conditional control flow, call/ret, stack frames, constant moves, the
position-independent-code ``call``/``pop`` idiom, TLS-segment stores, and
``int`` for system calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..errors import AssemblyError
from .operands import Operand

#: mnemonic -> operand count.  The order of this table defines opcode
#: numbers for the byte encoding, so APPEND ONLY.
MNEMONICS = (
    ("mov", 2),
    ("lea", 2),
    ("add", 2),
    ("sub", 2),
    ("and", 2),
    ("or", 2),
    ("xor", 2),
    ("neg", 1),
    ("not", 1),
    ("inc", 1),
    ("dec", 1),
    ("cmp", 2),
    ("test", 2),
    ("push", 1),
    ("pop", 1),
    ("jmp", 1),
    ("jz", 1),
    ("jnz", 1),
    ("js", 1),
    ("jns", 1),
    ("jl", 1),
    ("jle", 1),
    ("jg", 1),
    ("jge", 1),
    ("call", 1),
    ("ret", 0),
    ("leave", 0),
    ("nop", 0),
    ("int", 1),
    ("hlt", 0),
    ("imul", 2),
    ("shl", 2),
    ("shr", 2),
)

OPCODE_OF = {name: i for i, (name, _arity) in enumerate(MNEMONICS)}
ARITY_OF = {name: arity for name, arity in MNEMONICS}

#: Conditional branches (one Rel operand, fall through possible).
CONDITIONAL_BRANCHES = frozenset(
    {"jz", "jnz", "js", "jns", "jl", "jle", "jg", "jge"})

#: jcc mnemonic -> taken-predicate over the (ZF, SF) flag pair: the
#: branch semantics the step interpreter runs on every conditional jump
#: (the translator's predicate source in ``runtime.traces`` spells the
#: same table out as Python expressions).  (Signed compares set SF from
#: the *un-wrapped* difference, so jl ≡ js and jge ≡ jns.)
JCC_TAKEN = {
    "jz": lambda zf, sf: zf,
    "jnz": lambda zf, sf: not zf,
    "js": lambda zf, sf: sf,
    "jns": lambda zf, sf: not sf,
    "jl": lambda zf, sf: sf,
    "jge": lambda zf, sf: not sf,
    "jle": lambda zf, sf: sf or zf,
    "jg": lambda zf, sf: not sf and not zf,
}

#: Instructions that never fall through to the next instruction.
TERMINATORS = frozenset({"jmp", "ret", "hlt"})

#: Instructions that transfer control somewhere (incl. call).
CONTROL_FLOW = CONDITIONAL_BRANCHES | TERMINATORS | {"call"}


@dataclass(frozen=True)
class Instruction:
    """A single decoded or to-be-encoded instruction."""

    mnemonic: str
    operands: Tuple[Operand, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.mnemonic not in ARITY_OF:
            raise AssemblyError(f"unknown mnemonic {self.mnemonic!r}")
        if len(self.operands) != ARITY_OF[self.mnemonic]:
            raise AssemblyError(
                f"{self.mnemonic} takes {ARITY_OF[self.mnemonic]} operands, "
                f"got {len(self.operands)}")

    @property
    def is_branch(self) -> bool:
        return self.mnemonic in CONDITIONAL_BRANCHES or self.mnemonic == "jmp"

    @property
    def is_conditional(self) -> bool:
        return self.mnemonic in CONDITIONAL_BRANCHES

    @property
    def is_terminator(self) -> bool:
        return self.mnemonic in TERMINATORS

    def render(self) -> str:
        if not self.operands:
            return self.mnemonic
        ops = ", ".join(op.render() for op in self.operands)
        return f"{self.mnemonic} {ops}"


def ins(mnemonic: str, *operands: Operand) -> Instruction:
    """Terse constructor used throughout the code generator."""
    return Instruction(mnemonic, tuple(operands))


@dataclass(frozen=True)
class Decoded:
    """An instruction as it appears in a disassembly listing."""

    addr: int                 # module-relative address of the instruction
    size: int                 # encoded size in bytes
    insn: Instruction

    @property
    def end(self) -> int:
        return self.addr + self.size

    def branch_target(self) -> int:
        """Absolute (module-relative) target of a direct branch/call."""
        from .operands import Rel

        (op,) = self.insn.operands
        if not isinstance(op, Rel):
            raise AssemblyError(
                f"{self.insn.mnemonic} at {self.addr:#x} has no direct target")
        return self.end + op.disp

    def render(self) -> str:
        return f"{self.addr:8x}:  {self.insn.render()}"
