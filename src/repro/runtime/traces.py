"""The guest-code translator: blocks to generated Python functions.

Every block entry (see :func:`~repro.runtime.blocks.scan_block` for
where blocks start and end) compiles once per ``(code, base)`` into one
plain function ``fn(cpu, budget, cov)``.  The function links the entry
block with its statically predicted successors — conditional branches
predict backward-taken / forward-not-taken (the classic loop heuristic),
fallthroughs and direct intra-module jumps follow, and calls, returns,
indirect jumps and host transfers end the chain.  Instructions are
inlined as source lines and a chain that returns to its own entry closes
into a native ``while`` loop, so a hot guest loop runs without leaving
one Python frame.

The generated code closes over nothing: its prologue reads the register
list, the memory accessors, the host table and (where used)
``plt_resolve`` and ``kernel.dispatch`` from the ``cpu`` argument.  One
function therefore serves every CPU in every process, thread and fork
child that maps the same code at the same base (see
:class:`~repro.runtime.codecache.SharedCodeCache`).

Exactness is the contract; the step interpreter (``Cpu._execute``) is
the reference:

* the CPU never enters a function whose first block the remaining step
  budget could not finish, and per-block guards inside the function
  replicate that rule at every linked seam — the CPU then single-steps,
  so a budget fault lands on the exact instruction the step path
  reports;
* every generated line that can raise maps to accounting metadata; on an
  exception :meth:`Translation.account` recovers the faulting
  instruction from the traceback's line number and the completed loop
  iterations from the frame's ``consumed`` local, then sets ``eip`` and
  ``instructions_executed`` exactly as the step path leaves them;
* operand evaluation order follows the step path, which decides the
  state a faulting access leaves behind;
* shapes without a source template run ``cpu._execute`` for that one
  instruction;
* coverage counts every constituent block's dispatch exactly where the
  CPU's dispatcher would.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import IllegalInstruction
from ..isa import Imm, Mem, Reg
from ..isa.instructions import JCC_TAKEN
from ..layout import HOST_REGION_BASE, RETURN_SENTINEL
from .blocks import Block, scan_block
from .cpu import ShadowFrame, _RunComplete
from .memory import MASK32

__all__ = ["Translation", "translate", "MAX_LINKED_BLOCKS"]

#: Upper bound on blocks linked into one function.
MAX_LINKED_BLOCKS = 8

_M = MASK32
_SIGN = 0x80000000
_WRAP = 0x100000000

#: Branch predicate source over flag expressions {z}/{s}.
_JCC_SRC = {
    "jz": "{z}",
    "jnz": "not {z}",
    "js": "{s}",
    "jns": "not {s}",
    "jl": "{s}",
    "jge": "not {s}",
    "jle": "{s} or {z}",
    "jg": "not {s} and not {z}",
}

#: Result source per two-operand arithmetic mnemonic over raw u32
#: operand sources {a}/{b}; flags derive from the masked result, as in
#: the step path's write-then-``sgn32`` sequence.
_ARITH_SRC = {
    "add": "({a} + {b}) & " + str(_M),
    "sub": "({a} - {b}) & " + str(_M),
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "({a} << ({b} & 31)) & " + str(_M),
    "shr": "{a} >> ({b} & 31)",
    # the low 32 bits of a product do not depend on the operands' signs
    "imul": "({a} * {b}) & " + str(_M),
}

#: Names the generated code may use, and the prologue line binding each.
_PROLOGUE = {
    "v": "v = cpu.values",
    "read": "read = cpu.read_u32",
    "write": "write = cpu.write_u32",
    "hosts": "hosts = cpu.hosts",
    "resolve": "resolve = cpu.proc.plt_resolve",
    "proc": "proc = cpu.proc",
    "dispatch": "dispatch = cpu.proc.kernel.dispatch",
}

#: Globals shared by every generated function.
_GLOBALS = {"Frame": ShadowFrame, "RunComplete": _RunComplete,
            "IllegalInstruction": IllegalInstruction}


class Translation:
    """One block entry compiled to a function shared by every CPU."""

    __slots__ = ("count", "fn", "linemap", "linked")

    def __init__(self, count: int, fn, linemap, linked: bool) -> None:
        self.count = count      # first block's instructions: budget unit
        self.fn = fn            # fn(cpu, budget, cov) -> instructions run
        self.linemap = linemap  # line -> (before, eip_on_fault, through)
        self.linked = linked    # more than one block, or a closed loop

    def account(self, cpu, exc: BaseException) -> None:
        """Exact accounting for an exception leaving :attr:`fn`.

        The faulting line identifies the instruction (``before``
        instructions of the current iteration ran ahead of it); the
        frame's ``consumed`` local counts completed loop iterations.
        A ``_RunComplete`` counts through the end of the current block.
        Any other exception counts the faulting instruction itself and,
        where the step path would hold it there, parks ``eip`` on it.
        """
        code = self.fn.__code__
        tb = exc.__traceback__
        while tb is not None and tb.tb_frame.f_code is not code:
            tb = tb.tb_next
        if tb is None:                         # pragma: no cover - defensive
            return
        consumed = tb.tb_frame.f_locals.get("consumed", 0)
        meta = self.linemap.get(tb.tb_lineno)
        if meta is None:                       # pragma: no cover - defensive
            cpu.instructions_executed += consumed
            return
        before, eip, through = meta
        if isinstance(exc, _RunComplete):
            cpu.instructions_executed += consumed + through
            return
        cpu.instructions_executed += consumed + before + 1
        if eip is not None:
            cpu.eip = eip


# -- source templates ----------------------------------------------------------


class _Source:
    """Generated lines, their accounting metadata, and used names."""

    def __init__(self, abi, tls_base: int) -> None:
        self.abi = abi
        self.tls_base = tls_base
        self.lines: List[Tuple[str, Optional[Tuple]]] = []
        self.uses = set()
        self.consts: Dict[str, object] = {}
        self.indent = ""

    def emit(self, text: str, meta: Optional[Tuple] = None) -> None:
        self.lines.append((self.indent + text, meta))

    def reg(self, name: str) -> str:
        self.uses.add("v")
        return f"v[{self.abi.reg_id(name)}]"

    def ea(self, op: Mem) -> str:
        """A memory operand's effective address; a ``gs:`` reference
        folds the module's TLS base (fixed by the cache key) in."""
        disp = op.disp
        if op.segment == "gs":
            disp += self.tls_base
        parts = []
        if op.base:
            parts.append(self.reg(op.base))
        if op.index:
            parts.append(f"{self.reg(op.index)} * {op.scale}")
        if not parts:
            return repr(disp & _M)
        return f"({' + '.join(parts)} + {disp}) & {_M}"

    def read(self, op) -> str:
        """An unsigned operand read."""
        if isinstance(op, Reg):
            return self.reg(op.name)
        if isinstance(op, Imm):
            return repr(op.value & _M)
        self.uses.add("read")
        return f"read({self.ea(op)})"

    def signed(self, op, temp: str, out: List[str]) -> str:
        """A signed operand value; non-constant reads land in ``temp``
        first (in operand order)."""
        if isinstance(op, Imm):
            return repr(op.value)
        out.append(f"{temp} = {self.read(op)}")
        return f"({temp} - {_WRAP} if {temp} >= {_SIGN} else {temp})"

    def flags(self, r: str) -> str:
        return f"cpu.zf = {r} == 0; cpu.sf = {r} >= {_SIGN}"

    def sp(self) -> str:
        return self.reg(self.abi.stack_pointer)

    def use(self, *names: str) -> None:
        self.uses.update(names)


def _data_lines(src: _Source, insn) -> Optional[List[str]]:
    """Source statements for one data instruction, or None when the
    shape has no template (the instruction then runs ``_execute``)."""
    m = insn.mnemonic
    ops = insn.operands
    if m == "nop":
        return []
    if m == "mov":
        dst, s = ops
        if isinstance(dst, Reg):
            return [f"{src.reg(dst.name)} = {src.read(s)}"]
        src.use("write")
        # the source read happens before the store, as in the step path
        return [f"write({src.ea(dst)}, {src.read(s)})"]
    if m == "lea":
        return [f"{src.reg(ops[0].name)} = {src.ea(ops[1])}"]
    if m in _ARITH_SRC:
        dst, s = ops
        # the destination is read before the source, as in the step path
        if isinstance(dst, Reg):
            d = src.reg(dst.name)
            expr = _ARITH_SRC[m].format(a=d, b=src.read(s))
            return [f"_r = {expr}", f"{d} = _r", src.flags("_r")]
        src.use("read", "write")
        expr = _ARITH_SRC[m].format(a="read(_a)", b=src.read(s))
        return [f"_a = {src.ea(dst)}", f"_r = {expr}", "write(_a, _r)",
                src.flags("_r")]
    if m in ("inc", "dec", "neg", "not") and isinstance(ops[0], Reg):
        d = src.reg(ops[0].name)
        if m == "not":
            return [f"{d} = ~{d} & {_M}"]
        expr = {"inc": f"({d} + 1) & {_M}", "dec": f"({d} - 1) & {_M}",
                "neg": f"-{d} & {_M}"}[m]
        return [f"_r = {expr}", f"{d} = _r", src.flags("_r")]
    if m == "cmp":
        pre: List[str] = []
        a = src.signed(ops[0], "_x", pre)
        b = src.signed(ops[1], "_y", pre)
        return pre + [f"_d = {a} - {b}",
                      "cpu.zf = _d == 0; cpu.sf = _d < 0"]
    if m == "test":
        return [f"_r = {src.read(ops[0])} & {src.read(ops[1])}",
                src.flags("_r")]
    if m == "push":
        src.use("write")
        (s,) = ops
        sp = src.sp()
        if isinstance(s, Imm) or (isinstance(s, Reg)
                                  and s.name != src.abi.stack_pointer):
            val = src.read(s)
            return [f"_sp = ({sp} - 4) & {_M}", f"{sp} = _sp",
                    f"write(_sp, {val})"]
        # the value is read before the stack pointer moves
        return [f"_val = {src.read(s)}", f"_sp = ({sp} - 4) & {_M}",
                f"{sp} = _sp", "write(_sp, _val)"]
    if m == "pop" and isinstance(ops[0], Reg):
        src.use("read")
        sp = src.sp()
        # the value lands after the bump: pop-into-sp wins
        return [f"_sp = {sp}", "_val = read(_sp)",
                f"{sp} = (_sp + 4) & {_M}", f"{src.reg(ops[0].name)} = _val"]
    if m == "leave":
        src.use("read")
        sp = src.sp()
        fp = src.reg(src.abi.frame_pointer)
        return [f"_sp = {fp}", f"{sp} = _sp", "_val = read(_sp)",
                f"{sp} = (_sp + 4) & {_M}", f"{fp} = _val"]
    if m == "int":
        src.use("proc", "dispatch")
        abi = src.abi
        args = ", ".join(src.reg(r) for r in abi.syscall_arg_registers)
        return [f"{src.reg(abi.return_register)} = dispatch(proc, "
                f"{src.reg(abi.syscall_number_register)}, [{args}]) & {_M}"]
    return None


def _emit_data(src: _Source, addr: int, entry: Tuple, meta: Tuple) -> None:
    insn, size, target = entry
    lines = _data_lines(src, insn)
    if insn.mnemonic == "int":
        # handlers may inspect eip (and ProcessExit propagates with
        # it), so park it on the int instruction like the step path
        lines = [f"cpu.eip = {addr}"] + lines
    elif lines is None:
        name = f"_i{addr:x}"
        src.consts[name] = insn
        lines = [f"cpu.eip = {addr}",
                 f"cpu._execute({name}, {addr + size}, {target})"]
    for line in lines:
        src.emit(line, meta)


def _push_return(src: _Source, next_eip: int, meta: Tuple) -> None:
    """The call's push of its return address (eip already advanced, as
    in the step path, so a faulting push reports ``next_eip``)."""
    src.use("write")
    sp = src.sp()
    src.emit(f"_sp = ({sp} - 4) & {_M}; {sp} = _sp; "
             f"write(_sp, {next_eip})", meta)


def _emit_stop(src: _Source, addr: int, entry: Tuple, before: int,
               through: int) -> None:
    """A chain-ending transfer: call, ret, hlt or an indirect/host jmp."""
    insn, size, target = entry
    m = insn.mnemonic
    next_eip = addr + size
    at_insn = (before, addr, through)
    after_advance = (before, next_eip, through)
    in_host = (before, None, through)
    if m == "ret":
        src.use("read")
        sp = src.sp()
        src.emit(f"_sp = {sp}; _r = read(_sp); {sp} = (_sp + 4) & {_M}",
                 at_insn)
        src.emit("if cpu.shadow: cpu.shadow.pop()")
        src.emit(f"if _r == {RETURN_SENTINEL}: cpu.eip = {addr}; "
                 f"raise RunComplete", in_host)
        src.emit("cpu.eip = _r")
        return
    if m == "hlt":
        src.emit(f"raise IllegalInstruction('hlt executed', eip={addr})",
                 at_insn)
        return
    op0 = insn.operands[0]
    dest = "_d"
    if target is not None:
        dest = str(target)
    elif isinstance(op0, Reg):
        src.emit(f"_d = {src.reg(op0.name)}")
    else:
        # resolved per transfer: a front-spliced shim flushes the PLT
        # cache and must win even in already translated code
        src.use("resolve")
        src.emit(f"_d = resolve({addr}, {op0.slot})", at_insn)
    if m == "call":
        _push_return(src, next_eip, after_advance)
        src.emit(f"cpu.shadow.append(Frame({next_eip}, {dest}))")
        if target is not None and target < HOST_REGION_BASE:
            # direct intra-module calls can never land on a host
            src.emit(f"cpu.eip = {dest}")
            return
        src.use("hosts")
        src.emit(f"_h = hosts.get({dest})")
        src.emit(f"if _h is None: cpu.eip = {dest}")
        src.emit("else:")
        src.emit(f"    cpu.eip = {next_eip}; cpu._invoke_host(_h)",
                 in_host)
        return
    # jmp to a register, an import slot or the host region
    src.use("hosts")
    src.emit(f"cpu.eip = {dest}; _h = hosts.get({dest})")
    src.emit("if _h is not None: cpu._invoke_host(_h)", in_host)


# -- chain selection -----------------------------------------------------------


def _control_kind(block: Block, code: Dict[int, Tuple]):
    """Classify a block's ending transfer.

    Returns ``(kind, data)`` where kind is one of:

    * ``"fall"`` — no control op; data = fallthrough address
    * ``"jmp"``  — direct intra-module jump; data = destination
    * ``"cond"`` — conditional (plain or fused); data =
      ``(fused_insn or None, jcc mnemonic, taken, not_taken)``
    * ``"stop"`` — call / ret / hlt / indirect or host jump; the chain
      ends after this block
    """
    if block.ctl_index < 0:
        return "fall", block.fallthrough
    ctl_addr = block.addrs[block.ctl_index]
    insn, size, target = code[ctl_addr]
    m = insn.mnemonic
    if m in ("cmp", "test"):
        # a cmp/test in control position is a fused pair; the jcc is
        # the next decoded instruction
        jinsn, jsize, jtarget = code[ctl_addr + size]
        return "cond", (insn, jinsn.mnemonic, jtarget,
                        ctl_addr + size + jsize)
    if m == "jmp" and target is not None and target < HOST_REGION_BASE:
        return "jmp", target
    if m in JCC_TAKEN:
        return "cond", (None, m, target, ctl_addr + size)
    return "stop", None


def _chain(entry: int, code: Dict[int, Tuple]):
    """The entry block plus its statically predicted successors.

    Returns ``(blocks, looping)``; ``looping`` when the last block
    predicts a return to ``entry``.
    """
    blocks: List[Block] = []
    seen = set()
    addr = entry
    while True:
        block = scan_block(addr, code)
        if block is None:
            break
        blocks.append(block)
        seen.add(addr)
        if len(blocks) >= MAX_LINKED_BLOCKS:
            break
        kind, data = _control_kind(block, code)
        if kind in ("fall", "jmp"):
            nxt = data
        elif kind == "cond":
            _insn, _jcc, taken, not_taken = data
            # static prediction: backward taken (loops), forward not
            branch = block.addrs[block.ctl_index]
            nxt = taken if taken <= branch else not_taken
        else:
            break
        if nxt == entry:
            return blocks, True
        if nxt in seen:
            break
        addr = nxt
    return blocks, False


# -- the translator ------------------------------------------------------------


def translate(entry: int, code: Dict[int, Tuple], abi,
              tls_base: int) -> Optional[Translation]:
    """Compile the block chain entered at ``entry`` (None when the entry
    has no block: the CPU single-steps there)."""
    blocks, looping = _chain(entry, code)
    if not blocks:
        return None
    src = _Source(abi, tls_base)
    src.indent = "        " if looping else "    "
    last = len(blocks) - 1
    prefix = 0          # instructions of this iteration before block j
    for j, block in enumerate(blocks):
        through = prefix + block.count
        ret = f"return consumed + {through}" if looping \
            else f"return {through}"
        if j or looping:
            # never start a block the step budget couldn't finish: the
            # CPU then single-steps so faults land exactly
            done = f"consumed + {prefix}" if looping else str(prefix)
            src.emit(f"if budget <= {through}: cpu.eip = {block.entry}; "
                     f"return {done}")
        src.emit(f"if cov is not None: cov[{block.entry}] = "
                 f"cov.get({block.entry}, 0) + 1")
        for i, addr in enumerate(block.addrs):
            if i != block.ctl_index:
                _emit_data(src, addr, code[addr],
                           (prefix + block.cum[i], addr, through))
        kind, data = _control_kind(block, code)
        is_last = j == last
        nxt = entry if is_last and looping else (
            None if is_last else blocks[j + 1].entry)
        if kind == "stop":
            addr = block.addrs[block.ctl_index]
            _emit_stop(src, addr, code[addr], prefix + block.cum[-1],
                       through)
            src.emit(ret)
        elif kind == "cond":
            insn, jcc, taken, not_taken = data
            if insn is not None:
                z, s = _fused_flags(src, insn)
            else:
                z, s = "cpu.zf", "cpu.sf"
            cond = _JCC_SRC[jcc].format(z=z, s=s)
            if nxt is None:
                src.emit(f"cpu.eip = {taken} if {cond} else {not_taken}")
                src.emit(ret)
            else:
                # leave the chain when the branch goes the other way
                other = not_taken if nxt == taken else taken
                test = cond if other == taken else f"not ({cond})"
                src.emit(f"if {test}: cpu.eip = {other}; {ret}")
        elif nxt is None:          # fall / jmp out of the chain
            src.emit(f"cpu.eip = {data}; {ret}")
        prefix = through
    if looping:
        src.emit(f"budget -= {prefix}; consumed += {prefix}")
    return _compile(entry, blocks, looping, src)


def _fused_flags(src: _Source, insn) -> Tuple[str, str]:
    """Emit a fused ``cmp``/``test`` (register and immediate operands
    only, so it cannot fault) and return its flag locals."""
    if insn.mnemonic == "cmp":
        pre: List[str] = []
        a = src.signed(insn.operands[0], "_x", pre)
        b = src.signed(insn.operands[1], "_y", pre)
        for line in pre:
            src.emit(line)
        src.emit(f"_d = {a} - {b}; _z = _d == 0; _s = _d < 0")
    else:
        src.emit(f"_r = {src.read(insn.operands[0])} & "
                 f"{src.read(insn.operands[1])}; "
                 f"_z = _r == 0; _s = _r >= {_SIGN}")
    src.emit("cpu.zf = _z; cpu.sf = _s")
    return "_z", "_s"


def _compile(entry: int, blocks: List[Block], looping: bool,
             src: _Source) -> Translation:
    lines = ["def block(cpu, budget, cov):"]
    lines += [f"    {_PROLOGUE[name]}" for name in _PROLOGUE
              if name in src.uses]
    if looping:
        lines += ["    consumed = 0", "    while True:"]
    linemap: Dict[int, Tuple] = {}
    for text, meta in src.lines:
        lines.append(text)
        if meta:
            linemap[len(lines)] = meta
    namespace = dict(_GLOBALS)
    namespace.update(src.consts)
    exec(compile("\n".join(lines) + "\n", f"<block:{entry:#x}>", "exec"),
         namespace)
    return Translation(blocks[0].count, namespace["block"], linemap,
                       looping or len(blocks) > 1)
