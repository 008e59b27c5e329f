"""Interceptor-stub synthesis (§5.1).

For every function the plan covers, the controller synthesizes a stub
and packages the stubs into a shim library with the same API as the
originals.  Two artifacts are produced:

* the **shim SELF image** actually executed by the VM.  Each stub is
  one straight-line guest block, the compiled form of the paper's stub
  pseudocode::

      add gs:[count_f], 1        ; call_count++
      mov <scratch>, gs:[target_f]
      jmp <scratch>              ; jmp [original_fn_ptr]

  ``count_f`` and ``target_f`` are words in the shim's TLS block (see
  :func:`stub_slots`), so every process counts its own calls, and the
  controller writes ``target_f`` per process:
  ``target_f`` holds the RTLD_NEXT original while the plan provably
  cannot fire for ``f`` (a dormant call never leaves the guest), and
  the controller's per-function host entry while it can (the entry
  evaluates the triggers and either injects or continues at the
  original).  ``<scratch>`` is the ABI's first scratch register, never
  an argument register, so the original sees the caller's arguments;
* the **C source text** the real tool would compile, emitted verbatim as
  a build artifact for inspection and documentation.

The stub bytes depend only on the function list and the machine, so
they are assembled once per ``(functions, machine)`` and shared by
every controller; only the soname is per controller.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

from ...binfmt import SharedObject, Symbol
from ...isa import Imm, Mem, Reg, abi_for, assemble, collect_labels, ins, \
    label
from ...isa.operands import SEGMENT_TLS
from ...platform import Platform
from ...runtime.memory import PAGE_SIZE

SHIM_SONAME = "liblfi_shim.so"

#: TLS offset of the first stub's slots (word 0 is the TCB self-pointer
#: the loader writes into every module's TLS block).
_FIRST_SLOT = 4


def stub_slots(fn_id: int) -> Tuple[int, int, int]:
    """TLS offsets of function ``fn_id``'s call counter, jump target and
    evaluation entry (the host address the controller bound for the
    function in this process, 0 until bound; the stub never reads it)."""
    count = _FIRST_SLOT + 12 * fn_id
    return count, count + 4, count + 8


def synthesize_shim(functions: Sequence[str], platform: Platform,
                    *, soname: str = SHIM_SONAME) -> SharedObject:
    """Build the shim image for ``functions`` (stub ids follow their
    order); see :func:`generate_c_source` for the C artifact."""
    text, exports, tls_size = _assemble_stubs(tuple(functions),
                                              platform.machine)
    return SharedObject(soname=soname, machine=platform.machine, text=text,
                        exports=exports, tls_size=tls_size)


@lru_cache(maxsize=64)
def _assemble_stubs(functions: Tuple[str, ...], machine: str):
    abi = abi_for(machine)
    scratch = Reg(abi.scratch[0])
    items = []
    for fn_id, name in enumerate(functions):
        count, target, _entry = stub_slots(fn_id)
        items += [label(f"__stub_{name}"),
                  ins("add", Mem(disp=count, segment=SEGMENT_TLS), Imm(1)),
                  ins("mov", scratch, Mem(disp=target, segment=SEGMENT_TLS)),
                  ins("jmp", scratch)]
    text = assemble(items, abi)
    addresses = collect_labels(items)
    ordered = sorted((addresses[f"__stub_{name}"], name)
                     for name in functions)
    exports = []
    for i, (offset, name) in enumerate(ordered):
        end = ordered[i + 1][0] if i + 1 < len(ordered) else len(text)
        exports.append(Symbol(name, offset, end - offset))
    # a whole page, so the counters sit on a page the memory fast path
    # can prove mapped
    slots_end = stub_slots(len(functions))[0]
    tls_size = -(-slots_end // PAGE_SIZE) * PAGE_SIZE
    return text, tuple(exports), tls_size


def generate_c_source(functions: Sequence[str],
                      platform: Platform) -> str:
    """The stub source a compiled deployment would build (paper §5.1)."""
    lines = [
        "/* Auto-generated by the LFI controller; do not edit. */",
        "#include <dlfcn.h>",
        '#include "lfi_runtime.h"',
        "",
        f"/* target platform: {platform.name}; interposition via "
        f"{platform.interposition} */",
        "",
    ]
    for name in functions:
        lines += [
            f"int {name}(void) {{",
            "    static void *(*original_fn_ptr)();",
            "    static int call_count;",
            "    call_count++;",
            "    if (!original_fn_ptr)",
            "        original_fn_ptr = (void *(*)())"
            f"dlsym(RTLD_NEXT, \"{name}\");",
            f"    if (eval_trigger(\"{name}\", call_count, call_stack)) {{",
            "        /* determine return_code, side_effects */",
            "        /* apply side_effects */",
            "        return return_code;",
            "    } else {",
            "        /* return stack and registers to orig values */",
            "        __asm__(\"jmp [original_fn_ptr]\");",
            "        /* orig func will return directly to caller */",
            "    }",
            "}",
            "",
        ]
    return "\n".join(lines)
