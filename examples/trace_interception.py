#!/usr/bin/env python3
"""Watch an injection happen, instruction by instruction.

Attaches the execution tracer to a process under LFI and prints the
exact guest instructions for one intercepted call: the caller's entry
into the synthesized stub (inside liblfi_shim.so), the stub counting
the call and jumping through its target word into the controller's
evaluation entry — and, on the pass-through path, the continuation into
the original libc function.

Run:  python examples/trace_interception.py
"""

from repro import (Controller, Kernel, LINUX_X86, Profiler,
                   build_kernel_image, libc)
from repro.core.scenario import ErrorCode, FunctionTrigger, Plan
from repro.runtime import Tracer


def main() -> None:
    built = libc(LINUX_X86)
    profiler = Profiler(LINUX_X86, {built.image.soname: built.image},
                        build_kernel_image(LINUX_X86))
    profiles = profiler.profile_all()

    plan = Plan()
    plan.add(FunctionTrigger(function="close", mode="nth", nth=2,
                             actions=(ErrorCode(-1, "EBADF"),)))
    lfi = Controller(LINUX_X86, profiles, plan)
    proc = lfi.make_process(Kernel(), [built.image])

    print("=== call 1: trigger does not fire -> pass through ===")
    with Tracer(proc) as trace:
        result = proc.libcall("close", 99)
    print(trace.render())
    print(f"result: {result}  (EBADF from the real kernel)")
    print(f"modules on the path: {' -> '.join(trace.modules_touched())}")

    print("\n=== call 2: trigger fires -> injected, libc never runs ===")
    with Tracer(proc) as trace:
        result = proc.libcall("close", 99)
    print(trace.render())
    print(f"result: {result}, errno={proc.libcall('__errno')} "
          "(injected EBADF)")
    print(f"modules on the path: {' -> '.join(trace.modules_touched())}")
    print("\nnote: on the injected call the trace never enters libc — "
          "the controller entry the stub jumped to set the return value "
          "and side effect and returned straight to the caller (§5.1).")


if __name__ == "__main__":
    main()
