"""Differential testing: compiled guest code vs. a reference interpreter.

Hypothesis generates random MinC functions; each is (a) evaluated by a
direct Python interpreter over the AST and (b) compiled, loaded and run
on the VM.  Any divergence is a bug in the code generator, assembler,
encoder, loader or CPU — this is the deepest correctness net over the
whole substrate stack.

Every VM run happens twice, on the translated path and on the step path
(``Cpu.use_blocks = False``), and the two must agree on the return value,
``eip``, ``instructions_executed``, the register file and the flags.
Loops run up to 40 times, so linked functions close into native loops,
and a ``max_steps`` sweep makes the step budget expire inside them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeFault
from repro.kernel import Kernel
from repro.platform import LINUX_X86, SOLARIS_SPARC
from repro.runtime import Process
from repro.toolchain import LibraryBuilder, minc

MASK = 0xFFFFFFFF


def _sgn(value: int) -> int:
    value &= MASK
    return value - (1 << 32) if value & 0x80000000 else value


# -- reference interpreter ---------------------------------------------------

class _Return(Exception):
    def __init__(self, value: int) -> None:
        self.value = value


def _ref_expr(expr, env: Dict[str, int], params: List[int]) -> int:
    if isinstance(expr, minc.Const):
        return _sgn(expr.value)
    if isinstance(expr, minc.Param):
        return _sgn(params[expr.index])
    if isinstance(expr, minc.Local):
        return _sgn(env[expr.name])
    if isinstance(expr, minc.Neg):
        return _sgn(-_ref_expr(expr.operand, env, params))
    if isinstance(expr, minc.BinOp):
        a = _ref_expr(expr.lhs, env, params)
        b = _ref_expr(expr.rhs, env, params)
        if expr.op == "+":
            return _sgn(a + b)
        if expr.op == "-":
            return _sgn(a - b)
        if expr.op == "*":
            return _sgn(a * b)
        if expr.op == "&":
            return _sgn(a & b)
        if expr.op == "|":
            return _sgn(a | b)
        if expr.op == "^":
            return _sgn(a ^ b)
        if expr.op == "<<":
            return _sgn((a & MASK) << (b & 31))
        return _sgn((a & MASK) >> (b & 31))
    raise NotImplementedError(type(expr))


def _ref_cond(cond: minc.Cond, env, params) -> bool:
    a = _ref_expr(cond.lhs, env, params)
    b = _ref_expr(cond.rhs, env, params)
    return {"==": a == b, "!=": a != b, "<": a < b,
            "<=": a <= b, ">": a > b, ">=": a >= b}[cond.op]


def _ref_stmts(stmts, env, params) -> None:
    for stmt in stmts:
        if isinstance(stmt, minc.Return):
            raise _Return(0 if stmt.value is None
                          else _ref_expr(stmt.value, env, params))
        if isinstance(stmt, minc.Assign):
            env[stmt.name] = _ref_expr(stmt.value, env, params)
        elif isinstance(stmt, minc.If):
            branch = stmt.then if _ref_cond(stmt.cond, env, params) \
                else stmt.orelse
            _ref_stmts(branch, env, params)
        elif isinstance(stmt, minc.While):
            guard = 0
            while _ref_cond(stmt.cond, env, params):
                _ref_stmts(stmt.body, env, params)
                guard += 1
                assert guard < 10_000, "reference interpreter runaway"
        else:
            raise NotImplementedError(type(stmt))


def reference_run(body, params: List[int]) -> int:
    env: Dict[str, int] = {}
    try:
        _ref_stmts(body, env, params)
    except _Return as ret:
        return ret.value
    return 0


# -- program generator -------------------------------------------------------

_SMALL = st.integers(min_value=-500, max_value=500)
_OPS = st.sampled_from(["+", "-", "*", "&", "|", "^"])
_RELS = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])

_LOCALS = ("a", "b", "c")


def _expr(depth: int, defined: tuple):
    leafs = [
        _SMALL.map(minc.Const),
        st.sampled_from([0, 1]).map(minc.Param),
    ]
    if defined:
        leafs.append(st.sampled_from(defined).map(minc.Local))
    leaf = st.one_of(*leafs)
    if depth <= 0:
        return leaf
    sub = _expr(depth - 1, defined)
    return st.one_of(
        leaf,
        st.builds(minc.Neg, sub),
        st.builds(minc.BinOp, _OPS, sub, sub),
    )


def _cond(defined: tuple):
    return st.builds(minc.Cond, _RELS, _expr(1, defined),
                     _expr(1, defined))


@st.composite
def _program(draw):
    stmts: List[minc.Stmt] = []
    defined: tuple = ()
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["assign", "if", "assign", "while"]))
        if kind == "assign":
            name = draw(st.sampled_from(_LOCALS))
            stmts.append(minc.Assign(name, draw(_expr(2, defined))))
            if name not in defined:
                defined = defined + (name,)
        elif kind == "if":
            then = (minc.Assign("a", draw(_expr(1, defined))),)
            orelse = (minc.Assign("a", draw(_expr(1, defined))),)
            stmts.append(minc.If(draw(_cond(defined)), then, orelse))
            if "a" not in defined:
                defined = defined + ("a",)
        else:
            # bounded counting loop, guaranteed to terminate; loop-body
            # assignments do NOT enter `defined` (the loop may run zero
            # times, so reads after it would be uninitialized)
            stmts.append(minc.Assign("c", minc.Const(0)))
            if "c" not in defined:
                defined = defined + ("c",)
            body = (minc.Assign("b", draw(_expr(1, defined))),
                    minc.Assign("c", minc.BinOp("+", minc.Local("c"),
                                                minc.Const(1))))
            stmts.append(minc.While(
                minc.Cond("<", minc.Local("c"),
                          minc.Const(draw(st.integers(0, 40)))), body))
    stmts.append(minc.Return(draw(_expr(2, defined))))
    return tuple(stmts)


def _build(body, platform):
    builder = LibraryBuilder("libdiff.so")
    builder.simple("f", 2, *body)
    return builder.build(platform).image


def _outcome(image, params: List[int], platform, *, use_blocks: bool,
             max_steps: int = 1_000_000):
    """Run ``f`` once on a fresh process; everything an execution path
    could get wrong, in comparable form."""
    proc = Process(Kernel(os_name=platform.os), platform)
    proc.load(image)
    proc.cpu.use_blocks = use_blocks
    try:
        result = proc.libcall("f", *[p & MASK for p in params],
                              max_steps=max_steps)
    except RuntimeFault as exc:
        result = ("budget", str(exc))
    cpu = proc.cpu
    return (result, cpu.eip, cpu.instructions_executed,
            cpu.regs.as_dict(), cpu.zf, cpu.sf)


def _vm_run(body, params: List[int], platform) -> int:
    """The translated path's result, after checking the step path
    agrees with it exactly."""
    image = _build(body, platform)
    fast = _outcome(image, params, platform, use_blocks=True)
    slow = _outcome(image, params, platform, use_blocks=False)
    assert fast == slow
    return fast[0]


@given(body=_program(), p0=_SMALL, p1=_SMALL)
@settings(max_examples=120, deadline=None)
def test_vm_matches_reference_x86(body, p0, p1):
    assert _vm_run(body, [p0, p1], LINUX_X86) == \
        reference_run(body, [p0, p1])


@given(body=_program(), p0=_SMALL, p1=_SMALL)
@settings(max_examples=60, deadline=None)
def test_vm_matches_reference_sparc(body, p0, p1):
    assert _vm_run(body, [p0, p1], SOLARIS_SPARC) == \
        reference_run(body, [p0, p1])


@given(body=_program(), p0=_SMALL, p1=_SMALL,
       platform=st.sampled_from([LINUX_X86, SOLARIS_SPARC]))
@settings(max_examples=40, deadline=None)
def test_budget_sweep_matches_step_path(body, p0, p1, platform):
    """Budgets expiring at every point of a short run, and spread over a
    long one: the translated path must stop on the exact instruction,
    with the exact state, the step path reports."""
    image = _build(body, platform)
    full = _outcome(image, [p0, p1], platform, use_blocks=False)
    total = full[2]
    budgets = set(range(1, min(total, 24) + 2))
    budgets |= {max(1, total * k // 16) for k in range(1, 18)}
    for budget in sorted(budgets):
        fast = _outcome(image, [p0, p1], platform, use_blocks=True,
                        max_steps=budget)
        slow = _outcome(image, [p0, p1], platform, use_blocks=False,
                        max_steps=budget)
        assert fast == slow, f"max_steps={budget}"


@given(body=_program(), p0=_SMALL, p1=_SMALL)
@settings(max_examples=40, deadline=None)
def test_propagation_is_sound_for_constants(body, p0, p1):
    """Whatever the function actually returns at runtime, if it is one
    of the program's literal constants produced by a constant return,
    the profiler must have either found it or marked nothing at all —
    never report a *wrong* constant set that excludes an actually
    returned constant return.

    (Soundness holds only for returns of literal constants; computed
    returns are legitimately absent.)
    """
    from repro.core.profiler import AnalysisContext

    builder = LibraryBuilder("libsound.so")
    builder.simple("f", 2, *body)
    image = builder.build(LINUX_X86).image
    ctx = AnalysisContext(LINUX_X86, {image.soname: image})
    analysis = ctx.analyze_function(image.soname,
                                    image.find_export("f").offset)

    last = body[-1]
    if isinstance(last.value, minc.Const):
        runtime = reference_run(body, [p0, p1])
        if runtime == _sgn(last.value.value):
            assert runtime in analysis.const_values()
