"""Runtime trigger evaluation (§4/§5.1).

Every intercepted call increments the function's call counter and
evaluates its triggers in plan order; the first satisfied trigger
decides the injection.  Stack-trace conditions compare against the
caller's backtrace; target scopes compare against the descriptor the
call operates on; exhaustive triggers rotate their action list across
consecutive firings; random triggers roll the controller's RNG.

Ordering inside :meth:`TriggerEngine._fires` is load-bearing: the scope
predicate runs *before* the probability roll, so plans without scoped
triggers consume the RNG exactly as the pre-action-model engine did —
the differential-equivalence guarantee for ReturnFault-only plans
depends on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..scenario.model import (INJECT_EXHAUSTIVE, INJECT_NTH,
                              INJECT_ORDINALS, INJECT_RANDOM, Action,
                              ArgModification, FunctionTrigger, Plan,
                              ReturnFault)

Frame = Tuple[int, Optional[str]]   # (return address, enclosing function)

#: Call ordinals at or above this value are treated as unreachable: a
#: trigger aimed there provably never fires, so the function's stub
#: jumps straight to the original from attach on.  The snapshot prefix
#: sentinel (``core.exec.snapshot.PREFIX_SENTINEL``) is defined as this
#: value.
NEVER_ORDINAL = 1 << 30

#: Resolves a call's first argument to (path, peer port) for scope
#: predicates; ``None`` when no scoped trigger needs it.
ScopeResolver = Callable[[int], Tuple[Optional[str], Optional[int]]]


@dataclass(frozen=True)
class Decision:
    """Outcome of trigger evaluation for one intercepted call."""

    trigger: FunctionTrigger
    action: Optional[Action]
    calloriginal: bool
    modifications: Tuple[ArgModification, ...]

    @property
    def code(self) -> Optional[ReturnFault]:
        """The legacy (retval, errno) view — None for other actions."""
        return (self.action
                if isinstance(self.action, ReturnFault) else None)

    @property
    def injects_return(self) -> bool:
        return isinstance(self.action, ReturnFault) \
            and not self.calloriginal


def trigger_horizon(trigger: FunctionTrigger) -> Optional[int]:
    """The last call ordinal at which ``trigger`` could still fire, or
    None when no call-count bound exists (random/exhaustive/always)."""
    if trigger.mode == INJECT_NTH:
        return trigger.nth
    if trigger.mode == INJECT_ORDINALS:
        return max(trigger.ordinals) if trigger.ordinals else 0
    return None


class TriggerEngine:
    """Evaluates a plan's triggers against live calls."""

    def __init__(self, plan: Plan, rng: Optional[random.Random] = None) -> None:
        self.plan = plan
        #: the stream random triggers roll (by default seeded from the
        #: plan); None for plans without one, since seeding costs 10-20 µs
        self.rng = rng
        if rng is None and any(t.mode == INJECT_RANDOM
                               for t in plan.triggers):
            self.rng = random.Random(plan.seed)
        self.call_counts: Dict[str, int] = {}
        self._rotation: Dict[int, int] = {}
        self._by_function: Dict[str, List[Tuple[int, FunctionTrigger]]] = {}
        for index, trigger in enumerate(plan.triggers):
            self._by_function.setdefault(trigger.function, []).append(
                (index, trigger))
        self.evaluations = 0
        self.firings = 0
        #: whether any trigger needs a backtrace; callers may skip
        #: building one otherwise (stack walks are the expensive part)
        self.needs_frames = any(t.stacktrace for t in plan.triggers)
        #: whether any trigger inspects live call arguments
        self.needs_args = any(t.argconds or t.scope is not None
                              for t in plan.triggers)
        #: whether any trigger carries a target scope (callers then
        #: supply a descriptor resolver to :meth:`on_call`)
        self.needs_scope = any(t.scope is not None for t in plan.triggers)

    def can_still_fire(self, function: str) -> bool:
        """Whether any trigger on ``function`` could fire on a future
        call, given the calls counted so far.

        The proof is conservative: only call-ordinal exhaustion (an
        nth/ordinals horizon behind the current count) and unreachable
        ordinals (at or past :data:`NEVER_ORDINAL`) count as "never";
        random, exhaustive, scoped and stack-matched triggers are
        assumed live forever.
        """
        count = self.call_counts.get(function, 0)
        for _index, trigger in self._by_function.get(function, ()):
            horizon = trigger_horizon(trigger)
            if horizon is None:
                return True
            if count < horizon < NEVER_ORDINAL:
                return True
        return False

    def on_call(self, function: str, frames: Sequence[Frame],
                args: Sequence[int] = (),
                scope_resolver: Optional[ScopeResolver] = None,
                *, count: Optional[int] = None,
                ) -> Tuple[int, Optional[Decision]]:
        """Record one call; return (call ordinal, decision or None).

        ``count`` is the call's ordinal when the caller counted it (the
        guest stubs do); by default it is one past the recorded count.
        """
        if count is None:
            count = self.call_counts.get(function, 0) + 1
        self.call_counts[function] = count
        for index, trigger in self._by_function.get(function, ()):
            self.evaluations += 1
            if not self._fires(trigger, count, frames, args,
                               scope_resolver):
                continue
            self.firings += 1
            return count, Decision(
                trigger=trigger,
                action=self._select_action(index, trigger),
                calloriginal=trigger.calloriginal,
                modifications=trigger.modifications)
        return count, None

    # -- internals --------------------------------------------------------

    def _fires(self, trigger: FunctionTrigger, count: int,
               frames: Sequence[Frame],
               args: Sequence[int] = (),
               scope_resolver: Optional[ScopeResolver] = None) -> bool:
        if trigger.mode == INJECT_NTH and count != trigger.nth:
            return False
        if trigger.mode == INJECT_ORDINALS \
                and count not in trigger.ordinals:
            return False
        if trigger.scope is not None and not self._scope_matches(
                trigger, args, scope_resolver):
            return False
        if trigger.mode == INJECT_RANDOM \
                and self.rng.random() >= trigger.probability:
            return False
        if trigger.stacktrace and not self._stack_matches(
                trigger, frames):
            return False
        for cond in trigger.argconds:
            if cond.arg_index >= len(args) \
                    or not cond.holds(args[cond.arg_index]):
                return False
        return True

    @staticmethod
    def _scope_matches(trigger: FunctionTrigger, args: Sequence[int],
                       scope_resolver: Optional[ScopeResolver]) -> bool:
        if not args:
            return False
        fd = args[0]
        path: Optional[str] = None
        peer: Optional[int] = None
        if scope_resolver is not None:
            path, peer = scope_resolver(fd)
        return trigger.scope.matches(fd=fd, path=path, peer=peer)

    @staticmethod
    def _stack_matches(trigger: FunctionTrigger,
                       frames: Sequence[Frame]) -> bool:
        if len(trigger.stacktrace) > len(frames):
            return False
        for spec, (addr, name) in zip(trigger.stacktrace, frames):
            if not spec.matches(addr, name):
                return False
        return True

    def _select_action(self, index: int,
                       trigger: FunctionTrigger) -> Optional[Action]:
        if not trigger.actions:
            return None
        if trigger.mode == INJECT_EXHAUSTIVE:
            rotation = self._rotation.get(index, 0)
            self._rotation[index] = rotation + 1
            return trigger.actions[rotation % len(trigger.actions)]
        if trigger.mode == INJECT_RANDOM and len(trigger.actions) > 1:
            return trigger.actions[self.rng.randrange(len(trigger.actions))]
        return trigger.actions[0]
