"""Deterministic fault injection around any transport.

:class:`FaultyTransport` wraps a :class:`~repro.transport.base.Transport`
and hands every call to it unless a rule keyed by the call's address (and
method) says otherwise.  There is no randomness and no timing: a rule fires
on the calls it matches, in the order they arrive, as often as it was
given.  A call meets the rules in this order:

1. a *one-shot action* (:meth:`FaultyTransport.before`) runs
   ``action(address, method, payload)`` before delivery — a promotion, a
   kill, a reconnect; whatever it raises is what the caller sees;
2. a *partition* (:meth:`~FaultyTransport.partition` until
   :meth:`~FaultyTransport.heal`) refuses every call to the address with
   :class:`~repro.exceptions.EndpointUnreachableError`;
3. a *drop* (:meth:`~FaultyTransport.drop`) refuses the next calls of one
   method the same way, without delivering them;
4. *scripted answers* (:meth:`~FaultyTransport.script`) answer every call
   to the address from a list instead of delivering it;
5. otherwise the call is delivered, and a *lost answer*
   (:meth:`~FaultyTransport.lose_answer`, of the next delivered call or the
   ``nth``) lets it take effect, runs an optional ``then()`` (the node dies
   answering) and raises ``EndpointUnreachableError`` in place of the
   result.

:meth:`~FaultyTransport.record` starts a call log of ``(address, method,
destinations, payload)`` entries, ``destinations`` being how many views the
call's ``into`` carried.  Nothing is logged until it is asked for, so a
long-lived deployment does not grow a list per RPC.

Registration, ``into``, probes with their timeouts and ``close`` pass
through untouched, so a wrapped TCP transport still fills ``get_chunks``
results in place.
"""

from __future__ import annotations

import threading
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from repro.exceptions import EndpointUnreachableError
from repro.transport.base import Endpoint, Transport

#: ``action(address, method, payload)``, run before a call is delivered.
Action = Callable[[str, str, Dict[str, Any]], None]


class Call(NamedTuple):
    """One call as the wrapper saw it (``payload`` excludes ``into``)."""

    address: str
    method: str
    destinations: int
    payload: Dict[str, Any]


class FaultyTransport(Transport):
    """Wraps ``inner`` and applies deterministic per-address fault rules."""

    def __init__(self, inner: Transport) -> None:
        self.inner = inner
        self._lock = threading.Lock()
        self._partitioned: Set[str] = set()
        self._actions: Dict[Tuple[str, str], List[Action]] = {}
        self._drops: Dict[Tuple[str, str], int] = {}
        self._losses: Dict[Tuple[str, str], List[_Loss]] = {}
        self._scripts: Dict[str, List[Any]] = {}
        self._log: Optional[List[Call]] = None

    # -- rules ---------------------------------------------------------------
    def before(self, address: str, method: str, action: Action) -> None:
        """Run ``action`` once, before the next ``method`` call to ``address``."""
        with self._lock:
            self._actions.setdefault((address, method), []).append(action)

    def partition(self, address: str) -> None:
        """Make ``address`` unreachable (it stays registered) until healed."""
        with self._lock:
            self._partitioned.add(address)

    def heal(self, address: str) -> None:
        with self._lock:
            self._partitioned.discard(address)

    def drop(self, address: str, method: str, times: int = 1) -> None:
        """Refuse the next ``times`` ``method`` calls to ``address`` undelivered."""
        with self._lock:
            key = (address, method)
            self._drops[key] = self._drops.get(key, 0) + times

    def lose_answer(self, address: str, method: str,
                    then: Optional[Callable[[], Any]] = None, nth: int = 1) -> None:
        """Deliver the ``nth`` next ``method`` call to ``address``, then lose
        its answer.

        ``then()`` runs between the delivery and the error — the node dies
        answering — so a successor can be in place when the caller retries.
        Calls are counted as they are delivered: one the rules above refuse
        does not count, and the loss strikes the ``nth`` call delivered even
        when concurrent calls return in another order.  An error the call
        raises is lost the same way.
        """
        with self._lock:
            self._losses.setdefault((address, method), []).append(
                _Loss(then, nth - 1))

    def script(self, address: str, answers: Sequence[Any]) -> None:
        """Answer calls to ``address`` from ``answers``, never delivering them.

        Answers are used in order and the last one repeats; an exception
        instance is raised instead of returned.
        """
        with self._lock:
            self._scripts[address] = list(answers)

    def record(self) -> List[Call]:
        """Start a fresh call log and return it; later calls append to it."""
        with self._lock:
            self._log = []
            return self._log

    # -- the call path -------------------------------------------------------
    def call(self, address: str, method: str, /, *,
             into: Optional[Sequence[memoryview]] = None, **payload: Any) -> Any:
        delivered, outcome = self._intercept(address, method, payload, into)
        if not delivered:
            return outcome
        try:
            return self.inner.call(address, method, into=into, **payload)
        finally:
            if outcome is not None:
                self._lose(address, method, outcome)

    def probe(self, address: str, method: str, timeout: "float | None" = None,
              /, **payload: Any) -> Any:
        delivered, outcome = self._intercept(address, method, payload, None)
        if not delivered:
            return outcome
        try:
            return self.inner.probe(address, method, timeout, **payload)
        finally:
            if outcome is not None:
                self._lose(address, method, outcome)

    def _intercept(self, address: str, method: str, payload: Dict[str, Any],
                   into: Optional[Sequence[memoryview]]) -> Tuple[bool, Any]:
        """Apply the pre-delivery rules: raise, ``(False, answer)``, or
        ``(True, loss)`` — deliver, and lose the answer if ``loss`` is set."""
        key = (address, method)
        with self._lock:
            if self._log is not None:
                self._log.append(Call(address, method, len(into or ()), payload))
            action = _pop_first(self._actions, key)
        if action is not None:
            # Outside the lock: an action may itself call through here.
            action(address, method, payload)
        with self._lock:
            if address in self._partitioned:
                raise EndpointUnreachableError(
                    f"endpoint {address!r} is partitioned", endpoint=address)
            if self._drops.get(key):
                self._drops[key] -= 1
                raise EndpointUnreachableError(
                    f"{method} to {address!r} was dropped", endpoint=address)
            answers = self._scripts.get(address)
            if answers is None:
                return True, self._count_delivery(key)
            answer = answers.pop(0) if len(answers) > 1 else answers[0]
        if isinstance(answer, BaseException):
            raise answer
        return False, answer

    def _count_delivery(self, key: Tuple[str, str]) -> Optional["_Loss"]:
        """Count one delivered call against the losses pending on ``key``;
        return the one it strikes (under ``_lock``)."""
        pending = self._losses.get(key)
        if not pending:
            return None
        struck = next((loss for loss in pending if loss.skip == 0), None)
        for loss in pending:
            if loss is not struck and loss.skip > 0:
                loss.skip -= 1
        if struck is not None:
            pending.remove(struck)
            if not pending:
                del self._losses[key]
        return struck

    def _lose(self, address: str, method: str, loss: "_Loss") -> None:
        if loss.then is not None:
            loss.then()
        raise EndpointUnreachableError(
            f"the answer of {method} from {address!r} was lost", endpoint=address)

    # -- everything else passes through -------------------------------------
    def register(self, address: str, endpoint: Endpoint) -> None:
        self.inner.register(address, endpoint)

    def unregister(self, address: str) -> None:
        self.inner.unregister(address)

    def bound_address(self, address: str) -> str:
        return self.inner.bound_address(address)

    def ensure_pool_capacity(self, limit: int) -> None:
        self.inner.ensure_pool_capacity(limit)

    def close(self) -> None:
        self.inner.close()


class _Loss:
    """A pending lost answer: the delivered calls to let through first, and
    what to run when it strikes."""

    __slots__ = ("then", "skip")

    def __init__(self, then: Optional[Callable[[], Any]], skip: int) -> None:
        self.then = then
        self.skip = skip


def _pop_first(table: Dict[Tuple[str, str], list], key: Tuple[str, str]) -> Any:
    """Take the oldest pending entry under ``key`` (None if there is none)."""
    pending = table.get(key)
    if not pending:
        return None
    entry = pending.pop(0)
    if not pending:
        del table[key]
    return entry
