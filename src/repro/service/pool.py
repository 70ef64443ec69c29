"""Process-pool bridge: real CPU parallelism under the simulated clock.

The sim runtime is single-threaded and deterministic; shard settlement
is CPU-bound.  :class:`SimProcessPool` submits picklable calls to a
``concurrent.futures.ProcessPoolExecutor`` and hands back
:class:`~repro.service.sim_async.SimFuture` bridges a worker coroutine
can await — the settle worker parks, the event loop keeps dispatching,
and :meth:`ReconciliationService.drain` blocks on real completions only
once the loop has nothing left to do.

Determinism note: when several results are ready together they resolve
in **submission order**, and the service folds shards strictly by index,
so the settlement ledger and ``FleetResult`` stay bit-identical to the
inline path whatever the pool size.  The *virtual timestamps* of
individual settlements (and thus service-side latency metrics) may vary
run-to-run — wall-clock completion decides when the loop gets to resume
a parked worker.

The executor is created lazily on first submit, so a service configured
with a pool but fed no shard claims never forks a process.

A dead worker costs a retry, not the run: when the executor breaks
(``BrokenProcessPool``, seen by :meth:`SimProcessPool.submit` or on a
finished handle) the pool builds a fresh executor and resubmits every
in-flight call in submission order.  Each call is retried once; a second
break becomes its bridge's exception, so a call that always kills its
worker cannot loop.  Retrying is safe because every call the service
submits — a shard simulation — is a pure function of its arguments.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from .sim_async import SimFuture


@dataclass
class _Call:
    bridge: SimFuture
    fn: Callable
    args: tuple
    retried: bool = False


def _broken(handle: Future) -> bool:
    return handle.done() and isinstance(handle.exception(), BrokenProcessPool)


class SimProcessPool:
    """Bridge a process pool's futures into SimFutures."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"need at least one pool worker, got {workers}")
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = None
        #: In-flight calls by handle, in submission order.
        self._calls: dict[Future, _Call] = {}

    def submit(self, fn, *args) -> SimFuture:
        """Dispatch ``fn(*args)`` to the pool; returns the awaitable bridge."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        call = _Call(SimFuture(), fn, args)
        try:
            handle = self._executor.submit(fn, *args)
        except BrokenProcessPool:
            self._restart()
            handle = self._executor.submit(fn, *args)
        self._calls[handle] = call
        return call.bridge

    def _restart(self) -> None:
        """Replace the broken executor and resubmit, in submission order,
        every call it had not finished; a call already retried keeps its
        broken handle, which resolves its bridge with the exception."""
        self._executor.shutdown(wait=True)
        self._executor = ProcessPoolExecutor(max_workers=self.workers)
        calls, self._calls = self._calls, {}
        for handle, call in calls.items():
            if call.retried or (handle.done() and not _broken(handle)):
                self._calls[handle] = call
            else:
                call.retried = True
                self._calls[self._executor.submit(call.fn, *call.args)] = call

    def pending(self) -> int:
        """Submissions whose bridge has not resolved yet."""
        return len(self._calls)

    def wait_next(self) -> None:
        """Block until at least one in-flight call finishes, then resolve
        every finished bridge in submission order (waking its awaiter)."""
        if not self._calls:
            return
        wait(list(self._calls), return_when=FIRST_COMPLETED)
        if any(_broken(h) and not c.retried for h, c in self._calls.items()):
            self._restart()
        for handle in [h for h in self._calls if h.done()]:
            bridge = self._calls.pop(handle).bridge
            error = handle.exception()
            if error is not None:
                bridge.set_exception(error)
            else:
                bridge.set_result(handle.result())

    def shutdown(self) -> None:
        """Tear the executor down (idempotent; waits for stragglers)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
