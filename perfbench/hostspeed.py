"""Host-speed normalization for the benchmark's timings.

The benchmark host is shared: a fixed pure-Python loop takes 24-41 ms
depending on the moment, in phases that last from seconds to minutes,
and the program slows down with it.  A 30-s run cannot average that
out, so every timed op is bracketed by a fixed kernel owned by the
benchmark, and the op's time is scaled by how much slower or faster
than its reference time the kernel ran around it::

    normalized_s = raw_s * KERNEL_REFERENCE_S / kernel_s

The kernel does not call the program, so a change to the program moves
the normalized time exactly as it moves the raw time at equal host
speed.  Raw times are printed beside the normalized ones.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from typing import Any

#: Iterations of :func:`kernel`: about 8 ms of host time.
KERNEL_ITERATIONS = 60_000

#: The kernel's median host time on the reference host (2-vCPU x86-64
#: Linux container, Python 3.11); normalized times are host times at
#: that speed.
KERNEL_REFERENCE_S = 0.0085


def kernel() -> int:
    """Interpreter-bound work of fixed size: integer arithmetic and
    small-dict stores, like the program's per-window bookkeeping."""
    total = 0
    table: dict[int, tuple[int, int]] = {}
    for i in range(KERNEL_ITERATIONS):
        total += i * i % 7
        table[i & 255] = (total, i)
    return total + len(table)


def kernel_s(repeats: int = 1) -> float:
    """Host seconds of one :func:`kernel` run now (median of
    ``repeats`` runs)."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def normalized(raw_s: float, kernel_seconds: float) -> float:
    """``raw_s`` scaled to the reference host's speed, given the kernel
    time measured around it."""
    return raw_s * KERNEL_REFERENCE_S / kernel_seconds


def normalized_across(raw_s: float, kernel_seconds: list[float]) -> float:
    """``raw_s`` of work spread over several CPUs, scaled by their mean
    speed, given kernel times measured on each of them."""
    return raw_s * KERNEL_REFERENCE_S * statistics.fmean(
        1.0 / seconds for seconds in kernel_seconds
    )


def _serve(connection: Any, parent_ends: list[Any]) -> None:
    """Body of a :class:`KernelPool` process: time the kernel whenever
    asked, until asked with ``None`` or the parent's end closes."""
    # Forked with copies of the parent's ends; without closing them the
    # pipe would never report the parent gone.
    for end in parent_ends:
        end.close()
    while True:
        try:
            repeats = connection.recv()
        except EOFError:
            return
        if repeats is None:
            return
        connection.send(kernel_s(repeats))


class KernelPool:
    """Processes that run the kernel at the same moment, one per CPU a
    fanned-out op keeps busy.

    The two CPUs of the reference host do not run at the same speed at
    the same moment, and a single process reads whichever one it is on:
    around a two-worker exhibit pass, single readings jumped between
    7.3 and 13.9 ms while the pass itself held steady.  Use as a context
    manager, which stops and reaps the processes.

    The processes are forked: a spawned one would start multiprocessing's
    resource tracker, a helper process that outlives the benchmark."""

    def __init__(self, processes: int) -> None:
        context = multiprocessing.get_context("fork")
        self._connections: list[Any] = []
        self._processes: list[Any] = []
        for _ in range(processes):
            ours, theirs = context.Pipe()
            process = context.Process(
                target=_serve, args=(theirs, [*self._connections, ours])
            )
            process.start()
            theirs.close()
            self._connections.append(ours)
            self._processes.append(process)

    def kernel_s(self, repeats: int = 1) -> list[float]:
        """Kernel times (each the median of ``repeats`` runs) measured
        at once in every process."""
        for connection in self._connections:
            connection.send(repeats)
        return [connection.recv() for connection in self._connections]

    def __enter__(self) -> "KernelPool":
        return self

    def __exit__(self, *exc: object) -> None:
        for connection in self._connections:
            try:
                connection.send(None)
            except OSError:
                pass
            connection.close()
        for process in self._processes:
            process.join(timeout=30)
            if process.is_alive():
                process.kill()
                process.join()
