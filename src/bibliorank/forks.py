"""The one fork point: ``fork_shares`` runs indexed jobs over the usable
CPUs, in this process and in children made by ``os.fork``.

The indices are split into shares of near-equal weight, one per process.
A child shares this process's memory copy-on-write and sends its share's
values back through a pipe, by ``marshal``, so they must be plain data;
only a fault is pickled. The result, and the fault raised if any job
fails, are those of one process running the indices in order. This module
knows nothing of what the jobs compute.
"""

from __future__ import annotations

import marshal
import os
import threading
from functools import partial
from operator import itemgetter
from typing import Callable, NoReturn, Sequence, TypeVar

_T = TypeVar("_T")


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _fork_cpus() -> int:
    """How many processes a fork point may keep busy: the usable CPUs, or 1
    while another thread runs, since forking a process that runs threads can
    leave a lock held for ever in the child."""
    return 1 if threading.active_count() > 1 else _usable_cpus()


def _split(weights: Sequence[int], k: int) -> list[list[int]]:
    """The indices of ``weights`` in ``k`` shares of near-equal total weight.

    Heaviest first, each index joins the lightest share (the first of equals).
    Each share lists its indices in ascending order.
    """
    shares: list[list[int]] = [[] for _ in range(k)]
    loads = [0] * k
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        lightest = loads.index(min(loads))
        shares[lightest].append(i)
        loads[lightest] += weights[i]
    return [sorted(share) for share in shares]


def _fork_call(fn: Callable[[], _T]) -> Callable[[], _T]:
    """Start ``fn()`` in a child made by ``os.fork`` and return its waiter,
    to be called once.

    ``wait()`` reaps the child, then returns ``fn``'s value or raises what
    ``fn`` raised; a child that ends without reporting either is a
    RuntimeError naming its wait status. The child shares this process's
    memory copy-on-write and reports through a pipe (``_child``), so the
    value must be plain data that ``marshal`` takes: any other value is
    marshal's ValueError, raised here. Whether to fork at all is
    ``fork_shares``'s decision, its one caller.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _child(fn, read_fd, write_fd)
    os.close(write_fd)

    def wait() -> _T:
        try:
            # Closed before the wait: a child still writing then fails and ends.
            with open(read_fd, "rb") as pipe:
                report = pipe.read()
        finally:
            status = os.waitpid(pid, 0)[1]
        if status != 0 or not report:  # no report, or one cut short
            raise RuntimeError(f"a forked child ended with wait status {status}")
        if report[:1] == _VALUE:
            return marshal.loads(memoryview(report)[1:])
        fault = _pickle_core().loads(memoryview(report)[1:])
        try:
            raise fault
        finally:
            # The traceback holds this frame: no local may hold the fault,
            # or the two would keep each other alive until a full collection.
            del fault

    return wait


_VALUE, _FAULT = b"v", b"f"  # the first byte of a child's report


def _child(fn: Callable[[], object], read_fd: int, write_fd: int) -> NoReturn:
    """Run ``fn`` in a forked child, send its report to ``write_fd`` and end
    the process. Never returns, so the child never unwinds into its caller's
    stack. Exit status 0 means the report was sent whole.

    The report is ``_VALUE`` and ``fn``'s value by ``marshal``, or ``_FAULT``
    and what ``fn`` raised, pickled so that its class and attributes (an
    InputError's ``line``) survive. A value that marshal refuses is sent as
    marshal's ValueError. Marshal writes an object held more than once as a
    back-reference, so the loaders' shared years, ranks and ids stay one
    object each in the receiving process.
    """
    status = 1
    try:
        os.close(read_fd)
        try:
            kind, body = _VALUE, marshal.dumps(fn())
        except Exception as exc:
            kind, body = _FAULT, _pickle_core().dumps(exc, -1)  # -1: the highest protocol
        with open(write_fd, "wb") as pipe:
            pipe.write(kind)
            pipe.write(body)
        status = 0
    finally:
        os._exit(status)


def _pickle_core():
    """The pickle module's C core, imported only to send and receive a
    child's fault. The ``pickle`` module around it adds 0.35 MB to the peak
    RSS of a run."""
    try:
        import _pickle as pickle
    except ImportError:  # a Python without the C core
        import pickle
    return pickle


_Fault = tuple[int, Exception]  # (index, what run(index) raised)


class _ShareFault(Exception):
    """A share's first fault: ``args`` is its ``_Fault``."""


def _run_share(share: Sequence[int], run: Callable[[int], _T]) -> list[_T]:
    """``run(i)`` for each index of ``share`` in order; once one raises,
    ``_ShareFault(i, exception)``."""
    values = []
    for i in share:
        try:
            values.append(run(i))
        except Exception as exc:
            raise _ShareFault(i, exc)
    return values


def fork_shares(weights: Sequence[int], run: Callable[[int], _T]) -> list[_T]:
    """``run(i)`` for each index of ``weights``, in index order, split over
    the processes ``_fork_cpus`` allows: ``_split`` makes one share per
    process (no more than there are indices), the first share runs in this
    process and each other one in a child made by ``_fork_call``, which sends
    back its share's values. The first share holds the heaviest index (the
    lowest of equals), so that index's value never crosses a pipe and need
    not be plain data. Every child is reaped before this function returns
    or raises.

    A share stops at its first fault. If any share failed, every value is
    dropped and the fault of the lowest index is raised, so the error is the
    one a single process running the indices in order would raise.
    """
    shares = _split(weights, max(1, min(_fork_cpus(), len(weights))))
    waits: list[tuple[Sequence[int], Callable[[], list[_T]]]] = []
    by_index: dict[int, _T] = {}
    faults: list[_Fault] = []  # kept until every share has ended

    def collect(share: Sequence[int], values: Callable[[], list[_T]]) -> None:
        try:
            by_index.update(zip(share, values()))
        except _ShareFault as fault:
            faults.append(fault.args)
        except Exception as exc:  # a child that did not report, or sent no plain data
            faults.append((share[0], exc))

    try:
        for share in shares[1:]:
            waits.append((share, _fork_call(partial(_run_share, share, run))))
        collect(shares[0], partial(_run_share, shares[0], run))
    finally:
        for share, wait in waits:
            collect(share, wait)
    if faults:
        by_index.clear()
        first = min(faults, key=itemgetter(0))[1]
        del faults
        try:
            raise first
        finally:
            del first  # as in _fork_call's waiter
    return [by_index[i] for i in range(len(weights))]
