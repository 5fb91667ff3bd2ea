"""Forked children pinned to the CPUs of the affinity mask: the one home of the
fork code, shared by the landscape scan and the training worker.

A child is a fork of its parent, so it holds every table built before the fork
at no cost.  It is pinned to its own CPU, since a scheduler may otherwise keep
it on its parent's, and it talks to the parent through pipes.  It never
returns: it ends in ``os._exit``, after an exception or an interrupt too, so it
runs none of the parent's exit code.
"""

from __future__ import annotations

import contextlib
import os
import sys
from dataclasses import dataclass
from typing import BinaryIO


@dataclass
class Child:
    pid: int
    reader: BinaryIO   # what the child writes
    writer: BinaryIO   # what the child reads


class Children:
    """A context that forks children pinned to CPUs of the affinity mask.

    ``mask`` lists the CPUs of the process's affinity mask when the context is
    made, in order (a platform without affinity masks has one).  From the first
    fork on, the parent is pinned to the first CPU of the mask, and on exit the
    mask is restored.  A child that is not joined when the context exits, which
    happens only after a fault or an interrupt, is killed and reaped.
    """

    def __init__(self):
        self.mask = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
        self.live: list[Child] = []
        self.pinned = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for child in self.live:
            _close(child)
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(child.pid, 9)   # SIGKILL, without importing signal for this path
                os.waitpid(child.pid, 0)
        self.live.clear()
        if self.pinned:
            os.sched_setaffinity(0, self.mask)

    def fork(self, cpu: int, run) -> Child:
        """A child pinned to ``cpu`` that calls ``run(out, inp)`` with the binary
        files of its pipes; it exits 0 if ``run`` returns and 1 (after printing
        the traceback) if it raises."""
        if not self.pinned:
            os.sched_setaffinity(0, self.mask[:1])
            self.pinned = True
        fds = os.pipe() + os.pipe()   # (r, w) up, then (r, w) down
        try:
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                for fd in fds[0::3]:   # the parent's ends
                    os.close(fd)
                os.sched_setaffinity(0, (cpu,))
                with open(fds[1], "wb") as out, open(fds[2], "rb") as inp:
                    run(out, inp)
                code = 0
            except Exception:
                sys.excepthook(*sys.exc_info())   # the traceback, on stderr
                sys.stderr.flush()
            finally:
                os._exit(code)
        for fd in fds[1:3]:   # the child's ends
            os.close(fd)
        child = Child(pid, open(fds[0], "rb"), open(fds[3], "wb"))
        self.live.append(child)
        return child

    def send(self, child: Child, data: bytes, name: str) -> None:
        """Write ``data`` to the child's input; if it has exited, it is reaped
        and ``ChildProcessError`` raised."""
        try:
            child.writer.write(data)
            child.writer.flush()
        except BrokenPipeError:
            self._fail(child, name, len(child.reader.read()))

    def receive(self, child: Child, nbytes: int, name: str) -> bytes:
        """The next ``nbytes`` that ``child`` writes; if it exits first, it is
        reaped and ``ChildProcessError`` raised."""
        data = child.reader.read(nbytes)
        if len(data) != nbytes:
            self._fail(child, name, len(data))
        return data

    def join(self, child: Child, nbytes: int, name: str) -> bytes:
        """Close the child's input, then read what it writes until it exits and
        reap it; ``ChildProcessError`` unless it exited 0 after ``nbytes``."""
        _close(child, reader=False)
        data = child.reader.read()
        code = self._reap(child)
        if code != 0 or len(data) != nbytes:
            raise ChildProcessError(f"{name} exited {code} after sending {len(data)} bytes")
        return data

    def _fail(self, child, name, sent):
        raise ChildProcessError(f"{name} exited {self._reap(child)} after sending {sent} bytes")

    def _reap(self, child) -> int:
        _close(child)
        code = os.waitstatus_to_exitcode(os.waitpid(child.pid, 0)[1])
        self.live.remove(child)
        return code


def _close(child, reader=True):
    if reader:
        child.reader.close()
    with contextlib.suppress(BrokenPipeError):   # input that a dead child left unread
        child.writer.close()
