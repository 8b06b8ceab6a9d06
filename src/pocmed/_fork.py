"""One part of a computation in a forked child while the parent runs
another: ``verify``'s two processes and the bootstrap's split replicate
range both come from :func:`beside`.

A child never forks again (:data:`in_child`): work that would start a
second process runs in the one it is in when that is already a child, so
at most two processes share a run.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal

#: True in a child started by :func:`beside`; set only there, after the
#: fork, so the parent never sees it.
in_child = False


def _child(read_fd: int, write_fd: int, part) -> None:
    """The forked child: send ``(True, part())``, or ``(False, exc)`` for
    what it raised, down ``write_fd``, then leave through ``os._exit``, so
    that no buffer or atexit hook of the parent runs twice."""
    global in_child
    in_child = True
    status = 1
    try:
        os.close(read_fd)
        try:
            outcome = True, part()
        except BaseException as exc:  # sent to the parent, which raises it
            outcome = False, exc
        data = pickle.dumps(outcome)  # if this raises, the parent reads no result
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


@contextlib.contextmanager
def beside(part):
    """Run ``part()`` in a forked child while the ``with`` block runs, and
    yield ``join``: it waits for the child and returns what ``part``
    returned, or raises what it raised.  Leaving the block reaps the
    child, and kills it first unless it was joined.  Where ``os.fork``
    does not exist, ``join`` runs ``part`` in-process."""
    if not hasattr(os, "fork"):
        yield part
        return
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _child(read_fd, write_fd, part)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    joined = False

    def join():
        nonlocal joined
        data = pipe.read()
        joined = True
        if not data:
            raise ChildProcessError("the child process ended without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield join
    finally:
        try:
            if not joined:
                os.kill(pid, signal.SIGKILL)
            pipe.close()
        finally:
            os.waitpid(pid, 0)
