"""One part of a computation in a forked child while the parent runs
another: ``verify``'s two processes and the bootstrap's split replicate
range both come from :func:`beside`.

Every child asks the parent for work once its own part is done: it sends
one byte up its result pipe, then reads its task pipe to the end.  The
parent looks for that byte between the items it works through in
:meth:`Child.map`, never waiting for it; at the first one, it hands the
child the back half of the items it has not started, in one blocking
write, and keeps the front half.  A parent that finishes first, or that
only joins, closes the task pipe with nothing in it, so the child's part
alone crosses the result pipe.  The handed items' results, warnings and
error come back as :func:`held` keeps them, and :func:`release` shows and
raises them in the parent.

A child never forks again (:data:`in_child`): :func:`beside` in a child
runs the part in that process, so at most two processes share a run.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import signal
import warnings

#: True in a child started by :func:`beside`; set only there, after the
#: fork, so the parent never sees it.
in_child = False

#: The byte a child sends when its own part is done.  A pickle starts with
#: the PROTO opcode ``0x80``, so the byte is told apart from a result.
_ASK = b"?"

#: Whether the parent's looks between its items wait for the child to ask
#: (or end): no, as it has work of its own.  Waiting makes the handoff
#: come at the first look.
_WAIT_FOR_ASK = False


def held(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the warnings it shows held back:
    ``(shown, result, error)``, where ``error`` is the exception it
    raised, if any."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            result, error = fn(*args, **kwargs), None
        except Exception as exc:  # raised again by release, in serial order
            result, error = None, exc
    shown = [(w.message, w.category, w.filename, w.lineno, w.line) for w in caught]
    return shown, result, error


def release(outcome):
    """Show the warnings of a :func:`held` outcome, then raise its error
    or return its result."""
    shown, result, error = outcome
    for message, category, filename, lineno, line in shown:
        warnings.showwarning(message, category, filename, lineno, line=line)
    if error is not None:
        raise error
    return result


def _dumps(outcome) -> bytes:
    """A :func:`held` outcome, pickled; where it does not pickle, or its
    error does not load back, a ChildProcessError naming the result's
    type, or the error's type and message, takes their place."""
    shown, result, error = outcome
    try:
        data = pickle.dumps(outcome)
        if error is not None:
            pickle.loads(data)  # fails where the class is not rebuilt from its args
        return data
    except Exception:  # any value that pickle refuses
        what = (f"returned a {type(result).__qualname__}" if error is None
                else f"raised {type(error).__qualname__}: {error}")
        failure = ChildProcessError(f"the child process {what}, which cannot be pickled")
        return pickle.dumps((shown, None, failure))


def _part_outcome(part) -> bytes:
    try:
        outcome = (), part(), None
    except BaseException as exc:  # sent to the parent, which raises it
        outcome = (), None, exc
    return _dumps(outcome)


def _map_handed(handed: bytes) -> list:
    """``[fn(item) for item in items]`` for the pickled ``(fn, items)``
    the parent handed over."""
    fn, items = pickle.loads(handed)
    return [fn(item) for item in items]


def _child(result_fd: int, task_fd: int, part) -> None:
    """The forked child: do ``part``, ask for work, and do the slice that
    comes, if any; send their outcomes down ``result_fd``; then leave
    through ``os._exit``, so that no buffer or atexit hook of the parent
    runs twice."""
    global in_child
    in_child = True
    status = 1
    try:
        with os.fdopen(result_fd, "wb") as pipe:
            done = _part_outcome(part)
            os.write(result_fd, _ASK)
            with os.fdopen(task_fd, "rb") as tasks:
                handed = tasks.read()
            if handed:
                done += _dumps(held(_map_handed, handed))
            pipe.write(done)
        status = 0
    finally:
        os._exit(status)


class Child:
    """The parent's end of a child started by :func:`beside`."""

    def __init__(self, pid: int, result_fd: int, task_fd: int):
        self.pid = pid
        self._result_fd = result_fd
        self._task_fd = task_fd      # open until the child's asking is answered
        self._outcomes = None

    def _answer(self, handed: bytes = b"") -> None:
        """Write ``handed`` to the task pipe in one blocking write and close
        it; the child, which reads it to the end after asking, writes
        nothing until then, so the write cannot deadlock."""
        if self._task_fd is not None:
            with contextlib.suppress(BrokenPipeError), open(self._task_fd, "wb") as tasks:
                tasks.write(handed)  # a closed pipe: the child ended, as its result says
            self._task_fd = None

    def _asks(self) -> bool:
        """Whether the child has asked for work, looked up without waiting
        (see :data:`_WAIT_FOR_ASK`); a child that ended is answered."""
        os.set_blocking(self._result_fd, _WAIT_FOR_ASK)
        try:
            asked = os.read(self._result_fd, 1) == _ASK
        except BlockingIOError:
            return False
        finally:
            os.set_blocking(self._result_fd, True)
        if not asked:
            self._answer()
        return asked

    def _read(self, at: int):
        """Release the outcome of the child's part (``at`` 0) or of the
        slice it was handed (1), all read once the child has sent them."""
        self._answer()
        if self._outcomes is None:
            with os.fdopen(self._result_fd, "rb", closefd=False) as pipe:
                data = pipe.read().removeprefix(_ASK)  # unless _asks read it
            stream, self._outcomes = io.BytesIO(data), []
            while stream.tell() < len(data):
                self._outcomes.append(pickle.load(stream))
        if len(self._outcomes) <= at:
            raise ChildProcessError("the child process ended without a result")
        return release(self._outcomes[at])

    def map(self, fn, items) -> list:
        """``[fn(item) for item in items]``, in order.  Before each item,
        while the child has not asked for work, look whether it has; at its
        first asking, the back half of the items not yet started goes to it
        instead.  Its results, the warnings it showed and the exception it
        raised come back as if ``fn`` had run here after the front half."""
        items = list(items)
        results, handed = [], []
        while len(results) < len(items):
            if self._task_fd is not None and self._asks():
                keep = len(results) + (len(items) - len(results) + 1) // 2
                items, handed = items[:keep], items[keep:]
                self._answer(pickle.dumps((fn, handed)) if handed else b"")
            results.append(fn(items[len(results)]))
        self._answer()
        return (results + self._read(1)) if handed else results

    def join(self):
        """Wait for the child and return what its part returned, or raise
        what it raised."""
        return self._read(0)

    def close(self) -> None:
        """Kill and reap the child.  One that was joined has sent all it
        will, and until it is reaped its pid cannot be reused."""
        try:
            os.kill(self.pid, signal.SIGKILL)
            self._answer()
            os.close(self._result_fd)
        finally:
            os.waitpid(self.pid, 0)


class _InProcess:
    """A :class:`Child`'s methods in a process that does not fork: the
    part runs at :meth:`join`, and :meth:`map` does all its items."""

    def __init__(self, part):
        self.join = part

    @staticmethod
    def map(fn, items) -> list:
        return [fn(item) for item in items]


@contextlib.contextmanager
def beside(part):
    """Run ``part()`` in a forked child while the ``with`` block runs, and
    yield its :class:`Child`: ``join()`` waits for the child and returns
    what ``part`` returned, or raises what it raised, and the child takes
    items of the parent's :meth:`Child.map` if it asks before the parent
    has finished them.  Leaving the block kills and reaps the child.  In a
    child (:data:`in_child`), or where ``os.fork`` does not exist,
    ``join`` runs ``part`` in-process and ``map`` maps in order."""
    if in_child or not hasattr(os, "fork"):
        yield _InProcess(part)
        return
    fds = os.pipe() + os.pipe()  # result pipe, then task pipe: (read, write)
    try:
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    if pid == 0:
        os.close(fds[0])
        os.close(fds[3])
        _child(fds[1], fds[2], part)
    os.close(fds[1])
    os.close(fds[2])
    child = Child(pid, fds[0], fds[3])
    try:
        yield child
    finally:
        child.close()
