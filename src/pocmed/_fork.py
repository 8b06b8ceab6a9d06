"""One part of a computation in a forked child while the parent runs
another: ``verify``'s two processes and the bootstrap's split replicate
range both come from :func:`beside`.

A child started with ``helps=True`` asks the parent for work once its own
part is done: it sends one byte up its result pipe and waits for a slice
of items or for none.  The parent looks for that byte between the items
it works through in :meth:`Child.map`, never waiting for it; at the first
one, it hands the child the back half of the items it has not started and
keeps the front half.  A parent that finishes first answers none, so the
child's part alone crosses the pipe, as without ``helps``.  The handed
items' results, warnings and error come back as :func:`held` keeps them,
and :func:`release` shows and raises them in the parent.

A child never forks again (:data:`in_child`): work that would start a
second process runs in the one it is in when that is already a child, so
at most two processes share a run.
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

#: The byte a helping child sends when its own part is done.
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
    """A :func:`held` outcome, pickled; where it does not pickle, a
    ChildProcessError naming the result's type, or the error's type and
    message, takes their place."""
    try:
        return pickle.dumps(outcome)
    except Exception:  # any value that pickle refuses
        shown, result, error = outcome
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


def _child(result_fd: int, task_fd: int | None, part) -> None:
    """The forked child: send ``part``'s outcome down ``result_fd``, and
    with a ``task_fd``, first ask for work and add the outcome of the
    slice that comes; then leave through ``os._exit``, so that no buffer
    or atexit hook of the parent runs twice."""
    global in_child
    in_child = True
    status = 1
    try:
        with os.fdopen(result_fd, "wb") as pipe:
            done = _part_outcome(part)
            if task_fd is not None:
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

    def __init__(self, pid: int, result_fd: int, task_fd: int | None):
        self.pid = pid
        self._result_fd = result_fd
        self._task_fd = task_fd      # open until the child's asking is answered
        self._helps = task_fd is not None
        self._asked = False
        self._unsent = memoryview(b"")
        self._handed = False
        self._outcomes = None
        self._joined = False

    def _answer(self) -> None:
        """Stop offering work; the child reads the end of its task pipe."""
        if self._task_fd is not None:
            os.close(self._task_fd)
            self._task_fd = None

    def _send(self, block: bool) -> None:
        """Write what the pipe takes of the handed slice, all of it if
        ``block``; answer once it is written, or once the child has ended."""
        os.set_blocking(self._task_fd, block)
        try:
            while self._unsent:
                self._unsent = self._unsent[os.write(self._task_fd, self._unsent):]
        except BlockingIOError:
            return
        except BrokenPipeError:  # the child ended; reading its result says so
            self._unsent = memoryview(b"")
        self._answer()

    def _asks(self) -> bool:
        """Whether the child has asked for work, looked up without waiting
        (see :data:`_WAIT_FOR_ASK`); a child that ended is answered."""
        os.set_blocking(self._result_fd, _WAIT_FOR_ASK)
        try:
            self._asked = os.read(self._result_fd, 1) == _ASK
        except BlockingIOError:
            return False
        finally:
            os.set_blocking(self._result_fd, True)
        if not self._asked:
            self._answer()
        return self._asked

    def _finish(self) -> None:
        """Send the rest of a handed slice, or answer none."""
        if self._unsent:
            self._send(block=True)
        self._answer()

    def _read(self) -> tuple:
        """The child's outcomes, read once it has sent them all: its part's,
        and the handed slice's if there was one."""
        self._finish()
        if self._outcomes is None:
            with os.fdopen(self._result_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            if self._helps and not self._asked:
                data = data[1:]  # the asking byte, not looked at before
            stream = io.BytesIO(data)
            count = 1 + self._handed if data else 0
            self._outcomes = tuple(pickle.load(stream) for _ in range(count))
        if not self._outcomes:
            raise ChildProcessError("the child process ended without a result")
        return self._outcomes

    def map(self, fn, items) -> list:
        """``[fn(item) for item in items]``, in order.  Before each item,
        while the child has not asked for work, look whether it has; at its
        first asking, the back half of the items not yet started goes to it
        instead.  Its results, the warnings it showed and the exception it
        raised come back as if ``fn`` had run here after the front half."""
        items = list(items)
        results = []
        while len(results) < len(items):
            if self._unsent:
                self._send(block=False)
            elif self._task_fd is not None and not self._asked and self._asks():
                keep = len(results) + (len(items) - len(results) + 1) // 2
                items, handed = items[:keep], items[keep:]
                if handed:
                    self._handed = True
                    self._unsent = memoryview(pickle.dumps((fn, handed)))
                    self._send(block=False)
                else:
                    self._answer()
            results.append(fn(items[len(results)]))
        if not self._handed:
            self._answer()
            return results
        return results + release(self._read()[1])

    def join(self):
        """Wait for the child and return what its part returned, or raise
        what it raised."""
        self._joined = True
        return release(self._read()[0])

    def close(self) -> None:
        """Reap the child, killing it first unless it was joined."""
        try:
            if not self._joined:
                os.kill(self.pid, signal.SIGKILL)
            self._answer()
            os.close(self._result_fd)
        finally:
            os.waitpid(self.pid, 0)


class _InProcess:
    """A :class:`Child`'s methods where ``os.fork`` does not exist: the
    part runs at :meth:`join`, and :meth:`map` does all its items."""

    def __init__(self, part):
        self.join = part

    @staticmethod
    def map(fn, items) -> list:
        return [fn(item) for item in items]


@contextlib.contextmanager
def beside(part, helps: bool = False):
    """Run ``part()`` in a forked child while the ``with`` block runs, and
    yield its :class:`Child`: ``join()`` waits for the child and returns
    what ``part`` returned, or raises what it raised.  With ``helps``, the
    child then takes items of the parent's :meth:`Child.map` if it asks
    before the parent has finished them.  Leaving the block reaps the
    child, and kills it first unless it was joined.  Where ``os.fork``
    does not exist, ``join`` runs ``part`` in-process and ``map`` maps in
    order."""
    if not hasattr(os, "fork"):
        yield _InProcess(part)
        return
    fds = os.pipe() + (os.pipe() if helps else ())
    try:
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    if pid == 0:
        os.close(fds[0])
        if helps:
            os.close(fds[3])
        _child(fds[1], fds[2] if helps else None, part)
    os.close(fds[1])
    if helps:
        os.close(fds[2])
    child = Child(pid, fds[0], fds[3] if helps else None)
    try:
        yield child
    finally:
        child.close()
