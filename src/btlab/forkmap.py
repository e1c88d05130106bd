"""``map`` over forked worker processes, with no multiprocessing pool.

The children inherit ``fn`` and ``items`` through the fork, so neither is pickled; only the children's
results, and their exceptions, travel back through pipes.  One worker is the calling process itself: no
fork and no pipe.  POSIX only.
"""

from __future__ import annotations

import contextlib
import os
import pickle


def fork_map(fn, items: list, workers: int) -> list:
    """``list(map(fn, items))`` over ``workers`` forked children.

    With one worker, ``fn`` runs over ``items`` in the calling process, so its exceptions propagate unchanged.
    Otherwise the children take item indices from one pipe.  Each sends its results back once, when the pipe is
    empty, then leaves through ``os._exit``.  A child's exception is raised here with its type and message, a child
    that dies raises RuntimeError, and on every path every child is reaped, killed first if it still runs.
    """
    if workers <= 1:
        return list(map(fn, items))
    queue_r, queue_w = (os.fdopen(fd, mode, buffering=0) for fd, mode in zip(os.pipe(), ("rb", "wb")))
    children = {}  # pid -> the read end of its result pipe
    try:
        for _ in range(workers):
            out_r, out_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    queue_w.close()
                    try:
                        done = {}
                        while record := queue_r.read(4):
                            i = int.from_bytes(record, "little")
                            done[i] = fn(items[i])
                        payload = pickle.dumps(done)
                    except Exception as exc:
                        payload = pickle.dumps(exc)
                    with os.fdopen(out_w, "wb") as out:
                        out.write(payload)
                    code = 0
                finally:
                    os._exit(code)
            os.close(out_w)
            children[pid] = os.fdopen(out_r, "rb")
        queue_r.close()
        with contextlib.suppress(BrokenPipeError):  # every child has died, which the loop below reports
            for i in range(len(items)):
                queue_w.write(i.to_bytes(4, "little"))  # one record per write, under PIPE_BUF, so never split
        queue_w.close()
        results = [None] * len(items)
        for pid in list(children):
            data = children[pid].read()
            status = os.waitpid(pid, 0)[1]
            children.pop(pid).close()
            if status != 0 or not data:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"worker process {pid} died ({f'signal {-code}' if code < 0 else f'exit {code}'})")
            done = pickle.loads(data)
            if isinstance(done, Exception):
                raise done
            for i, value in done.items():
                results[i] = value
        return results
    finally:
        queue_r.close()
        queue_w.close()
        for pid, pipe in children.items():  # only after a failure: every child that returned was reaped above
            from signal import SIGKILL  # imported here, off the common path, since it costs about 1 ms

            os.kill(pid, SIGKILL)  # not yet reaped, so the pid is still this child's, if only as a zombie
            os.waitpid(pid, 0)
            pipe.close()
