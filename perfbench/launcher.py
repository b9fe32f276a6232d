"""Start benchmark jobs from a small process, so that their peak RSS is their own.

Linux carries the resident-size high-water mark of the process that starts a
job into the job's ``ru_maxrss``.  The runner grows as it parses outputs, so
it hands every job to this process, which stays small.

Usage: ``python launcher.py SOCKET_FD``, where SOCKET_FD is a ``SOCK_SEQPACKET``
Unix socket.  Each request is one message: a JSON object ``{"argv": [...],
"timeout": seconds}`` with two or three file descriptors attached, which the
job gets as its stdout, its stderr and (when present) fd 3.  The job runs in
its own process group with stdin from ``/dev/null`` and the launcher's
environment; it is killed with its group at the timeout.  The reply is one
JSON message: ``returncode`` (null when killed), ``start`` and ``end``
(``time.perf_counter``, which is system-wide monotonic on Linux), ``cpu_s``
(user + sys) and ``maxrss_kib``, all from ``os.wait4``.  The launcher exits
when the runner closes the socket.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import sys
import time

SPAN_FD = 3


def _wait(pid: int, deadline: float):
    """Reap the job, killing its process group once past the deadline."""
    killed = False
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            return status, usage, killed
        if not killed and time.perf_counter() > deadline:
            os.killpg(pid, signal.SIGKILL)
            killed = True
        time.sleep(0.0005)


def serve(sock: socket.socket) -> None:
    running: list[int] = []

    def stop(*_):
        for pid in running:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.killpg(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        sys.exit(128 + signal.SIGTERM)

    signal.signal(signal.SIGTERM, stop)
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 16, 3)
        if not msg:
            return
        request = json.loads(msg)
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)]
        actions += [(os.POSIX_SPAWN_DUP2, fd, target) for fd, target in zip(fds, (1, 2, SPAN_FD))]
        start = time.perf_counter()
        try:
            pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ,
                                 file_actions=actions, setpgroup=0)
        finally:
            for fd in fds:
                os.close(fd)
        running.append(pid)
        status, usage, killed = _wait(pid, start + request["timeout"])
        end = time.perf_counter()
        running.clear()
        try:
            sock.send(json.dumps({
                "returncode": None if killed else os.waitstatus_to_exitcode(status),
                "start": start,
                "end": end,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_kib": usage.ru_maxrss,
            }).encode())
        except BrokenPipeError:
            return  # the runner has gone


if __name__ == "__main__":
    fd = int(sys.argv[1])
    os.set_inheritable(fd, False)
    with socket.socket(fileno=fd) as s:
        serve(s)
