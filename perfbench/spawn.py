"""Start, drain, time and reap one child process.

``run.py`` starts every measured child through ``Spawner``, which hands the
request to this module running as a separate small process
(``python3 -S perfbench/spawn.py``).  On Linux a child's ``ru_maxrss`` starts
at the peak RSS of the process that forked it; the harness holds generated
inputs and decodes outputs, so children it forked itself would report the
harness's peak instead of their own.  This module therefore imports only
what ``execute`` needs, and the helper's peak stays below that of any
Python child it starts.
"""

import collections
import hashlib
import json
import os
import selectors
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
COMMAND_TIMEOUT = 60.0
CPUS = frozenset(os.sched_getaffinity(0))

# Times in seconds, memory in MiB; exit_code is None after a timeout.
Outcome = collections.namedtuple(
    "Outcome", "wall cpu rss_mib first_byte exit_code sha256 stderr timed_out")


def _spin():
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    return time.perf_counter() - start


def fastest_cpu():
    """The CPU of ``CPUS`` that runs a short loop fastest at this moment.

    On a shared host a virtual CPU runs up to about 1.5x slower while its
    physical core also serves other guests, and which of the CPUs is slowed
    changes every few seconds.  The child is started on the faster one.
    """
    speed = {}
    for cpu in sorted(CPUS):
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin() for _ in range(3))
    os.sched_setaffinity(0, CPUS)
    return min(speed, key=speed.get)


def execute(argv, stdin_path=None, timeout=COMMAND_TIMEOUT, stdout_path=None):
    """Run argv, draining its stdout (hashed, and copied to ``stdout_path``) and stderr.

    The child runs in the checkout root with ``PYTHONPATH=src``, started on
    ``fastest_cpu()``.  It is killed at ``timeout`` and reaped with
    ``os.wait4``.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    digest = hashlib.sha256()
    stderr = bytearray()
    first_byte = None
    timed_out = False
    stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
    sink = open(stdout_path, "wb") if stdout_path else None
    cpu = fastest_cpu() if len(CPUS) > 1 else None
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, cwd=ROOT, env=env,
                                preexec_fn=pin)
        if cpu is not None:  # started where it is fast; free to use every CPU from here
            os.sched_setaffinity(proc.pid, CPUS)
        deadline = start + timeout
        pidfd = os.pidfd_open(proc.pid)
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            sel.register(pidfd, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - time.perf_counter()
                if left <= 0:
                    timed_out = True
                    break
                for key, _ in sel.select(left):
                    if key.fileobj is pidfd:  # exited; keep draining the pipes
                        sel.unregister(pidfd)
                        continue
                    data = os.read(key.fd, 1 << 16)
                    if not data:
                        sel.unregister(key.fileobj)
                    elif key.fileobj is proc.stdout:
                        if first_byte is None:
                            first_byte = time.perf_counter() - start
                        digest.update(data)
                        if sink:
                            sink.write(data)
                    else:
                        stderr += data[: max(0, 65536 - len(stderr))]
        if timed_out:
            proc.kill()
        _, status, rusage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    finally:
        if stdin_path:
            stdin.close()
        if sink:
            sink.close()
    return Outcome(
        wall=wall,
        cpu=rusage.ru_utime + rusage.ru_stime,
        rss_mib=rusage.ru_maxrss / 1024,
        first_byte=first_byte,
        exit_code=None if timed_out else proc.returncode,
        sha256=digest.hexdigest(),
        stderr=stderr.decode("utf-8", "replace"),
        timed_out=timed_out,
    )


class Spawner:
    """Client side: runs ``execute`` in the helper process, one call at a time."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", os.path.abspath(__file__)],
                                     cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def __call__(self, argv, stdin_path=None, timeout=COMMAND_TIMEOUT, stdout_path=None):
        request = {"argv": [str(a) for a in argv], "timeout": timeout,
                   "stdin_path": stdin_path and str(stdin_path),
                   "stdout_path": stdout_path and str(stdout_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process exited")
        return Outcome(**json.loads(reply))

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=COMMAND_TIMEOUT)
        self.proc.stdout.close()


def serve():
    """The helper loop: one JSON request per stdin line, one JSON reply each."""
    for line in sys.stdin:
        print(json.dumps(execute(**json.loads(line))._asdict()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve())
